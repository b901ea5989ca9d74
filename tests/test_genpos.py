import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsymplectic import linalg
from logsymplectic.genpos import (
    GenPosCertificate,
    first_failure_t_general,
    identity_rows,
    is_relative_t_general,
    is_standard_t_general,
    poisson_t_general,
    verify_certificate,
    _scaled_minor,
    _scaled_minors,
)
from logsymplectic.poisson import PoissonStructure, log_matrix
from logsymplectic.ring import LaurentPoly, VarSpec, poly_from_string
from logsymplectic.toric import random_2general_toric

from conftest import EXPLICIT_GRID, poly_det, random_skew_grid, toric_structure

VS = VarSpec(4, 4)


def const_rows(grid, vs=VS):
    return [[LaurentPoly.const(vs, Fraction(x)) for x in row] for row in grid]


def poly_rows(strings, vs=VS):
    return [[poly_from_string(s, vs) for s in row] for row in strings]


def origin_rank_oracle(m_rows, n_rows, t):
    """Independent verdict: a column subset admits a unit t-minor iff the
    columns of the origin-evaluated block matrix have rank t."""
    k = len(m_rows)
    block = [m_rows[i] + n_rows[i] for i in range(k)]
    zero = [0] * block[0][0].var_spec.total_vars
    at_origin = [[p.evaluate(zero) for p in row] for row in block]
    for cols in itertools.combinations(range(2 * k), t):
        sub = [[at_origin[r][c] for c in cols] for r in range(k)]
        if linalg.rank(sub) != t:
            return False
    return True


def lex_scan_oracle(m_rows, n_rows, t):
    """Independent certificate: for each column set, the first row set in
    lexicographic order whose polynomial minor has a nonzero constant term."""
    k = len(m_rows)
    block = [m_rows[i] + n_rows[i] for i in range(k)]
    vs = block[0][0].var_spec
    witnesses, failures = {}, []
    for cols in itertools.combinations(range(2 * k), t):
        label = tuple(c + 1 for c in cols)
        for rows in itertools.combinations(range(k), t):
            sub = [[block[r][c] for c in cols] for r in rows]
            if poly_det(sub, vs).constant_term() != 0:
                witnesses[label] = tuple(r + 1 for r in rows)
                break
        else:
            failures.append(label)
    return GenPosCertificate(
        verdict=not failures,
        t=t,
        column_count=2 * k,
        witnesses=witnesses,
        failures=tuple(failures),
    )


def _laplace_minors(grid):
    """``minor(rows, cols)``: the determinant of a rational grid restricted to
    the given distinct rows and columns, each taken in increasing order; a
    minor is its ``_scaled_minor`` over the scales of its rows."""
    ints, scales = _scaled_minors(grid)
    memo: dict = {}

    def minor(rows, cols) -> Fraction:
        rows, cols = set(rows), set(cols)
        if len(rows) != len(cols):
            raise ValueError("a minor needs as many rows as columns")
        value = _scaled_minor(ints, memo, sum(1 << r for r in rows), sum(1 << c for c in cols))
        return Fraction(value, math.prod(scales[r] for r in rows))

    return minor


def from_scratch_reference(m_rows, n_rows, t):
    """The verdict without shared prefixes: one ``_eliminate`` of every
    column set of [M(0) | N(0)] from scratch, in lexicographic order."""
    k = len(m_rows)
    block = [m_rows[i] + n_rows[i] for i in range(k)]
    columns = [
        {r: row[j].constant_term() for r, row in enumerate(block)} for j in range(2 * k)
    ]
    witnesses, failures = {}, []
    for cols0 in itertools.combinations(range(2 * k), t):
        cols = tuple(c + 1 for c in cols0)
        pivots = linalg._eliminate(columns[c] for c in cols0)
        if len(pivots) == t:
            witnesses[cols] = tuple(sorted(r + 1 for r in pivots))
        else:
            failures.append(cols)
    return GenPosCertificate(
        verdict=not failures,
        t=t,
        column_count=2 * k,
        witnesses=witnesses,
        failures=tuple(failures),
    )


def random_local_rows(rng, vs, k):
    """A k x k pole-free matrix: sparse constant terms plus a degree-1 term."""
    nvars = vs.total_vars
    rows = []
    for _ in range(k):
        row = []
        for _ in range(k):
            terms = {(0,) * nvars: Fraction(rng.choice([0, 0, 1, -1, 2]))}
            bump = [0] * nvars
            bump[rng.randrange(nvars)] = 1
            terms[tuple(bump)] = Fraction(rng.randint(-2, 2))
            row.append(LaurentPoly(vs, terms))
        rows.append(row)
    return rows


TWO_BY_TWO = [[0, 1], [-1, 0]]
VS2 = VarSpec(2, 2)


class TestRelative:
    def test_repeated_column_fails(self):
        ident = identity_rows(VS2, 2)
        cert = is_relative_t_general(ident, ident, 2)
        assert not cert.verdict
        assert cert.first_failure is not None

    def test_single_columns_nonzero(self):
        cert = is_relative_t_general(const_rows(TWO_BY_TWO, VS2), identity_rows(VS2, 2), 1)
        assert cert.verdict
        assert len(cert.witnesses) == 4

    def test_parallel_columns_fail_t2(self):
        cert = is_relative_t_general(const_rows(TWO_BY_TWO, VS2), identity_rows(VS2, 2), 2)
        assert not cert.verdict
        # column 1 of M is (0,-1), column 4 is e_2: rank 1 together
        assert (1, 4) in cert.failures

    def test_t_out_of_range(self):
        rows = const_rows(TWO_BY_TWO, VS2)
        with pytest.raises(ValueError):
            is_relative_t_general(rows, rows, 0)
        with pytest.raises(ValueError):
            is_relative_t_general(rows, rows, 3)
        # True == 1 and 2.0 == 2 to Python; neither is read as t
        for t in (True, 2.0):
            with pytest.raises(TypeError, match=f"not {type(t).__name__}"):
                is_relative_t_general(rows, rows, t)

    def test_pole_rejected(self):
        rows = poly_rows([["x1^-1", "0"], ["0", "1"]], VS2)
        with pytest.raises(ValueError):
            is_relative_t_general(rows, identity_rows(VS2, 2), 1)

    def test_matches_origin_rank_oracle(self, rng):
        for _ in range(10):
            k = rng.choice([2, 3])
            vs = VarSpec(4, 2)
            m_rows = [
                [
                    LaurentPoly(
                        vs,
                        {
                            tuple(
                                rng.randint(0, 1) for _ in range(4)
                            ): Fraction(rng.randint(-3, 3))
                        },
                    )
                    for _ in range(k)
                ]
                for _ in range(k)
            ]
            n_rows = identity_rows(vs, k)
            for t in range(1, k + 1):
                cert = is_relative_t_general(m_rows, n_rows, t)
                assert cert.verdict == origin_rank_oracle(m_rows, n_rows, t)
                assert verify_certificate(m_rows, n_rows, cert)


class TestStandard:
    def test_explicit_matrix_t2(self):
        cert = is_standard_t_general(const_rows(EXPLICIT_GRID), 2)
        assert cert.verdict
        assert verify_certificate(
            const_rows(EXPLICIT_GRID), identity_rows(VS, 4), cert
        )

    def test_skew_never_full_general(self, rng):
        for _ in range(6):
            grid = random_skew_grid(rng, 4)
            cert = is_standard_t_general(const_rows(grid), 4)
            assert not cert.verdict
            assert verify_certificate(const_rows(grid), identity_rows(VS, 4), cert)

    def test_generic_three_general(self):
        rng = random.Random(424)
        hits = 0
        for _ in range(5):
            grid = random_skew_grid(rng, 4)
            cert = is_standard_t_general(const_rows(grid), 3)
            assert verify_certificate(const_rows(grid), identity_rows(VS, 4), cert)
            hits += cert.verdict
        assert hits >= 4

    @pytest.mark.parametrize("shape", [[], [[]], [[], [1]], [[1, 0], [0]]])
    def test_malformed_matrix_rejected(self, shape):
        # an M without entries, or a ragged one, is malformed input
        rows = [[LaurentPoly.const(VS, x) for x in row] for row in shape]
        with pytest.raises(ValueError):
            is_standard_t_general(rows, 1)

    def test_monotone_in_t(self, rng):
        # a unit t-minor restricts to a unit minor on any smaller column set
        for size in (4, 6):
            vs = VarSpec(size, size // 2)
            for _ in range(4):
                rows = [
                    [
                        LaurentPoly(
                            vs,
                            {
                                tuple(0 for _ in range(size)): Fraction(rng.randint(-2, 2)),
                                tuple(
                                    1 if p == rng.randrange(size) else 0
                                    for p in range(size)
                                ): Fraction(rng.randint(-2, 2)),
                            },
                        )
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
                verdicts = [
                    is_standard_t_general(rows, t).verdict for t in range(1, 4)
                ]
                for small, big in zip(verdicts, verdicts[1:]):
                    assert small or not big


class TestPoissonWiring:
    def test_explicit_structure(self, explicit_toric):
        assert poisson_t_general(explicit_toric, 2).verdict
        assert not poisson_t_general(explicit_toric, 4).verdict

    def test_block_diagonal_fails_t3(self):
        grid = [
            [0, 2, 0, 0],
            [-2, 0, 0, 0],
            [0, 0, 0, 3],
            [0, 0, -3, 0],
        ]
        cert = poisson_t_general(toric_structure(grid), 3)
        assert not cert.verdict
        a = log_matrix(toric_structure(grid))
        assert verify_certificate(a, identity_rows(VS, 4), cert)

    def test_zero_column_fails_t1(self):
        grid = [
            [0, 0, 0, 0],
            [0, 0, 1, 2],
            [0, -1, 0, 3],
            [0, -2, -3, 0],
        ]
        cert = poisson_t_general(toric_structure(grid), 1)
        assert not cert.verdict

    def test_log_matrix_error_propagates(self):
        from logsymplectic.exterior import MultiVector, coordinate_frame
        from logsymplectic.poisson import PoissonStructure

        vs = VarSpec(2, 1)
        p = PoissonStructure(
            vs,
            MultiVector(coordinate_frame(vs), 2, {(1, 2): LaurentPoly.const(vs, 1)}),
        )
        with pytest.raises(ValueError):
            poisson_t_general(p, 1)


class TestCertificates:
    @staticmethod
    def three_failures():
        """M = I + (-1 at (1, 4)): at t = 2, column i of M equals e_i, column
        4 + i, for i = 1, 2, 3, and every other pair of columns passes."""
        rows = const_rows([[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        ident = identity_rows(VS, 4)
        cert = is_relative_t_general(rows, ident, 2)
        assert cert.failures == ((1, 5), (2, 6), (3, 7))
        assert verify_certificate(rows, ident, cert)
        return rows, ident, cert

    def test_tampered_witness_detected(self):
        rows = const_rows(EXPLICIT_GRID)
        ident = identity_rows(VS, 4)
        cert = is_standard_t_general(rows, 2)
        assert verify_certificate(rows, ident, cert)
        # columns (1, 5) on rows (2, 3): minor [[-1, 0], [-2, 0]] vanishes
        bad = GenPosCertificate(
            verdict=cert.verdict,
            t=cert.t,
            column_count=cert.column_count,
            witnesses={**cert.witnesses, (1, 5): (2, 3)},
            failures=cert.failures,
        )
        assert not verify_certificate(rows, ident, bad)

    def test_fabricated_failure_detected(self):
        rows = const_rows(EXPLICIT_GRID)
        ident = identity_rows(VS, 4)
        cert = is_standard_t_general(rows, 2)
        bad = GenPosCertificate(
            verdict=False,
            t=2,
            column_count=8,
            witnesses={k: v for k, v in cert.witnesses.items() if k != (1, 2)},
            failures=((1, 2),) + cert.failures,
        )
        assert not verify_certificate(rows, ident, bad)

    @pytest.mark.parametrize("order", ["repeated", "swapped"])
    def test_failure_order_checked(self, order):
        rows, ident, cert = self.three_failures()
        failures = {
            "repeated": (cert.failures[0],) + cert.failures,
            "swapped": (cert.failures[1], cert.failures[0]) + cert.failures[2:],
        }[order]
        forged = GenPosCertificate(
            verdict=False, t=2, column_count=8, witnesses=cert.witnesses, failures=failures
        )
        assert verify_certificate(rows, ident, forged) is False

    def test_dropped_failure_rejected(self):
        rows, ident, cert = self.three_failures()
        for i in range(len(cert.failures)):
            forged = GenPosCertificate(
                verdict=False,
                t=2,
                column_count=8,
                witnesses=cert.witnesses,
                failures=cert.failures[:i] + cert.failures[i + 1:],
            )
            assert verify_certificate(rows, ident, forged) is False

    @pytest.mark.parametrize(
        "cols, witness",
        [
            # one row: the "determinant" of the 1 x 2 slice is its first entry
            pytest.param((1, 2), (1,), id="too_short"),
            pytest.param((1, 2), (1, 1, 2), id="too_long"),
            pytest.param((3, 4), (2, 1), id="not_increasing"),
            pytest.param((1, 3), (0, 1), id="row_below_1"),
            pytest.param((1, 3), (1, 3), id="row_above_k"),
        ],
    )
    def test_malformed_witness_rejected(self, cols, witness):
        rows = const_rows([[1, 1], [1, 1]], VS2)
        ident = identity_rows(VS2, 2)
        cert = is_relative_t_general(rows, ident, 2)
        assert cert.failures == ((1, 2),)
        assert verify_certificate(rows, ident, cert)
        failures = tuple(f for f in cert.failures if f != cols)
        forged = GenPosCertificate(
            verdict=not failures,
            t=2,
            column_count=4,
            witnesses={**cert.witnesses, cols: witness},
            failures=failures,
        )
        assert verify_certificate(rows, ident, forged) is False

    @pytest.mark.parametrize(
        "t, witnesses",
        [(-1, {}), (0, {(): ()}), (5, {})],
        ids=["t_negative", "t_zero", "t_past_2k"],
    )
    def test_t_out_of_range_rejected(self, t, witnesses):
        rows = const_rows(TWO_BY_TWO, VS2)
        forged = GenPosCertificate(
            verdict=True, t=t, column_count=4, witnesses=witnesses, failures=()
        )
        assert not verify_certificate(rows, identity_rows(VS2, 2), forged)

    @pytest.mark.parametrize(
        "field, value",
        [("t", True), ("column_count", 8.0), ("verdict", 1), ("complete", 1),
         ("witnesses", None), ("failures", None)],
        ids=["t_bool", "column_count_float", "verdict_int", "complete_int",
             "witnesses_none", "failures_none"],
    )
    def test_mistyped_field_rejected(self, field, value):
        # the first four equal their true values to Python (True == 1, 8.0 ==
        # 8, 1 == True), and are refused as the kit's readers of ints refuse
        # them; a witnesses or failures of None is refused, not a TypeError
        path = Path(__file__).resolve().parent.parent / "fixtures" / "toric_structure.json"
        p = PoissonStructure.from_json(json.loads(path.read_text()))
        a, ident = log_matrix(p), identity_rows(p.var_spec, 4)
        cert = poisson_t_general(p, 1)
        assert (cert.t, cert.column_count, cert.verdict) == (1, 8, True)
        assert verify_certificate(a, ident, cert)
        assert not verify_certificate(a, ident, dataclasses.replace(cert, **{field: value}))

    def test_wrong_column_count_rejected(self):
        rows = const_rows(EXPLICIT_GRID)
        ident = identity_rows(VS, 4)
        cert = is_standard_t_general(rows, 2)
        bad = GenPosCertificate(
            verdict=cert.verdict,
            t=cert.t,
            column_count=9,
            witnesses=cert.witnesses,
            failures=cert.failures,
        )
        assert not verify_certificate(rows, ident, bad)

    def test_pole_rejected(self):
        # the minor x1^-1 * x1 of columns (1, 2) has constant term 1, but
        # x1^-1 is no element of the local ring
        m_rows = poly_rows([["x1^-1", "0"], ["0", "x1"]], VS2)
        ident = identity_rows(VS2, 2)
        with pytest.raises(ValueError):
            is_relative_t_general(m_rows, ident, 2)
        forged = GenPosCertificate(
            verdict=False,
            t=2,
            column_count=4,
            witnesses={(1, 2): (1, 2), (3, 4): (1, 2)},
            failures=((1, 3), (1, 4), (2, 3), (2, 4)),
        )
        assert verify_certificate(m_rows, ident, forged) is False

    def test_pole_beside_a_unit_rejected(self):
        # M(0) is the identity, so the constant terms alone would pass
        m_rows = poly_rows([["1+x1^-1", "0"], ["0", "1"]], VS2)
        ident = identity_rows(VS2, 2)
        cert = is_relative_t_general(ident, ident, 2)
        assert verify_certificate(ident, ident, cert)
        assert verify_certificate(m_rows, ident, cert) is False

    def test_mixed_var_specs_rejected(self):
        rows = const_rows(TWO_BY_TWO, VS2)
        cert = is_relative_t_general(rows, identity_rows(VS2, 2), 2)
        foreign = identity_rows(VarSpec(2, 1), 2)
        assert verify_certificate(rows, foreign, cert) is False

    @pytest.mark.parametrize(
        "shape",
        ["n_missing_row", "n_short_rows", "m_long_row", "empty"],
    )
    def test_not_square_rejected(self, shape):
        rows = const_rows(TWO_BY_TWO, VS2)
        ident = identity_rows(VS2, 2)
        cert = is_relative_t_general(rows, ident, 2)
        zero = LaurentPoly.zero(VS2)
        m_rows, n_rows = {
            "n_missing_row": (rows, ident[:1]),
            "n_short_rows": (rows, [row[:1] for row in ident]),
            "m_long_row": ([rows[0] + [zero], rows[1]], ident),
            "empty": ([], []),
        }[shape]
        assert verify_certificate(m_rows, n_rows, cert) is False

    @pytest.mark.parametrize("case", ["witness_rows_int", "witness_key_int", "failure_int"])
    def test_non_tuple_entries_rejected_without_raising(self, case):
        rng = random.Random(1)
        m_rows = log_matrix(random_2general_toric(rng, 2).structure)
        ident = identity_rows(VS, 4)
        cert = is_relative_t_general(m_rows, ident, 2)
        assert cert.verdict and verify_certificate(m_rows, ident, cert)
        first = next(iter(cert.witnesses))
        forged = {
            "witness_rows_int": dataclasses.replace(cert, witnesses={**cert.witnesses, first: 3}),
            "witness_key_int": dataclasses.replace(cert, witnesses={**cert.witnesses, 7: (1, 2)}),
            "failure_int": dataclasses.replace(cert, failures=(5,)),
        }[case]
        assert verify_certificate(m_rows, ident, forged) is False

    @pytest.mark.parametrize("case", ["witness_rows", "witness_columns", "failure"])
    def test_bool_label_rejected(self, case):
        # True == 1 and hashes as 1, so a label True equals the true label 1
        if case == "failure":
            rows, ident, cert = self.three_failures()
            assert cert.failures[0] == (1, 5)
            forged = dataclasses.replace(cert, failures=((True, 5), *cert.failures[1:]))
        else:
            path = Path(__file__).resolve().parent.parent / "fixtures" / "toric_structure.json"
            p = PoissonStructure.from_json(json.loads(path.read_text()))
            rows, ident = log_matrix(p), identity_rows(p.var_spec, 4)
            cert = poisson_t_general(p, 2)
            assert cert.verdict and cert.witnesses[(1, 2)][0] == 1
            if case == "witness_rows":
                witnesses = {**cert.witnesses, (1, 2): (True, *cert.witnesses[(1, 2)][1:])}
            else:
                # built afresh: updating the dict would keep its key (1, 2)
                witnesses = {((True, 2) if c == (1, 2) else c): r for c, r in cert.witnesses.items()}
            forged = dataclasses.replace(cert, witnesses=witnesses)
        assert verify_certificate(rows, ident, cert)
        assert forged == cert
        assert verify_certificate(rows, ident, forged) is False

    def test_serialize_shape(self):
        cert = is_standard_t_general(const_rows(EXPLICIT_GRID), 2)
        doc = cert.serialize()
        assert doc["verdict"] is True
        assert doc["t"] == 2
        assert doc["column_count"] == 8
        assert len(doc["witnesses"]) == 28
        assert doc["failures"] == []


class TestLexScanEquality:
    """The elimination route writes the same certificates as the polynomial
    lexicographic scan of row sets, and its walk over shared prefixes the
    same as eliminating every column set from scratch."""

    def test_random_local_pairs(self, rng):
        vs = VarSpec(4, 2)
        for _ in range(12):
            k = rng.choice([2, 3, 4])
            m_rows = random_local_rows(rng, vs, k)
            n_rows = random_local_rows(rng, vs, k)
            for t in range(1, k + 1):
                cert = is_relative_t_general(m_rows, n_rows, t)
                oracle = lex_scan_oracle(m_rows, n_rows, t)
                assert cert.serialize() == oracle.serialize()
                reference = from_scratch_reference(m_rows, n_rows, t)
                assert cert.serialize() == reference.serialize()

    def test_toric_full_t(self):
        grid = random_skew_grid(random.Random(6), 6)
        a = log_matrix(toric_structure(grid))
        ident = identity_rows(a.rows[0][0].var_spec, 6)
        cert = is_relative_t_general(a, ident, 6)
        assert cert.failures
        oracle = lex_scan_oracle([list(row) for row in a.rows], ident, 6)
        assert cert.serialize() == oracle.serialize()


def toric_rows(size, seed):
    """The log matrix of a seeded invariant structure, with the identity."""
    a = log_matrix(toric_structure(random_skew_grid(random.Random(seed), size)))
    return [list(row) for row in a.rows], identity_rows(a.rows[0][0].var_spec, size)


class TestPrefixSharedWalk:
    """At 2n = 8, where the polynomial scan is too slow, the walk is checked
    against eliminating every column set from scratch."""

    @pytest.mark.parametrize("t", [3, 8])
    def test_toric_2n8(self, t):
        m_rows, ident = toric_rows(8, 11)
        cert = is_relative_t_general(m_rows, ident, t)
        assert cert.serialize() == from_scratch_reference(m_rows, ident, t).serialize()
        assert verify_certificate(m_rows, ident, cert)


def assert_walk_matches_reference(m_rows, n_rows, t):
    """Both certificates of the walk against eliminating every column set
    from scratch, witnesses in insertion order: the complete one equal to
    the reference, the truncated one its prefix through the first failure."""
    ref = from_scratch_reference(m_rows, n_rows, t)
    full = is_relative_t_general(m_rows, n_rows, t)
    assert list(full.witnesses.items()) == list(ref.witnesses.items())
    assert full.failures == ref.failures and full.verdict == ref.verdict
    cert = first_failure_t_general(m_rows, n_rows, t)
    stop = ref.failures[:1]
    before = [(c, r) for c, r in ref.witnesses.items() if not stop or c < stop[0]]
    assert list(cert.witnesses.items()) == before and cert.failures == stop
    assert cert.verdict == origin_rank_oracle(m_rows, n_rows, t)
    assert verify_certificate(m_rows, n_rows, full) and verify_certificate(m_rows, n_rows, cert)
    return full


class TestLeafWalk:
    """The walk clears each later column of a prefix's new pivot once, and
    reads the leaves' pivot rows without clearing: no ``linalg._clear`` at
    t <= 2, at most one per pair of columns at t = 3, and the same
    certificates as eliminating every column set from scratch."""

    @staticmethod
    def clears(monkeypatch, m_rows, n_rows, t):
        """The number of ``linalg._clear`` calls in the complete walk."""
        calls = []
        clear = linalg._clear
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_clear", lambda *args: calls.append(1) or clear(*args))
            is_relative_t_general(m_rows, n_rows, t)
        return len(calls)

    def test_clear_calls(self, monkeypatch):
        m_rows, ident = toric_rows(8, 11)
        for t in (1, 2, 3):
            assert_walk_matches_reference(m_rows, ident, t)
        assert self.clears(monkeypatch, m_rows, ident, 1) == 0
        assert self.clears(monkeypatch, m_rows, ident, 2) == 0
        assert 0 < self.clears(monkeypatch, m_rows, ident, 3) <= math.comb(16, 2)

    def test_dependent_only_at_the_leaf(self, monkeypatch):
        # column 3 = column 1 + column 2 in a fractional M(0), N not the
        # identity: (1, 3) and (2, 3) pass, and (1, 2, 3) fails at its leaf
        m_rows = const_rows([["1/2", 0, "1/2"], [0, "1/3", "1/3"], [1, 1, 2]], VS)
        n_rows = const_rows([[2, 1, 0], [0, "1/2", 1], [1, 0, 1]], VS)
        assert assert_walk_matches_reference(m_rows, n_rows, 2).verdict
        assert self.clears(monkeypatch, m_rows, n_rows, 2) == 0
        cert = assert_walk_matches_reference(m_rows, n_rows, 3)
        assert cert.failures[0] == (1, 2, 3)

    def test_random_pairs(self, rng):
        # fractional M(0) and N with zeros drawn often, so that columns
        # vanish at every depth and leaves fail with and without clearing
        entries = [0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 3]
        for _ in range(30):
            k = rng.choice([2, 3, 4, 5])
            m_rows, n_rows = (
                const_rows([[rng.choice(entries) for _ in range(k)] for _ in range(k)])
                for _ in range(2)
            )
            for t in range(1, k + 1):
                assert_walk_matches_reference(m_rows, n_rows, t)


def assert_truncated_prefix(m_rows, n_rows, t):
    """The first-failure certificate against the complete one: same verdict,
    the complete one's first failure, and its witnesses before that
    failure; a true verdict keeps the whole complete certificate."""
    full = is_relative_t_general(m_rows, n_rows, t)
    cert = first_failure_t_general(m_rows, n_rows, t)
    assert cert.verdict == full.verdict
    if full.verdict:
        assert cert.complete and cert.serialize() == full.serialize()
    else:
        first = full.failures[0]
        assert not cert.complete
        assert cert.failures == (first,)
        assert cert.witnesses == {c: r for c, r in full.witnesses.items() if c < first}
    assert verify_certificate(m_rows, n_rows, cert)
    return cert


class TestFirstFailure:
    """``first_failure_t_general`` writes a lexicographic prefix of the
    complete certificate, and the check accepts nothing else as truncated."""

    @pytest.mark.parametrize("size, seed", [(4, 3), (4, 21), (6, 4), (8, 11)])
    def test_toric_grids(self, size, seed):
        m_rows, ident = toric_rows(size, seed)
        certs = [assert_truncated_prefix(m_rows, ident, t) for t in (1, 2, 3, size)]
        assert not certs[-1].verdict
        # the first failure at t = 2n: columns 1..2n-1 of A with e_2n
        assert certs[-1].failures == (tuple(range(1, size)) + (2 * size,),)

    def test_block_diagonal_fails_t3(self):
        grid = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
        a = log_matrix(toric_structure(grid))
        cert = assert_truncated_prefix([list(row) for row in a.rows], identity_rows(VS, 4), 3)
        assert not cert.verdict

    def test_random_local_pairs(self, rng):
        vs = VarSpec(4, 2)
        falses = 0
        for _ in range(12):
            k = rng.choice([2, 3, 4])
            m_rows = random_local_rows(rng, vs, k)
            n_rows = random_local_rows(rng, vs, k)
            for t in range(1, k + 1):
                falses += not assert_truncated_prefix(m_rows, n_rows, t).verdict
        assert falses

    @staticmethod
    def truncated():
        m_rows, ident = toric_rows(4, 3)
        cert = first_failure_t_general(m_rows, ident, 4)
        assert not cert.complete and verify_certificate(m_rows, ident, cert)
        return m_rows, ident, cert

    def forge(self, **changes):
        m_rows, ident, cert = self.truncated()
        fields = dict(
            verdict=False,
            t=cert.t,
            column_count=cert.column_count,
            witnesses=cert.witnesses,
            failures=cert.failures,
            complete=False,
        )
        return verify_certificate(m_rows, ident, GenPosCertificate(**{**fields, **changes}))

    def test_true_verdict_rejected(self):
        m_rows, ident = toric_rows(4, 3)
        full = is_relative_t_general(m_rows, ident, 2)
        assert full.verdict
        forged = GenPosCertificate(
            verdict=True, t=2, column_count=8, witnesses=full.witnesses, complete=False
        )
        assert verify_certificate(m_rows, ident, forged) is False

    def test_no_failure_rejected(self):
        assert self.forge(failures=()) is False
        assert self.forge(verdict=True, failures=()) is False

    def test_nonzero_failure_rejected(self):
        # the last witness passes, so its column set is no failure
        _, _, cert = self.truncated()
        last = max(cert.witnesses)
        witnesses = {c: r for c, r in cert.witnesses.items() if c != last}
        assert self.forge(witnesses=witnesses, failures=(last,)) is False

    @pytest.mark.parametrize(
        "cols",
        [
            pytest.param((1, 2, 3, 4, 5), id="too_long"),
            pytest.param((1, 2, 3), id="too_short"),
            pytest.param((1, 2, 4, 3), id="not_increasing"),
            pytest.param((1, 2, 2, 3), id="repeated"),
            pytest.param((0, 1, 2, 3), id="column_below_1"),
            pytest.param((1, 2, 3, 9), id="column_above_2k"),
        ],
    )
    def test_malformed_failure_rejected(self, cols):
        _, _, cert = self.truncated()
        assert self.forge(failures=(cols,)) is False
        assert self.forge(failures=cert.failures + (cols,)) is False

    @pytest.mark.parametrize("retype", [list, lambda cols: (float(cols[0]), *cols[1:])],
                             ids=["list", "float_label"])
    def test_failure_of_another_type_rejected(self, retype):
        # equal to the true failure, or a list of its labels: refused, not raised
        _, _, cert = self.truncated()
        assert self.forge(failures=(retype(cert.failures[0]),)) is False
        cols, rows = next(iter(cert.witnesses.items()))
        witnesses = {**cert.witnesses, cols: tuple(map(float, rows))}
        assert self.forge(witnesses=witnesses) is False

    def test_witness_prefix_checked(self):
        m_rows, ident, cert = self.truncated()
        first = cert.failures[0]
        dropped = dict(list(cert.witnesses.items())[1:])
        assert self.forge(witnesses=dropped) is False
        # a true witness after the first failure, in place of one before it
        full = is_relative_t_general(m_rows, ident, 4)
        later = min(c for c in full.witnesses if c > first)
        assert self.forge(witnesses={**dropped, later: full.witnesses[later]}) is False

    @staticmethod
    def full():
        m_rows, ident = toric_rows(4, 3)
        return is_relative_t_general(m_rows, ident, 4)

    def test_nothing_covered_rejected(self):
        assert self.forge(verdict=True, witnesses={}, failures=()) is False

    def test_second_failure_rejected(self):
        # a truncated certificate holds exactly one failure, even when a
        # second one is genuine
        _, _, cert = self.truncated()
        full = self.full()
        assert full.failures[0] == cert.failures[0]
        assert self.forge(failures=full.failures[:2]) is False
        # the complete certificate's prefix through its second failure
        second = full.failures[1]
        witnesses = {c: r for c, r in full.witnesses.items() if c < second}
        assert self.forge(witnesses=witnesses, failures=full.failures[:2]) is False

    def test_truncated_marked_complete_rejected(self):
        assert self.forge(complete=True) is False

    def test_complete_witness_as_failure_rejected(self):
        full = self.full()
        failures = tuple(sorted([*full.failures, min(full.witnesses)]))
        assert self.forge(witnesses=full.witnesses, failures=full.failures, complete=True)
        assert self.forge(witnesses=full.witnesses, failures=failures, complete=True) is False

    def test_non_integer_column_rejected(self):
        full = self.full()
        witnesses = {**full.witnesses, (1, "2", 3, 4): (1, 2, 3, 4)}
        assert self.forge(witnesses=witnesses, failures=full.failures, complete=True) is False

    def test_serialize_marks_truncation(self):
        _, _, cert = self.truncated()
        assert cert.serialize()["complete"] is False
        m_rows, ident = toric_rows(4, 3)
        assert "complete" not in is_relative_t_general(m_rows, ident, 4).serialize()


class TestSkewTopT:
    """t = 2n for a skew A: the column set S of A with the identity columns T
    has minor +-det A[T^c, S], so the failures are the zero square minors."""

    @pytest.mark.parametrize("size, seed", [(4, 3), (6, 4), (8, 5)])
    def test_diagonal_sets_fail(self, size, seed):
        m_rows, ident = toric_rows(size, seed)
        cert = is_relative_t_general(m_rows, ident, size)
        assert not cert.verdict
        for i in range(1, size + 1):
            # column i of A with e_j for j != i: the minor is +-A_ii = 0
            cols = tuple(sorted({i} | {size + j for j in range(1, size + 1) if j != i}))
            assert cols in cert.failures

    @pytest.mark.parametrize("size, seed", [(4, 3), (6, 4), (6, 9)])
    def test_failures_are_zero_minors(self, size, seed):
        grid = random_skew_grid(random.Random(seed), size)
        m_rows, ident = toric_rows(size, seed)
        cert = is_relative_t_general(m_rows, ident, size)
        zero_minors = sum(
            linalg.det([[grid[r][c] for c in cols] for r in rows]) == 0
            for s in range(1, size + 1)
            for rows in itertools.combinations(range(size), s)
            for cols in itertools.combinations(range(size), s)
        )
        assert len(cert.failures) == zero_minors


# small rationals with zero drawn often, so that singular minors are common
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


class TestLaplaceMinors:
    """The certificate check's minors agree with the elimination kernel and
    with polynomial cofactor expansion, and the check never eliminates."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_matches_det(self, nrows, ncols, data):
        grid = data.draw(
            st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
        )
        size = data.draw(st.integers(0, min(nrows, ncols)))
        rows = data.draw(st.lists(st.integers(0, nrows - 1), min_size=size, max_size=size, unique=True))
        cols = data.draw(st.lists(st.integers(0, ncols - 1), min_size=size, max_size=size, unique=True))
        rows, cols = sorted(rows), sorted(cols)
        minor = _laplace_minors(grid)
        assert minor(rows, cols) == linalg.det([[grid[r][c] for c in cols] for r in rows])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    def test_matches_constant_term_of_poly_det(self, k, rnd):
        vs = VarSpec(4, 2)
        rows = random_local_rows(rnd, vs, k)
        grid = [[p.constant_term() for p in row] for row in rows]
        assert _laplace_minors(grid)(range(k), range(k)) == poly_det(rows, vs).constant_term()

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            _laplace_minors([[1, 2], [3, 4]])([0], [0, 1])

    def test_check_never_eliminates(self, monkeypatch):
        cases = [(*toric_rows(6, 4), t) for t in (2, 6)]
        cases.append((*toric_rows(4, 3), 3))
        certs = [is_relative_t_general(m, n, t) for m, n, t in cases]

        def no_elimination(*args, **kwargs):
            raise AssertionError("verify_certificate eliminated")

        monkeypatch.setattr(linalg, "_eliminate", no_elimination)
        monkeypatch.setattr(linalg, "_clear", no_elimination)
        # the t = 2 walk reads its leaves without clearing; the t = 6 walk clears
        with pytest.raises(AssertionError):
            is_relative_t_general(*cases[1])
        for (m, n, _), cert in zip(cases, certs):
            assert verify_certificate(m, n, cert)


class TestFractionalConstantTerms:
    """Walks and checks on an M(0) of zeros and proper fractions, so that the
    walk's columns and the check's rows are scaled from non-integral
    entries, with N either the identity or drawn the same way."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.data())
    def test_walk_and_check(self, k, identity_n, data):
        square = st.lists(st.lists(ENTRY, min_size=k, max_size=k), min_size=k, max_size=k)
        vs = VarSpec(2, 2)
        m_rows = const_rows(data.draw(square), vs)
        n_rows = identity_rows(vs, k) if identity_n else const_rows(data.draw(square), vs)
        block = [[p.constant_term() for p in m + n] for m, n in zip(m_rows, n_rows)]
        minor = _laplace_minors(block)
        for t in range(1, k + 1):
            cert = is_relative_t_general(m_rows, n_rows, t)
            assert cert.serialize() == lex_scan_oracle(m_rows, n_rows, t).serialize()
            assert cert.verdict == origin_rank_oracle(m_rows, n_rows, t)
            assert verify_certificate(m_rows, n_rows, cert)
            assert_truncated_prefix(m_rows, n_rows, t)
            for cols, rows in cert.witnesses.items():
                cols0 = [c - 1 for c in cols]
                # a witness moved to the failures has a nonzero minor
                moved = dataclasses.replace(
                    cert,
                    verdict=False,
                    witnesses={c: r for c, r in cert.witnesses.items() if c != cols},
                    failures=tuple(sorted((*cert.failures, cols))),
                )
                assert not verify_certificate(m_rows, n_rows, moved)
                # a row set with a zero minor is no witness
                zero = next(
                    (r for r in itertools.combinations(range(k), t) if minor(r, cols0) == 0), None
                )
                if zero is not None:
                    forged = dataclasses.replace(
                        cert, witnesses={**cert.witnesses, cols: tuple(r + 1 for r in zero)}
                    )
                    assert not verify_certificate(m_rows, n_rows, forged)
