import dataclasses
import gc
import json
import random
from fractions import Fraction

import pytest

from logsymplectic import genpos, linalg
from logsymplectic.cli import main
from logsymplectic.genpos import (
    PreparedPair,
    first_failure_t_general,
    identity_rows,
    is_relative_t_general,
    is_standard_t_general,
    verify_certificate,
)
from logsymplectic.poisson import SkewMatrix, log_matrix, pfaffian
from logsymplectic.ring import VarSpec, poly_from_string
from logsymplectic.toric import (
    betti_torus,
    certify,
    deformation_tangent_dim,
    log_hodge_numbers,
    make_toric,
    random_2general_toric,
    random_skew,
)

from conftest import EXPLICIT_GRID, toric_structure


class TestMakeToric:
    def test_smallest_block(self):
        t = make_toric([[0, 1], [-1, 0]])
        vs = t.structure.var_spec
        assert vs.total_vars == 2 and vs.divisor_vars == 2
        assert t.structure.bivector.coefficient((1, 2)) == poly_from_string("x1*x2", vs)

    def test_explicit(self):
        t = make_toric(EXPLICIT_GRID)
        assert t.n == 2
        assert pfaffian(t.matrix) == 8

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            make_toric([[0, 1], [1, 0]])

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            make_toric([[0]])

    def test_float_entries_rejected(self):
        # the float 0.1 is 3602879701896397/36028797018963968, not 1/10: every
        # path that reads a plain grid refuses it instead of converting it
        grid = [[0, 0.1], [-0.1, 0]]
        for build in (make_toric, pfaffian, lambda g: SkewMatrix.from_rationals(VarSpec(2, 2), g)):
            with pytest.raises(TypeError, match="inexact float coefficient 0.1"):
                build(grid)

    def test_bool_and_zero_denominator_entries_rejected(self):
        # the CLI refuses JSON true and "1/0"; the library paths do the same
        builds = (make_toric, pfaffian, lambda g: SkewMatrix.from_rationals(VarSpec(2, 2), g))
        for build in builds:
            with pytest.raises(TypeError, match="boolean coefficient True"):
                build([[0, True], [-1, 0]])
            with pytest.raises(ValueError, match="zero denominator"):
                build([[0, "1/0"], ["-1/0", 0]])

    def test_string_entries_accepted(self):
        grid = [[0, "1/2"], ["-1/2", 0]]
        assert make_toric(grid).matrix.constant_grid() == [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]
        assert pfaffian(grid) == Fraction(1, 2)

    @pytest.mark.parametrize("grid", [
        [[0, 1], [-1, 0]],
        EXPLICIT_GRID,
        [[0, "1/2", 0, 0], ["-1/2", 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]],
    ])
    def test_skew_matrix_input_equals_its_grid(self, grid):
        vs = VarSpec(len(grid), len(grid))
        assert make_toric(SkewMatrix.from_rationals(vs, grid)) == make_toric(grid)

    @staticmethod
    def fractional_grid(seed: int, size: int) -> list[list[Fraction]]:
        """Seeded skew grid of fractions; about a third of the entries are 0."""
        rng = random.Random(seed)
        grid = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.randrange(3) else Fraction(0)
                grid[i][j], grid[j][i] = v, -v
        return grid

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_log_frame_round_trip(self, size):
        grids = [self.fractional_grid(seed, size) for seed in range(6)]
        entries = [g[i][j] for g in grids for i in range(size) for j in range(i + 1, size)]
        assert 0 in entries and any(x.denominator > 1 for x in entries)
        for grid in grids:
            structure = make_toric(grid).structure
            assert structure == toric_structure(grid)
            assert log_matrix(structure).constant_grid() == grid


class TestCertify:
    def test_explicit_report(self):
        rep = certify(make_toric(EXPLICIT_GRID))
        assert rep["pfaffian"] == "8"
        assert rep["nonsingular"] and rep["jacobi_holds"]
        dd = rep["degeneracy_divisor"]
        assert dd["multiplicities"] == {"1": 1, "2": 1, "3": 1, "4": 1}
        assert dd["simple_normal_crossings"]
        assert rep["general_position"] == {"1": True, "2": True, "3": True, "4": False}
        assert rep["certificates_verified"]
        assert rep["log_symplectic_2_general"]

    def test_zero_matrix_degenerate(self):
        rep = certify(make_toric([[0] * 4 for _ in range(4)]))
        assert not rep["nonsingular"]
        assert rep["degeneracy_divisor"] is None
        assert not rep["log_symplectic_2_general"]

    def test_block_diagonal_not_three_general(self):
        grid = [
            [0, 2, 0, 0],
            [-2, 0, 0, 0],
            [0, 0, 0, 3],
            [0, 0, -3, 0],
        ]
        rep = certify(make_toric(grid))
        assert rep["nonsingular"]
        assert rep["general_position"]["3"] is False
        assert rep["general_position"]["4"] is False

    def test_surface_case_never_two_general(self):
        rep = certify(make_toric([[0, 1], [-1, 0]]))
        assert rep["nonsingular"]
        assert rep["general_position"]["2"] is False
        assert not rep["log_symplectic_2_general"]

    def test_random_mostly_two_general(self):
        rng = random.Random(1234)
        draws = 40
        hits = 0
        for _ in range(draws):
            rep = certify(make_toric(random_skew(rng, 4)))
            assert rep["certificates_verified"]
            hits += rep["general_position"]["2"]
        assert hits >= int(draws * 0.95)


class TestCertifyAtScale:
    """``certify`` decides each t on first-failure certificates; complete
    certificates give the same verdicts and verify too."""

    @pytest.mark.parametrize(
        "grid",
        [
            pytest.param(random_skew(random.Random(1), 4), id="2n4_seed1"),
            pytest.param(random_skew(random.Random(5), 4), id="2n4_seed5"),
            pytest.param(
                [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]], id="2n4_blocks"
            ),
            pytest.param(random_skew(random.Random(2), 6), id="2n6_seed2"),
            pytest.param(random_skew(random.Random(3), 8), id="2n8_seed3"),
        ],
    )
    def test_matches_complete_certificates(self, grid):
        t = make_toric(grid)
        size = len(grid)
        a = log_matrix(t.structure)
        ident = identity_rows(t.structure.var_spec, size)
        verdicts, verified = {}, True
        for tt in (1, 2, 3, size):
            cert = is_standard_t_general(a, tt)
            verdicts[str(tt)] = cert.verdict
            verified = verified and verify_certificate(a, ident, cert)
        rep = certify(t)
        assert rep["general_position"] == verdicts
        assert verified and rep["certificates_verified"] is True

    def test_toric_report_n5(self, tmp_path):
        # C(20, 10) = 184,756 column sets at t = 10; the first fails
        # after 10 witnesses
        out = tmp_path / "n5.json"
        code = main(["toric-report", "--random", "--n", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["general_position"]["10"] is False
        assert rep["certificates_verified"] is True


def move_last_witness(cert):
    """The certificate with its last witnessed column set claimed as a
    failure instead: its minor is nonzero, so no check may accept it."""
    cols = max(cert.witnesses)
    witnesses = {c: r for c, r in cert.witnesses.items() if c != cols}
    if cert.complete:
        return dataclasses.replace(
            cert, verdict=False, witnesses=witnesses, failures=tuple(sorted((*cert.failures, cols)))
        )
    # a truncated certificate claims one failure, after its witnesses
    return dataclasses.replace(cert, verdict=False, witnesses=witnesses, failures=(cols,))


class TestPreparedPair:
    """``certify`` decides and checks every t on one ``PreparedPair``; its
    check still rejects forged certificates, from its own table."""

    @pytest.mark.parametrize("forged_t", [1, 2, 6])
    def test_forged_certificate_fails_the_report(self, monkeypatch, forged_t):
        t = make_toric(random_skew(random.Random(2), 6))
        assert certify(t)["certificates_verified"] is True
        decide = PreparedPair.decide

        def forging(self, tt, all_failures):
            cert = decide(self, tt, all_failures)
            return move_last_witness(cert) if tt == forged_t else cert

        monkeypatch.setattr(PreparedPair, "decide", forging)
        rep = certify(t)
        assert rep["general_position"][str(forged_t)] is False
        assert rep["certificates_verified"] is False

    def test_check_reads_its_own_table(self, monkeypatch):
        t = make_toric(random_skew(random.Random(2), 6))
        a = log_matrix(t.structure)
        ident = identity_rows(t.structure.var_spec, 6)
        pair = PreparedPair(a, ident)
        certs = [pair.decide(tt, every) for tt in (1, 2, 3, 6) for every in (True, False)]
        # the walk's columns, garbled, and no elimination at all
        pair._columns = [{} for _ in pair._columns]

        def no_linalg(*args, **kwargs):
            raise AssertionError("the check called linalg")

        monkeypatch.setattr(linalg, "_eliminate", no_linalg)
        monkeypatch.setattr(linalg, "_scaled", no_linalg)
        monkeypatch.setattr(linalg, "_clear", no_linalg)
        for cert in certs:
            assert pair.check(cert)
            assert not pair.check(move_last_witness(cert))

    def test_public_functions_agree_with_the_pair(self):
        t = make_toric(random_skew(random.Random(4), 6))
        a = log_matrix(t.structure)
        ident = identity_rows(t.structure.var_spec, 6)
        pair = PreparedPair(a, ident)
        pair.decide(1, True)
        # the walk clears copies: the prepared columns never change
        columns = [dict(col) for col in pair._columns]
        for tt in (1, 2, 3, 6):
            assert pair.decide(tt, True) == is_relative_t_general(a, ident, tt)
            assert pair.decide(tt, False) == first_failure_t_general(a, ident, tt)
        assert pair._columns == columns

    def test_invalid_pairs(self):
        vs = VarSpec(4, 4)
        ident = identity_rows(vs, 4)
        short = PreparedPair(ident[:3], ident)
        assert short.error == "M and N must have the same number of rows"
        with pytest.raises(ValueError, match="same number of rows"):
            short.decide(1, True)
        cert = is_relative_t_general(ident, ident, 1)
        assert short.check(cert) is False
        pole = [row[:] for row in ident]
        pole[0][1] = poly_from_string("x1^-1", vs)
        with pytest.raises(ValueError, match="no poles"):
            is_relative_t_general(pole, ident, 1)
        assert verify_certificate(pole, ident, cert) is False
        with pytest.raises(ValueError, match=r"1 <= t <= 4"):
            PreparedPair(ident, ident).decide(5, True)


def cyclic_garbage(fn) -> int:
    """Objects that only the cycle collector can free, left by ``fn()``."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


class TestNoReferenceCycles:
    """The walk, the check, the report and the Pfaffian free everything they
    build by reference counting: with the collector off, nothing is left
    for it to find."""

    @pytest.fixture(scope="class")
    def toric6(self):
        t = make_toric(random_skew(random.Random(1), 6))
        a = log_matrix(t.structure)
        ident = identity_rows(t.structure.var_spec, 6)
        return t, a, ident, is_relative_t_general(a, ident, 2), first_failure_t_general(a, ident, 6)

    def test_genpos(self, toric6):
        _, a, ident, cert, truncated = toric6
        assert cyclic_garbage(lambda: is_relative_t_general(a, ident, 2)) == 0
        assert cyclic_garbage(lambda: first_failure_t_general(a, ident, 6)) == 0
        assert cyclic_garbage(lambda: is_standard_t_general(a, 3)) == 0
        assert cyclic_garbage(lambda: verify_certificate(a, ident, cert)) == 0
        assert cyclic_garbage(lambda: verify_certificate(a, ident, truncated)) == 0
        assert cyclic_garbage(lambda: genpos._scaled_minor([[1, 2], [3, 4]], {}, 0b11, 0b11)) == 0

    def test_certify(self, toric6):
        t = toric6[0]
        assert cyclic_garbage(lambda: certify(t)) == 0

    def test_pfaffian(self, toric6):
        t = toric6[0]
        assert cyclic_garbage(lambda: pfaffian(t.matrix)) == 0
        assert cyclic_garbage(lambda: pfaffian(random_skew(random.Random(1), 6))) == 0


class TestDimensionBookkeeping:
    def test_betti_row(self):
        assert [betti_torus(4, i) for i in range(5)] == [1, 4, 6, 4, 1]

    def test_betti_edges(self):
        assert betti_torus(6, 0) == 1
        assert sum(betti_torus(6, i) for i in range(7)) == 2**6
        with pytest.raises(ValueError):
            betti_torus(4, 5)

    def test_log_hodge(self):
        assert log_hodge_numbers(4, 0, 2) == 6
        assert log_hodge_numbers(4, 1, 2) == 0
        assert log_hodge_numbers(4, 3, 1) == 0
        assert log_hodge_numbers(4, 0, 0) == 1
        with pytest.raises(ValueError):
            log_hodge_numbers(4, 0, 5)

    def test_deformation_tangent(self):
        assert deformation_tangent_dim(2) == 6
        assert deformation_tangent_dim(3) == 15
        with pytest.raises(ValueError):
            deformation_tangent_dim(1)

    def test_three_routes_agree(self):
        for n in (2, 3, 4):
            pair_count = sum(1 for i in range(1, 2 * n + 1) for j in range(i + 1, 2 * n + 1))
            assert deformation_tangent_dim(n) == betti_torus(2 * n, 2) == pair_count


class TestRandomFixtures:
    def test_random_skew_shape(self):
        rng = random.Random(7)
        grid = random_skew(rng, 6)
        for i in range(6):
            assert grid[i][i] == 0
            for j in range(6):
                assert grid[i][j] == -grid[j][i]

    def test_rejection_sampler_deterministic(self):
        a = random_2general_toric(random.Random(99))
        b = random_2general_toric(random.Random(99))
        assert a.matrix == b.matrix
        rep = certify(a)
        assert rep["general_position"]["2"] and rep["nonsingular"]
