import ast
import collections
import copy
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsymplectic import cli, complexes, exterior, koszul, linalg, poisson
from logsymplectic.complexes import (
    IndexSet,
    WeightSlicedComplex,
    Label,
    _PlusMachine,
    _monomials,
    _moved,
    _prefix_products,
    _qi_slice,
    _ranks,
    _slice,
    _theta,
    build_bracket_complex,
    build_log_complex,
    build_logplus_complex,
    build_qi,
    cohomology_dims,
    conjugation_report,
    exactness_report,
    filtration_level_of,
    filtration_report,
    verify_d_squared,
    verify_exactness,
)
from logsymplectic.exterior import (
    DiffForm,
    Frame,
    MultiVector,
    change_frame,
    coordinate_frame,
    coordinate_one_form,
    exterior_derivative,
    log_frame,
    log_one_form,
    form_monomial,
    vector_monomial,
    wedge,
)
from logsymplectic.genpos import is_standard_t_general, poisson_t_general
from logsymplectic.koszul import qi_cohomology
from logsymplectic.poisson import (
    PoissonStructure,
    inverse_log_matrix,
    log_matrix,
    pfaffian,
    phi_forms,
    pi_sharp,
    schouten,
)
from logsymplectic.ring import LaurentPoly, VarSpec, add_product, poly_from_string
from logsymplectic.toric import make_toric, random_2general_toric

from conftest import EXPLICIT_GRID, toric_structure
from test_golden import CASES, GOLDEN

VS = VarSpec(4, 4)


def _flatten(element) -> list[tuple[Label, Fraction]]:
    out = []
    for indices, poly in element.terms.items():
        for exps, c in poly.terms.items():
            out.append(((indices, exps), c))
    return out


def _wedges(cls, frame: Frame, factors):
    """``product(I)``: the wedge of factors[i - 1] over i in I, in order,
    memoized with every prefix of I."""
    one = cls(frame, 0, {(): LaurentPoly.const(frame.var_spec, 1)})
    return _prefix_products(one, lambda prefix, i: prefix.wedge(factors[i - 1]))


class TestMonomials:
    @pytest.mark.parametrize("nvars", range(7))
    def test_stars_and_bars_match_brute_force(self, nvars):
        for total in range(-1, 6):
            brute = [e for e in itertools.product(range(total + 1), repeat=nvars) if sum(e) == total]
            assert _monomials(nvars, total) == tuple(sorted(brute))


class TestLogComplex:
    def test_weight_slice_enumeration(self):
        # m = 0 in dimension 2: the degree-1, weight-2 slice is exactly the
        # four monomials x_i dx_j (coefficient variable times differential).
        vs = VarSpec(2, 0)
        cx = build_log_complex(vs, 2)
        labels = cx.basis[(1, 2)]
        assert sorted(labels) == [
            ((1,), (0, 1)),
            ((1,), (1, 0)),
            ((2,), (0, 1)),
            ((2,), (1, 0)),
        ]

    def test_closed_generators(self):
        cx = build_log_complex(VS, 2)
        # eta_1 sits at degree 1, weight 0; its column of d must vanish
        labels = cx.basis[(1, 0)]
        col = labels.index(((1,), (0, 0, 0, 0)))
        mat = cx.diffs[(1, 0)]
        assert all(row.get(col, 0) == 0 for row in mat)

    def test_h0_weight0_constants(self):
        for vs in (VarSpec(2, 2), VarSpec(4, 2), VarSpec(4, 0)):
            cx = build_log_complex(vs, 2)
            dims = cohomology_dims(cx, 0)
            assert dims[0] == 1

    def test_d_squared(self):
        for vs in (VarSpec(2, 0), VarSpec(4, 2), VarSpec(4, 4)):
            assert verify_d_squared(build_log_complex(vs, 3))

    def test_matrix_matches_exterior_derivative(self):
        # applying the assembled matrix agrees with the honest derivative
        vs = VarSpec(4, 2)
        cx = build_log_complex(vs, 3)
        rng = random.Random(23)
        lg = log_frame(vs)
        for _ in range(10):
            k = rng.randint(0, 3)
            w = rng.randint(0, 3)
            labels = cx.basis.get((k, w))
            if not labels:
                continue
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in labels]
            element = DiffForm(lg, k, {})
            for c, (idx, exps) in zip(coeffs, labels):
                if c == 0:
                    continue
                element = element + DiffForm(
                    lg, k, {idx: LaurentPoly.monomial(vs, exps, c)}
                )
            image = exterior_derivative(element)
            mat = cx.diffs.get((k, w))
            target = cx.basis.get((k + 1, w), [])
            expected = DiffForm(lg, k + 1, {})
            if mat:
                out = [
                    sum(mat[r].get(c, 0) * coeffs[c] for c in range(len(labels)))
                    for r in range(len(target))
                ]
                for val, (idx, exps) in zip(out, target):
                    if val == 0:
                        continue
                    expected = expected + DiffForm(
                        lg, k + 1, {idx: LaurentPoly.monomial(vs, exps, val)}
                    )
            assert image == expected

    @pytest.mark.parametrize("vs", [VarSpec(4, 0), VarSpec(4, 2), VarSpec(4, 4), VarSpec(6, 3)], ids=str)
    def test_every_column_matches_exterior_derivative(self, vs):
        # the derivative of each label x^E eta_I, as a DiffForm, against its
        # stored column: t on the divisor keeps E, t off it lowers E by e_t
        cx = build_log_complex(vs, 2)
        lg = log_frame(vs)
        kept = lowered = 0
        for (k, w), labels in cx.basis.items():
            targets = cx.basis.get((k + 1, w), [])
            columns = collections.defaultdict(dict)
            for target, row in zip(targets, cx.diffs.get((k, w), [])):
                for c, v in row.items():
                    columns[c][target] = v
            for c, (indices, exps) in enumerate(labels):
                image = exterior_derivative(DiffForm(lg, k, {indices: LaurentPoly.monomial(vs, exps)}))
                assert dict(_flatten(image)) == columns[c], (k, w, indices, exps)
                kept += sum(e == exps for (_j, e) in columns[c])
                lowered += sum(e != exps for (_j, e) in columns[c])
        assert kept > 0 if vs.divisor_vars else kept == 0
        assert lowered > 0 if vs.divisor_vars < vs.total_vars else lowered == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda p, cap: build_log_complex(p.var_spec, cap),
            build_logplus_complex,
            build_bracket_complex,
            lambda p, cap: build_qi(p, (1,), cap),
        ],
        ids=["log", "logplus", "bracket", "qi"],
    )
    def test_weight_cap_guard(self, toric, build):
        for cap in (-1, -2):
            with pytest.raises(ValueError, match="weight_cap"):
                build(toric, cap)


@pytest.fixture(scope="module")
def toric():
    return toric_structure(EXPLICIT_GRID)


@pytest.fixture(scope="module")
def plus_w2(toric):
    return build_logplus_complex(toric, 2)


class TestLogPlus:
    def test_d_squared(self, plus_w2):
        assert verify_d_squared(plus_w2)

    def test_degree_zero_agrees_with_log_complex(self, toric, plus_w2):
        # on functions both complexes express the same derivative
        route = CoordinateRoute(toric)
        logcx = build_log_complex(VS, 2)
        for w in (0, 1, 2):
            src = plus_w2.basis.get((0, w), [])
            assert src == logcx.basis.get((0, w), [])
            mat_plus = plus_w2.diffs.get((0, w))
            tgt_plus = plus_w2.basis.get((1, w), [])
            mat_log = logcx.diffs.get((0, w))
            tgt_log = logcx.basis.get((1, w), [])
            for col, (idx, exps) in enumerate(src):
                via_plus = reconstruct_from_phi(
                    route,
                    [
                        (tgt_plus[r], mat_plus[r].get(col, 0))
                        for r in range(len(tgt_plus))
                        if mat_plus[r].get(col, 0) != 0
                    ],
                    1,
                )
                via_log = DiffForm(coordinate_frame(VS), 1, {})
                for r, (lidx, lexps) in enumerate(tgt_log):
                    c = mat_log[r].get(col, 0)
                    if c == 0:
                        continue
                    via_log = via_log + change_frame(
                        DiffForm(
                            log_frame(VS), 1, {lidx: LaurentPoly.monomial(VS, lexps, c)}
                        ),
                        coordinate_frame(VS),
                    )
                assert via_plus == via_log

    def test_nonconstant_matrix_rejected(self):
        vs = VarSpec(4, 4)
        terms = {
            (1, 2): poly_from_string("x1*x2 + x1*x2*x3", vs),
            (3, 4): poly_from_string("x3*x4", vs),
        }
        p = PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))
        with pytest.raises(ValueError):
            build_logplus_complex(p, 1)

    def test_mixed_divisor_chart_rejected(self):
        vs = VarSpec(4, 2)
        terms = {(1, 2): poly_from_string("x1*x2", vs)}
        p = PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))
        with pytest.raises(ValueError):
            build_logplus_complex(p, 1)

    def test_singular_matrix_rejected(self):
        grid = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(ValueError):
            build_logplus_complex(toric_structure(grid), 1)


def matrix_columns(cx, k: int, w: int) -> list[dict]:
    """The columns of the differential out of (k, w), each as a dict from
    target label to nonzero value."""
    target = cx.basis.get((k + 1, w), [])
    columns: list[dict] = [{} for _ in cx.basis[(k, w)]]
    for r, row in enumerate(cx.diffs[(k, w)]):
        for c, val in row.items():
            columns[c][target[r]] = val
    return columns


class CoordinateRoute:
    """The coordinate-frame route, the oracle of the log-frame tables of
    ``_PlusMachine``: phi_I as the coordinate wedge of the phi forms, and
    the sharp of a coordinate form as the sum of its coefficients times the
    wedges of the pi_sharp(dx_t), here with Fraction coefficients."""

    def __init__(self, p: PoissonStructure):
        vs = p.var_spec
        self.vs, self.coord = vs, coordinate_frame(vs)
        self.machine = _PlusMachine(p)
        self.phi_wedge = _wedges(DiffForm, self.coord, phi_forms(p))
        sharp_dx = [pi_sharp(p, coordinate_one_form(vs, t)) for t in range(1, vs.total_vars + 1)]
        self.sharp_wedge = _wedges(MultiVector, self.coord, sharp_dx)

    def sharp(self, form: DiffForm) -> MultiVector:
        acc: dict = {}
        for indices, coeff in form.terms.items():
            for idx, poly in self.sharp_wedge(indices).terms.items():
                add_product(acc.setdefault(idx, {}), coeff, poly, False)
        vs = form.frame.var_spec
        terms = {idx: LaurentPoly._from_sums(vs, sums) for idx, sums in acc.items()}
        return MultiVector(coordinate_frame(vs), form.degree, terms)


def reconstruct_from_phi(route: CoordinateRoute, coords, degree: int) -> DiffForm:
    """Sum of c * x^E phi_J over the ((J, E), c) in coords as a coordinate
    form, in Fractions: the oracle of ``_PlusMachine.certifies``."""
    acc: dict = {}
    for (indices, exps), c in coords:
        monomial = LaurentPoly.monomial(route.vs, exps, c)
        for idx, poly in route.phi_wedge(indices).terms.items():
            add_product(acc.setdefault(idx, {}), monomial, poly, False)
    terms = {idx: LaurentPoly._from_sums(route.vs, sums) for idx, sums in acc.items()}
    return DiffForm(route.coord, degree, terms)


def dphi_signs(route: CoordinateRoute, iset: IndexSet) -> dict[int, Fraction]:
    """The signs {i: -1} of d(phi_I) = -sum_{i in I} eta_i ^ phi_I, checked
    exactly on the coordinate wedge of the phi forms: the oracle of what
    the phi-model gate ``_theta`` implies for the graded pieces."""
    vs = route.vs
    one = LaurentPoly.const(vs, 1)
    eta_sum = change_frame(DiffForm(log_frame(vs), 1, {(i,): one for i in iset}), route.coord)
    phi = route.phi_wedge(iset)
    assert exterior_derivative(phi) == -wedge(eta_sum, phi), iset
    return {i: Fraction(-1) for i in iset}


def extracted_sharp(machine: _PlusMachine, form: DiffForm) -> MultiVector:
    """pi_sharp(form) from the log-frame extraction, numerators divided out."""
    den, nums = machine.sharp_numerators(form)
    acc: dict = {}
    for (kdx, exps), n in nums:
        acc.setdefault(kdx, {})[exps] = Fraction(n, den)
    terms = {kdx: LaurentPoly(machine.vs, sums) for kdx, sums in acc.items()}
    return MultiVector(coordinate_frame(machine.vs), form.degree, terms)


def logplus_column_oracle(route: CoordinateRoute, lab) -> dict:
    """The per-column route: phi-coordinates of d(x^E phi_I), taken by the
    meromorphic derivative of the whole column, extracted in the coordinate
    frame and certified by re-expansion, with the polynomial-span check."""
    indices, exps = lab
    omega = route.phi_wedge(indices).scale(LaurentPoly.monomial(route.vs, exps, 1))
    domega = exterior_derivative(omega)
    coords = _flatten(route.sharp(domega))
    assert all(e >= 0 for (_jdx, e2), _c in coords for e in e2), lab
    assert reconstruct_from_phi(route, coords, len(indices) + 1) == domega, lab
    return dict(coords)


def piece_forms(route: CoordinateRoute):
    """Every piece of the log-plus build as a coordinate DiffForm, (I, i) ->
    eta_i ^ phi_I for i = 1..2n, over the index sets below the top degree."""
    vs = route.vs
    nv = vs.total_vars
    etas = [change_frame(log_one_form(vs, i), route.coord) for i in range(1, nv + 1)]
    forms = {}
    for size in range(nv):
        for iset in itertools.combinations(range(1, nv + 1), size):
            phi = route.phi_wedge(iset)
            for i, eta in enumerate(etas, 1):
                forms[(iset, i)] = eta.wedge(phi)
    return forms


def table_piece(machine: _PlusMachine, indices: IndexSet, i: int) -> DiffForm:
    """Piece i of I, eta_i ^ phi_I, from the integer tables
    (``_PlusMachine.pieces``), as a log-frame DiffForm in Fractions."""
    vs = machine.vs
    pole, rows = machine.pieces(indices)
    den, degree = machine.theta_den ** len(indices), len(indices) + 1
    sets = itertools.combinations(range(1, vs.total_vars + 1), degree)
    terms = {jdx: LaurentPoly.monomial(vs, pole, Fraction(w, den)) for jdx, w in zip(sets, rows[i - 1]) if w}
    return DiffForm(log_frame(vs), degree, terms)


def table_extraction(machine: _PlusMachine, indices: IndexSet, i: int):
    """(degree, pole, row, den, nums): piece i of I, eta_i ^ phi_I, from the
    tables, and its phi-coordinates as ``build_logplus_complex`` extracts
    them."""
    pole, rows = machine.pieces(indices)
    degree = len(indices) + 1
    den, nums = machine.sharp_rows(degree, machine.theta_den ** len(indices), {pole: rows[i - 1]})
    return degree, pole, rows[i - 1], den, nums


class TestLogPlusLeibniz:
    """The log-plus columns come from certified per-I pieces and the Leibniz
    rule; the per-column derivative is their oracle."""

    def test_sampled_columns_match_oracle_cap4(self, toric):
        cx = build_logplus_complex(toric, 4)
        route = CoordinateRoute(toric)
        rng = random.Random(41)
        checked = 0
        for k, w in cx.diffs:
            source = cx.basis[(k, w)]
            columns = matrix_columns(cx, k, w)
            for c in sorted(rng.sample(range(len(source)), min(8, len(source)))):
                assert columns[c] == logplus_column_oracle(route, source[c]), source[c]
                checked += 1
        assert len(cx.diffs) == 26 and checked == 187

    def test_full_slice_matches_oracle_2n6(self):
        # degree 3: |I| is odd, so the order of eta_i ^ phi_I shows in the sign
        p = random_2general_toric(random.Random(3), 3).structure
        cx = build_logplus_complex(p, 0)
        route = CoordinateRoute(p)
        source = cx.basis[(3, -1)]
        assert len(source) == 420
        for lab, column in zip(source, matrix_columns(cx, 3, -1)):
            assert column == logplus_column_oracle(route, lab), lab

    def test_fractional_matrix_columns_match_oracle(self):
        # A has denominators 2 and 4, so the pieces of one index set carry
        # different denominators and meet in the common one of a column
        p = fractional_2general_structure(11)
        route = CoordinateRoute(p)
        machine = route.machine
        etas = [change_frame(log_one_form(VS, i), route.coord) for i in range(1, 5)]

        def denominator(form):
            return math.lcm(*(c.denominator for _lab, c in _flatten(route.sharp(form))))

        phi = route.phi_wedge((1, 2, 4))
        forms = [exterior_derivative(phi)] + [e.wedge(phi) for e in etas]
        assert [denominator(form) for form in forms] == [2, 2, 2, 1, 2]
        # the extraction's denominator is the least one, from a form and
        # from the tables alike
        assert [machine.sharp_numerators(form)[0] for form in forms] == [2, 2, 2, 1, 2]
        assert [table_extraction(machine, (1, 2, 4), i)[3] for i in range(1, 5)] == [2, 2, 1, 2]
        cx = build_logplus_complex(p, 2)
        rng = random.Random(43)
        fractional = 0
        for k, w in cx.diffs:
            source = cx.basis[(k, w)]
            columns = matrix_columns(cx, k, w)
            for c in sorted(rng.sample(range(len(source)), min(8, len(source)))):
                assert columns[c] == logplus_column_oracle(route, source[c]), source[c]
                fractional += any(v.denominator > 1 for v in columns[c].values())
        assert fractional > 0
        rep = conjugation_report(p, 2, 4)
        assert rep["verdict"] and len(rep["slices"]) == 25

    def test_every_piece_is_certified(self, toric, monkeypatch):
        # corrupt the coefficient extraction of the first nonempty piece
        # only: the build refuses before it extracts another
        corrupted = []
        real_sharp = _PlusMachine.sharp_rows

        def corrupt_sharp(machine, degree, num_den, rows):
            den, nums = real_sharp(machine, degree, num_den, rows)
            if nums and not corrupted:
                (lab, n), *rest = nums
                nums = [(lab, 2 * n), *rest]
                corrupted.append(rows)
            return den, nums

        monkeypatch.setattr(_PlusMachine, "sharp_rows", corrupt_sharp)
        with pytest.raises(AssertionError, match="failed to certify"):
            build_logplus_complex(toric, 1)
        assert len(corrupted) == 1


class TestLogFrameExtraction:
    """The pieces the build certifies come from integer tables of the
    theta_I in the log frame, and their phi-coordinates from the log-frame
    compound; the coordinate DiffForm pieces and the coordinate-frame wedges
    of the pi_sharp(dx_t) are their oracles."""

    def assert_pieces_match(self, p: PoissonStructure) -> int:
        route = CoordinateRoute(p)
        machine = route.machine
        lg = log_frame(p.var_spec)
        forms = piece_forms(route)
        # d(phi_I) is no piece: it is -sum_{i in I} of the table pieces, the
        # identity the phi-model gate stands for
        for iset in {iset for iset, _i in forms}:
            d_phi = DiffForm(lg, len(iset) + 1, {})
            for i in iset:
                d_phi = d_phi - table_piece(machine, iset, i)
            assert d_phi == change_frame(exterior_derivative(route.phi_wedge(iset)), lg), iset
        for (iset, i), form in forms.items():
            key = (iset, i)
            # the table piece is the DiffForm piece, read in the log frame
            assert table_piece(machine, iset, i) == change_frame(form, lg), key
            degree, pole, row, den, nums = table_extraction(machine, iset, i)
            assert all(type(w) is int for w in row), key
            oracle = _flatten(route.sharp(form))
            assert len(nums) == len(oracle), key
            assert {lab: Fraction(n, den) for lab, n in nums} == dict(oracle), key
            assert den == math.lcm(*(c.denominator for _lab, c in oracle)), key
            assert all(type(n) is int for _lab, n in nums), key
            # the form route extracts the same coordinates
            assert machine.sharp_numerators(form) == (den, nums), key
            # the integer certificate holds, and fails with one numerator off by one
            assert machine.certifies(degree, pole, row, den, nums), key
            if nums:
                (lab, n), *rest = nums
                assert not machine.certifies(degree, pole, row, den, [(lab, n + 1), *rest]), key
        return len(forms)

    def test_certificate_needs_integral_scaled_coefficients(self):
        # the certificate compares integers over den T^degree, T > 1 here:
        # the numerators over 7 den are a seventh of the piece and fail, as
        # does the piece with one entry moved by one unit of T^|I|; the
        # numerators and den both scaled by 7 are the same coordinates
        machine = _PlusMachine(fractional_2general_structure(11))
        assert machine.theta_den > 1
        degree, pole, row, den, nums = table_extraction(machine, (1, 2), 3)
        assert nums and machine.certifies(degree, pole, row, den, nums)
        assert not machine.certifies(degree, pole, row, 7 * den, nums)
        assert machine.certifies(degree, pole, row, 7 * den, [(lab, 7 * n) for lab, n in nums])
        first = next(r for r, w in enumerate(row) if w)
        nudged = row[:first] + [row[first] + 1] + row[first + 1 :]
        assert not machine.certifies(degree, pole, nudged, den, nums)
        # the same coordinates at another monomial certify another piece
        moved = [((kdx, (exps[0] + 1, *exps[1:])), n) for (kdx, exps), n in nums]
        assert not machine.certifies(degree, pole, row, den, moved)
        assert machine.certifies(degree, (pole[0] + 1, *pole[1:]), row, den, moved)

    def test_build_refuses_a_numerator_off_by_one(self, toric, monkeypatch):
        real_sharp = _PlusMachine.sharp_rows

        def off_by_one(machine, degree, num_den, rows):
            den, nums = real_sharp(machine, degree, num_den, rows)
            if nums:
                (lab, n), *rest = nums
                nums = [(lab, n + 1), *rest]
            return den, nums

        monkeypatch.setattr(_PlusMachine, "sharp_rows", off_by_one)
        with pytest.raises(AssertionError, match="failed to certify"):
            build_logplus_complex(toric, 0)

    def test_every_piece_of_the_fixture(self, toric):
        assert self.assert_pieces_match(toric) == 15 * 4

    def test_every_piece_2n6(self):
        p = random_2general_toric(random.Random(3), 3).structure
        assert self.assert_pieces_match(p) == 63 * 6

    def test_every_piece_fractional(self):
        assert self.assert_pieces_match(fractional_2general_structure(11)) == 15 * 4

    def test_piece_above_the_top_degree_is_empty(self, toric):
        # eta_i ^ phi_I with |I| = 2n is the zero form, and so is its table
        route = CoordinateRoute(toric)
        machine = route.machine
        eta = change_frame(log_one_form(VS, 1), route.coord)
        form = eta.wedge(route.phi_wedge((1, 2, 3, 4)))
        assert form.is_zero()
        assert machine.sharp_numerators(form) == (1, [])
        assert table_extraction(machine, (1, 2, 3, 4), 1) == (5, (-1, -1, -1, -1), [], 1, [])
        assert machine.certifies(5, (-1, -1, -1, -1), [], 1, [])

    def test_filtration_level_reads_the_log_frame(self, toric):
        # a log-frame input is read without a detour through coordinates
        phis = phi_forms(toric)
        prod = wedge(phis[0], phis[2])
        assert filtration_level_of(toric, change_frame(prod, log_frame(VS))) == 2
        assert filtration_level_of(toric, prod) == 2


class TestEveryLogPlusColumn:
    """At 2n = 4, cap 2 every column of the build equals the per-column
    oracle.  The pieces are merged once per index set I, and a column uses
    those of the i in the support of E; every (I, support of E) below the
    top degree is checked, so every merged piece is read with each subset
    of its eta_i ^ phi_I terms switched on."""

    def assert_every_column(self, p: PoissonStructure) -> list:
        cx = build_logplus_complex(p, 2)
        route = CoordinateRoute(p)
        checked = []
        for k, w in cx.diffs:
            for lab, column in zip(cx.basis[(k, w)], matrix_columns(cx, k, w)):
                assert column == logplus_column_oracle(route, lab), lab
                checked.append(lab)
        supports = {(lab[0], tuple(i for i, e in enumerate(lab[1]) if e)) for lab in checked}
        below_top = sum(math.comb(4, k) for k in range(4))
        assert len(supports) == below_top * 16 - sum(
            math.comb(4, k) * sum(math.comb(4, s) for s in range(k + 3, 5)) for k in range(4)
        )
        return checked

    @pytest.mark.parametrize("which", ["fixture", "fractional"])
    def test_every_column(self, toric, which):
        p = toric if which == "fixture" else fractional_2general_structure(11)
        checked = self.assert_every_column(p)
        assert len(checked) == len(set(checked))
        # E = 0 columns, and a column using the empty piece eta_4 ^ phi_(1,2,3):
        # pi_sharp sends it to A[4][4] v_4 ^ d_(1,2,3) = 0
        assert ((1, 3), (0, 0, 0, 0)) in checked and ((), (0, 0, 0, 0)) in checked
        assert ((1, 2, 3), (0, 0, 0, 1)) in checked
        route = CoordinateRoute(p)
        eta4 = change_frame(log_one_form(VS, 4), route.coord)
        empty = eta4.wedge(route.phi_wedge((1, 2, 3)))
        assert empty.is_zero() and route.machine.sharp_numerators(empty) == (1, [])
        assert not any(route.machine.pieces((1, 2, 3))[1][3])


class TestConjugation:
    def test_matrices_agree(self, toric):
        rep = conjugation_report(toric, 2, 3)
        assert rep["verdict"]
        assert all(s["equal"] for s in rep["slices"])

    def test_negative_max_degree_rejected(self, toric):
        # no slice would be compared, and the verdict would be vacuously true
        with pytest.raises(ValueError, match="max_degree"):
            conjugation_report(toric, 2, max_degree=-1)

    def test_chain_map_on_log_subcomplex(self, toric):
        # sharp intertwines d with the bracket differential on log forms
        rng = random.Random(29)
        lg = log_frame(VS)
        for _ in range(12):
            k = rng.randint(0, 3)
            idx = tuple(sorted(rng.sample(range(1, 5), k)))
            exps = tuple(rng.randint(0, 2) for _ in range(4))
            omega = change_frame(
                DiffForm(lg, k, {idx: LaurentPoly.monomial(VS, exps, 1)}),
                coordinate_frame(VS),
            )
            machine = _PlusMachine(toric)
            lhs = extracted_sharp(machine, exterior_derivative(omega))
            rhs = schouten(extracted_sharp(machine, omega), toric.bivector)
            assert lhs == rhs

    def test_bracket_complex_d_squared(self, toric):
        assert verify_d_squared(build_bracket_complex(toric, 2))


def class_labels(nv: int, iset, degree: int, w: int):
    """Labels (K, E) of the classes phi_I ^ x^E eta_K at (degree, w) of the
    piece of I: |K| = degree - |I| (K may meet I), E vanishes on I and
    |E| = w + |I|."""
    rest = [i for i in range(1, nv + 1) if i not in iset]
    for kset in itertools.combinations(range(1, nv + 1), degree - len(iset)):
        for fexp in _monomials(len(rest), w + len(iset)):
            exps = [0] * nv
            for var, e in zip(rest, fexp):
                exps[var - 1] = e
            yield kset, tuple(exps)


def class_vectors(p: PoissonStructure):
    """Oracle: ``vector(iset, kset, exps, index)`` is the sparse coordinate
    vector, in a slice basis with label positions ``index``, of the class of
    phi_I ^ x^E eta_K through the sharp identification: x^E d_I wedged with
    the |K|-fold wedge of the pi_sharp(eta_t), t in K.  Asserts that every
    term keeps the level set I, i.e. stays in the graded piece of I."""
    vs = p.var_spec
    coord = coordinate_frame(vs)
    one = LaurentPoly.const(vs, 1)
    sharp_eta = [
        pi_sharp(p, change_frame(log_one_form(vs, t), coord))
        for t in range(1, vs.total_vars + 1)
    ]

    @functools.cache
    def base(iset, kset) -> list:
        acc = vector_monomial(coord, iset, one)
        for t in kset:
            acc = acc.wedge(sharp_eta[t - 1])
        return _flatten(acc)

    def vector(iset, kset, exps, index) -> dict:
        vec = {}
        for (jdx, e0), c in base(iset, kset):
            e2 = tuple(map(sum, zip(e0, exps)))
            assert tuple(i for i in jdx if e2[i - 1] == 0) == iset, (
                "class representative left the graded piece"
            )
            vec[index[(jdx, e2)]] = c
        return vec

    return vector


def qi_components(p: PoissonStructure, iset, weight_cap: int, max_degree: int) -> dict:
    """Oracle: per-slice report on the piece of ``iset`` built at
    ``weight_cap``, through ``max_degree``: spans of the eta-labelled classes
    grouped by their divisor-differential label, plus the
    twisted-differential shape check (``twisted_shape_check``)."""
    cx = build_qi(p, iset, weight_cap)
    signs = dphi_signs(CoordinateRoute(p), iset)
    vs = p.var_spec
    vector = class_vectors(p)
    classes: dict = {}

    def slice_classes(degree: int, w: int) -> dict:
        """Class label -> class vector on one slice, computed once."""
        if (degree, w) not in classes:
            index = {lab: i for i, lab in enumerate(cx.basis.get((degree, w), []))}
            classes[(degree, w)] = {
                (kset, exps): vector(iset, kset, exps, index)
                for kset, exps in class_labels(vs.total_vars, iset, degree, w)
            }
        return classes[(degree, w)]

    report: dict = {}
    for degree in range(len(iset), min(max_degree, vs.total_vars) + 1):
        for w in cx.weights_at(degree):
            vecs = slice_classes(degree, w)
            groups: dict = {}
            for (kset, _exps), vec in vecs.items():
                groups.setdefault(tuple(i for i in kset if i in iset), []).append(vec)
            jparts = sorted(groups)
            ranks = [linalg.rank(groups[j]) for j in jparts]
            span_dim = linalg.rank(list(vecs.values()))
            module_dim = cx.slice_dim(degree, w)
            dmat = cx.diffs.get((degree, w))
            report[(degree, w)] = {
                "module_dim": module_dim,
                "class_span_dim": span_dim,
                "spanning": span_dim == module_dim,
                "per_label_rank": dict(zip(jparts, ranks)),
                "label_rank_sum": sum(ranks),
                "direct": sum(ranks) == span_dim,
                "twisted_shape_verified": dmat is None or twisted_shape_check(
                    vs, iset, dmat, vecs, slice_classes(degree + 1, w), signs
                ),
            }
    return report


def twisted_shape_check(vs, iset, dmat, classes, target, signs) -> bool:
    """Certify that on every class phi_I ^ psi of a slice the induced
    differential ``dmat`` equals the class of (-1)^{|I|} (d psi + sum_i c_i
    eta_i psi) with the computed signs: the differential of a lifted
    representative, projected back, has the predicted two-component shape.
    ``classes`` and ``target`` map the class labels of the slice and of the
    next one to their class vectors."""
    lg = log_frame(vs)
    sign_i = Fraction(-1) if len(iset) % 2 else Fraction(1)
    for (kset, exps), psi_vec in classes.items():
        psi = DiffForm(lg, len(kset), {kset: LaurentPoly.monomial(vs, exps, 1)})
        chi = exterior_derivative(psi)
        for i in iset:
            chi = chi + wedge(log_one_form(vs, i), psi).scale(signs[i])
        chi = chi.scale(sign_i)
        chi_vec: dict = {}
        for cidx, cpoly in chi.terms.items():
            for e2, c2 in cpoly.terms.items():
                if any(e2[r - 1] != 0 for r in iset):
                    return False
                for r, b in target[(cidx, e2)].items():
                    chi_vec[r] = chi_vec.get(r, 0) + c2 * b
        dvec = {}
        for r, row in enumerate(dmat):
            val = sum(row[c] * x for c, x in psi_vec.items() if c in row)
            if val:
                dvec[r] = val
        if dvec != {r: val for r, val in chi_vec.items() if val}:
            return False
    return True


class TestGradedPieces:
    def test_signs_are_uniform(self, toric):
        # the gate admits each structure, and what its x_i^-1 theta_i shape
        # implies, d(phi_I) = -sum_{i in I} eta_i ^ phi_I, holds exactly on
        # the coordinate wedges for every nonempty I at 2n = 4 and 2n = 6
        structures = [toric] + [
            random_2general_toric(random.Random(seed), 3).structure for seed in (3, 5)
        ]
        for p in structures:
            _theta(p)
            route = CoordinateRoute(p)
            nv = p.var_spec.total_vars
            for size in range(1, nv + 1):
                for iset in itertools.combinations(range(1, nv + 1), size):
                    assert dphi_signs(route, iset) == {i: Fraction(-1) for i in iset}

    def test_exact_in_low_degrees(self, toric):
        for iset in [(1,), (3,), (1, 2), (2, 4)]:
            q = build_qi(toric, iset, 3)
            assert verify_d_squared(q)
            rep = verify_exactness(q, range(len(iset), 3))
            assert rep["verdict"] == "exact"

    def test_single_group_full_index_set(self, toric):
        q = build_qi(toric, (1, 2, 3, 4), 4)
        assert q.dims(4) == {-4: 1}
        for degree in range(5, 9):
            assert q.weights_at(degree) == []
        assert cohomology_dims(q, 4) == {-4: 1}
        rep = verify_exactness(q, range(4, 5))
        assert rep["verdict"] == "not_exact"
        assert rep["table"] == [{"degree": 4, "weight": -4, "dim_cohomology": 1}]

    def test_components_span_and_shape(self, toric):
        components = qi_components(toric, (1,), 2, 2)
        for key, comp in components.items():
            assert comp["spanning"], key
            assert comp["twisted_shape_verified"], key
            assert comp["direct"], key

    def test_component_relation_is_visible(self, toric):
        # at one degree above the bottom the plain-label classes satisfy one
        # relation per coefficient monomial: the span is smaller than the
        # label count (4 classes of rank 3 split as 2 + 1)
        comp = qi_components(toric, (1,), 2, 2)[(2, -1)]
        assert comp["module_dim"] == 3
        assert comp["per_label_rank"] == {(): 2, (1,): 1}

    def test_cocycle_with_exact_leading_part_is_boundary(self, toric):
        # the differential of a bottom class gamma is a cocycle whose two
        # labelled components are exactly (d gamma, +/- gamma); conversely
        # any such pair with exact leading part is this boundary
        vector = class_vectors(toric)
        iset = (1,)
        q = build_qi(toric, iset, 2)
        labels1 = q.basis[(1, 0)]
        labels2 = q.basis[(2, 0)]
        index1 = {lab: i for i, lab in enumerate(labels1)}
        index2 = {lab: i for i, lab in enumerate(labels2)}
        gamma = ((), (0, 1, 0, 0))  # the class of x2 * phi_1
        gamma_vec = vector(iset, gamma[0], gamma[1], index1)
        mat1 = q.diffs[(1, 0)]
        z = [
            sum(mat1[r].get(c, 0) * gamma_vec.get(c, 0) for c in range(len(labels1)))
            for r in range(len(labels2))
        ]
        assert any(v != 0 for v in z)
        mat2 = q.diffs[(2, 0)]
        dz = [
            sum(mat2[r].get(c, 0) * z[c] for c in range(len(labels2)))
            for r in range(len(q.basis[(3, 0)]))
        ]
        assert all(v == 0 for v in dz)
        # predicted shape: z = class of -(d psi) + class of eta_1 ^ psi for
        # psi = x2, using the computed sign c_1 = -1
        vec_dpsi = vector(iset, (2,), (0, 1, 0, 0), index2)
        vec_eta1psi = vector(iset, (1,), (0, 1, 0, 0), index2)
        assert dphi_signs(CoordinateRoute(toric), iset)[1] == Fraction(-1)
        expected = [
            -vec_dpsi.get(c, 0) + vec_eta1psi.get(c, 0) for c in range(len(labels2))
        ]
        assert z == expected
        assert any(v != 0 for v in vec_dpsi.values())
        assert any(v != 0 for v in vec_eta1psi.values())

    def test_invalid_index_sets(self, toric):
        with pytest.raises(ValueError):
            build_qi(toric, (5,), 1)
        with pytest.raises(ValueError):
            build_qi(toric, (1, 1), 1)
        # True == 1 and 1.0 == 1 to Python; neither is a divisor index
        for iset in [(True,), (True, 2), (1.0,)]:
            with pytest.raises(ValueError, match="divisor indices"):
                build_qi(toric, iset, 1)


def assert_qi_layout(p: PoissonStructure, iset: IndexSet) -> None:
    """Q_I lists the label (M, E) at offset(M) + rank(F'): F' = E - 1_K on
    the variables off I, K = M - I, ranks among _monomials(2n - |I|, w + |I|),
    and offset(M) is the index of K among the combinations of the variables
    off I times the number of those monomials."""
    cx = build_qi(p, iset, 2)
    rest = [i for i in range(1, p.var_spec.total_vars + 1) if i not in iset]
    checked = 0
    for (k, w), basis in cx.basis.items():
        mons = _monomials(len(rest), w + len(iset))
        ksets = list(itertools.combinations(rest, k - len(iset)))
        for position, (indices, exps) in enumerate(basis):
            kset = tuple(i for i in indices if i not in iset)
            assert len(indices) == k and all(exps[i - 1] == 0 for i in iset)
            fexp = tuple(exps[i - 1] - (i in kset) for i in rest)
            assert position == ksets.index(kset) * len(mons) + mons.index(fexp)
            checked += 1
    assert checked > 0


QI_LAYOUT_CASES = {
    "qi_fixture_12": lambda: (toric_structure(EXPLICIT_GRID), (1, 2)),
    "qi_resonant_34": lambda: (load_structure(RESONANT_STRUCTURE), (3, 4)),
    "qi_2n6_1": lambda: (random_2general_toric(random.Random(3), 3).structure, (1,)),
}


class TestSliceLayout:
    """Slice (k, w) lists, for I in combinations order, the monomials of
    |E| = w minus the frame weight of I: the label (I, E) sits at
    offset(I) + rank(E), its index in the sorted basis.  Q_I lays out only
    its own labels, on the variables off I."""

    @pytest.mark.parametrize(
        "which", ["log_4_2", "log_6_3", "logplus", "bracket", "bracket_2n6", *QI_LAYOUT_CASES]
    )
    def test_position_is_basis_index(self, toric, which):
        if which in QI_LAYOUT_CASES:
            assert_qi_layout(*QI_LAYOUT_CASES[which]())
            return
        if which.startswith("log_"):
            nv, m = map(int, which.split("_")[1:])
            vs = VarSpec(nv, m)
            cx, frame, is_form = build_log_complex(vs, 2), log_frame(vs), True
        else:
            p = random_2general_toric(random.Random(3), 3).structure if which == "bracket_2n6" else toric
            build = build_logplus_complex if which == "logplus" else build_bracket_complex
            cx, frame, is_form = build(p, 2), coordinate_frame(p.var_spec), False
        nv = cx.var_spec.total_vars
        checked = 0
        for (k, w), basis in cx.basis.items():
            blocks = _slice(frame.kind, frame.var_spec, is_form, k, w)[0]
            for indices, exps in basis:
                offset, total = blocks[indices]
                assert sum(exps) == total
                position = offset + _ranks(nv, total)[exps]
                assert position == basis.index((indices, exps))
                checked += 1
        assert checked == sum(map(len, cx.basis.values())) > 0

    def test_raise_and_lower_tables(self):
        for nv in range(1, 5):
            for total in range(4):
                mons = _monomials(nv, total)
                for j in range(nv):
                    up = [_monomials(nv, total + 1)[r] for r in _moved(nv, total, 1)[j]]
                    assert up == [e[:j] + (e[j] + 1,) + e[j + 1 :] for e in mons]
                    down = [
                        _monomials(nv, total - 1)[r] if r >= 0 else None
                        for r in _moved(nv, total, -1)[j]
                    ]
                    assert down == [
                        e[:j] + (e[j] - 1,) + e[j + 1 :] if e[j] else None for e in mons
                    ]

    @pytest.mark.parametrize("path", ["fixture", "resonant"])
    def test_qi_is_the_bracket_complex_restricted(self, path):
        # Q_I's own layout against the bracket complex's, whole columns: for
        # every I, the bracket columns of the piece's labels have no entry
        # off the piece, and on it they are the columns of build_qi
        p = load_structure(FIXTURE_STRUCTURE if path == "fixture" else RESONANT_STRUCTURE)
        bracket = build_bracket_complex(p, 2)
        nv = p.var_spec.total_vars
        compared = 0
        for size in range(nv + 1):
            for iset in itertools.combinations(range(1, nv + 1), size):
                qi = build_qi(p, iset, 2)
                for (k, w), mat in qi.diffs.items():
                    position = {lab: c for c, lab in enumerate(bracket.basis[(k, w)])}
                    columns = [position[lab] for lab in qi.basis[(k, w)]]
                    targets = qi.basis.get((k + 1, w), [])
                    restricted = {}
                    for lab, row in zip(bracket.basis.get((k + 1, w), []), bracket.diffs[(k, w)]):
                        entries = {q: row[c] for q, c in enumerate(columns) if c in row}
                        if lab in targets:
                            restricted[lab] = entries
                        else:
                            assert not entries, (iset, (k, w), lab)
                    assert [restricted[lab] for lab in targets] == mat, (iset, (k, w))
                    compared += 1
        assert compared > 0

    def test_qi_tables_stay_off_the_piece(self, toric, monkeypatch):
        # Q_I builds and reads its monomial tables on the 2n - |I| variables
        # off I: none of them is called with all 2n variables
        calls = []
        for name in ("_monomials", "_ranks", "_moved", "_first_lowered"):

            def record(nvars, *args, real=getattr(complexes, name)):
                calls.append(nvars)
                return real(nvars, *args)

            monkeypatch.setattr(complexes, name, record)
        cases = [(toric, iset) for size in range(1, 5) for iset in itertools.combinations(range(1, 5), size)]
        cases.append((random_2general_toric(random.Random(3), 3).structure, (1,)))
        for p, iset in cases:
            calls.clear()
            build_qi(p, iset, 2)
            assert calls and p.var_spec.total_vars not in calls, iset

    def test_qi_image_leaving_the_piece_raises(self, toric, monkeypatch):
        # build_qi keeps the _qi_slice labels of each bracket slice; with the
        # degree-2 slices of Q_(1) emptied, the images of degree 1 land
        # outside the kept labels
        real = complexes._qi_slice

        def without_degree_2(vs, iset, degree, w):
            return ({}, []) if degree == 2 else real(vs, iset, degree, w)

        monkeypatch.setattr(complexes, "_qi_slice", without_degree_2)
        with pytest.raises(AssertionError, match="left the slice"):
            build_qi(toric, (1,), 1)

    def test_piece_leaving_the_polynomial_span_raises(self, toric, monkeypatch):
        # one target of each piece moved to the label with one exponent
        # lowered below zero and another raised (same weight, same slice),
        # and the certificate passed: the column (I, 0) then has a negative
        # exponent
        real_sharp = _PlusMachine.sharp_rows

        def lowered_sharp(machine, degree, num_den, rows):
            den, nums = real_sharp(machine, degree, num_den, rows)
            if nums:
                (kdx, exps), n = nums[0]
                low = exps.index(0)
                high = (low + 1) % len(exps)
                moved = list(exps)
                moved[low] -= 1
                moved[high] += 1
                nums = [((kdx, tuple(moved)), n), *nums[1:]]
            return den, nums

        monkeypatch.setattr(_PlusMachine, "sharp_rows", lowered_sharp)
        monkeypatch.setattr(_PlusMachine, "certifies", lambda machine, *piece: True)
        with pytest.raises(AssertionError, match="left the polynomial log-plus span"):
            build_logplus_complex(toric, 1)

    def test_logplus_target_leaving_the_slice_raises(self, toric, monkeypatch):
        # the first target of each piece raised by e_1, and the certificate
        # passed: that target weighs one more than the column, so it lies in
        # a block of the wrong total or in none of the target slice
        real_sharp = _PlusMachine.sharp_rows

        def raised_sharp(machine, degree, num_den, rows):
            den, nums = real_sharp(machine, degree, num_den, rows)
            if nums:
                (kdx, exps), n = nums[0]
                nums = [((kdx, (exps[0] + 1, *exps[1:])), n), *nums[1:]]
            return den, nums

        monkeypatch.setattr(_PlusMachine, "sharp_rows", raised_sharp)
        monkeypatch.setattr(_PlusMachine, "certifies", lambda machine, *piece: True)
        with pytest.raises(AssertionError, match="left the slice"):
            build_logplus_complex(toric, 1)

    def test_logplus_reads_no_koszul_table(self, toric, monkeypatch):
        # c04 compares two routes: the log-plus writer shares only the
        # structure-free monomial tables with the bracket writer
        bracket = build_bracket_complex(toric, 2)

        def refuse(*args):
            raise AssertionError("the log-plus build read a Koszul table")

        monkeypatch.setattr(complexes, "_koszul_tables", refuse)
        assert build_logplus_complex(toric, 2).diffs == bracket.diffs

    def test_logplus_extracts_each_piece_once(self, toric, monkeypatch):
        # the 2n pieces eta_i ^ phi_I of I, and no d(phi_I), are extracted
        # and certified while the first block of I is written and never
        # again: the merged targets are cached per index set, the pieces
        # themselves are not
        calls, certified, writing = collections.Counter(), collections.Counter(), [None]
        real_fill, real_sharp = complexes._fill_slices, _PlusMachine.sharp_rows
        real_certifies = _PlusMachine.certifies

        def fill(cx, slice_of, write):
            def write_noting_block(blocks, indices, *args):
                writing[0] = indices
                write(blocks, indices, *args)

            return real_fill(cx, slice_of, write_noting_block)

        def counted_sharp(machine, *piece):
            calls[writing[0]] += 1
            return real_sharp(machine, *piece)

        def counted_certifies(machine, *piece):
            certified[writing[0]] += 1
            return real_certifies(machine, *piece)

        monkeypatch.setattr(complexes, "_fill_slices", fill)
        monkeypatch.setattr(_PlusMachine, "sharp_rows", counted_sharp)
        monkeypatch.setattr(_PlusMachine, "certifies", counted_certifies)
        cx = build_logplus_complex(toric, 2)
        nv = toric.var_spec.total_vars
        with_column = {lab[0] for (k, _w), labels in cx.basis.items() if k < nv for lab in labels}
        assert len(with_column) == 2**nv - 1
        assert calls == certified == dict.fromkeys(with_column, nv)

    def test_gate_reads_the_log_matrix_once(self, toric, monkeypatch):
        # the gate inverts the grid D A it read and does not read A a second
        # time; theta / T is that inverse, and phi_forms, the symbolic route
        # the gate does not run, gives phi_i = x_i^-1 theta_i / T
        calls = []
        real = poisson.log_matrix

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(poisson, "log_matrix", counted)
        monkeypatch.setattr(koszul, "log_matrix", counted)
        p6 = random_2general_toric(random.Random(3), 3).structure
        for p in (toric, p6, fractional_2general_structure(11)):
            calls.clear()
            grid, (den, theta) = _theta(p)
            assert calls == [p]
            assert [[Fraction(c, den) for c in row] for row in theta] == (
                inverse_log_matrix(p).constant_grid()
            )
            vs = p.var_spec
            lg = log_frame(vs)
            for i, phi in enumerate(phi_forms(p), 1):
                pole = tuple(-int(t == i) for t in range(1, vs.total_vars + 1))
                terms = {
                    (j,): LaurentPoly.monomial(vs, pole, Fraction(c, den))
                    for j, c in enumerate(theta[i - 1], 1)
                    if c
                }
                assert change_frame(phi, lg) == DiffForm(lg, 1, terms), (p, i)

    def test_gate_builds_no_form(self, toric, monkeypatch, tmp_path):
        # theta is read off the inverse, so with pi_flat's body refused the
        # gate and everything behind it give what they gave before
        structures = [toric, random_2general_toric(random.Random(3), 3).structure,
                      fractional_2general_structure(11)]
        isets = [(1,), (2, 4), (1, 2, 3, 4)]

        def run():
            return (
                [_theta(p) for p in structures],
                [build_qi(toric, iset, 2) for iset in isets],
                [filtration_report(toric, level, 2, 4) for level in range(5)],
                [build_logplus_complex(p, 1) for p in (toric, structures[2])],
            )

        before = run()

        def refuse(*_args):
            raise AssertionError("a phi form was built")

        monkeypatch.setattr(poisson, "_flat", refuse)
        with pytest.raises(AssertionError, match="a phi form was built"):
            phi_forms(toric)
        assert run() == before
        for name, argv, code in CASES:
            if name.startswith("verify_exactness"):
                out = tmp_path / f"{name}.json"
                assert cli.main(argv + ["--out", str(out)]) == code
                assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    def test_each_builder_reads_the_log_matrix_once(self, toric, monkeypatch):
        # the phi-model gate hands its callers the grid D A it read, so a
        # _PlusMachine and a graded piece read A once each
        calls = []
        real = koszul.log_matrix

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(koszul, "log_matrix", counted)
        p6 = random_2general_toric(random.Random(3), 3).structure
        for p in (toric, p6):
            calls.clear()
            _PlusMachine(p)
            assert calls == [p]
            for iset in [(), (1,), (2, 3), (1, 2, 3, 4)]:
                calls.clear()
                build_qi(p, iset, 2)
                assert calls == [p], iset

    def test_logplus_target_with_no_entry_is_skipped(self, toric, monkeypatch):
        # the same target off the slice, with numerator 0 next to the real
        # ones: it adds nothing to any column, so its block is never looked
        # up and the matrices are unchanged
        want = build_logplus_complex(toric, 1)
        real_sharp, added = _PlusMachine.sharp_rows, []

        def with_zero_target(machine, degree, num_den, rows):
            den, nums = real_sharp(machine, degree, num_den, rows)
            if nums:
                (kdx, exps), _n = nums[0]
                nums = [*nums, ((kdx, (exps[0] + 1, *exps[1:])), 0)]
                added.append(kdx)
            return den, nums

        monkeypatch.setattr(_PlusMachine, "sharp_rows", with_zero_target)
        monkeypatch.setattr(_PlusMachine, "certifies", lambda machine, *piece: True)
        got = build_logplus_complex(toric, 1)
        assert added and got.basis == want.basis and got.diffs == want.diffs


def slice_oracle(frame, is_form: bool, k: int, w: int):
    """Independent layout: the slice (k, w) of the frame basis as (blocks,
    labels), built afresh on every call by walking the index sets in
    ``combinations`` order, each followed by the sorted monomials of its
    total."""
    nv = frame.var_spec.total_vars
    blocks, labels = {}, []
    for indices in itertools.combinations(range(1, nv + 1), k):
        total = w - exterior.frame_element_weight(frame, indices, is_form)
        if mons := _monomials(nv, total):
            blocks[indices] = (len(labels), total)
            labels.extend((indices, e) for e in mons)
    return blocks, labels


class TestSharedLayouts:
    """A slice layout is built once per shape and shared by every build of
    that shape; each complex gets its own ``basis`` lists."""

    @pytest.mark.parametrize(
        "frame, is_form",
        [(log_frame(VarSpec(4, 2)), True), (coordinate_frame(VS), False), (coordinate_frame(VarSpec(6, 6)), False)],
        ids=["log_4_2", "coordinate_4", "coordinate_6"],
    )
    def test_kept_layout_is_the_oracle(self, frame, is_form):
        nv = frame.var_spec.total_vars
        compared = 0
        for k in range(nv + 1):
            for w in range(-k, 3):
                blocks, labels = _slice(frame.kind, frame.var_spec, is_form, k, w)
                assert (blocks, list(labels)) == slice_oracle(frame, is_form, k, w), (k, w)
                compared += len(labels)
        assert compared > 0

    @pytest.mark.parametrize("which", ["log", "logplus", "bracket"])
    def test_builds_get_distinct_equal_bases(self, toric, which):
        build = {
            "log": lambda: build_log_complex(VarSpec(4, 2), 2),
            "logplus": lambda: build_logplus_complex(toric, 2),
            "bracket": lambda: build_bracket_complex(toric, 2),
        }[which]
        first, second = build(), build()
        assert first.basis == second.basis
        assert all(first.basis[key] is not second.basis[key] for key in first.basis)
        appended = (("junk",), ())
        for labels in first.basis.values():
            labels.append(appended)
        third = build()
        assert third.basis == second.basis and third.diffs == second.diffs
        assert not any(appended in labels for labels in third.basis.values())

    def test_conjugation_report_computes_each_layout_once(self, toric):
        # the log-plus and bracket builds of one report share every layout:
        # each is computed by the first build and found by the second
        _slice.cache_clear()
        assert conjugation_report(toric, 2, 4)["verdict"]
        nv = toric.var_spec.total_vars
        shapes = sum(2 + k + 1 for k in range(nv + 1))  # weights -k..2 per degree
        info = _slice.cache_info()
        assert (info.misses, info.hits, info.currsize) == (shapes, shapes, shapes)


class TestCohomologyMachinery:
    def test_rank_cross_checked_by_reversed_elimination(self, toric):
        cx = build_logplus_complex(toric, 2)
        for (k, w), mat in cx.diffs.items():
            cols = list(range(cx.slice_dim(k, w)))
            assert linalg.rank(mat) == linalg.rank(mat, cols[::-1])

    def test_stored_rows_hold_no_zeros(self, toric, plus_w2):
        # columns are summed as integer numerators; only values in normal
        # form (an int exactly when integral, else a Fraction), and no
        # zeros, may reach the stored rows, on integer and fractional A
        fractional = fractional_2general_structure(11)
        complexes = [
            build_log_complex(VarSpec(4, 2), 2),
            plus_w2,
            build_bracket_complex(toric, 2),
            build_qi(toric, (1, 2), 2),
            build_logplus_complex(fractional, 2),
            build_bracket_complex(fractional, 2),
            build_qi(fractional, (1, 2), 2),
        ]
        for cx in complexes:
            for (k, w), mat in cx.diffs.items():
                assert len(mat) == cx.slice_dim(k + 1, w)
                for row in mat:
                    assert isinstance(row, dict)
                    assert all(0 <= c < cx.slice_dim(k, w) for c in row)
                    for v in row.values():
                        assert v != 0
                        assert type(v) is (Fraction if Fraction(v).denominator > 1 else int)

    def test_ranking_leaves_stored_rows_unchanged(self, toric):
        cx = build_bracket_complex(toric, 2)
        before = copy.deepcopy(cx.diffs)
        for k in range(5):
            cohomology_dims(cx, k)
        assert cx.diffs == before and verify_d_squared(cx)

    def test_zero_complex_exact(self):
        cx = WeightSlicedComplex("zero", VS, (0, 1), 2)
        rep = verify_exactness(cx, range(0, 2))
        assert rep["verdict"] == "exact"
        assert rep["table"] == []

    def test_weight_cap_zero_run(self, toric):
        q = build_qi(toric, (1,), 0)
        rep = verify_exactness(q, range(1, 3))
        assert rep["verdict"] == "exact"

    def test_each_differential_ranked_once(self, toric, monkeypatch):
        # a walk over all degrees meets every interior differential twice,
        # as outgoing and as incoming map; it must be eliminated only once,
        # on the rows that clearing keeps: those of the target labels that
        # are not pivot columns of the next differential
        cx = build_bracket_complex(toric, 2)
        plain = {kw: linalg.rank(mat) for kw, mat in cx.diffs.items()}

        def stored_rank(k, w):
            return plain.get((k, w), 0)

        def kept_rows(k, w):
            return cx.slice_dim(k + 1, w) - stored_rank(k + 1, w)

        expected = {
            k: {w: cx.slice_dim(k, w) - stored_rank(k, w) - stored_rank(k - 1, w)
                for w in cx.weights_at(k)}
            for k in range(5)
        }
        eliminated = []
        pivot_columns = linalg.pivot_columns

        def counting_pivot_columns(rows, *args, **kwargs):
            eliminated.append(list(rows))
            return pivot_columns(rows, *args, **kwargs)

        monkeypatch.setattr(linalg, "pivot_columns", counting_pivot_columns)
        assert {k: cohomology_dims(cx, k) for k in range(5)} == expected
        owner = {id(row): kw for kw, mat in cx.diffs.items() for row in mat}
        keys = []
        for rows in eliminated:
            (kw,) = {owner[id(row)] for row in rows}
            assert len(rows) == kept_rows(*kw), kw
            keys.append(kw)
        assert sorted(keys) == sorted(kw for kw in cx.diffs if kept_rows(*kw))
        assert any(stored_rank(k + 1, w) for k, w in keys)

    @pytest.mark.parametrize("fractional", [False, True])
    def test_d_squared_detects_one_changed_entry(self, toric, fractional):
        # change one stored entry of d_k at (row i, column j) for each k:
        # d_(k+1) d_k then changes by column i of d_(k+1) in column j
        p = fractional_2general_structure(11) if fractional else toric
        changed = 0
        for k in range(4):
            cx = build_bracket_complex(p, 2)
            assert verify_d_squared(cx)
            for (k2, w), mat in cx.diffs.items():
                nxt = cx.diffs.get((k2 + 1, w))
                if k2 != k or not nxt:
                    continue
                hit = {i for row in nxt for i in row}
                i = next((i for i, row in enumerate(mat) if row and i in hit), None)
                if i is not None:
                    j = next(iter(mat[i]))
                    mat[i][j] += Fraction(1, 2) if fractional else 1
                    break
            else:
                continue
            changed += 1
            assert not verify_d_squared(cx), (k, w, i, j)
        assert changed == 3

    @pytest.mark.parametrize("fractional", [False, True])
    def test_d_squared_prepares_each_differential_once(self, toric, monkeypatch, fractional):
        # a differential is the second factor of one product and the first
        # of the next, and is read as integer rows once per check; a changed
        # entry is still found
        prepared = collections.Counter()
        real = linalg._int_rows

        def counted(rows):
            prepared[id(rows)] += 1
            return real(rows)

        monkeypatch.setattr(linalg, "_int_rows", counted)
        cx = build_bracket_complex(fractional_2general_structure(11) if fractional else toric, 2)
        products = [(k, w) for (k, w), mat in cx.diffs.items() if mat and cx.diffs.get((k + 1, w))]
        factors = {kw for k, w in products for kw in ((k, w), (k + 1, w))}
        assert len(factors) < 2 * len(products)
        assert verify_d_squared(cx)
        assert prepared == {id(cx.diffs[kw]): 1 for kw in factors}
        k, w = products[len(products) // 2]
        mat, hit = cx.diffs[(k, w)], {i for row in cx.diffs[(k + 1, w)] for i in row}
        i = next(i for i, row in enumerate(mat) if row and i in hit)
        mat[i][next(iter(mat[i]))] += Fraction(1, 2) if fractional else 1
        prepared.clear()
        assert not verify_d_squared(cx)
        assert set(prepared.values()) == {1}

    def test_all_dims_nonnegative(self, toric):
        q = build_qi(toric, (1, 2), 2)
        for degree in range(2, 5):
            for dim in cohomology_dims(q, degree).values():
                assert dim >= 0


def oracle_slices(p: PoissonStructure, level: int, weight_cap: int, max_degree: int) -> list:
    """``filtration_report``'s slices from the class-vector oracle: the
    classes of each piece Q_I, |I| = level, ranked in its own slice
    (``_qi_slice``), and asserted to span it."""
    nv = p.var_spec.total_vars
    vector = class_vectors(p)
    isets = list(itertools.combinations(range(1, nv + 1), level))
    slices = []
    for degree in range(level, min(max_degree, nv) + 1):
        for w in range(-level, weight_cap + 1):
            bases = [_qi_slice(p.var_spec, iset, degree, w)[1] for iset in isets]
            if not any(bases):
                continue
            ranks = []
            for iset, basis in zip(isets, bases):
                index = {lab: i for i, lab in enumerate(basis)}
                vecs = [vector(iset, *lab, index) for lab in class_labels(nv, iset, degree, w)]
                ranks.append(linalg.rank(vecs))
            assert ranks == [len(basis) for basis in bases], (degree, w)
            slices.append(
                {
                    "degree": degree,
                    "weight": w,
                    "per_piece_rank": ranks,
                    "combined_rank": sum(ranks),
                    "direct": True,
                }
            )
    return slices


class TestFiltration:
    def test_log_forms_are_level_zero(self, toric):
        omega = change_frame(log_one_form(VS, 1), coordinate_frame(VS))
        assert filtration_level_of(toric, omega) == 0

    def test_phi_level_one(self, toric):
        phi1 = phi_forms(toric)[0]
        assert filtration_level_of(toric, phi1) == 1

    def test_product_level_two_and_annihilator(self, toric):
        phis = phi_forms(toric)
        prod = wedge(phis[0], phis[1])
        assert filtration_level_of(toric, prod) == 2
        dropped = prod.scale(LaurentPoly.variable(VS, 1))
        assert filtration_level_of(toric, dropped) == 1

    def test_outside_span_detected(self, toric):
        # a bare monomial with too deep a pole is not in the polynomial span
        bad = form_monomial(
            coordinate_frame(VS), (1,), poly_from_string("x1^-3", VS)
        )
        assert filtration_level_of(toric, bad) is None

    def test_multivector_rejected(self, toric):
        with pytest.raises(TypeError, match="DiffForm"):
            filtration_level_of(toric, toric.bivector)

    def test_report_direct_with_annihilators(self, toric):
        rep = filtration_report(toric, 1, 1, 2)
        assert rep["direct"]
        assert rep["annihilator_ok"]
        rep2 = filtration_report(toric, 2, 0, 3)
        assert rep2["direct"]
        assert rep2["annihilator_ok"]

    def test_annihilator_check_can_fail(self, toric, monkeypatch):
        # with B doubled the gate reads theta = 2 B off the inverse, so
        # pi_sharp(phi_i) = 2 d_i and theta A = 1 fails; level 0 has no phi_i
        # to check
        real = complexes._inverse

        def doubled(vs, grid):
            return poisson.SkewMatrix(vs, [[b + b for b in row] for row in real(vs, grid).rows])

        monkeypatch.setattr(complexes, "_inverse", doubled)
        for level in range(1, 5):
            assert not filtration_report(toric, level, 0, 4)["annihilator_ok"], level
        assert filtration_report(toric, 0, 0, 4)["annihilator_ok"]

    def test_annihilator_check_fails_with_corrupted_sharp(self, toric, monkeypatch):
        # the gate hands back 2 D A: read through it, pi_sharp(phi_i) is
        # 2 d_i, the sharp that a check of filtration levels alone would pass
        real = complexes._theta

        def corrupted(p):
            (den, scaled), theta = real(p)
            return (den, [[2 * c for c in row] for row in scaled]), theta

        monkeypatch.setattr(complexes, "_theta", corrupted)
        for level in range(1, 5):
            assert not filtration_report(toric, level, 0, 4)["annihilator_ok"], level
        assert filtration_report(toric, 0, 0, 4)["annihilator_ok"]

    def test_report_reads_the_log_matrix_once(self, toric, monkeypatch):
        # the report takes D A and theta from the phi-model gate, which reads
        # A once, and reads no phi form of its own
        calls = []
        real = poisson.log_matrix

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(poisson, "log_matrix", counted)
        monkeypatch.setattr(koszul, "log_matrix", counted)
        p6 = random_2general_toric(random.Random(3), 3).structure
        for p in (toric, p6):
            for level in range(p.var_spec.total_vars + 1):
                calls.clear()
                filtration_report(p, level, 1, level)
                assert calls == [p], level

    def test_graded_side_builds_no_plus_machine(self, toric, monkeypatch):
        isets = [(1,), (2, 4), (1, 2, 3), (1, 2, 3, 4)]
        reports = [filtration_report(toric, level, 2, 4) for level in range(5)]
        pieces = [build_qi(toric, iset, 2) for iset in isets]
        theta = _theta(toric)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the graded-piece side built the log-plus machine")

        monkeypatch.setattr(complexes, "_PlusMachine", refuse)
        assert [filtration_report(toric, level, 2, 4) for level in range(5)] == reports
        assert all(rep["slices"] and rep["annihilator_ok"] for rep in reports)
        assert [build_qi(toric, iset, 2) for iset in isets] == pieces
        assert _theta(toric) == theta

    def test_graded_side_takes_no_coordinate_wedge(self, toric, monkeypatch, tmp_path):
        # the phi-model gate reads each phi_i in the log frame: no phi_I is
        # wedged or differentiated in coordinates, and nothing is contracted
        # into the bivector, for a graded piece, a filtration report or a
        # verify-exactness report
        isets = [(1,), (2, 4), (1, 2, 3, 4)]
        pieces = [build_qi(toric, iset, 2) for iset in isets]
        reports = [filtration_report(toric, level, 2, 4) for level in range(5)]

        def refuse(*_args, **_kwargs):
            raise AssertionError("the graded-piece side took a coordinate wedge")

        monkeypatch.setattr(exterior._GradedElement, "wedge", refuse)
        monkeypatch.setattr(exterior, "exterior_derivative", refuse)
        monkeypatch.setattr(exterior, "contract", refuse)
        monkeypatch.setattr(poisson, "pi_sharp", refuse)
        assert [build_qi(toric, iset, 2) for iset in isets] == pieces
        assert [filtration_report(toric, level, 2, 4) for level in range(5)] == reports
        assert all(rep["annihilator_ok"] for rep in reports)
        for name, argv, code in CASES:
            if name.startswith("verify_exactness"):
                out = tmp_path / f"{name}.json"
                assert cli.main(argv + ["--out", str(out)]) == code
                assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    def test_singular_matrix_refused_first(self):
        # the model gate, then A's inverse, come before every argument check
        p = make_toric([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]).structure
        refusals = [
            lambda: filtration_report(p, 7, -1, 0),
            lambda: build_qi(p, (1,), -1),
            lambda: _theta(p),
        ]
        for refusal in refusals:
            with pytest.raises(ValueError, match="log matrix is singular; no inverse bivector"):
                refusal()
        vs = VarSpec(4, 2)
        mixed = PoissonStructure(
            vs, MultiVector(coordinate_frame(vs), 2, {(1, 2): poly_from_string("x1*x2", vs)})
        )
        for refusal in (lambda: filtration_report(mixed, 7, -1, 0), lambda: _theta(mixed)):
            with pytest.raises(ValueError, match="every variable on the divisor"):
                refusal()

    @pytest.mark.parametrize("case", ["fixtures", "fractional", "2n6"])
    def test_report_slices_match_oracle_ranks(self, case):
        # the counted report against the class vectors ranked piece by piece
        if case == "fixtures":
            runs = [(p, level, 2) for p in fixture_structures() for level in range(5)]
        elif case == "fractional":
            runs = [(fractional_2general_structure(11), level, 2) for level in range(5)]
        else:
            p = random_2general_toric(random.Random(3), 3).structure
            runs = [(p, 1, 1), (p, 2, 0)]
        for p, level, cap in runs:
            nv = p.var_spec.total_vars
            rep = filtration_report(p, level, cap, nv)
            assert rep["slices"] == oracle_slices(p, level, cap, nv), level
            assert rep["direct"] and rep["annihilator_ok"]

    def test_report_ranks_nothing(self, toric, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("filtration_report ranked a matrix")

        monkeypatch.setattr(linalg, "rank", refuse)
        for level in range(5):
            rep = filtration_report(toric, level, 2, 4)
            assert rep["slices"] and rep["annihilator_ok"]

    def test_report_2n6_pieces_span_their_slices(self):
        p = random_2general_toric(random.Random(3), 3).structure
        rep = filtration_report(p, 1, 0, 6)
        isets = list(itertools.combinations(range(1, 7), 1))
        assert rep["slices"]
        for s in rep["slices"]:
            assert s["combined_rank"] == sum(s["per_piece_rank"])
            assert s["per_piece_rank"] == [
                len(_qi_slice(p.var_spec, iset, s["degree"], s["weight"])[1]) for iset in isets
            ]
        assert rep["direct"]
        assert rep["annihilator_ok"]

    @pytest.mark.parametrize("level", [-1, 5, 7])
    def test_report_rejects_level_outside_range(self, toric, level):
        # 2n = 4: above level 4 there are no pieces, so the report would be vacuous
        with pytest.raises(ValueError, match="filtration level"):
            filtration_report(toric, level, 1, 4)

    def test_report_rejects_negative_cap(self, toric):
        with pytest.raises(ValueError, match="weight_cap"):
            filtration_report(toric, 1, -1, 4)

    def test_report_rejects_max_degree_below_level(self, toric):
        # the pieces at level 2 start in degree 2, so no slice would be ranked
        with pytest.raises(ValueError, match="max_degree"):
            filtration_report(toric, 2, 1, max_degree=0)


# -- the closed-form bracket differential ---------------------------------------

FIXTURE_STRUCTURE = Path(__file__).resolve().parent.parent / "fixtures" / "toric_structure.json"


def fractional_2general_structure(seed: int, size: int = 4) -> PoissonStructure:
    """A nonsingular 2-general invariant structure whose log matrix has
    non-integer Fraction entries."""
    rng = random.Random(seed)
    while True:
        grid = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = Fraction(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]), rng.randint(1, 4))
                grid[i][j], grid[j][i] = v, -v
        if pfaffian(grid) == 0 or all(c.denominator == 1 for row in grid for c in row):
            continue
        p = toric_structure(grid)
        if is_standard_t_general(log_matrix(p), 2).verdict:
            return p


def assert_columns_match_schouten(cx, p) -> int:
    """Every column of every stored differential equals the flattened
    Schouten bracket of its source label with the bivector."""
    vs = p.var_spec
    coord = coordinate_frame(vs)
    checked = 0
    for k, w in cx.diffs:
        for (indices, exps), column in zip(cx.basis[(k, w)], matrix_columns(cx, k, w)):
            v = vector_monomial(coord, indices, LaurentPoly.monomial(vs, exps, 1))
            assert column == dict(_flatten(schouten(v, p.bivector))), (indices, exps)
            checked += 1
    return checked


def seeded_structures_2n4() -> list[PoissonStructure]:
    return [
        toric_structure(EXPLICIT_GRID),
        *(random_2general_toric(random.Random(seed), 2).structure for seed in (1, 2, 3)),
        fractional_2general_structure(11),
    ]


class TestClosedFormBracket:
    def test_bracket_columns_match_schouten_2n4(self):
        for p in seeded_structures_2n4():
            assert assert_columns_match_schouten(build_bracket_complex(p, 2), p) > 0

    def test_bracket_columns_match_schouten_2n6(self):
        p = random_2general_toric(random.Random(3), 3).structure
        assert assert_columns_match_schouten(build_bracket_complex(p, 0), p) == 8065

    def test_qi_columns_match_schouten(self):
        # at 2n = 4 the piece of (1, 2, 3, 4) has no differential, so that
        # index set is checked at 2n = 6
        for p in (toric_structure(EXPLICIT_GRID), fractional_2general_structure(11)):
            for iset in [(1,), (1, 2)]:
                assert assert_columns_match_schouten(build_qi(p, iset, 2), p) > 0
        p = random_2general_toric(random.Random(3), 3).structure
        for iset in [(1,), (1, 2), (1, 2, 3, 4)]:
            assert assert_columns_match_schouten(build_qi(p, iset, 1), p) > 0

    def test_nonconstant_log_matrix_rejected(self):
        vs = VarSpec(4, 4)
        terms = {
            (1, 2): poly_from_string("x1*x2 + x1*x2*x3", vs),
            (3, 4): poly_from_string("x3*x4", vs),
        }
        p = PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))
        with pytest.raises(ValueError, match="constant log matrix"):
            build_bracket_complex(p, 1)


def nonzero_cohomology(cx) -> dict[tuple[int, int], int]:
    nv = cx.var_spec.total_vars
    return {
        (k, w): h
        for k in range(nv + 1)
        for w, h in cohomology_dims(cx, k).items()
        if h
    }


RESONANT_STRUCTURE = FIXTURE_STRUCTURE.parent / "resonant_structure.json"
BLOCK_MATRIX = FIXTURE_STRUCTURE.parent / "block_matrix.json"
RESONANT_GRID = [[0, -4, -6, 6], [4, 0, 2, -2], [6, -2, 0, -3], [-6, 2, 3, 0]]


class TestResonantGrid:
    """A grid in 1-, 2- and 3-general position with a 2-resonant pair: rows
    3 and 4 of A cancel off {3, 4}, so Q_(3,4) carries d_3 ^ d_4 at weight
    -2.  Exactness of the graded pieces needs "no 2-resonance", which
    2-general position does not give."""

    @pytest.fixture(scope="class")
    def resonant(self):
        return PoissonStructure.from_json(json.loads(RESONANT_STRUCTURE.read_text()))

    def test_fixture_is_t_general(self, resonant):
        assert log_matrix(resonant).constant_grid() == RESONANT_GRID
        assert pfaffian(RESONANT_GRID) == 12
        assert all(poisson_t_general(resonant, t).verdict for t in (1, 2, 3))

    def test_resonant_piece_not_exact(self, resonant):
        q34 = build_qi(resonant, (3, 4), 2)
        assert nonzero_cohomology(q34) == {(2, -2): 1, (3, -2): 2, (4, -2): 1}
        assert nonzero_cohomology(build_qi(resonant, (1, 2), 2)) == {}
        # the block count agrees with the ranks
        assert nonzero(qi_cohomology(resonant, (3, 4), 2)) == nonzero_cohomology(q34)
        assert nonzero(qi_cohomology(resonant, (1, 2), 2)) == {}


def nonzero(dims: dict) -> dict:
    return {kw: h for kw, h in dims.items() if h}


def summed_block_count(p: PoissonStructure, weight_cap: int) -> dict[tuple[int, int], int]:
    """The nonzero cohomology of the whole bracket complex by the block
    rule: ``qi_cohomology`` summed over all 2^(2n) index sets, the empty one
    included, since every Koszul block belongs to the piece of its S."""
    nv = p.var_spec.total_vars
    out: dict[tuple[int, int], int] = {}
    for size in range(nv + 1):
        for iset in itertools.combinations(range(1, nv + 1), size):
            for kw, h in qi_cohomology(p, iset, weight_cap).items():
                out[kw] = out.get(kw, 0) + h
    return nonzero(out)


def assert_pieces_match_ranks(p: PoissonStructure, weight_cap: int) -> None:
    """For every index set, the empty one included, ``qi_cohomology`` has
    exactly the slices of ``build_qi`` and their rank-nullity dimensions."""
    nv = p.var_spec.total_vars
    for size in range(nv + 1):
        for iset in itertools.combinations(range(1, nv + 1), size):
            counted = qi_cohomology(p, iset, weight_cap)
            cx = build_qi(p, iset, weight_cap)
            for k in range(nv + 1):
                by_rank = cohomology_dims(cx, k)
                assert {w: h for (k2, w), h in counted.items() if k2 == k} == by_rank, (iset, k)


def fixture_structures() -> list[PoissonStructure]:
    return [
        PoissonStructure.from_json(json.loads(path.read_text()))
        for path in (FIXTURE_STRUCTURE, RESONANT_STRUCTURE)
    ] + [make_toric(json.loads(BLOCK_MATRIX.read_text())["entries"]).structure]


class TestKoszulBlockCount:
    """``qi_cohomology`` against the built complexes and their ranks."""

    def test_fixture_cap3(self):
        p = PoissonStructure.from_json(json.loads(FIXTURE_STRUCTURE.read_text()))
        predicted = summed_block_count(p, 3)
        assert nonzero_cohomology(build_bracket_complex(p, 3)) == predicted
        # F = 0 alone gives the weight-0 row 1, 4, 6, 4, 1; the resonant F
        # of this matrix carry cohomology in 13 more slices
        assert len(predicted) == 18
        assert [predicted[(k, 0)] for k in range(3)] == [1, 4, 6]
        assert any(w != 0 for (_k, w) in predicted)
        assert sum(predicted.values()) == 31

    def test_seeded_2n4_cap3(self):
        # the first structure has the fixture's grid, checked above
        for p in seeded_structures_2n4()[1:]:
            assert nonzero_cohomology(build_bracket_complex(p, 3)) == summed_block_count(p, 3)

    def test_seeded_2n6_cap1(self):
        p = random_2general_toric(random.Random(3), 3).structure
        predicted = summed_block_count(p, 1)
        assert nonzero_cohomology(build_bracket_complex(p, 1)) == predicted
        assert sum(predicted.values()) == 69

    def test_every_piece_matches_ranks_2n4(self):
        # the first seeded structure has the fixture's grid
        for p in fixture_structures() + seeded_structures_2n4()[1:]:
            for cap in range(4):
                assert_pieces_match_ranks(p, cap)

    def test_every_piece_matches_ranks_fractional_2n4(self):
        # A with denominators: the count reads lambda_F from the columns'
        # integer scaling of A by its common denominator.  Seeds 15 and 18
        # have resonant blocks with |I| = 3 and |I| = 2 within cap 2.
        for seed in (5, 15, 18):
            p = fractional_2general_structure(seed)
            for cap in range(3):
                assert_pieces_match_ranks(p, cap)
        assert nonzero(qi_cohomology(fractional_2general_structure(15), (1, 2, 4), 2))
        assert nonzero(qi_cohomology(fractional_2general_structure(18), (2, 3), 2))

    def test_every_piece_matches_ranks_2n6(self):
        assert_pieces_match_ranks(random_2general_toric(random.Random(3), 3).structure, 1)

    def test_singular_log_matrix(self):
        # no inverse bivector, so build_qi refuses; the bracket complex is
        # still the sum of the Koszul blocks, and now |S| = 1 contributes
        p = make_toric([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]).structure
        predicted = summed_block_count(p, 2)
        assert nonzero_cohomology(build_bracket_complex(p, 2)) == predicted
        # F = -e_3 and F = e_4 - e_3 have lambda_F = 0
        row = {1: 1, 2: 3, 3: 3, 4: 1}
        assert qi_cohomology(p, (3,), 0) == {(k, w): h for w in (-1, 0) for k, h in row.items()}

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.sampled_from([1, 1, 2, 3])), min_size=6, max_size=6))
    def test_random_grids_2n4(self, entries):
        # integer and fractional skew grids, singular ones included: the
        # pieces sum to the bracket cohomology, and when A is nonsingular
        # each piece matches the ranks of its built complex
        upper = iter(Fraction(num, den) for num, den in entries)
        grid = [[Fraction(0)] * 4 for _ in range(4)]
        for i, j in itertools.combinations(range(4), 2):
            grid[i][j] = next(upper)
            grid[j][i] = -grid[i][j]
        p = toric_structure(grid)
        assert nonzero_cohomology(build_bracket_complex(p, 2)) == summed_block_count(p, 2)
        if pfaffian(grid):
            assert_pieces_match_ranks(p, 2)

    def test_no_matrix_and_no_elimination(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the block count built or ranked a matrix")

        p = random_2general_toric(random.Random(3), 4).structure
        monkeypatch.setattr(complexes, "_fill_slices", refuse)
        monkeypatch.setattr(linalg, "_eliminate", refuse)
        assert nonzero(qi_cohomology(p, (1, 2), 4)) == {}

    def test_koszul_imports_nothing_from_complexes(self):
        # the count and its oracle share no code: koszul never imports
        # complexes, which takes only the A-independent helpers from koszul
        def imported(module) -> dict[str, set[str]]:
            out: dict[str, set[str]] = {}
            for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
                if isinstance(node, ast.ImportFrom):
                    out.setdefault(node.module or "", set()).update(a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    out.update((a.name, set()) for a in node.names)
            return out

        names = imported(koszul)
        assert not any("complexes" in module for module in names), names
        assert not any("complexes" in name for found in names.values() for name in found), names
        assert imported(complexes)["koszul"] == {"_index_set", "_invariant_grid", "_monomials"}
        assert not hasattr(complexes, "qi_cohomology")

    def test_refusals(self):
        p = PoissonStructure.from_json(json.loads(FIXTURE_STRUCTURE.read_text()))
        for iset, message in [((5,), "divisor indices"), ((0,), "divisor indices"),
                              ((True,), "divisor indices"), ((1.0,), "divisor indices"),
                              ((1, 1), "repeats")]:
            with pytest.raises(ValueError, match=message):
                qi_cohomology(p, iset, 1)
        with pytest.raises(ValueError, match="weight_cap"):
            qi_cohomology(p, (1,), -1)
        vs = VarSpec(4, 2)
        terms = {(1, 2): poly_from_string("x1*x2", vs), (3, 4): poly_from_string("1", vs)}
        mixed = PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))
        with pytest.raises(ValueError, match="every variable on the divisor"):
            qi_cohomology(mixed, (1,), 1)


# -- ranks by clearing -----------------------------------------------------------


def load_structure(path: Path) -> PoissonStructure:
    return PoissonStructure.from_json(json.loads(path.read_text()))


CLEARING_CASES = {
    "log_4_4_cap4": lambda: build_log_complex(VarSpec(4, 4), 4),
    "log_4_2_cap4": lambda: build_log_complex(VarSpec(4, 2), 4),
    "log_6_6_cap2": lambda: build_log_complex(VarSpec(6, 6), 2),
    "bracket_fixture_cap4": lambda: build_bracket_complex(load_structure(FIXTURE_STRUCTURE), 4),
    "bracket_resonant_cap4": lambda: build_bracket_complex(load_structure(RESONANT_STRUCTURE), 4),
    "bracket_fractional_cap3": lambda: build_bracket_complex(fractional_2general_structure(11), 3),
    "bracket_s3_2n6_cap1": lambda: build_bracket_complex(
        random_2general_toric(random.Random(3), 3).structure, 1
    ),
    "logplus_cap2": lambda: build_logplus_complex(toric_structure(EXPLICIT_GRID), 2),
}


def assert_clearing_matches_plain_ranks(cx: WeightSlicedComplex) -> int:
    """``cx.rank`` on every slice, lowest degree first (so the first call
    clears down from the top), equals the plain rank of the stored matrix
    and its rank in reversed column order; returns the number of slices."""
    for (k, w), mat in cx.diffs.items():
        cols = list(range(cx.slice_dim(k, w)))
        assert cx.rank(k, w) == linalg.rank(mat) == linalg.rank(mat, cols[::-1]), (cx.label, k, w)
    return len(cx.diffs)


def all_degrees(cx: WeightSlicedComplex, degrees) -> dict[int, dict[int, int]]:
    return {k: cohomology_dims(cx, k) for k in degrees}


class TestClearing:
    """``WeightSlicedComplex.rank`` leaves out the rows of d_k at the pivot
    columns of d_(k+1); the rank must not change."""

    @pytest.mark.parametrize("case", CLEARING_CASES)
    def test_ranks_match_plain_elimination(self, case):
        assert assert_clearing_matches_plain_ranks(CLEARING_CASES[case]())

    @pytest.mark.parametrize("case", CLEARING_CASES)
    def test_cleared_ranks_need_no_elimination(self, case, monkeypatch):
        # after clearing, the rows of every differential have distinct
        # leading columns, so linalg.pivot_columns eliminates nothing; the
        # ranks so taken are then checked against reversed-order elimination
        cx = CLEARING_CASES[case]()
        lo, hi = cx.degree_range
        with monkeypatch.context() as m:
            m.setattr(linalg, "_eliminate", lambda *args, **kwargs: pytest.fail("eliminated"))
            all_degrees(cx, range(lo, hi + 1))
        assert any(cx.rank(k, w) for k, w in cx.diffs)
        assert assert_clearing_matches_plain_ranks(cx)

    @pytest.mark.parametrize("path", [FIXTURE_STRUCTURE, RESONANT_STRUCTURE], ids=["fixture", "resonant"])
    def test_every_piece_ranks_match_plain_elimination(self, path):
        p = load_structure(path)
        isets = [iset for size in range(5) for iset in itertools.combinations(range(1, 5), size)]
        slices = [assert_clearing_matches_plain_ranks(build_qi(p, iset, 3)) for iset in isets]
        # only Q_(1,2,3,4), one slice in degree 4, has no differential
        assert [iset for iset, n in zip(isets, slices) if not n] == [(1, 2, 3, 4)]

    @pytest.mark.parametrize("case", ["bracket_resonant_cap4", "bracket_fractional_cap3", "log_4_2_cap4"])
    def test_tables_do_not_depend_on_the_order_of_degrees(self, case):
        lo, hi = CLEARING_CASES[case]().degree_range
        degrees = range(lo, hi + 1)
        ascending = all_degrees(CLEARING_CASES[case](), degrees)
        descending = all_degrees(CLEARING_CASES[case](), reversed(degrees))
        alone = {k: cohomology_dims(CLEARING_CASES[case](), k) for k in degrees}
        assert ascending == descending == alone
        assert any(h for dims in ascending.values() for h in dims.values())

    def test_qi_tables_do_not_depend_on_the_order_of_degrees(self):
        p = load_structure(RESONANT_STRUCTURE)
        degrees = range(2, 5)
        ascending = all_degrees(build_qi(p, (3, 4), 3), degrees)
        assert ascending == all_degrees(build_qi(p, (3, 4), 3), reversed(degrees))
        assert ascending == {k: cohomology_dims(build_qi(p, (3, 4), 3), k) for k in degrees}
        assert nonzero({(k, w): h for k, dims in ascending.items() for w, h in dims.items()}) == {
            (2, -2): 1, (3, -2): 2, (4, -2): 1,
        }

    def test_only_pivot_sets_are_kept(self):
        # after every rank is taken no pivot set is left, and while one is
        # kept it is a set of ints
        cx = CLEARING_CASES["bracket_fixture_cap4"]()
        cohomology_dims(cx, 2)
        assert cx._pivots and all(
            type(cols) is set and all(type(c) is int for c in cols) for cols in cx._pivots.values()
        )
        all_degrees(cx, range(5))
        assert cx._pivots == {}


class TestLambdaTables:
    """The incremental D E A rows of the bracket writer, read back through
    the degree-0 columns: x^E maps to sum_j (E A)_j x^(E + e_j) d_j."""

    @pytest.mark.parametrize("fractional", [False, True])
    def test_incremental_rows_match_brute_force(self, fractional):
        p = fractional_2general_structure(11) if fractional else toric_structure(EXPLICIT_GRID)
        grid = log_matrix(p).constant_grid()
        cx = build_bracket_complex(p, 5)
        for total in range(6):
            sources, targets = cx.basis[(0, total)], cx.basis[(1, total)]
            assert sources == [((), exps) for exps in _monomials(4, total)]
            position = {label: r for r, label in enumerate(targets)}
            rows = cx.diffs[(0, total)]
            for col, (_m, exps) in enumerate(sources):
                column = {r: row[col] for r, row in enumerate(rows) if col in row}
                brute = {}
                for j in range(4):
                    if lam := sum(e * grid[i][j] for i, e in enumerate(exps)):
                        raised = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                        brute[position[((j + 1,), raised)]] = lam
                assert column == brute, exps


class TestExactnessReport:
    """``exactness_report`` formats every verdict table, of the CLI and of
    ``verify_exactness``."""

    def test_empty_table_is_exact(self):
        assert exactness_report("Q[1]", 3, {}) == {
            "complex_id": "Q[1]", "weight_cap": 3, "table": [], "verdict": "exact",
        }

    def test_rows_sorted_by_degree_then_weight(self):
        dims = {(2, 0): 0, (1, 3): 0, (1, -1): 0, (2, -2): 0}
        rep = exactness_report("bracket", 3, dims)
        assert [(r["degree"], r["weight"]) for r in rep["table"]] == [(1, -1), (1, 3), (2, -2), (2, 0)]
        assert rep["verdict"] == "exact"

    def test_one_nonzero_dimension_is_not_exact(self):
        rep = exactness_report("Q[3, 4]", 2, {(2, -2): 1, (2, 0): 0, (3, -2): 0})
        assert rep["verdict"] == "not_exact"
        assert rep["table"][0] == {"degree": 2, "weight": -2, "dim_cohomology": 1}

    def test_id_and_cap_pass_through(self):
        rep = exactness_report("logplus", 7, {(0, 0): 0})
        assert (rep["complex_id"], rep["weight_cap"]) == ("logplus", 7)


# -- pinned matrices ---------------------------------------------------------------


def tagged(value) -> str:
    """A stored value with its type, so the normal form is pinned too."""
    return f"{type(value).__name__}:{value}"


def matrices_digest(cx: WeightSlicedComplex) -> tuple[str, str]:
    """sha256 of the canonical JSON of ``basis`` and of ``diffs``: slices
    sorted by (degree, weight), each row as its (column, tagged value)
    pairs sorted by column."""
    basis = [[k, w, [[list(i), list(e)] for i, e in labels]] for (k, w), labels in sorted(cx.basis.items())]
    diffs = [
        [k, w, [sorted([c, tagged(v)] for c, v in row.items()) for row in rows]]
        for (k, w), rows in sorted(cx.diffs.items())
    ]
    return tuple(
        hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
        for doc in (basis, diffs)
    )


PINNED_COMPLEXES = {
    "log_4_2_cap2": lambda: build_log_complex(VarSpec(4, 2), 2),
    "log_6_6_cap1": lambda: build_log_complex(VarSpec(6, 6), 1),
    "bracket_fixture_cap3": lambda: build_bracket_complex(toric_structure(EXPLICIT_GRID), 3),
    "logplus_fixture_cap2": lambda: build_logplus_complex(toric_structure(EXPLICIT_GRID), 2),
    "logplus_fractional_cap2": lambda: build_logplus_complex(fractional_2general_structure(11), 2),
    "qi_fixture_12_cap3": lambda: build_qi(toric_structure(EXPLICIT_GRID), (1, 2), 3),
    "qi_resonant_34_cap2": lambda: build_qi(load_structure(RESONANT_STRUCTURE), (3, 4), 2),
}

# (basis digest, diffs digest) of each complex above
PINNED_DIGESTS = {
    "log_4_2_cap2": (
        "b13cbce15700eb5ccb29a10a20ceecf209880d291fd016e6d6f2538f3078e70f",
        "4b21b6da3d780654c341b1fbd2f9befe24872a4fdfe958a9dd66b49abadda9d1",
    ),
    "log_6_6_cap1": (
        "8e448ca39342413a001e99319f06425d4528113a104c32dfcdbcbb39de218915",
        "4710f9ff3e610f4c919b5609177f452692a5f61658e6f9619f4918a3cc5e5dc7",
    ),
    "bracket_fixture_cap3": (
        "22de6ca19aeec867a41403a1e37588494c003612b45843b15725b136870da5d4",
        "84a98a6d53feb7cab5ecd0089302c640fa881f5554c272717ba91993647d07f1",
    ),
    "logplus_fixture_cap2": (
        "1da5648e7cc894e893a45dec9f584095a8c7008f70da4ddf561167a23aae2381",
        "facda28aed5a0b899c00b3e616dd83e271fddd81cc55abe04df227938ee9ddfe",
    ),
    "logplus_fractional_cap2": (
        "1da5648e7cc894e893a45dec9f584095a8c7008f70da4ddf561167a23aae2381",
        "5b32598a8bdb8a74bb538f08c78c27b4d7a20d36abf11960408188a39b9f6a71",
    ),
    "qi_fixture_12_cap3": (
        "ba7f003771aba9de45cdd227093bb6be45a9306000abca83bcee350d15451a49",
        "321de75aaea95664344f2a372b4aeb97ff25f39d7119109de9f41be7fa156b36",
    ),
    "qi_resonant_34_cap2": (
        "eeaf686edafe70c9e8289b2ac3935f7d1ef04a3370a2182c3b4b4d0441aa2523",
        "54f507dfce7b4c78756ac99c172692b7cafd3b83cfbcc52adb8e148b7366ebf0",
    ),
}


class TestPinnedMatrices:
    """The stored ``basis`` and ``diffs`` of seven complexes, values tagged
    with their type, hash to fixed digests: a refactor of the assembly must
    leave every matrix, and the normal form of every entry, as it was."""

    @pytest.mark.parametrize("name", sorted(PINNED_COMPLEXES))
    def test_digest(self, name):
        assert matrices_digest(PINNED_COMPLEXES[name]()) == PINNED_DIGESTS[name]
