import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsymplectic.exterior import (
    DiffForm,
    Frame,
    MultiVector,
    change_frame,
    contract,
    coordinate_frame,
    coordinate_one_form,
    coordinate_vector,
    exterior_derivative,
    form_monomial,
    frame_element_weight,
    log_frame,
    log_one_form,
    log_vector,
    merge_indices,
    vector_monomial,
    wedge,
)
from logsymplectic.poisson import PoissonStructure, phi_forms, pi_flat, pi_sharp
from logsymplectic.ring import LaurentPoly, VarSpec, poly_from_string

VS = VarSpec(4, 2)
COORD = coordinate_frame(VS)
LOGF = log_frame(VS)


def poly(s, vs=VS):
    return poly_from_string(s, vs)


def block_structure(vs, coeff):
    """The bivector coeff * d1 ^ d2."""
    biv = vector_monomial(coordinate_frame(vs), (1, 2), poly_from_string(coeff, vs))
    return PoissonStructure(vs, biv)


def rand_form(rng, vs=VS, degree=None, max_terms=2):
    if degree is None:
        degree = rng.randint(0, vs.total_vars)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = tuple(sorted(rng.sample(range(1, vs.total_vars + 1), degree)))
        exps = tuple(
            rng.randint(-1 if pos < vs.divisor_vars else 0, 2)
            for pos in range(vs.total_vars)
        )
        terms[idx] = LaurentPoly.monomial(vs, exps, Fraction(rng.randint(-4, 4)))
    return DiffForm(COORD, degree, terms)


# -- the pairwise reference ----------------------------------------------------
#
# Reference product and derivative: one LaurentPoly product per term pair,
# one partial derivative per (term, t), summed as LaurentPoly values.  The
# library accumulates into term dicts instead; these are its oracle.


def pairwise_wedge(a, b):
    out = {}
    for li, lc in a.terms.items():
        for ri, rc in b.terms.items():
            merged = merge_indices(li, ri)
            if merged is None:
                continue
            sign, key = merged
            contrib = lc * rc if sign > 0 else -(lc * rc)
            out[key] = out[key] + contrib if key in out else contrib
    return type(a)(a.frame, a.degree + b.degree, out)


def per_t_derivative(w):
    vs = w.frame.var_spec
    out = {}
    is_log = w.frame.kind == "log"
    for indices, coeff in w.terms.items():
        for t in range(1, vs.total_vars + 1):
            dc = coeff.partial(t)
            if dc.is_zero():
                continue
            if is_log and vs.is_divisor_index(t):
                dc = dc * LaurentPoly.variable(vs, t)
            merged = merge_indices((t,), indices)
            if merged is None:
                continue
            sign, key = merged
            contrib = dc if sign > 0 else -dc
            out[key] = out[key] + contrib if key in out else contrib
    return DiffForm(w.frame, w.degree + 1, out)


# Fractions with small numerators and denominators, exponents -2..2 on the
# divisor variables x1, x2 and 0..3 on x3, x4 (non-divisor in the log frame too)
FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
EXPONENTS = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 3), st.integers(0, 3)
)
POLYS = st.dictionaries(EXPONENTS, FRACTIONS, max_size=3).map(lambda t: LaurentPoly(VS, t))
FRAMES = st.sampled_from([COORD, LOGF])


@st.composite
def elements(draw, cls=None, frame=None, degree=None):
    """A DiffForm or MultiVector on VarSpec(4, 2) with up to four terms."""
    cls = draw(st.sampled_from([DiffForm, MultiVector])) if cls is None else cls
    frame = draw(FRAMES) if frame is None else frame
    degree = draw(st.integers(0, 4)) if degree is None else degree
    sets = list(itertools.combinations(range(1, 5), degree))
    terms = draw(st.dictionaries(st.sampled_from(sets), POLYS, max_size=4))
    return cls(frame, degree, terms)


@st.composite
def pairs(draw, degree=None):
    """Two elements of one kind and frame, the first of the given degree,
    the second of any (their product may lie above the top degree)."""
    a = draw(elements(degree=degree))
    return a, draw(elements(type(a), a.frame))


class TestAgainstPairwiseOracle:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_wedge(self, ab):
        a, b = ab
        assert wedge(a, b) == pairwise_wedge(a, b)

    @settings(max_examples=60, deadline=None)
    @given(pairs(degree=1))
    def test_wedge_sums_that_cancel(self, ac):
        # a ^ a = 0 for a 1-form or vector: every product term cancels
        # against its mirror; a ^ (a ^ c) as well
        a, c = ac
        assert wedge(a, a).is_zero() and pairwise_wedge(a, a).is_zero()
        assert wedge(a, wedge(a, c)) == pairwise_wedge(a, pairwise_wedge(a, c))
        assert wedge(a, wedge(a, c)).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(elements(DiffForm))
    def test_derivative(self, w):
        assert exterior_derivative(w) == per_t_derivative(w)

    @settings(max_examples=80, deadline=None)
    @given(elements(DiffForm))
    def test_d_squared_is_zero(self, w):
        dw = exterior_derivative(w)
        assert dw == per_t_derivative(w)
        assert exterior_derivative(dw).is_zero()

    @settings(max_examples=80, deadline=None)
    @given(FRAMES.flatmap(lambda f: st.tuples(elements(DiffForm, f), elements(DiffForm, f))))
    def test_graded_leibniz(self, ab):
        a, b = ab
        sign = -1 if a.degree % 2 else 1
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)).scale(sign)
        assert lhs == rhs
        assert lhs == per_t_derivative(pairwise_wedge(a, b))


class TestMergeIndices:
    def test_disjoint(self):
        assert merge_indices((1, 3), (2, 4)) == (-1, (1, 2, 3, 4))
        assert merge_indices((1, 2), (3, 4)) == (1, (1, 2, 3, 4))

    def test_overlap(self):
        assert merge_indices((1, 2), (2,)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(1, 9), max_size=6), st.sets(st.integers(1, 9), max_size=6))
    def test_sign_is_shuffle_parity(self, left, right):
        # the sign of the permutation that sorts left + right, by counting
        # inversions pair by pair
        left, right = tuple(sorted(left)), tuple(sorted(right))
        if set(left) & set(right):
            assert merge_indices(left, right) is None
            return
        joined = left + right
        inversions = sum(a > b for a, b in itertools.combinations(joined, 2))
        assert merge_indices(left, right) == ((-1) ** inversions, tuple(sorted(joined)))


class TestWedge:
    def test_basis_product(self):
        dx1, dx2 = coordinate_one_form(VS, 1), coordinate_one_form(VS, 2)
        w = wedge(dx1, dx2)
        assert w.terms == {(1, 2): LaurentPoly.const(VS, 1)}

    def test_antisymmetry(self):
        dx1, dx2 = coordinate_one_form(VS, 1), coordinate_one_form(VS, 2)
        assert wedge(dx2, dx1) == -wedge(dx1, dx2)

    def test_square_of_one_form(self):
        dx1, dx2 = coordinate_one_form(VS, 1), coordinate_one_form(VS, 2)
        s = dx1 + dx2
        assert wedge(s, s).is_zero()

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            wedge(coordinate_one_form(VS, 1), log_one_form(VS, 1))

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            wedge(coordinate_one_form(VS, 1), coordinate_vector(VS, 2))

    def test_graded_commutativity_random(self):
        rng = random.Random(3)
        for _ in range(40):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            a, b = rand_form(rng, degree=p), rand_form(rng, degree=q)
            sign = 1 if (p * q) % 2 == 0 else -1
            assert wedge(a, b) == wedge(b, a).scale(sign)

    def test_associativity_random(self):
        rng = random.Random(4)
        for _ in range(30):
            a = rand_form(rng, degree=rng.randint(0, 2))
            b = rand_form(rng, degree=rng.randint(0, 2))
            c = rand_form(rng, degree=rng.randint(0, 2))
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


class TestExteriorDerivative:
    def test_basic(self):
        w = form_monomial(COORD, (2,), poly("x1"))
        assert exterior_derivative(w) == form_monomial(COORD, (1, 2), poly("1"))

    def test_closed_log_form(self):
        w = form_monomial(COORD, (1,), poly("x1^-1"))
        assert exterior_derivative(w).is_zero()

    def test_log_frame_generators_closed(self):
        for i in range(1, 5):
            assert exterior_derivative(log_one_form(VS, i)).is_zero()

    def test_d_squared_zero_random(self):
        rng = random.Random(7)
        for _ in range(40):
            w = rand_form(rng, degree=rng.randint(0, 3))
            assert exterior_derivative(exterior_derivative(w)).is_zero()

    def test_leibniz_random(self):
        rng = random.Random(8)
        for _ in range(30):
            p = rng.randint(0, 2)
            a = rand_form(rng, degree=p)
            b = rand_form(rng, degree=rng.randint(0, 2))
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)).scale(
                1 if p % 2 == 0 else -1
            )
            assert lhs == rhs

    def test_rejects_what_is_not_a_form(self):
        v = vector_monomial(coordinate_frame(VarSpec(2, 2)), (1,), poly("x2", VarSpec(2, 2)))
        with pytest.raises(TypeError, match="expects a DiffForm, not MultiVector"):
            exterior_derivative(v)
        with pytest.raises(TypeError, match="expects a DiffForm, not LaurentPoly"):
            exterior_derivative(poly("x1"))

    def test_log_frame_matches_coordinate_route(self):
        rng = random.Random(9)
        for _ in range(20):
            w = rand_form(rng, degree=rng.randint(0, 3))
            w_log = change_frame(w, LOGF)
            via_log = change_frame(exterior_derivative(w_log), COORD)
            assert via_log == exterior_derivative(w)


class TestContract:
    def test_dual_pairing(self):
        dx1 = coordinate_one_form(VS, 1)
        v12 = vector_monomial(COORD, (1, 2), poly("1"))
        assert contract(dx1, v12) == coordinate_vector(VS, 2)

    def test_missing_index(self):
        dx3 = coordinate_one_form(VS, 3)
        v12 = vector_monomial(COORD, (1, 2), poly("1"))
        assert contract(dx3, v12).is_zero()

    def test_sign(self):
        dx2 = coordinate_one_form(VS, 2)
        v12 = vector_monomial(COORD, (1, 2), poly("1"))
        assert contract(dx2, v12) == -coordinate_vector(VS, 1)

    def test_degree_zero_rejected(self):
        f = MultiVector(COORD, 0, {(): poly("x1")})
        with pytest.raises(ValueError):
            contract(coordinate_one_form(VS, 1), f)

    def test_wrong_kinds_rejected(self):
        # a vector in the form slot would be read as a 1-form, d_1 as dx_1
        d1, dx1 = coordinate_vector(VS, 1), coordinate_one_form(VS, 1)
        v12 = vector_monomial(COORD, (1, 2), poly("1"))
        w12 = wedge(dx1, coordinate_one_form(VS, 2))
        for w, v in [(d1, v12), (dx1, w12), (d1, w12)]:
            with pytest.raises(TypeError, match="DiffForm and a MultiVector"):
                contract(w, v)


class TestChangeFrame:
    def test_eta_to_coordinate(self):
        eta1 = log_one_form(VS, 1)
        assert change_frame(eta1, COORD) == form_monomial(COORD, (1,), poly("x1^-1"))

    def test_v_to_coordinate(self):
        v1 = log_vector(VS, 1)
        assert change_frame(v1, COORD) == vector_monomial(COORD, (1,), poly("x1"))

    def test_nondivisor_unscaled(self):
        eta3 = log_one_form(VS, 3)
        assert change_frame(eta3, COORD) == coordinate_one_form(VS, 3)

    def test_round_trips(self):
        rng = random.Random(11)
        for _ in range(25):
            w = rand_form(rng, degree=rng.randint(0, 4))
            assert change_frame(change_frame(w, LOGF), COORD) == w

    def test_phi_expansion_block_case(self):
        # one symplectic block in dimension 2, both variables divisorial:
        # A = -1/3, so B = 3 and phi_1 = x1^-1 * 3 eta_2 = 3/(x1 x2) dx2.
        vs2 = VarSpec(2, 2)
        phi1 = phi_forms(block_structure(vs2, "-1/3*x1*x2"))[0]
        expected = form_monomial(
            coordinate_frame(vs2), (2,), poly_from_string("3*x1^-1*x2^-1", vs2)
        )
        assert phi1 == expected

    def test_phi_round_trip(self):
        vs2 = VarSpec(2, 2)
        p = block_structure(vs2, "-7/5*x1*x2")
        rng = random.Random(13)
        for _ in range(10):
            terms = {}
            for idx in [(1,), (2,)]:
                exps = (rng.randint(-1, 2), rng.randint(-1, 2))
                terms[idx] = LaurentPoly.monomial(vs2, exps, Fraction(rng.randint(-3, 3)))
            w = DiffForm(coordinate_frame(vs2), 1, terms)
            assert pi_flat(p, pi_sharp(p, w)) == w

    def test_multivector_has_no_phi_frame(self):
        # phi forms live in the coordinate frame; there is no phi frame.
        with pytest.raises(ValueError):
            Frame("phi", VarSpec(2, 2))

    def test_exterior_derivative_in_phi_frame(self):
        # d(phi_1) = -eta_1 ^ phi_1, computed on the coordinate expansion
        vs2 = VarSpec(2, 2)
        coord = coordinate_frame(vs2)
        phi1 = phi_forms(block_structure(vs2, "-1/2*x1*x2"))[0]
        eta1 = change_frame(log_one_form(vs2, 1), coord)
        assert exterior_derivative(phi1) == -wedge(eta1, phi1)


def term_weight(frame, indices, exps, is_form=True):
    """The weight rule of ``complexes._slice``: the degree of a term's
    coefficient plus the weight of its frame element."""
    return sum(exps) + frame_element_weight(frame, tuple(indices), is_form)


class TestWeights:
    def test_spec_values(self):
        assert term_weight(COORD, (3,), (2, 0, 0, 0)) == 3
        assert term_weight(LOGF, (1,), (1, 0, 0, 0)) == 1
        assert term_weight(LOGF, (1, 2), (0, 0, 0, 0)) == 0

    def test_vector_weights(self):
        assert term_weight(COORD, (1,), (0, 0, 0, 0), is_form=False) == -1
        assert term_weight(LOGF, (1,), (0, 0, 0, 0), is_form=False) == 0
        assert term_weight(LOGF, (3,), (0, 0, 0, 0), is_form=False) == -1

    def test_additive_under_wedge(self):
        rng = random.Random(17)
        for _ in range(30):
            i, j = rng.sample(range(1, 5), 2)
            e1 = tuple(rng.randint(0, 2) for _ in range(4))
            e2 = tuple(rng.randint(0, 2) for _ in range(4))
            a = form_monomial(COORD, (i,), LaurentPoly.monomial(VS, e1, 1))
            b = form_monomial(COORD, (j,), LaurentPoly.monomial(VS, e2, 1))
            w = wedge(a, b)
            (idx, coeff), = w.terms.items()
            (exps, _), = coeff.terms.items()
            assert term_weight(COORD, idx, exps) == term_weight(
                COORD, (i,), e1
            ) + term_weight(COORD, (j,), e2)

    def test_derivative_preserves_weight(self):
        def by_weight(w: DiffForm) -> dict[int, DiffForm]:
            buckets: dict[int, dict] = {}
            for indices, coeff in w.terms.items():
                for exps, c in coeff.terms.items():
                    wt = term_weight(w.frame, indices, exps)
                    buckets.setdefault(wt, {}).setdefault(indices, {})[exps] = c
            return {
                wt: DiffForm(w.frame, w.degree, {i: LaurentPoly(VS, e) for i, e in terms.items()})
                for wt, terms in buckets.items()
            }

        rng = random.Random(19)
        for _ in range(25):
            w = rand_form(rng, degree=rng.randint(0, 3))
            pieces = by_weight(w)
            assert sum(pieces.values(), DiffForm(w.frame, w.degree, {})) == w
            for wt, piece in pieces.items():
                dw = exterior_derivative(piece)
                if dw.is_zero():
                    continue
                assert set(by_weight(dw)) == {wt}


class TestIndexSets:
    @pytest.mark.parametrize("cls", [DiffForm, MultiVector])
    @pytest.mark.parametrize(
        "degree, indices",
        [(2, (1,)), (1, (1, 2)), (1, (0,)), (1, (5,)), (2, (3, 1)), (2, (2, 2))],
        ids=["too-short", "too-long", "index-0", "index-above-2n", "decreasing", "repeated"],
    )
    def test_malformed_index_tuple_raises(self, cls, degree, indices):
        with pytest.raises(ValueError):
            cls(COORD, degree, {indices: poly("1")})


class TestSerialization:
    def test_frame_tagged_term_list(self):
        w = form_monomial(COORD, (1, 3), poly("x2")) + form_monomial(
            COORD, (2, 3), poly("-1/2*x1^-1")
        )
        doc = w.serialize()
        assert doc == {
            "frame": "coordinate",
            "degree": 2,
            "terms": [
                {"indices": [1, 3], "coeff": "x2"},
                {"indices": [2, 3], "coeff": "-1/2*x1^-1"},
            ],
        }


DX1, DX2, D1 = coordinate_one_form(VS, 1), coordinate_one_form(VS, 2), coordinate_vector(VS, 1)
OTHER = VarSpec(4, 4)


class TestRefusals:
    """Degrees out of range, mixed var_specs, frames or degrees, and
    contractions outside their one case are refused."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: DiffForm(COORD, 5, {(1, 2, 3, 4): poly("1")}), "degree 5 out of range",
                     id="nonzero-terms-above-top-degree"),
        pytest.param(lambda: MultiVector(COORD, -1), "degree -1 out of range", id="negative-degree"),
        pytest.param(lambda: DiffForm(COORD, 1, {(1,): poly("1", OTHER)}), "coefficient var_spec mismatch",
                     id="foreign-coefficient"),
        pytest.param(lambda: DX1 + wedge(DX1, DX2), "different degree", id="add-across-degrees"),
        pytest.param(lambda: change_frame(DX1, log_frame(OTHER)), "var_spec mismatch",
                     id="change-frame-across-var-specs"),
        pytest.param(lambda: contract(wedge(DX1, DX2), D1), "needs a 1-form", id="contract-2-form"),
        pytest.param(lambda: contract(log_one_form(VS, 1), D1), "coordinate frame", id="contract-log-form"),
        pytest.param(lambda: contract(DX1, log_vector(VS, 1)), "coordinate frame", id="contract-log-vector"),
        pytest.param(lambda: contract(DX1, coordinate_vector(OTHER, 1)), "var_spec mismatch",
                     id="contract-across-var-specs"),
    ])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_zero_added_across_degrees_gives_the_other(self):
        zero_two = DiffForm(COORD, 2)
        assert DX1 + zero_two == DX1
        assert zero_two + DX1 == DX1
