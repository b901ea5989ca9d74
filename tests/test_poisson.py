import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from logsymplectic import linalg, poisson
from logsymplectic.exterior import (
    MultiVector,
    change_frame,
    coordinate_frame,
    coordinate_one_form,
    coordinate_vector,
    exterior_derivative,
    log_frame,
    log_one_form,
    log_vector,
    wedge,
)
from logsymplectic.poisson import (
    DegenerateStructureError,
    NotMonomialTimesUnitError,
    PoissonStructure,
    SkewMatrix,
    degeneracy_divisor,
    inverse_log_matrix,
    jacobi_holds,
    log_matrix,
    pfaffian,
    phi_forms,
    pi_flat,
    pi_sharp,
    schouten,
    top_power,
)
from logsymplectic.ring import LaurentPoly, VarSpec, poly_from_string
from logsymplectic.toric import certify, make_toric, random_2general_toric

from conftest import EXPLICIT_GRID, poly_det, random_skew_grid, toric_structure

VS = VarSpec(4, 4)
COORD = coordinate_frame(VS)


def poly(s, vs=VS):
    return poly_from_string(s, vs)


def mv(degree, terms, vs=VS):
    return MultiVector(coordinate_frame(vs), degree, terms)


def standard_symplectic(n: int) -> PoissonStructure:
    vs = VarSpec(2 * n, 0)
    terms = {
        (2 * i - 1, 2 * i): LaurentPoly.const(vs, 1) for i in range(1, n + 1)
    }
    return PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))


# -- independent bracket oracle: recursion from the defining identities -------


def _oracle_base(p_idx, p_coeff, q_idx, q_coeff, vs):
    coord = coordinate_frame(vs)
    p, q = len(p_idx), len(q_idx)
    if p == 0 and q == 0:
        return MultiVector(coord, 0, {})
    if p == 1 and q == 0:
        return MultiVector(coord, 0, {(): p_coeff * q_coeff.partial(p_idx[0])})
    if p == 0 and q == 1:
        return MultiVector(coord, 0, {(): -(q_coeff * p_coeff.partial(q_idx[0]))})
    if p == 1 and q == 1:
        out = MultiVector(coord, 1, {q_idx: p_coeff * q_coeff.partial(p_idx[0])})
        return out + MultiVector(coord, 1, {p_idx: -(q_coeff * p_coeff.partial(q_idx[0]))})
    if q >= 2:
        # split the second argument and expand by the one-sided Leibniz rule
        head = MultiVector(coord, 1, {(q_idx[0],): q_coeff})
        rest = MultiVector(coord, q - 1, {q_idx[1:]: LaurentPoly.const(vs, 1)})
        left = _oracle_monomials(p_idx, p_coeff, head, vs)
        t1 = wedge(left, rest)
        t2 = wedge(head, _oracle_monomials(p_idx, p_coeff, rest, vs))
        if (p - 1) % 2 == 1:
            t2 = t2.scale(-1)
        return t1 + t2
    # p >= 2, q <= 1: swap using graded antisymmetry
    swapped = _oracle_monomials(q_idx, q_coeff, mv(p, {p_idx: p_coeff}, vs), vs)
    sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
    return swapped.scale(sign)


def _oracle_monomials(p_idx, p_coeff, q_mv, vs):
    coord = coordinate_frame(vs)
    out = MultiVector(coord, max(len(p_idx) + q_mv.degree - 1, 0), {})
    for q_idx, q_coeff in q_mv.terms.items():
        out = out + _oracle_base(p_idx, p_coeff, q_idx, q_coeff, vs)
    return out


def oracle_schouten(p_mv, q_mv):
    """Bracket built by recursion on the defining identities (Lie bracket,
    directional derivative, one-sided Leibniz, graded antisymmetry), then
    matched to the package convention by the (p-1)(q-1) twist."""
    vs = p_mv.frame.var_spec
    coord = coordinate_frame(vs)
    out = MultiVector(coord, max(p_mv.degree + q_mv.degree - 1, 0), {})
    twist = 1 if ((p_mv.degree - 1) * (q_mv.degree - 1)) % 2 == 0 else -1
    for p_idx, p_coeff in p_mv.terms.items():
        piece = _oracle_monomials(p_idx, p_coeff, q_mv, vs)
        out = out + piece.scale(twist)
    return out


def rand_mv(rng, degree, vs=VS, max_terms=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = tuple(sorted(rng.sample(range(1, vs.total_vars + 1), degree)))
        exps = tuple(rng.randint(0, 2) for _ in range(vs.total_vars))
        terms[idx] = LaurentPoly.monomial(vs, exps, Fraction(rng.randint(-4, 4)))
    return MultiVector(coordinate_frame(vs), degree, terms)


class TestSchouten:
    def test_directional_derivative(self):
        br = schouten(coordinate_vector(VS, 1), mv(0, {(): poly("x1")}))
        assert br == mv(0, {(): poly("1")})

    def test_commuting_log_fields(self):
        v1 = mv(1, {(1,): poly("x1")})
        v2 = mv(1, {(2,): poly("x2")})
        assert schouten(v1, v2).is_zero()

    def test_bivector_with_field_frozen_sign(self):
        # frozen convention: [d1^d2, x1 d3] = -d2^d3
        br = schouten(mv(2, {(1, 2): poly("1")}), mv(1, {(3,): poly("x1")}))
        assert br == mv(2, {(2, 3): poly("-1")})
        assert br == oracle_schouten(mv(2, {(1, 2): poly("1")}), mv(1, {(3,): poly("x1")}))

    def test_matches_axiom_recursion_oracle(self, rng):
        for _ in range(60):
            p = rand_mv(rng, rng.randint(0, 3))
            q = rand_mv(rng, rng.randint(0, 3))
            assert schouten(p, q) == oracle_schouten(p, q)

    def test_graded_antisymmetry(self, rng):
        for _ in range(40):
            dp, dq = rng.randint(0, 3), rng.randint(0, 3)
            p, q = rand_mv(rng, dp), rand_mv(rng, dq)
            sign = -1 if ((dp - 1) * (dq - 1)) % 2 == 0 else 1
            assert schouten(p, q) == schouten(q, p).scale(sign)

    def test_graded_leibniz(self, rng):
        for _ in range(40):
            dp, dq, dr = rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2)
            p, q, r = rand_mv(rng, dp), rand_mv(rng, dq), rand_mv(rng, dr)
            lhs = schouten(p, wedge(q, r))
            t1 = wedge(schouten(p, q), r).scale(1 if ((dp - 1) * dr) % 2 == 0 else -1)
            t2 = wedge(q, schouten(p, r))
            assert lhs == (t1 + t2 if not t1.is_zero() and not t2.is_zero() else (t2 if t1.is_zero() else t1))

    def test_graded_jacobi(self, rng):
        for _ in range(30):
            dp, dq, dr = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
            p, q, r = rand_mv(rng, dp), rand_mv(rng, dq), rand_mv(rng, dr)
            lhs = schouten(p, schouten(q, r))
            t1 = schouten(schouten(p, q), r)
            t2 = schouten(q, schouten(p, r)).scale(
                1 if ((dp - 1) * (dq - 1)) % 2 == 0 else -1
            )
            assert lhs == (t1 + t2 if not t1.is_zero() and not t2.is_zero() else (t2 if t1.is_zero() else t1))

    def test_frame_guard(self):
        from logsymplectic.exterior import log_frame

        bad = MultiVector(log_frame(VS), 1, {(1,): poly("1")})
        with pytest.raises(ValueError):
            schouten(bad, bad)


def distinct_copy(m: MultiVector) -> MultiVector:
    """An equal multivector that is not `m`: ``schouten(m, distinct_copy(m))``
    runs both sums of the bracket."""
    return MultiVector(m.frame, m.degree, dict(m.terms))


class TestSelfBracket:
    """``schouten(P, P)`` takes the first sum only, doubled for even degree
    and dropped for odd degree; the same bracket on a distinct copy is the
    full double loop it must match."""

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_bivectors_match_the_full_bracket(self, size):
        rng = random.Random(size)
        nonzero = 0
        for _ in range(12):
            structure = random_polynomial_structure(rng, size, rng.randint(0, size))
            grid = random_skew_grid(rng, size)
            for p in (structure.bivector, toric_structure(grid).bivector):
                br = schouten(p, p)
                assert br == schouten(p, distinct_copy(p))
                nonzero += not br.is_zero()
        # every bivector on 2 variables is Poisson; above, non-Poisson ones occur
        assert nonzero >= 6 if size > 2 else nonzero == 0

    def test_broken_fixture(self):
        doc = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "broken_structure.json").read_text())
        p = PoissonStructure.from_json(doc).bivector
        br = schouten(p, p)
        assert br == schouten(p, distinct_copy(p)) == oracle_schouten(p, p)
        assert br.serialize()["terms"] == [{"indices": [1, 2, 4], "coeff": "2"}]

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_multivectors_of_each_degree(self, rng, degree):
        vs = VarSpec(6, 3)
        for _ in range(10):
            p = rand_mv(rng, degree, vs, max_terms=4)
            br = schouten(p, p)
            assert br == schouten(p, distinct_copy(p))
            assert br.degree == schouten(p, distinct_copy(p)).degree
            if degree % 2:
                assert br.is_zero()


class TestJacobi:
    def test_toric_always_poisson(self, rng):
        for _ in range(5):
            assert jacobi_holds(toric_structure(random_skew_grid(rng, 4)))

    def test_recorded_failure(self):
        # bivector x3 d1^d2 + d3^d4: the self-bracket is 2 d1^d2^d4
        p = PoissonStructure(
            VarSpec(4, 0),
            MultiVector(
                coordinate_frame(VarSpec(4, 0)),
                2,
                {
                    (1, 2): poly_from_string("x3", VarSpec(4, 0)),
                    (3, 4): poly_from_string("1", VarSpec(4, 0)),
                },
            ),
        )
        br = schouten(p.bivector, p.bivector)
        assert br == MultiVector(
            coordinate_frame(VarSpec(4, 0)),
            3,
            {(1, 2, 4): poly_from_string("2", VarSpec(4, 0))},
        )
        assert br == oracle_schouten(p.bivector, p.bivector)
        assert not jacobi_holds(p)

    def test_zero_structure(self):
        p = PoissonStructure(VS, MultiVector(COORD, 2, {}))
        assert jacobi_holds(p)


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian([[0, 1], [-1, 0]]) == 1

    def test_explicit_four(self):
        # matchings: 1*6 - 2*5 + 3*4
        assert pfaffian(EXPLICIT_GRID) == 8

    def test_zero_matrix(self):
        assert pfaffian([[0] * 4 for _ in range(4)]) == 0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            pfaffian([[0]])

    def test_square_is_determinant(self, rng):
        for size in (2, 4, 6, 8):
            for _ in range(4):
                grid = random_skew_grid(rng, size)
                assert pfaffian(grid) ** 2 == linalg.det(grid)

    @pytest.mark.parametrize("size", [16, 20])
    def test_square_is_determinant_large(self, size):
        # (size - 1)!! matchings: memoized on the indices left, not expanded
        grid = random_skew_grid(random.Random(size), size)
        assert pfaffian(grid) ** 2 == linalg.det(grid)

    def test_skew_validated(self):
        with pytest.raises(ValueError):
            pfaffian([[0, 1], [1, 0]])


class TestTopPower:
    def test_standard_symplectic(self):
        for n in (1, 2, 3):
            p = standard_symplectic(n)
            f, _ = top_power(p)
            assert f == LaurentPoly.const(p.var_spec, math.factorial(n))

    def test_explicit_toric(self):
        f, _ = top_power(toric_structure(EXPLICIT_GRID))
        assert f == poly("16*x1*x2*x3*x4")

    def test_zero(self):
        f, _ = top_power(PoissonStructure(VS, MultiVector(COORD, 2, {})))
        assert f.is_zero()

    def test_random_matches_pfaffian(self, rng):
        for n in (2, 3):
            for _ in range(3):
                grid = random_skew_grid(rng, 2 * n)
                p = toric_structure(grid)
                f, _ = top_power(p)
                expected = LaurentPoly.monomial(
                    p.var_spec, (1,) * (2 * n), math.factorial(n) * pfaffian(grid)
                )
                assert f == expected


class TestDegeneracyDivisor:
    def test_explicit_toric(self):
        rep = degeneracy_divisor(toric_structure(EXPLICIT_GRID))
        assert rep.multiplicities == {1: 1, 2: 1, 3: 1, 4: 1}
        assert rep.unit_part == poly("16")
        assert rep.simple_normal_crossings

    def test_standard_symplectic_empty(self):
        rep = degeneracy_divisor(standard_symplectic(2))
        assert rep.multiplicities == {}
        assert rep.simple_normal_crossings

    def test_degenerate_error(self):
        grid = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(DegenerateStructureError):
            degeneracy_divisor(toric_structure(grid))

    def test_non_monomial_reported(self):
        vs = VarSpec(2, 0)
        p = PoissonStructure(
            vs,
            MultiVector(
                coordinate_frame(vs), 2, {(1, 2): poly_from_string("x1 + x2", vs)}
            ),
        )
        with pytest.raises(NotMonomialTimesUnitError):
            degeneracy_divisor(p)

    def test_non_snc_multiplicity(self):
        vs = VarSpec(2, 1)
        p = PoissonStructure(
            vs,
            MultiVector(
                coordinate_frame(vs), 2, {(1, 2): poly_from_string("x1^2", vs)}
            ),
        )
        rep = degeneracy_divisor(p)
        assert rep.multiplicities == {1: 2}
        assert not rep.simple_normal_crossings

    def test_matches_top_power_oracle(self):
        # Pi^n = n! * Pf(pi) * d_1 ^...^ d_2n on arbitrary polynomial
        # bivectors, divisor variables m < 2n included
        rng = random.Random(4242)
        zero, vs = VarSpec(4, 2), VarSpec(4, 1)
        cases = [
            PoissonStructure(zero, MultiVector(coordinate_frame(zero), 2, {})),
            # f = 2*x1*(x1 + x3): not a monomial times a unit
            PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, {
                (1, 2): poly_from_string("x1", vs), (3, 4): poly_from_string("x1 + x3", vs),
            })),
        ]
        for size in (2, 4, 6):
            for _ in range(12):
                cases.append(random_polynomial_structure(rng, size, rng.randint(0, size)))
        outcomes = []
        for p in cases:
            outcome = divisor_outcome(p)
            assert outcome == divisor_oracle(p), p.to_json()
            outcomes.append(outcome)
        kinds = {o if isinstance(o, type) else o[2] for o in outcomes}
        assert kinds == {DegenerateStructureError, NotMonomialTimesUnitError, True, False}

    def test_never_builds_a_wedge(self, monkeypatch):
        grids = [EXPLICIT_GRID, random_skew_grid(random.Random(6), 6)]
        reports = [certify(make_toric(grid)) for grid in grids]
        divisors = [divisor_outcome(toric_structure(grid)) for grid in grids]

        def no_wedge(*args, **kwargs):
            raise AssertionError("an n-fold wedge was built")

        monkeypatch.setattr(poisson, "top_power", no_wedge)
        monkeypatch.setattr(MultiVector, "wedge", no_wedge)
        with pytest.raises(AssertionError):
            poisson.top_power(toric_structure(EXPLICIT_GRID))
        for grid, rep, div in zip(grids, reports, divisors):
            t = make_toric(grid)
            assert divisor_outcome(t.structure) == div
            assert certify(t) == rep


def random_polynomial_structure(rng, size, m):
    """A bivector on `size` variables, the first `m` divisorial.  Each
    coefficient pi_ij is absent, or x_i^k_i * x_j^k_j (weights k in 0..2,
    drawn once per structure) times a sum of up to three monomials, each
    constant or of degree <= 2 in each variable.  So the top coefficient is
    x^k * Pf(u) and is a monomial times a unit about as often as not."""
    vs = VarSpec(size, m)
    weights = [rng.choice((0, 1, 1, 2)) for _ in range(size)]
    terms = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if rng.random() < 0.2:
                continue
            poly = LaurentPoly.zero(vs)
            for _ in range(rng.choice((1, 1, 2, 3))):
                if rng.random() < 0.5:
                    exps = [0] * size
                else:
                    exps = [rng.choice((0, 0, 1, 2)) for _ in range(size)]
                exps[i - 1] += weights[i - 1]
                exps[j - 1] += weights[j - 1]
                poly = poly + LaurentPoly.monomial(vs, tuple(exps), rng.choice((-3, -2, -1, 1, 2, 3)))
            terms[(i, j)] = poly
    return PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))


def divisor_outcome(p):
    """What degeneracy_divisor gives: its report's fields, or the class of
    the refusal."""
    try:
        rep = degeneracy_divisor(p)
    except (DegenerateStructureError, NotMonomialTimesUnitError) as exc:
        return type(exc)
    return rep.multiplicities, rep.unit_part, rep.simple_normal_crossings


def divisor_oracle(p):
    """The same outcome read off top_power's coefficient f of d_1 ^...^ d_2n."""
    f, _ = top_power(p)
    if f.is_zero():
        return DegenerateStructureError
    content = f.min_exponents()
    unit = f.divide_monomial(content)
    if unit.constant_term() == 0:
        return NotMonomialTimesUnitError
    return {i + 1: e for i, e in enumerate(content) if e}, unit, max(content) <= 1


class TestLogMatrix:
    def test_toric_recovers_grid(self):
        a = log_matrix(toric_structure(EXPLICIT_GRID))
        assert a.is_constant()
        assert a.constant_grid() == [[Fraction(x) for x in row] for row in EXPLICIT_GRID]

    def test_symplectic_m_zero(self):
        a = log_matrix(standard_symplectic(2))
        assert a.constant_grid()[0][1] == 1

    def test_divisibility_failure(self):
        vs = VarSpec(2, 1)
        p = PoissonStructure(
            vs,
            MultiVector(coordinate_frame(vs), 2, {(1, 2): LaurentPoly.const(vs, 1)}),
        )
        with pytest.raises(ValueError):
            log_matrix(p)

    def test_divisibility_failure_names_first_pair(self):
        # d_1^d_3 and d_2^d_4 carry no divisor factors; d_1^d_3 comes first.
        terms = {(1, 2): "x1*x2", (1, 3): "1", (2, 4): "1", (3, 4): "x3*x4"}
        biv = MultiVector(COORD, 2, {k: poly(c) for k, c in terms.items()})
        message = (
            "coefficient of d_1^d_3 is not divisible by its divisor variables; "
            "the bivector does not lie in the log tangent sheaf"
        )
        with pytest.raises(ValueError) as info:
            log_matrix(PoissonStructure(VS, biv))
        assert str(info.value) == message


class TestSkewMatrixChecks:
    def test_skew_entries_accepted(self):
        a, b = poly("x1*x2 - 1/3*x3"), poly("2*x4")
        zero = LaurentPoly.zero(VS)
        m = SkewMatrix(VS, [[zero, a, b], [-a, zero, zero], [-b, zero, zero]])
        assert m.rows[1][0] == -a

    @pytest.mark.parametrize(
        "lower",
        ["x1*x2 - 1/3*x3", "-x1*x2", "-x1*x2 + 1/3*x3 + x4", "-x1*x2 + 1/6*x3", "-x1*x2 - 1/3*x3"],
        ids=["equal", "missing_term", "extra_term", "other_denominator", "one_sign"],
    )
    def test_not_skew_refused(self, lower):
        zero = LaurentPoly.zero(VS)
        rows = [[zero, poly("x1*x2 - 1/3*x3")], [poly(lower), zero]]
        with pytest.raises(ValueError) as info:
            SkewMatrix(VS, rows)
        assert str(info.value) == "matrix is not skew-symmetric"

    def test_entries_over_other_variables_refused(self):
        other = VarSpec(4, 2)
        zero = LaurentPoly.zero(VS)
        rows = [[zero, LaurentPoly.const(VS, 1)], [LaurentPoly.const(other, -1), zero]]
        with pytest.raises(ValueError, match="not skew-symmetric"):
            SkewMatrix(VS, rows)

    def test_nonzero_diagonal_refused(self):
        zero = LaurentPoly.zero(VS)
        with pytest.raises(ValueError) as info:
            SkewMatrix(VS, [[poly("x1"), zero], [zero, zero]])
        assert str(info.value) == "diagonal entries must vanish"


# A nonsingular fractional grid: Pf = 1/2 * 4 - 3 * 1 + 2 * 5/3 = 7/3.
PARTIAL_GRID = [
    [Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(2)],
    [Fraction(-1, 2), Fraction(0), Fraction(5, 3), Fraction(-1)],
    [Fraction(3), Fraction(-5, 3), Fraction(0), Fraction(4)],
    [Fraction(-2), Fraction(1), Fraction(-4), Fraction(0)],
]


def partial_divisor_structure(m: int) -> PoissonStructure:
    """sum_{i<j} c_ij x_i^[i<=m] x_j^[j<=m] d_i ^ d_j on VarSpec(4, m): only
    the first m variables are divisor variables."""
    vs = VarSpec(4, m)
    terms = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            exps = tuple(int(k in (i, j) and k <= m) for k in range(1, 5))
            terms[(i, j)] = LaurentPoly.monomial(vs, exps, PARTIAL_GRID[i - 1][j - 1])
    return PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))


@pytest.mark.parametrize("m", range(5))
class TestPartialDivisor:
    """log_matrix, pi_flat, pi_sharp and phi_forms with variables off the
    divisor: only x_1..x_m are rescaled."""

    def test_log_matrix_is_the_grid(self, m):
        assert log_matrix(partial_divisor_structure(m)).constant_grid() == PARTIAL_GRID

    def test_musical_maps_are_inverse(self, m):
        p = partial_divisor_structure(m)
        for i in range(1, 5):
            d_i = coordinate_vector(p.var_spec, i)
            assert pi_sharp(p, pi_flat(p, d_i)) == d_i
            dx_i = coordinate_one_form(p.var_spec, i)
            assert pi_flat(p, pi_sharp(p, dx_i)) == dx_i

    def test_phi_forms_have_poles_on_the_divisor_only(self, m):
        # phi_i = sum_j B_ij x_i^-[i<=m] x_j^-[j<=m] dx_j, B = A^-1.
        p = partial_divisor_structure(m)
        vs = p.var_spec
        b = linalg.inverse(PARTIAL_GRID)
        poles = set()
        for i, phi in enumerate(phi_forms(p), start=1):
            for j in range(1, 5):
                exps = tuple(-int(k in (i, j) and k <= m) for k in range(1, 5))
                coeff = phi.coefficient((j,))
                assert coeff == LaurentPoly.monomial(vs, exps, b[i - 1][j - 1])
                poles |= {k + 1 for e in coeff.terms for k, x in enumerate(e) if x < 0}
        assert poles == set(range(1, m + 1))


def item4_structure(seed: int, n: int) -> PoissonStructure:
    """Pi_A0 + x1 * (a ^ b) on a 2-general toric A0, a Poisson structure
    with a non-constant log matrix: in the log frame
    A = A0 + x1 * (a e2^T - e2 a^T), with a the first column of A0."""
    t = random_2general_toric(random.Random(seed), n)
    vs, a0 = t.structure.var_spec, t.matrix.rows
    x1 = LaurentPoly.variable(vs, 1)
    terms = {}
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            entry = a0[i][j]
            if j == 1:
                entry = entry + x1 * a0[i][0]
            if i == 1:
                entry = entry - x1 * a0[j][0]
            if not entry.is_zero():
                terms[(i + 1, j + 1)] = entry
    biv = change_frame(MultiVector(log_frame(vs), 2, terms), coordinate_frame(vs))
    return PoissonStructure(vs, biv)


def cofactor_inverse(a: SkewMatrix) -> SkewMatrix:
    """A^-1 as the cofactor adjugate over det A, each determinant by
    ``poly_det``: the oracle of the Pfaffian route."""
    rows, n, vs = a.rows, a.size, a.var_spec
    inv_det = LaurentPoly.const(vs, 1).divide_exact(poly_det(rows, vs))

    def entry(i, j):
        minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
        cofactor = poly_det(minor, vs)
        return (cofactor if (i + j) % 2 == 0 else -cofactor) * inv_det

    return SkewMatrix(vs, [[entry(i, j) for j in range(n)] for i in range(n)])


def nonsingular_grids(rng: random.Random, size: int, count: int):
    grids = []
    while len(grids) < count:
        grid = random_skew_grid(rng, size)
        if pfaffian(grid) != 0:
            grids.append(grid)
    return grids


class TestMusicalMaps:
    def test_sharp_on_eta_matches_log_matrix(self, explicit_toric):
        a = log_matrix(explicit_toric).constant_grid()
        for i in range(1, 5):
            eta = change_frame(log_one_form(VS, i), COORD)
            image = pi_sharp(explicit_toric, eta)
            expected = MultiVector(COORD, 1, {})
            for j in range(1, 5):
                if a[i - 1][j - 1]:
                    expected = expected + change_frame(log_vector(VS, j), COORD).scale(
                        a[i - 1][j - 1]
                    )
            assert image == expected

    def test_sharp_standard_symplectic(self):
        p = standard_symplectic(1)
        dx1 = coordinate_one_form(p.var_spec, 1)
        assert pi_sharp(p, dx1) == coordinate_vector(p.var_spec, 2)

    def test_sharp_zero(self, explicit_toric):
        zero = MultiVector(COORD, 1, {})
        from logsymplectic.exterior import DiffForm

        assert pi_sharp(explicit_toric, DiffForm(COORD, 1, {})).is_zero()

    def test_flat_on_v_basis(self, explicit_toric):
        b = inverse_log_matrix(explicit_toric).constant_grid()
        for i in range(1, 5):
            v = change_frame(log_vector(VS, i), COORD)
            image = pi_flat(explicit_toric, v)
            from logsymplectic.exterior import DiffForm

            expected = DiffForm(COORD, 1, {})
            for j in range(1, 5):
                if b[i - 1][j - 1]:
                    expected = expected + change_frame(log_one_form(VS, j), COORD).scale(
                        b[i - 1][j - 1]
                    )
            assert image == expected

    def test_inverse_pair_on_bases(self, explicit_toric, rng):
        for i in range(1, 5):
            eta = change_frame(log_one_form(VS, i), COORD)
            assert pi_flat(explicit_toric, pi_sharp(explicit_toric, eta)) == eta
            v = change_frame(log_vector(VS, i), COORD)
            assert pi_sharp(explicit_toric, pi_flat(explicit_toric, v)) == v

    def test_inverse_pair_on_random_log_forms(self, explicit_toric, rng):
        from logsymplectic.exterior import DiffForm

        for _ in range(15):
            terms = {}
            for i in range(1, 5):
                exps = tuple(rng.randint(0, 2) for _ in range(4))
                terms[(i,)] = LaurentPoly.monomial(VS, exps, Fraction(rng.randint(-3, 3)))
            w = change_frame(DiffForm(coordinate_frame(VS), 1, terms), COORD)
            assert pi_flat(explicit_toric, pi_sharp(explicit_toric, w)) == w

    def test_sharp_rejects_a_vector(self, explicit_toric):
        with pytest.raises(TypeError, match="DiffForm"):
            pi_sharp(explicit_toric, coordinate_vector(VS, 1))

    def test_flat_rejects_a_form(self, explicit_toric):
        with pytest.raises(TypeError, match="MultiVector"):
            pi_flat(explicit_toric, coordinate_one_form(VS, 1))

    def test_flat_requires_invertible(self):
        grid = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        p = toric_structure(grid)
        with pytest.raises(ValueError):
            pi_flat(p, coordinate_vector(VS, 1))

    @staticmethod
    def polynomial_log_matrix_structure(c12):
        """c12 on d1^d2, x3*x4 on d3^d4 and x1*x2*x3 on d1^d3: A13 = x2."""
        terms = {(1, 2): c12, (3, 4): "x3*x4", (1, 3): "x1*x2*x3"}
        biv = MultiVector(COORD, 2, {k: poly_from_string(c, VS) for k, c in terms.items()})
        return PoissonStructure(VS, biv)

    def test_inverse_of_polynomial_log_matrix(self):
        # Pf = A12*A34 - A13*A24 + A14*A23 = 1, so B = A^-1 is polynomial.
        p = self.polynomial_log_matrix_structure("x1*x2")
        x2 = poly_from_string("x2", VS)
        one, zero = LaurentPoly.const(VS, 1), LaurentPoly.zero(VS)
        expected = [
            [zero, -one, zero, zero],
            [one, zero, zero, x2],
            [zero, zero, zero, -one],
            [zero, -x2, one, zero],
        ]
        assert inverse_log_matrix(p) == SkewMatrix(VS, expected)
        for i in range(1, 5):
            v = coordinate_vector(VS, i)
            assert pi_sharp(p, pi_flat(p, v)) == v

    def test_inverse_needs_unit_determinant(self):
        # Pf = 1 + x3: A is invertible over the fraction field only.
        p = self.polynomial_log_matrix_structure("x1*x2 + x1*x2*x3")
        with pytest.raises(ValueError, match="not invertible over the ring"):
            inverse_log_matrix(p)

    def test_inverse_sign_at_2n2(self):
        # B_12 = (-1)^(1+2) * Pf(empty) / Pf(A) = -1/A_12
        vs = VarSpec(2, 2)
        p = PoissonStructure(vs, mv(2, {(1, 2): poly("3*x1*x2", vs)}, vs))
        b = inverse_log_matrix(p).constant_grid()
        assert b == [[0, Fraction(-1, 3)], [Fraction(1, 3), 0]]

    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
    def test_inverse_is_the_cofactor_adjugate(self, n, seed):
        p = item4_structure(seed, n)
        a = log_matrix(p)
        assert jacobi_holds(p) and not a.is_constant()
        assert inverse_log_matrix(p) == cofactor_inverse(a)

    @pytest.mark.parametrize("c12", ["x1*x2", "x1^2*x2"])
    def test_polynomial_inverse_is_the_cofactor_adjugate(self, c12):
        # Pf = 1, and Pf = x1, a unit that is not constant
        p = self.polynomial_log_matrix_structure(c12)
        assert inverse_log_matrix(p) == cofactor_inverse(log_matrix(p))

    @pytest.mark.parametrize("seed", range(2))
    def test_inverse_times_log_matrix_is_identity_2n8(self, seed):
        p = item4_structure(seed, 4)
        vs, matrix = p.var_spec, log_matrix(p)
        assert not matrix.is_constant()
        a, b = matrix.rows, inverse_log_matrix(p).rows
        for i in range(8):
            for j in range(8):
                product = sum((a[i][k] * b[k][j] for k in range(8)), LaurentPoly.zero(vs))
                assert product == LaurentPoly.const(vs, int(i == j)), (i, j)

    @pytest.mark.parametrize("size", [4, 6, 8, 10])
    def test_constant_inverse_matches_elimination(self, size):
        rng = random.Random(size)
        for grid in nonsingular_grids(rng, size, 3):
            # D^-1 A D^-1, D diagonal, stays skew and nonsingular: fractional entries
            d = [rng.randint(1, 7) for _ in range(size)]
            scaled = [[Fraction(x, d[i] * d[j]) for j, x in enumerate(row)] for i, row in enumerate(grid)]
            assert any(x.denominator > 1 for row in scaled for x in row)
            for g in (grid, scaled):
                p = toric_structure(g)
                expected = SkewMatrix.from_rationals(p.var_spec, linalg.inverse(g))
                assert inverse_log_matrix(p) == expected

    @pytest.mark.parametrize("m", range(5))
    def test_inverse_off_the_divisor_matches_elimination(self, m):
        # VarSpec(4, m): x_(m+1)..x_4 are not divisor variables
        p = partial_divisor_structure(m)
        expected = SkewMatrix.from_rationals(p.var_spec, linalg.inverse(PARTIAL_GRID))
        assert inverse_log_matrix(p) == expected

    def test_polynomial_with_vanishing_pfaffian_is_singular(self):
        # A12 = x3, A13 = 1 and A24 = A34 = 0: Pf = 0 although A is not constant
        p = PoissonStructure(VS, mv(2, {(1, 2): poly("x1*x2*x3"), (1, 3): poly("x1*x3")}))
        assert not log_matrix(p).is_constant()
        with pytest.raises(ValueError, match="singular; no inverse bivector"):
            inverse_log_matrix(p)

    def test_inverse_runs_no_elimination(self, explicit_toric, monkeypatch):
        cases = [explicit_toric, partial_divisor_structure(2), item4_structure(0, 3)]
        before = [inverse_log_matrix(p) for p in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("inverse_log_matrix eliminated")

        monkeypatch.setattr(linalg, "inverse", refuse)
        monkeypatch.setattr(linalg, "_eliminate", refuse)
        assert [inverse_log_matrix(p) for p in cases] == before

    def test_phi_forms_closed_identities(self, explicit_toric):
        phis = phi_forms(explicit_toric)
        for i, phi in enumerate(phis, start=1):
            x_i_phi = phi.scale(LaurentPoly.variable(VS, i))
            assert exterior_derivative(x_i_phi).is_zero()
            eta = change_frame(log_one_form(VS, i), COORD)
            assert exterior_derivative(phi) == wedge(phi, eta)


class TestSerialization:
    def test_json_round_trip(self, explicit_toric):
        doc = explicit_toric.to_json()
        again = PoissonStructure.from_json(doc)
        assert again.bivector == explicit_toric.bivector

    def test_from_json_normalizes_order(self):
        doc = {
            "dimension": 4,
            "divisor_vars": 4,
            "terms": [{"i": 2, "j": 1, "coeff": "x1*x2"}],
        }
        p = PoissonStructure.from_json(doc)
        assert p.bivector.coefficient((1, 2)) == poly("-x1*x2")

    def test_bivector_must_be_polynomial(self):
        with pytest.raises(ValueError):
            PoissonStructure(
                VS, MultiVector(COORD, 2, {(1, 2): poly("x1^-1")})
            )

    def test_skew_matrix_validation(self):
        with pytest.raises(ValueError):
            SkewMatrix.from_rationals(VS, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


OTHER = VarSpec(4, 0)
ONE = LaurentPoly.const(VS, 1)


class TestRefusals:
    """Malformed structures, matrices and arguments are refused, each with
    its own message."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: SkewMatrix(VS, [[0 * ONE, ONE], [-ONE]]), "not square", id="ragged-rows"),
        pytest.param(lambda: SkewMatrix(VS, [[0 * ONE, poly("x1")], [poly("-x1"), 0 * ONE]]).constant_grid(),
                     "non-constant", id="constant-grid-of-polynomials"),
        pytest.param(lambda: PoissonStructure(VS, MultiVector(log_frame(VS), 2, {(1, 2): ONE})),
                     "coordinate frame", id="log-frame-bivector"),
        pytest.param(lambda: PoissonStructure(VS, mv(2, {}, OTHER)), "var_spec mismatch",
                     id="foreign-var-spec"),
        pytest.param(lambda: PoissonStructure(VS, mv(1, {(1,): ONE})), "degree 2", id="degree-1"),
        pytest.param(lambda: PoissonStructure(VS, mv(3, {(1, 2, 3): poly("x4")})), "degree 2", id="degree-3"),
        pytest.param(lambda: PoissonStructure.from_json({
            "dimension": 4, "divisor_vars": 4, "terms": [{"i": 2, "j": 2, "coeff": "x2"}],
        }), "i == j", id="from-json-diagonal-term"),
        pytest.param(lambda: schouten(mv(2, {(1, 2): ONE}), mv(1, {}, OTHER)), "var_spec mismatch",
                     id="schouten-across-var-specs"),
        pytest.param(lambda: pfaffian([[0, 1], [-1]]), "not square", id="pfaffian-ragged-grid"),
        pytest.param(lambda: pi_sharp(toric_structure(EXPLICIT_GRID), wedge(
            coordinate_one_form(VS, 1), coordinate_one_form(VS, 2))), "1-form", id="pi-sharp-of-2-form"),
        pytest.param(lambda: pi_flat(toric_structure(EXPLICIT_GRID), mv(2, {(1, 2): ONE})), "1-vector",
                     id="pi-flat-of-2-vector"),
    ])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
