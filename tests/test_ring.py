import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logsymplectic.ring import (
    LaurentPoly,
    VarSpec,
    coefficient,
    poly_from_string,
    poly_to_string,
)

VS = VarSpec(4, 2)


def poly(s: str, vs: VarSpec = VS) -> LaurentPoly:
    return poly_from_string(s, vs)


@st.composite
def laurent_polys(draw, vs=VS, max_terms=3, min_exp=-2, max_exp=2):
    nterms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(nterms):
        exps = tuple(
            draw(st.integers(min_exp if pos < vs.divisor_vars else 0, max_exp))
            for pos in range(vs.total_vars)
        )
        terms[exps] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
    return LaurentPoly(vs, terms)


class TestVarSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            VarSpec(3, 1)
        with pytest.raises(ValueError):
            VarSpec(0, 0)
        with pytest.raises(ValueError):
            VarSpec(4, 5)
        assert VarSpec(6, 0).n == 3

    def test_divisor_indices(self):
        vs = VarSpec(4, 2)
        assert vs.is_divisor_index(1) and vs.is_divisor_index(2)
        assert not vs.is_divisor_index(3)


class TestArithmetic:
    def test_unit_times_inverse(self):
        x1 = LaurentPoly.variable(VS, 1)
        x1_inv = LaurentPoly.variable(VS, 1, -1)
        assert x1 * x1_inv == LaurentPoly.const(VS, 1)

    def test_binomial_square(self):
        x1 = LaurentPoly.variable(VS, 1)
        x2 = LaurentPoly.variable(VS, 2)
        assert (x1 + x2) ** 2 == x1 * x1 + 2 * x1 * x2 + x2 * x2

    def test_mul_matches_convolution_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            p = rand_poly(rng)
            q = rand_poly(rng)
            # independent naive double-loop convolution
            acc = {}
            for e1, c1 in p.terms.items():
                for e2, c2 in q.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
            expected = {k: v for k, v in acc.items() if v != 0}
            assert (p * q).terms == expected

    def test_var_spec_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly.const(VS, 1) * LaurentPoly.const(VarSpec(2, 0), 1)

    def test_negative_exponent_guard(self):
        with pytest.raises(ValueError):
            LaurentPoly.variable(VS, 3, -1)

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    def test_scalar_coercion(self):
        x1 = LaurentPoly.variable(VS, 1)
        assert 2 * x1 - x1 == x1
        assert x1 + 0 == x1


def rand_poly(rng, vs=VS, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(
            rng.randint(-2 if pos < vs.divisor_vars else 0, 3)
            for pos in range(vs.total_vars)
        )
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return LaurentPoly(vs, terms)


class TestDerivative:
    def test_product_of_variables(self):
        p = poly("x1*x2")
        assert p.partial(1) == poly("x2")

    def test_power_rule_negative(self):
        p = poly("x1^-1")
        assert p.partial(1) == poly("-x1^-2")

    def test_constant(self):
        assert LaurentPoly.const(VS, Fraction(3, 7)).partial(2).is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            LaurentPoly.const(VS, 1).partial(5)

    @given(laurent_polys(), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_partials_commute(self, p, i, j):
        assert p.partial(i).partial(j) == p.partial(j).partial(i)

    @given(laurent_polys(), laurent_polys(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_leibniz(self, p, q, i):
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


class TestDivision:
    def test_exact_roundtrip(self):
        rng = random.Random(9)
        for _ in range(20):
            p = rand_poly(rng)
            q = rand_poly(rng)
            if q.is_zero():
                continue
            assert (p * q).divide_exact(q) == p

    def test_not_divisible(self):
        with pytest.raises(ValueError):
            poly("x1 + x3").divide_exact(poly("x3"))

    def test_divide_monomial_pole_guard(self):
        with pytest.raises(ValueError):
            poly("x1").divide_monomial((0, 0, 1, 0))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly("x1").divide_exact(LaurentPoly.zero(VS))


class TestSerialization:
    def test_spec_example(self):
        p = poly("3/2*x1^-1*x3^2")
        assert p.terms == {(-1, 0, 2, 0): Fraction(3, 2)}
        assert poly_to_string(p) == "3/2*x1^-1*x3^2"

    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(50):
            p = rand_poly(rng)
            assert poly_from_string(poly_to_string(p), VS) == p

    def test_zero(self):
        assert poly_to_string(LaurentPoly.zero(VS)) == "0"
        assert poly_from_string("0", VS).is_zero()

    def test_signs_and_spaces(self):
        assert poly("x1 - x2") == poly("x1") - poly("x2")
        assert poly("-x1 + -x2") == -(poly("x1") + poly("x2"))

    def test_malformed(self):
        with pytest.raises(ValueError):
            poly("x9")
        with pytest.raises(ValueError):
            poly("x1^^2")
        with pytest.raises(ValueError):
            poly("")

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            poly("3/0*x1*x2")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            poly_from_string(0.5, VS)


X1, X2 = (LaurentPoly.variable(VS, i) for i in (1, 2))


class TestGrammar:
    """Monomials are separated by runs of signs, whose minus signs multiply;
    a factor is n, n/d or xK^E, never signed; an empty monomial is refused."""

    @pytest.mark.parametrize("text, message", [
        ("+", "ends without a monomial"),
        ("x1 +", "ends without a monomial"),
        ("x1 -", "ends without a monomial"),
        ("2*-3*x1", "malformed factor ''"),
        ("x1*+2", "malformed factor ''"),
        ("3/0*x1", "zero denominator"),
        ("x\u0661 + \u0662*x2", "malformed factor 'x\u0661'"),
        ("x1^\uff12", "malformed factor 'x1"),
    ])
    def test_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            poly(text)

    @pytest.mark.parametrize("text, value", [
        ("x1-x2", X1 - X2),
        ("x1 -x2", X1 - X2),
        ("- - x1", X1),
        ("x1 - - x2", X1 + X2),
        ("-x1 + -x2", -X1 - X2),
        ("x1^-1*x3 + 1/2", LaurentPoly.monomial(VS, (-1, 0, 1, 0)) + Fraction(1, 2)),
        ("4/2*x1 - 3/1 + x2*2/2", 2 * X1 - 3 + X2),
    ])
    def test_value(self, text, value):
        assert poly(text) == value


def constant_string(rng: random.Random) -> str:
    """A string of the constant grammar's pieces (sign runs, spaces, n and
    n/d factors joined by "*"), now and then with a piece from outside it."""
    atoms = ["0", "1", "7", "12", "007", "3/2", "4/2", "10/4", "0/3", "1/0"]
    foreign = ["0.5", ".5", "1.", "1e3", "1E3", "1_000", "e", "", "2 3", "/2", "3/", "3 / 2"]
    space = lambda: rng.choice(["", " ", "  "])

    def monomial():
        factors = [rng.choice(atoms if rng.random() < 0.9 else foreign) for _ in range(rng.randint(1, 3))]
        return "*".join(space() + f + space() for f in factors)

    def signs():
        return "".join(rng.choice("+-") + space() for _ in range(rng.randint(0, 2)))

    text = signs() + monomial()
    for _ in range(rng.randint(0, 2)):
        text += space() + rng.choice("+-") + space() + signs() + monomial()
    return text


class TestOneNumberGrammar:
    """``coefficient`` reads a string exactly when ``poly_from_string``
    reads it as a constant, with the same value."""

    @staticmethod
    def read(reader, text):
        try:
            value = reader(text)
        except ValueError:
            return "refused"
        return type(value), value

    def test_readers_agree_on_a_corpus(self):
        zero = (0,) * VS.total_vars

        def as_constant(text):
            p = poly(text)
            assert set(p.terms) <= {zero}, text
            return p.terms.get(zero, 0)

        rng = random.Random(44)
        corpus = {constant_string(rng) for _ in range(2000)}
        outcomes = {text: self.read(coefficient, text) for text in corpus}
        for text, outcome in outcomes.items():
            assert outcome == self.read(as_constant, text), text
        refused = sum(outcome == "refused" for outcome in outcomes.values())
        assert 200 < refused < len(corpus) - 200

    @pytest.mark.parametrize(
        "text",
        ["1e3", "-1e3", "1E3", "0.5", ".5", "1.", "1_000", "x1", "3 / 2", "\u0661\u0662", "\uff13"],
    )
    def test_refused_naming_the_string(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            coefficient(text)

    @pytest.mark.parametrize("text, value", [
        ("+2", 2),
        (" 7 ", 7),
        ("-3/4", Fraction(-3, 4)),
        ("4/2", 2),
        ("- -3/6", Fraction(1, 2)),
        ("1 + 1/2", Fraction(3, 2)),
        ("2*3", 6),
    ])
    def test_read(self, text, value):
        got = coefficient(text)
        assert got == value and type(got) is type(value)


class TestExactInput:
    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly.const(VS, 0.1)
        with pytest.raises(TypeError):
            LaurentPoly.monomial(VS, (1, 0, 0, 0), 0.5)
        with pytest.raises(TypeError):
            LaurentPoly(VS, {(0, 0, 0, 0): 2.0})
        with pytest.raises(TypeError):
            LaurentPoly.variable(VS, 1) + 0.5

    def test_exact_coefficients_accepted(self):
        assert LaurentPoly.const(VS, "1/10").terms == {(0, 0, 0, 0): Fraction(1, 10)}
        assert LaurentPoly.const(VS, 3) == LaurentPoly.const(VS, Fraction(3))

    def test_booleans_rejected(self):
        # a bool is an int to Python, but no coefficient
        for value in (True, False):
            with pytest.raises(TypeError, match="boolean coefficient"):
                coefficient(value)
        # comparing with a bool answers instead of raising
        assert (LaurentPoly.const(VS, 1) == True) is False  # noqa: E712
        assert (LaurentPoly.zero(VS) != False) is True  # noqa: E712

    def test_zero_denominator_rejected(self):
        for build in (coefficient, lambda c: LaurentPoly.const(VS, c)):
            with pytest.raises(ValueError, match="zero denominator"):
                build("1/0")

    def test_evaluate_reads_exact_values(self):
        p = poly("x1^-1*x3 + 1/2")
        with pytest.raises(TypeError, match="inexact float coefficient 0.1"):
            p.evaluate([0.1, 1, 1, 1])
        with pytest.raises(TypeError, match="boolean coefficient"):
            p.evaluate([1, 1, True, 1])
        value = p.evaluate(["1/10", 1, 3, 0])
        assert value == Fraction(61, 2) and type(value) is Fraction


def assert_normal(c):
    """``linalg.exact``'s normal form: an int, or a Fraction that is not one."""
    assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def assert_canonical(r: LaurentPoly, vs: VarSpec = VS):
    """What the validating constructor would have produced."""
    assert r.var_spec == vs
    assert LaurentPoly(vs, r.terms) == r
    for exps, c in r.terms.items():
        assert_normal(c)
        assert c != 0
        assert len(exps) == vs.total_vars
        assert all(e >= 0 for e in exps[vs.divisor_vars:])


MONOMIAL_EXPONENTS = st.tuples(
    *(st.integers(-2 if pos < VS.divisor_vars else 0, 2) for pos in range(VS.total_vars))
)


class TestClosedOperations:
    """Closed operations skip the constructor's checks; their results must
    still be canonical, cancellations included."""

    @given(laurent_polys(max_terms=4), laurent_polys(max_terms=4), st.integers(1, 4),
           st.integers(0, 3), MONOMIAL_EXPONENTS)
    @settings(max_examples=60, deadline=None)
    def test_results_are_canonical(self, p, q, i, k, m_exps):
        m = LaurentPoly.monomial(VS, m_exps)
        results = [
            p + q, p - q, -p, p * q, p ** k, p.partial(i),
            p + 1, 2 * p, p - Fraction(1, 2), 1 - p,
            p + (-p), p - p, p * (q - q),
            (p + m) * (p - m),  # the cross terms p*m cancel
            p + (-p.partial(i) + p.partial(i)),
        ]
        for r in results:
            assert_canonical(r)
        assert (p + (-p)).is_zero() and (p - p).is_zero()
        assert (p + m) * (p - m) == p * p - m * m

    @given(laurent_polys(max_terms=4), MONOMIAL_EXPONENTS)
    @settings(max_examples=40, deadline=None)
    def test_shift_without_nondivisor_pole_is_canonical(self, p, exps):
        r = p.shift(exps)
        assert_canonical(r)
        assert r == p * LaurentPoly.monomial(VS, exps)

    def test_shift_by_negative_nondivisor_entry_is_checked(self):
        # terms that keep a nonnegative x3 exponent pass; one that would not raises
        assert poly("x3^2 + x1*x3").shift((0, 0, -1, 0)) == poly("x3 + x1")
        with pytest.raises(ValueError, match="non-divisor variable x3"):
            poly("x3 + x1").shift((0, 0, -1, 0))
        with pytest.raises(ValueError, match="wrong length"):
            poly("x3").shift((1, 0, 0))

    def test_cancelling_product(self):
        x1, x2 = LaurentPoly.variable(VS, 1), LaurentPoly.variable(VS, 2)
        r = (x1 + x2) * (x1 - x2)
        assert_canonical(r)
        assert r.terms == {(2, 0, 0, 0): Fraction(1), (0, 2, 0, 0): Fraction(-1)}

    @given(laurent_polys(max_terms=4), st.integers(3, 4))
    @settings(max_examples=40, deadline=None)
    def test_pole_creating_operations_still_raise(self, p, i):
        assume(not p.is_zero())
        pos = i - 1
        top = max(e[pos] for e in p.terms)
        exps = tuple(-(top + 1) if j == pos else 0 for j in range(VS.total_vars))
        with pytest.raises(ValueError):
            p.shift(exps)
        with pytest.raises(ValueError):
            p.divide_monomial(tuple(-e for e in exps))
        with pytest.raises(ValueError):
            p.divide_exact(LaurentPoly.monomial(VS, tuple(-e for e in exps)))


# -- the normal form: int when integral, otherwise a Fraction --------------


def fraction_terms(p: LaurentPoly) -> dict:
    """The terms of p with every coefficient as a Fraction: the reference's
    view of a polynomial."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def ref_nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_nonzero(out)


def ref_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref_nonzero(out)


def ref_pow(a: dict, k: int) -> dict:
    out = {(0,) * VS.total_vars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_partial(a: dict, i: int) -> dict:
    pos = i - 1
    return {
        e[:pos] + (e[pos] - 1,) + e[pos + 1:]: c * e[pos] for e, c in a.items() if e[pos]
    }


def ref_shift(a: dict, exps) -> dict:
    return {tuple(x + y for x, y in zip(e, exps)): c for e, c in a.items()}


class TestNormalForm:
    """Every coefficient is in ``linalg.exact``'s normal form, whatever the
    operation, and equals the value a Fraction-only computation gives."""

    @given(laurent_polys(max_terms=4), laurent_polys(max_terms=4), st.integers(1, 4),
           st.integers(0, 3), MONOMIAL_EXPONENTS)
    @settings(max_examples=80, deadline=None)
    def test_operations_match_a_fraction_reference(self, p, q, i, k, exps):
        a, b = fraction_terms(p), fraction_terms(q)
        cases = [
            (p + q, ref_add(a, b)),
            (p - q, ref_add(a, ref_neg(b))),
            (-p, ref_neg(a)),
            (p * q, ref_mul(a, b)),
            (p ** k, ref_pow(a, k)),
            (p.partial(i), ref_partial(a, i)),
            (p.shift(exps), ref_shift(a, exps)),
            (p.shift(exps).divide_monomial(exps), a),
            (p.divide_exact(LaurentPoly.const(VS, Fraction(2, 3))),
             {e: c * 3 / 2 for e, c in a.items()}),
            (poly_from_string(poly_to_string(p), VS), a),
        ]
        if not q.is_zero():
            cases.append(((p * q).divide_exact(q), a))
        for r, ref in cases:
            assert_canonical(r)
            assert fraction_terms(r) == ref

    def test_integral_fractions_become_ints(self):
        p = LaurentPoly(VS, {(1, 0, 0, 0): Fraction(6, 3), (0, 0, 0, 0): "4/2", (0, 1, 0, 0): 1})
        assert p.terms == {(1, 0, 0, 0): 2, (0, 0, 0, 0): 2, (0, 1, 0, 0): 1}
        assert all(type(c) is int for c in p.terms.values())
        # a bool is refused, not read as the int 1
        with pytest.raises(TypeError, match="boolean coefficient True"):
            LaurentPoly(VS, {(0, 1, 0, 0): True})
        half = poly("1/2*x1 + 1/2*x3 + 3/1*x4")
        total = half + half
        assert total.terms == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 6}
        assert all(type(c) is int for c in total.terms.values())
        assert all(type(c) is int for c in poly("4/2*x1 - 3/1 + x2*2/2").terms.values())
        assert type((half * 2).terms[(1, 0, 0, 0)]) is int

    def test_constant_term_is_normal(self):
        assert type(poly("x1").constant_term()) is int
        assert poly("x1").constant_term() == 0
        assert type(poly("2/1 + x1").constant_term()) is int
        assert poly("3/4 + x1").constant_term() == Fraction(3, 4)

    def test_divide_exact_gives_a_fraction_never_a_float(self):
        q = poly("3*x1^2 + 5*x1*x3").divide_exact(poly("2*x1"))
        assert q == poly("3/2*x1 + 5/2*x3")
        for c in q.terms.values():
            assert type(c) is Fraction and c.denominator == 2
        whole = poly("4*x1 + 6").divide_exact(poly("2"))
        assert whole.terms == {(1, 0, 0, 0): 2, (0, 0, 0, 0): 3}
        assert all(type(c) is int for c in whole.terms.values())


class TestShiftLength:
    """A shift or monomial division by an exponent vector of the wrong
    length is refused, naming both lengths, instead of being cut short."""

    def test_longer_vector_refused(self):
        p = LaurentPoly.monomial(VarSpec(4, 2), (1, 0, 0, 0), 3)
        with pytest.raises(ValueError, match=r"length 5 \(want 4\)"):
            p.shift((1, 0, 0, 0, 5))
        with pytest.raises(ValueError, match=r"length 5 \(want 4\)"):
            p.divide_monomial((1, 0, 0, 0, 5))

    def test_shorter_vector_refused(self):
        p = LaurentPoly.monomial(VarSpec(4, 2), (1, 0, 0, 0), 3)
        with pytest.raises(ValueError, match=r"length 3 \(want 4\)"):
            p.shift((1, 0, 0))
        with pytest.raises(ValueError, match=r"length 2 \(want 4\)"):
            LaurentPoly.zero(VS).shift((1, 0))


class TestRefusals:
    """Terms, variable indices, values and powers outside the ring's reach
    are refused."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: LaurentPoly(VS, {(1, 0, 0): 1}), ValueError, r"wrong length \(want 4\)",
                     id="wrong-length-exponents"),
        pytest.param(lambda: LaurentPoly.variable(VS, 0), IndexError, "variable index 0 out of range",
                     id="variable-index-0"),
        pytest.param(lambda: poly("x1 + x3").evaluate([1, 2, 3]), ValueError, "wrong number of values",
                     id="evaluate-too-few-values"),
        pytest.param(lambda: poly("x1 + x3") ** -1, ValueError, "non-negative integer powers",
                     id="negative-power"),
    ])
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
