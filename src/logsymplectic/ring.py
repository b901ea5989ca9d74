"""Sparse Laurent polynomials over the rationals.

The coefficient ring for the whole toolkit: the local polynomial ring in
variables x1..x{2n}, localized at the first `m` "divisor" variables.  A
polynomial is a map from exponent vectors to nonzero rationals; exponents
may be negative only in the first `m` positions.  All arithmetic is exact
and equality is structural, so two computations of the same object compare
equal term by term.

Every coefficient is kept in the normal form of ``linalg.exact``: an
``int`` when it is integral, otherwise a ``Fraction``, never one with
denominator 1.  The constructor (through ``coefficient``, which refuses a
float or a bool) and ``_from_sums`` bring coefficients into that form, so
products and sums of integral coefficients, the common case, are
machine-integer arithmetic and build no Fraction.

Variables are numbered 1..2n in the public interface; exponent vectors are
0-indexed tuples of length 2n.

Validation happens where terms enter from outside: the constructor, `const`,
`monomial`, `variable`, and `shift`/`divide_monomial`/`divide_exact`, which
can create poles.  Sums, differences, negatives, products, powers and
partial derivatives of ring elements stay in the ring, and so does a shift
with no negative exponent outside the divisor positions, so they skip the
per-term checks and build their results with `LaurentPoly._from_sums`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

Rational = Fraction

# a coefficient in linalg.exact's normal form: an int, or a Fraction whose
# denominator is not 1
Coefficient = int | Fraction

Exponents = tuple[int, ...]


def coefficient(value) -> Coefficient:
    """An exact rational (an int, a Fraction or a string such as "1/2") in
    normal form.  A string is read by the grammar of ``poly_from_string``
    and must be a constant, so it has the value ``poly_from_string`` gives
    it: ``"+2"``, ``" -3/4 "`` and ``"1 + 1/2"`` are read, while a decimal
    point, an exponent, an underscore, a digit other than ASCII 0-9
    (``"0.5"``, ``"1e3"``, ``"1_000"``, ``"３"``) or a variable raise
    ValueError naming the string.  TypeError for a float, whose binary
    value is not the decimal it prints as, and for a bool, which is no
    number; ValueError for a zero denominator."""
    if isinstance(value, str):
        value = sum(_terms(value, 0).values())
    elif isinstance(value, (float, bool)):
        kind = "inexact float" if isinstance(value, float) else "boolean"
        raise TypeError(
            f'{kind} coefficient {value!r}; use an int, a Fraction or a string such as "1/2", '
            "not floats or booleans"
        )
    try:
        value = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {value!r}") from None
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True)
class VarSpec:
    """Variable layout: `total_vars` = 2n, the first `divisor_vars` = m of
    which are local equations of divisor components (and may appear with
    negative exponents)."""

    total_vars: int
    divisor_vars: int

    def __post_init__(self):
        if self.total_vars < 2 or self.total_vars % 2 != 0:
            raise ValueError("total_vars must be even and >= 2")
        if not 0 <= self.divisor_vars <= self.total_vars:
            raise ValueError("divisor_vars must lie in [0, total_vars]")

    @property
    def n(self) -> int:
        return self.total_vars // 2

    def is_divisor_index(self, i: int) -> bool:
        """1-based variable index i <= m?"""
        return 1 <= i <= self.divisor_vars


class LaurentPoly:
    """Immutable sparse Laurent polynomial attached to a VarSpec."""

    __slots__ = ("var_spec", "terms")

    def __init__(self, var_spec: VarSpec, terms: dict[Exponents, Coefficient] | None = None):
        clean: dict[Exponents, Coefficient] = {}
        nv, m = var_spec.total_vars, var_spec.divisor_vars
        for exps, coeff in (terms or {}).items():
            if type(coeff) is not int:
                coeff = coefficient(coeff)
            if coeff == 0:
                continue
            if len(exps) != nv:
                raise ValueError(f"exponent vector {exps} has wrong length (want {nv})")
            for pos, e in enumerate(exps):
                if e < 0 and pos >= m:
                    raise ValueError(
                        f"negative exponent in non-divisor variable x{pos + 1}: {exps}"
                    )
            clean[tuple(exps)] = coeff
        object.__setattr__(self, "var_spec", var_spec)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_sums(cls, var_spec: VarSpec, sums: dict[Exponents, Coefficient]) -> "LaurentPoly":
        """Trusted constructor for term sums of ring elements of `var_spec`
        (their sums, negatives, products and partial derivatives): keeps the
        dict's nonzero coefficients without the per-term checks of __init__,
        turning an integral Fraction (a sum or product of Fractions can be
        one) into its int."""
        self = object.__new__(cls)
        object.__setattr__(self, "var_spec", var_spec)
        object.__setattr__(self, "terms", {
            e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in sums.items()
            if c
        })
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vs: VarSpec) -> "LaurentPoly":
        return cls(vs, {})

    @classmethod
    def const(cls, vs: VarSpec, c) -> "LaurentPoly":
        return cls(vs, {(0,) * vs.total_vars: c})

    @classmethod
    def variable(cls, vs: VarSpec, i: int, power: int = 1) -> "LaurentPoly":
        """x_i**power, i being 1-based."""
        if not 1 <= i <= vs.total_vars:
            raise IndexError(f"variable index {i} out of range")
        exps = [0] * vs.total_vars
        exps[i - 1] = power
        return cls(vs, {tuple(exps): 1})

    @classmethod
    def monomial(cls, vs: VarSpec, exps, coeff=1) -> "LaurentPoly":
        return cls(vs, {tuple(exps): coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        zero = (0,) * self.var_spec.total_vars
        return all(e == zero for e in self.terms)

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * self.var_spec.total_vars, 0)

    def has_negative_exponents(self) -> bool:
        return bool(self.terms) and min(map(min, self.terms)) < 0

    def min_exponents(self) -> Exponents:
        """Componentwise minimum exponent (the monomial content); 0 for the
        zero polynomial."""
        if not self.terms:
            return (0,) * self.var_spec.total_vars
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def evaluate(self, values) -> Fraction:
        # exact values only; Fractions, since an int to a negative power is a float
        vals = [Fraction(coefficient(v)) for v in values]
        if len(vals) != self.var_spec.total_vars:
            raise ValueError("wrong number of values")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.var_spec != self.var_spec:
                raise ValueError("var_spec mismatch")
            return other
        return LaurentPoly.const(self.var_spec, other)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            prev = out.get(exps)
            out[exps] = coeff if prev is None else prev + coeff
        return LaurentPoly._from_sums(self.var_spec, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_sums(self.var_spec, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[Exponents, Coefficient] = {}
        add_product(out, self, other, False)
        return LaurentPoly._from_sums(self.var_spec, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = LaurentPoly.const(self.var_spec, 1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = LaurentPoly.const(self.var_spec, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var_spec == other.var_spec and self.terms == other.terms

    __hash__ = None  # mutable-dict content; structural equality only

    def partial(self, i: int) -> "LaurentPoly":
        """Exact partial derivative with respect to x_i (1-based), including
        negative-exponent terms."""
        if not 1 <= i <= self.var_spec.total_vars:
            raise IndexError(f"variable index {i} out of range")
        pos = i - 1
        out: dict[Exponents, Coefficient] = {}
        for exps, coeff in self.terms.items():
            e = exps[pos]
            if e == 0:
                continue
            out[exps[:pos] + (e - 1,) + exps[pos + 1 :]] = coeff * e
        return LaurentPoly._from_sums(self.var_spec, out)

    def shift(self, exps: Exponents) -> "LaurentPoly":
        """Multiply by the monomial x**exps (exps may be negative in divisor
        positions only, enforced by the constructor).  Raises ValueError
        unless exps has one entry per variable.  A shift with no negative
        entry past the divisor positions keeps every term in the ring, so its
        result skips the per-term checks."""
        vs = self.var_spec
        if len(exps) != vs.total_vars:
            raise ValueError(
                f"exponent vector {tuple(exps)} has wrong length {len(exps)} "
                f"(want {vs.total_vars})"
            )
        terms = {tuple(map(add, e, exps)): c for e, c in self.terms.items()}
        if min(exps[vs.divisor_vars :], default=0) >= 0:
            return LaurentPoly._from_sums(vs, terms)
        return LaurentPoly(vs, terms)

    def divide_monomial(self, exps: Exponents) -> "LaurentPoly":
        """Exact division by the monomial x**exps.  Raises if the quotient
        would need a pole in a non-divisor variable."""
        return self.shift(tuple(-e for e in exps))

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division p/q; raises ValueError when q does not divide p."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        # Clear monomial content so intermediate steps stay polynomial.
        alpha = self.min_exponents()
        beta = other.min_exponents()
        p = self.divide_monomial(alpha) if any(alpha) else self
        q = other.divide_monomial(beta) if any(beta) else other

        def order_key(e: Exponents):
            return (sum(e), e)

        q_lead = max(q.terms, key=order_key)
        q_lc = q.terms[q_lead]
        quotient: dict[Exponents, Coefficient] = {}
        r = p
        while not r.is_zero():
            r_lead = max(r.terms, key=order_key)
            t = tuple(a - b for a, b in zip(r_lead, q_lead))
            if any(e < 0 for e in t):
                raise ValueError("not exactly divisible")
            c = Fraction(r.terms[r_lead]) / q_lc
            quotient[t] = c
            r = r - q.shift(t) * LaurentPoly.const(self.var_spec, c)
        shift = tuple(a - b for a, b in zip(alpha, beta))
        return LaurentPoly(self.var_spec, quotient).shift(shift)

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_to_string(self)!r})"


def add_product(out: dict[Exponents, Coefficient], p: LaurentPoly, q: LaurentPoly, negate: bool):
    """out += p*q (out -= p*q if `negate`), in place on a term dict.  Sums
    that cancel stay as zero entries; `LaurentPoly._from_sums` drops them."""
    get = out.get
    q_terms = q.terms.items()
    for e1, c1 in p.terms.items():
        if negate:
            c1 = -c1
        for e2, c2 in q_terms:
            key = tuple(map(add, e1, e2))
            prev = get(key)
            out[key] = c1 * c2 if prev is None else prev + c1 * c2


# -- serialization ----------------------------------------------------------

# a sign, except one right after "^", which belongs to its exponent
_SIGN = re.compile(r"(?<!\^)([+-])")
# one "*"-separated factor: an integer n, a rational n/d, or a power xK^E,
# in ASCII digits ("\d" would also take other scripts' digits, as int does)
_FACTOR = re.compile(r"\s*(?:([0-9]+(?:/[0-9]+)?)|x([0-9]+)(?:\^(-?[0-9]+))?)\s*")


def poly_to_string(p: LaurentPoly) -> str:
    """Canonical sum-of-monomials string, e.g. ``3/2*x1^-1*x3^2``."""
    if p.is_zero():
        return "0"
    parts = []
    for exps in sorted(p.terms):
        coeff = p.terms[exps]
        factors = [
            f"x{pos + 1}" + (f"^{e}" if e != 1 else "")
            for pos, e in enumerate(exps)
            if e != 0
        ]
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(coeff))] + factors)
        parts.append((coeff < 0, body))
    first_neg, first_body = parts[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def poly_from_string(s: str, vs: VarSpec) -> LaurentPoly:
    """Parse the serialization format of :func:`poly_to_string`.

    Monomials are separated by runs of signs: each "+" or "-" outside an
    exponent, with any spaces between, and the run's minus signs multiply
    (``"x1 - - x2"`` is x1 + x2, ``"- x1"`` is -x1).  A monomial is a
    "*"-separated list of factors, each an integer ``n``, a rational
    ``n/d`` or a power ``xK`` or ``xK^E`` (E may be negative), every
    number in ASCII digits 0-9.  Raises TypeError on a non-string, and
    ValueError on an empty monomial (``""``, ``"+"``, ``"x1 -"``), a signed
    or other malformed factor (``"2*-3*x1"``), a variable out of range and
    a zero denominator.
    """
    if not isinstance(s, str):
        raise TypeError(f"polynomial must be given as a string, not {type(s).__name__}")
    return LaurentPoly(vs, _terms(s, vs.total_vars))


def _terms(s: str, nvars: int) -> dict[Exponents, int | Fraction]:
    """The terms of s in the grammar of ``poly_from_string`` on nvars
    variables, coefficients not yet in normal form; with nvars = 0 every
    variable is out of range, so s must be a constant."""
    pieces = _SIGN.split(s)  # monomial, sign, monomial, ..., monomial
    if not pieces[-1].strip():
        raise ValueError(f"{s!r} ends without a monomial")
    terms: dict[Exponents, int | Fraction] = {}
    negative = False
    for sign, piece in zip(["+", *pieces[1::2]], pieces[::2]):
        negative ^= sign == "-"
        if not piece.strip():  # a blank inside a run of signs
            continue
        coeff, negative = (-1 if negative else 1), False
        exps = [0] * nvars
        for factor in piece.split("*"):
            match = _FACTOR.fullmatch(factor)
            if not match:
                raise ValueError(f"malformed factor {factor.strip()!r} in {s!r}")
            number, var, power = match.groups()
            if number:
                num, _, den = number.partition("/")
                if den and not int(den):
                    raise ValueError(f"zero denominator in {s!r}")
                coeff *= Fraction(int(num), int(den)) if den else int(num)
            elif 1 <= int(var) <= nvars:
                exps[int(var) - 1] += int(power) if power else 1
            else:
                raise ValueError(f"variable x{var} out of range in {s!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return terms
