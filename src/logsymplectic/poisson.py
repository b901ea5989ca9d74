"""Poisson bivectors, the Schouten bracket, Pfaffians and degeneracy
divisors, and the musical maps between forms and multivectors.

Schouten bracket convention
---------------------------

On monomials P = f * d_I (a p-vector) and Q = g * d_J (a q-vector):

    [P, Q] = (-1)^((p-1)(q-1)) * sum_{a in I} (P <-d_a) * (dQ/dx_a)
             - sum_{b in J} (Q <-d_b) * (dP/dx_b)

where ``<-d_a`` strips the factor d/dx_a from the right with the sign of the
moves, and products are wedge products.  This is the unique graded Lie
bracket extending the Lie bracket of vector fields and the directional
derivative on (vector, function) for which interior multiplication by the
inverse bivector intertwines [. , Pi] with the exterior derivative with no
degree-dependent sign; that chain-map identity is what the test suite pins
the convention against.  It satisfies

    [P, Q] = -(-1)^((p-1)(q-1)) [Q, P]
    [P, Q ^ R] = (-1)^((p-1) r) [P, Q] ^ R + Q ^ [P, R]
    [P, [Q, R]] = [[P, Q], R] + (-1)^((p-1)(q-1)) [Q, [P, R]]

Top power and Pfaffian
----------------------

For Pi = sum_{i<j} pi_ij d_i ^ d_j on 2n variables,

    Pi^n = n! * Pf(pi) * d_1 ^ ... ^ d_2n,

so the degeneracy divisor D(Pi), the zero locus of Pi^n, is the zero locus
of Pf(pi).  ``degeneracy_divisor`` takes Pf(pi) over the ring by the same
matching expansion as the constant ``pfaffian``; ``top_power`` builds the
n-fold wedge itself and is kept as the oracle the tests compare against.

Inverse of the log matrix
-------------------------

For a skew A of size 2n with Pf(A) != 0, B = A^{-1} is skew, and for i < j

    B_ij = (-1)^(i+j) * Pf(A_ij) / Pf(A),    B_ji = -B_ij,

where A_ij is A with rows and columns i and j removed (Pf of the empty
matrix is 1; the sign is the same for 0- and 1-based indices).  For 2n = 2,
B_12 = -1/A_12.  Since det A = Pf(A)^2, B has entries in the ring exactly
when Pf(A) is a unit there.  ``inverse_log_matrix`` takes every Pfaffian
from the matching expansion of ``pfaffian``, so no elimination is run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exterior import (
    COORDINATE,
    DiffForm,
    MultiVector,
    change_frame,
    contract,
    coordinate_frame,
    coordinate_vector,
    log_frame,
    merge_indices,
)
from .ring import LaurentPoly, VarSpec, add_product, coefficient, poly_from_string, poly_to_string


def _negatives(a: LaurentPoly, b: LaurentPoly) -> bool:
    """a == -b, read off the term dicts without building -b (coefficients
    are normalised, so numerators and denominators compare exactly)."""
    return (
        a.var_spec == b.var_spec
        and a.terms.keys() == b.terms.keys()
        and all(
            c.numerator == -d.numerator and c.denominator == d.denominator
            for c, d in zip(a.terms.values(), map(b.terms.__getitem__, a.terms))
        )
    )


class SkewMatrix:
    """Skew-symmetric square matrix of LaurentPoly entries."""

    __slots__ = ("var_spec", "rows")

    def __init__(self, var_spec: VarSpec, rows):
        rows = tuple(tuple(p for p in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        for i in range(n):
            if not rows[i][i].is_zero():
                raise ValueError("diagonal entries must vanish")
            for j in range(i + 1, n):
                if not _negatives(rows[i][j], rows[j][i]):
                    raise ValueError("matrix is not skew-symmetric")
        object.__setattr__(self, "var_spec", var_spec)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SkewMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rationals(cls, var_spec: VarSpec, grid) -> "SkewMatrix":
        return cls(
            var_spec,
            [[LaurentPoly.const(var_spec, x) for x in row] for row in grid],
        )

    def is_constant(self) -> bool:
        return all(p.is_constant() for row in self.rows for p in row)

    def constant_grid(self) -> list[list[int | Fraction]]:
        if not self.is_constant():
            raise ValueError("matrix has non-constant entries")
        return [[p.constant_term() for p in row] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, SkewMatrix)
            and self.var_spec == other.var_spec
            and self.rows == other.rows
        )

    __hash__ = None

    def serialize(self) -> dict:
        return {
            "size": self.size,
            "entries": [[poly_to_string(p) for p in row] for row in self.rows],
        }


@dataclass(frozen=True)
class PoissonStructure:
    """A bivector field with polynomial coefficients in the coordinate frame.

    The integrability condition (vanishing Schouten self-bracket) is checked
    by :func:`jacobi_holds`, never assumed.
    """

    var_spec: VarSpec
    bivector: MultiVector

    def __post_init__(self):
        if self.bivector.frame.kind != COORDINATE:
            raise ValueError("bivector must be given in the coordinate frame")
        if self.bivector.frame.var_spec != self.var_spec:
            raise ValueError("var_spec mismatch")
        if self.bivector.degree != 2:
            raise ValueError("bivector must have degree 2")
        for coeff in self.bivector.terms.values():
            if coeff.has_negative_exponents():
                raise ValueError("bivector coefficients must be polynomial")

    @classmethod
    def from_json(cls, doc: dict) -> "PoissonStructure":
        vs = VarSpec(_int_field(doc, "dimension"), _int_field(doc, "divisor_vars"))
        items = _field(doc, "terms")
        if not isinstance(items, list) or not all(isinstance(t, dict) for t in items):
            raise ValueError("'terms' must be an array of objects")
        terms: dict[tuple[int, ...], LaurentPoly] = {}
        for item in items:
            i, j = _int_field(item, "i"), _int_field(item, "j")
            coeff = poly_from_string(_field(item, "coeff"), vs)
            if i == j:
                raise ValueError("bivector term with i == j")
            if i > j:
                i, j = j, i
                coeff = -coeff
            key = (i, j)
            terms[key] = terms[key] + coeff if key in terms else coeff
        biv = MultiVector(coordinate_frame(vs), 2, terms)
        return cls(vs, biv)

    def to_json(self) -> dict:
        return {
            "dimension": self.var_spec.total_vars,
            "divisor_vars": self.var_spec.divisor_vars,
            "terms": [
                {"i": k[0], "j": k[1], "coeff": poly_to_string(v)}
                for k, v in sorted(self.bivector.terms.items())
            ],
        }


def _field(doc: dict, key: str):
    """A required field of an input document; ValueError names a missing one."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None


def _int_field(doc: dict, key: str) -> int:
    """An integer field of an input document; floats and bools are refused,
    not truncated."""
    value = _field(doc, key)
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, not {type(value).__name__}")
    return value


# -- Schouten bracket ---------------------------------------------------------


def _strip_right(indices: tuple[int, ...], a: int) -> tuple[int, tuple[int, ...]]:
    """Remove index a, with the sign of moving its factor to the right end."""
    pos = indices.index(a)  # 0-based
    sign = 1 if (len(indices) - 1 - pos) % 2 == 0 else -1
    return sign, indices[:pos] + indices[pos + 1 :]


def schouten(p: MultiVector, q: MultiVector) -> MultiVector:
    """Schouten bracket of homogeneous multivectors (coordinate frame)."""
    if p.frame.kind != COORDINATE or q.frame.kind != COORDINATE:
        raise ValueError("schouten expects coordinate-frame multivectors")
    vs = p.frame.var_spec
    if vs != q.frame.var_spec:
        raise ValueError("var_spec mismatch")
    dp, dq = p.degree, q.degree
    out_degree = max(dp + dq - 1, 0)
    twist = -1 if ((dp - 1) * (dq - 1)) % 2 == 1 else 1
    acc: dict[tuple[int, ...], dict] = {}
    # Each partial derivative of a coefficient is taken once per call.
    q_partials: dict[tuple[tuple[int, ...], int], LaurentPoly] = {}
    p_partials: dict[tuple[tuple[int, ...], int], LaurentPoly] = {}

    def accumulate(sign: int, left: tuple[int, ...], right: tuple[int, ...],
                   f: LaurentPoly, g: LaurentPoly):
        merged = merge_indices(left, right)
        if merged is None:
            return
        msign, key = merged
        add_product(acc.setdefault(key, {}), f, g, sign * msign < 0)

    for pi, pc in p.terms.items():
        for qi, qc in q.terms.items():
            for a in pi:
                dg = q_partials.get((qi, a))
                if dg is None:
                    dg = q_partials[(qi, a)] = qc.partial(a)
                if dg.is_zero():
                    continue
                sgn, rest = _strip_right(pi, a)
                accumulate(twist * sgn, rest, qi, pc, dg)
            for b in qi:
                df = p_partials.get((pi, b))
                if df is None:
                    df = p_partials[(pi, b)] = pc.partial(b)
                if df.is_zero():
                    continue
                sgn, rest = _strip_right(qi, b)
                accumulate(-sgn, rest, pi, qc, df)
    out = {key: LaurentPoly._from_sums(vs, sums) for key, sums in acc.items()}
    return MultiVector(p.frame, out_degree, out)


def jacobi_holds(p: PoissonStructure) -> bool:
    """True iff the Schouten self-bracket vanishes exactly."""
    return schouten(p.bivector, p.bivector).is_zero()


# -- Pfaffian and the degeneracy divisor --------------------------------------


def pfaffian(a) -> Fraction:
    """Pfaffian of a constant skew matrix, as the signed sum over perfect
    matchings, expanded along the first remaining index and memoized on the
    indices left, so each subset is expanded once.  Satisfies
    pfaffian(A)**2 == det(A)."""
    if isinstance(a, SkewMatrix):
        grid = a.constant_grid()
    else:
        # in normal form, as constant_grid gives it; a float raises TypeError
        grid = [[coefficient(x) for x in row] for row in a]
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("matrix is not square")
    if n % 2 != 0:
        raise ValueError("Pfaffian needs even size")
    for i in range(n):
        for j in range(n):
            if grid[i][j] != -grid[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    return Fraction(_pfaffian_of(grid, {(): 1}, tuple(range(n))))


def _pfaffian_of(grid, memo: dict, indices: tuple[int, ...]):
    """The Pfaffian of ``grid`` on ``indices``, memoized in ``memo`` (a
    module-level recursion, so no closure refers to itself).  It reads the
    upper triangle only, and runs unchanged over rationals, over
    ``LaurentPoly`` entries and over a grid that mixes the two, where a falsy
    entry (a rational 0) is skipped."""
    total = memo.get(indices)
    if total is not None:
        return total
    first = indices[0]
    total = 0
    for t in range(1, len(indices)):
        coeff = grid[first][indices[t]]
        if coeff:
            rest = indices[1:t] + indices[t + 1 :]
            term = coeff * _pfaffian_of(grid, memo, rest)
            total = total + term if t % 2 else total - term
    memo[indices] = total
    return total


def top_power(p: PoissonStructure) -> tuple[LaurentPoly, MultiVector]:
    """The n-fold wedge of the bivector: a top multivector f * d_1 ^...^ d_2n,
    with f = n! * Pf(pi).  Returns (f, the top multivector).

    No library path calls it: it is the definition that the tests hold
    ``degeneracy_divisor`` and ``pfaffian`` against, and it grows about x5
    per two dimensions."""
    n = p.var_spec.n
    result = p.bivector
    for _ in range(n - 1):
        result = result.wedge(p.bivector)
    top_index = tuple(range(1, p.var_spec.total_vars + 1))
    return result.coefficient(top_index), result


@dataclass(frozen=True)
class DivisorReport:
    multiplicities: dict[int, int]
    unit_part: LaurentPoly
    simple_normal_crossings: bool


class DegenerateStructureError(ValueError):
    """The top power vanishes identically: not generically symplectic."""


class NotMonomialTimesUnitError(ValueError):
    """The Pfaffian coefficient is not monomial*unit in these coordinates,
    so normal crossings cannot be certified here."""


def degeneracy_divisor(p: PoissonStructure) -> DivisorReport:
    """Vanishing orders of the top-power coefficient along each coordinate
    hyperplane, for coefficients of the shape monomial * local unit.

    The coefficient is f = n! * Pf(pi), with Pf(pi) expanded over the ring by
    ``_pfaffian_of``, so no n-fold wedge is built; ``top_power``'s
    coefficient is the test oracle for f."""
    vs, terms = p.var_spec, p.bivector.terms
    size = vs.total_vars
    # _pfaffian_of reads the upper triangle only; an absent term is int 0, and
    # the factor n! keeps f a LaurentPoly when every term is absent.
    grid = [[terms.get((i, j), 0) for j in range(1, size + 1)] for i in range(1, size + 1)]
    pf = _pfaffian_of(grid, {(): 1}, tuple(range(size)))
    f = LaurentPoly.const(vs, math.factorial(vs.n)) * pf
    if f.is_zero():
        raise DegenerateStructureError("top power vanishes identically")
    content = f.min_exponents()
    unit = f.divide_monomial(content)
    if unit.constant_term() == 0:
        raise NotMonomialTimesUnitError(
            "top-power coefficient is not monomial times a unit; "
            "normal crossings cannot be certified in these coordinates"
        )
    mults = {i + 1: e for i, e in enumerate(content) if e != 0}
    return DivisorReport(
        multiplicities=mults,
        unit_part=unit,
        simple_normal_crossings=all(e <= 1 for e in content),
    )


# -- log-basis matrix and the musical maps ------------------------------------


def log_matrix(p: PoissonStructure) -> SkewMatrix:
    """Matrix A of the bivector in the log frame: A_ij is the coefficient of
    v_i ^ v_j in ``change_frame(Pi, log_frame)``.  A pole there means the
    coefficient of d_i ^ d_j is not divisible by its divisor variables: the
    bivector is not tangent to the divisor."""
    vs = p.var_spec
    nv = vs.total_vars
    zero = LaurentPoly.zero(vs)
    entries = [[zero] * nv for _ in range(nv)]
    for (i, j), a in sorted(change_frame(p.bivector, log_frame(vs)).terms.items()):
        if a.has_negative_exponents():
            raise ValueError(
                f"coefficient of d_{i}^d_{j} is not divisible by its divisor "
                "variables; the bivector does not lie in the log tangent sheaf"
            )
        entries[i - 1][j - 1] = a
        entries[j - 1][i - 1] = -a
    return SkewMatrix(vs, entries)


def pi_sharp(p: PoissonStructure, w: DiffForm) -> MultiVector:
    """Interior multiplication of a 1-form into the bivector; ``contract``
    raises TypeError unless `w` is a DiffForm."""
    if w.degree != 1:
        raise ValueError("pi_sharp expects a 1-form")
    return contract(change_frame(w, coordinate_frame(p.var_spec)), p.bivector)


def inverse_log_matrix(p: PoissonStructure) -> SkewMatrix:
    """B = A^{-1}, the only place the log matrix is inverted, by the
    sub-Pfaffian formula of the module docstring: one ``_pfaffian_of`` memo,
    constant entries as rationals and the others as ``LaurentPoly``.
    ValueError unless Pf(A) is a unit of the ring (a monomial in the
    divisor variables)."""
    vs = p.var_spec
    grid = [
        [x.constant_term() if x.is_constant() else x for x in row]
        for row in log_matrix(p).rows
    ]
    size = len(grid)
    everything = tuple(range(size))
    memo = {(): 1}
    one = LaurentPoly.const(vs, 1)
    pf = one * _pfaffian_of(grid, memo, everything)
    if pf.is_zero():
        raise ValueError("log matrix is singular; no inverse bivector")
    try:
        inv_pf = one.divide_exact(pf)
    except ValueError:
        raise ValueError(
            f"log matrix A is not invertible over the ring: det A = {pf * pf} is not a unit"
        ) from None
    rows = [[LaurentPoly.zero(vs)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rest = everything[:i] + everything[i + 1 : j] + everything[j + 1 :]
            b = inv_pf * _pfaffian_of(grid, memo, rest)
            rows[i][j], rows[j][i] = (-b, b) if (i + j) % 2 else (b, -b)
    return SkewMatrix(vs, rows)


def pi_flat(p: PoissonStructure, v: MultiVector) -> DiffForm:
    """Inverse of pi_sharp on 1-vectors, through B = A^{-1}.

    Returns the coordinate-frame expansion of the unique meromorphic 1-form
    mapping to `v`.  Raises TypeError unless `v` is a MultiVector.
    """
    if not isinstance(v, MultiVector):
        raise TypeError(f"pi_flat expects a MultiVector, not {type(v).__name__}")
    if v.degree != 1:
        raise ValueError("pi_flat expects a 1-vector")
    return _flat(p.var_spec, inverse_log_matrix(p), v)


def _flat(vs: VarSpec, b: SkewMatrix, v: MultiVector) -> DiffForm:
    """pi_flat of a 1-vector, given B = A^{-1}, read in the log frame: the
    v_i-coefficients g_i of v give sum_j (sum_i g_i B_ij) eta_j, which is
    returned in the coordinate frame."""
    terms: dict[tuple[int, ...], LaurentPoly] = {}
    for (i,), g in change_frame(v, log_frame(vs)).terms.items():
        for j, bij in enumerate(b.rows[i - 1], 1):
            if bij.is_zero():
                continue
            c = g * bij
            terms[(j,)] = terms[(j,)] + c if (j,) in terms else c
    return change_frame(DiffForm(log_frame(vs), 1, terms), coordinate_frame(vs))


def phi_forms(p: PoissonStructure) -> list[DiffForm]:
    """The 1-forms phi_i = pi_flat(d/dx_i), i = 1..2n, in coordinates; A is
    inverted once for all of them."""
    vs = p.var_spec
    b = inverse_log_matrix(p)
    return [_flat(vs, b, coordinate_vector(vs, i)) for i in range(1, vs.total_vars + 1)]
