"""Exterior algebra of forms and multivector fields over LaurentPoly.

Three frames are supported:

* ``coordinate``: basis dx_i for forms, d/dx_i for vector fields;
* ``log``: basis eta_i (= dx_i/x_i for divisor variables, dx_i otherwise)
  and its dual v_i (= x_i d/dx_i for divisor variables, d/dx_i otherwise);
* ``phi``: the basis of 1-forms obtained by applying the inverse of a
  nondegenerate bivector to the coordinate vector fields.  A phi frame
  carries the skew matrix B through which each phi_i expands as
  x_i^{-1} * sum_j B[i][j] eta_j over divisor indices (plain sum beyond).

Frozen sign conventions (used consistently everywhere):

* interior product: i_xi(V1 ^ ... ^ Vk) = sum_j (-1)^(j-1) xi(V_j) V1 ^ ...
  (V_j omitted) ... ^ Vk;
* wedge signs come from merging strictly increasing index tuples.

The weight of a monomial term is the total degree of its coefficient plus
the weight of the frame element: dx_i counts +1, dx_i/x_i counts 0, d/dx_i
counts -1, x_i d/dx_i counts 0.  Every differential built in this package
preserves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ring import LaurentPoly, VarSpec

IndexSet = tuple[int, ...]

COORDINATE = "coordinate"
LOG = "log"
PHI = "phi"


@dataclass(frozen=True, eq=True)
class Frame:
    kind: str
    var_spec: VarSpec
    phi_matrix: tuple[tuple[LaurentPoly, ...], ...] | None = field(default=None, compare=True)

    def __post_init__(self):
        if self.kind not in (COORDINATE, LOG, PHI):
            raise ValueError(f"unknown frame kind {self.kind!r}")
        if self.kind == PHI and self.phi_matrix is None:
            raise ValueError("phi frame requires its basis matrix B")

    __hash__ = None


def coordinate_frame(vs: VarSpec) -> Frame:
    return Frame(COORDINATE, vs)


def log_frame(vs: VarSpec) -> Frame:
    return Frame(LOG, vs)


def phi_frame(vs: VarSpec, b_rows) -> Frame:
    rows = tuple(tuple(row) for row in b_rows)
    if len(rows) != vs.total_vars or any(len(r) != vs.total_vars for r in rows):
        raise ValueError("B must be square of size total_vars")
    return Frame(PHI, vs, rows)


def merge_indices(left: IndexSet, right: IndexSet) -> tuple[int, IndexSet] | None:
    """Merge two strictly increasing tuples; returns (sign, merged) or None
    on a repeated index."""
    sign = 1
    out: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (len(left) - i) % 2 == 1:
                sign = -sign
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


def _validate_indices(indices: IndexSet, vs: VarSpec, degree: int):
    if len(indices) != degree:
        raise ValueError(f"index set {indices} has length != degree {degree}")
    if any(not 1 <= i <= vs.total_vars for i in indices):
        raise ValueError(f"index out of range in {indices}")
    if any(indices[t] >= indices[t + 1] for t in range(len(indices) - 1)):
        raise ValueError(f"index set {indices} is not strictly increasing")


class _GradedElement:
    """Shared machinery of DiffForm and MultiVector."""

    __slots__ = ("frame", "degree", "terms")

    def __init__(self, frame: Frame, degree: int, terms: dict[IndexSet, LaurentPoly] | None = None):
        vs = frame.var_spec
        if degree > vs.total_vars:
            # Only the zero element lives above the top degree.
            if terms and any(not c.is_zero() for c in terms.values()):
                raise ValueError(f"degree {degree} out of range")
            degree, terms = vs.total_vars, {}
        if degree < 0:
            raise ValueError(f"degree {degree} out of range")
        clean: dict[IndexSet, LaurentPoly] = {}
        for indices, coeff in (terms or {}).items():
            indices = tuple(indices)
            _validate_indices(indices, vs, degree)
            if coeff.var_spec != vs:
                raise ValueError("coefficient var_spec mismatch")
            if not coeff.is_zero():
                clean[indices] = clean[indices] + coeff if indices in clean else coeff
        clean = {k: v for k, v in clean.items() if not v.is_zero()}
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: IndexSet) -> LaurentPoly:
        return self.terms.get(tuple(indices), LaurentPoly.zero(self.frame.var_spec))

    def _same_species(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.frame != other.frame:
            raise ValueError("frame mismatch")

    def __add__(self, other):
        self._same_species(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot add elements of different degree")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return type(self)(self.frame, self.degree, out)

    def __neg__(self):
        return type(self)(self.frame, self.degree, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        """Multiply by a scalar or LaurentPoly coefficient."""
        if not isinstance(factor, LaurentPoly):
            factor = LaurentPoly.const(self.frame.var_spec, factor)
        return type(self)(
            self.frame, self.degree, {k: factor * v for k, v in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return (
            self.frame == other.frame
            and (self.degree == other.degree or self.is_zero() and other.is_zero())
            and self.terms == other.terms
        )

    __hash__ = None

    def wedge(self, other):
        self._same_species(other)
        out: dict[IndexSet, LaurentPoly] = {}
        vs = self.frame.var_spec
        for li, lc in self.terms.items():
            for ri, rc in other.terms.items():
                merged = merge_indices(li, ri)
                if merged is None:
                    continue
                sign, key = merged
                contrib = lc * rc if sign > 0 else -(lc * rc)
                out[key] = out[key] + contrib if key in out else contrib
        return type(self)(self.frame, self.degree + other.degree, out)

    def serialize(self) -> dict:
        return {
            "frame": self.frame.kind,
            "degree": self.degree,
            "terms": [
                {"indices": list(k), "coeff": str(self.terms[k])}
                for k in sorted(self.terms)
            ],
        }

    def __repr__(self):
        body = " + ".join(
            f"({coeff})*e{list(idx)}" for idx, coeff in sorted(self.terms.items())
        )
        return f"{type(self).__name__}[{self.frame.kind}]({body or '0'})"


class DiffForm(_GradedElement):
    """Differential form: element of the exterior algebra on the chosen
    coframe, with LaurentPoly coefficients."""


class MultiVector(_GradedElement):
    """Multivector field; only coordinate and log frames make sense."""

    def __init__(self, frame, degree, terms=None):
        if frame.kind == PHI:
            raise ValueError("multivectors have no phi frame")
        super().__init__(frame, degree, terms)


def wedge(a, b):
    """Graded-commutative exact product; degree adds, frames must agree."""
    return a.wedge(b)


# -- convenience constructors ------------------------------------------------


def form_monomial(frame: Frame, indices, coeff: LaurentPoly) -> DiffForm:
    return DiffForm(frame, len(tuple(indices)), {tuple(indices): coeff})


def vector_monomial(frame: Frame, indices, coeff: LaurentPoly) -> MultiVector:
    return MultiVector(frame, len(tuple(indices)), {tuple(indices): coeff})


def function_element(vs: VarSpec, coeff: LaurentPoly, kind=COORDINATE) -> MultiVector:
    return MultiVector(Frame(kind, vs), 0, {(): coeff})


def coordinate_one_form(vs: VarSpec, i: int) -> DiffForm:
    """dx_i"""
    return form_monomial(coordinate_frame(vs), (i,), LaurentPoly.const(vs, 1))


def coordinate_vector(vs: VarSpec, i: int) -> MultiVector:
    """d/dx_i"""
    return vector_monomial(coordinate_frame(vs), (i,), LaurentPoly.const(vs, 1))


def log_one_form(vs: VarSpec, i: int) -> DiffForm:
    """eta_i in the log frame."""
    return form_monomial(log_frame(vs), (i,), LaurentPoly.const(vs, 1))


def log_vector(vs: VarSpec, i: int) -> MultiVector:
    """v_i in the log frame."""
    return vector_monomial(log_frame(vs), (i,), LaurentPoly.const(vs, 1))


# -- weights -----------------------------------------------------------------


def frame_element_weight(frame: Frame, indices: IndexSet, is_form: bool) -> int:
    vs = frame.var_spec
    total = 0
    for i in indices:
        div = vs.is_divisor_index(i)
        if frame.kind == COORDINATE:
            total += 1 if is_form else -1
        elif frame.kind == LOG:
            if not div:
                total += 1 if is_form else -1
        else:  # phi
            if vs.divisor_vars != vs.total_vars:
                raise ValueError("phi-frame weights need all variables on the divisor")
            total += -1
    return total


def term_weight(frame: Frame, indices: IndexSet, exps, is_form: bool = True) -> int:
    """Weight of one monomial term: coefficient degree plus frame weight."""
    return sum(exps) + frame_element_weight(frame, tuple(indices), is_form)


def weight_decomposition(x) -> dict[int, "DiffForm | MultiVector"]:
    """Split an element into weight-homogeneous pieces."""
    is_form = isinstance(x, DiffForm)
    buckets: dict[int, dict] = {}
    for indices, coeff in x.terms.items():
        base = frame_element_weight(x.frame, indices, is_form)
        for exps, c in coeff.terms.items():
            w = base + sum(exps)
            buckets.setdefault(w, {}).setdefault(indices, {})[exps] = c
    out = {}
    for w, idx_map in sorted(buckets.items()):
        terms = {
            idx: LaurentPoly(x.frame.var_spec, emap) for idx, emap in idx_map.items()
        }
        out[w] = type(x)(x.frame, x.degree, terms)
    return out


# -- frame changes -----------------------------------------------------------


def _log_scaling(vs: VarSpec, indices: IndexSet, sign: int) -> tuple[int, ...]:
    exps = [0] * vs.total_vars
    for i in indices:
        if vs.is_divisor_index(i):
            exps[i - 1] = sign
    return tuple(exps)


def phi_one_form_in_coordinates(frame: Frame, i: int) -> DiffForm:
    """Expand phi_i in the coordinate frame through the frame's matrix B."""
    vs = frame.var_spec
    row = frame.phi_matrix[i - 1]
    terms: dict[IndexSet, LaurentPoly] = {}
    pole = [0] * vs.total_vars
    if vs.is_divisor_index(i):
        pole[i - 1] = -1
    for j in range(1, vs.total_vars + 1):
        b = row[j - 1]
        if b.is_zero():
            continue
        exps = list(pole)
        if vs.is_divisor_index(j):
            exps[j - 1] -= 1
        coeff = b.shift(tuple(exps))
        key = (j,)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return DiffForm(coordinate_frame(vs), 1, terms)


def change_frame(x, target: Frame):
    """Re-express a form or multivector in another frame.

    coordinate <-> log is a diagonal rescaling over the localized ring;
    phi -> coordinate expands through B; coordinate -> phi uses the inverse
    expansion, whose matrix is polynomial (it only involves B^{-1} scaled
    by divisor variables).  Round trips are exact identities.
    """
    if x.frame == target:
        return x
    vs = x.frame.var_spec
    if vs != target.var_spec:
        raise ValueError("var_spec mismatch")
    is_form = isinstance(x, DiffForm)

    if {x.frame.kind, target.kind} == {COORDINATE, LOG}:
        to_log = target.kind == LOG
        sign = (1 if to_log else -1) * (1 if is_form else -1)
        out = {
            indices: coeff.shift(_log_scaling(vs, indices, sign))
            for indices, coeff in x.terms.items()
        }
        return type(x)(target, x.degree, out)

    if x.frame.kind == PHI:
        coord = coordinate_frame(vs)
        basis = [phi_one_form_in_coordinates(x.frame, i) for i in range(1, vs.total_vars + 1)]
        acc = DiffForm(coord, x.degree, {})
        for indices, coeff in x.terms.items():
            prod = DiffForm(coord, 0, {(): LaurentPoly.const(vs, 1)})
            for i in indices:
                prod = prod.wedge(basis[i - 1])
            acc = acc + prod.scale(coeff)
        if target.kind == COORDINATE:
            return acc
        return change_frame(acc, target)

    if target.kind == PHI:
        if not is_form:
            raise ValueError("multivectors have no phi frame")
        coord = change_frame(x, coordinate_frame(vs)) if x.frame.kind == LOG else x
        # dx_j = sum_t x_j^{d_j} A[j][t] x_t^{d_t} phi_t  with A = B^{-1};
        # the scaled matrix has polynomial entries.
        a_rows = _inverse_poly_matrix(target.phi_matrix, vs)
        dx_in_phi: list[DiffForm] = []
        for j in range(1, vs.total_vars + 1):
            terms: dict[IndexSet, LaurentPoly] = {}
            for t in range(1, vs.total_vars + 1):
                a = a_rows[j - 1][t - 1]
                if a.is_zero():
                    continue
                exps = [0] * vs.total_vars
                if vs.is_divisor_index(j):
                    exps[j - 1] += 1
                if vs.is_divisor_index(t):
                    exps[t - 1] += 1
                terms[(t,)] = a.shift(tuple(exps))
            dx_in_phi.append(DiffForm(target, 1, terms))
        acc = DiffForm(target, x.degree, {})
        for indices, coeff in coord.terms.items():
            prod = DiffForm(target, 0, {(): LaurentPoly.const(vs, 1)})
            for j in indices:
                prod = prod.wedge(dx_in_phi[j - 1])
            acc = acc + prod.scale(coeff)
        return acc

    raise ValueError(f"unsupported frame change {x.frame.kind} -> {target.kind}")


def _inverse_poly_matrix(rows, vs: VarSpec):
    """Inverse of a matrix of LaurentPoly entries, via Fraction inversion in
    the constant case and adjugate/exact-division otherwise."""
    from . import linalg

    n = len(rows)
    if all(p.is_constant() for row in rows for p in row):
        grid = [[p.constant_term() for p in row] for row in rows]
        inv = linalg.inverse(grid)
        return [[LaurentPoly.const(vs, c) for c in row] for row in inv]
    determinant = poly_det([list(row) for row in rows], vs)
    if determinant.is_zero():
        raise ValueError("matrix is singular")
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j
            ]
            cof = poly_det(minor, vs)
            if (i + j) % 2 == 1:
                cof = -cof
            out_row.append(cof.divide_exact(determinant))
        out.append(out_row)
    return out


def poly_det(rows, vs: VarSpec) -> LaurentPoly:
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the first row (O(n!) products)."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.const(vs, 1)
    if n == 1:
        return rows[0][0]
    total = LaurentPoly.zero(vs)
    for c in range(n):
        if rows[0][c].is_zero():
            continue
        minor = [[rows[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        term = rows[0][c] * poly_det(minor, vs)
        total = total + (term if c % 2 == 0 else -term)
    return total


# -- differential and contraction ---------------------------------------------


def exterior_derivative(w: DiffForm) -> DiffForm:
    """Exterior derivative; log and phi inputs are handled through their
    coordinate expansions and returned in the input frame."""
    vs = w.frame.var_spec
    if w.frame.kind == PHI:
        coord = change_frame(w, coordinate_frame(vs))
        return change_frame(exterior_derivative(coord), w.frame)
    out: dict[IndexSet, LaurentPoly] = {}
    is_log = w.frame.kind == LOG
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


def contract(w: DiffForm, v: MultiVector) -> MultiVector:
    """Interior product of a 1-form with a multivector (coordinate frame)."""
    if w.degree != 1:
        raise ValueError("contraction needs a 1-form")
    if v.degree == 0:
        raise ValueError("cannot contract a degree-0 multivector")
    if w.frame.kind != COORDINATE or v.frame.kind != COORDINATE:
        raise ValueError("contract expects both arguments in the coordinate frame")
    if w.frame.var_spec != v.frame.var_spec:
        raise ValueError("var_spec mismatch")
    out: dict[IndexSet, LaurentPoly] = {}
    for (a,), f in w.terms.items():
        for indices, g in v.terms.items():
            if a not in indices:
                continue
            pos = indices.index(a)
            key = indices[:pos] + indices[pos + 1 :]
            contrib = f * g
            if pos % 2 == 1:
                contrib = -contrib
            out[key] = out[key] + contrib if key in out else contrib
    return MultiVector(v.frame, v.degree - 1, out)
