"""Exterior algebra of forms and multivector fields over LaurentPoly.

Two frames are supported:

* ``coordinate``: basis dx_i for forms, d/dx_i for vector fields;
* ``log``: basis eta_i (= dx_i/x_i for divisor variables, dx_i otherwise)
  and its dual v_i (= x_i d/dx_i for divisor variables, d/dx_i otherwise).

The 1-forms phi_i = Pi^{-1}(d/dx_i) of a Poisson structure are coordinate
forms built by ``poisson.phi_forms``; they are not a frame here.

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

import functools
import itertools
from dataclasses import dataclass

from .ring import LaurentPoly, VarSpec, add_product

IndexSet = tuple[int, ...]

COORDINATE = "coordinate"
LOG = "log"


@dataclass(frozen=True, eq=True)
class Frame:
    kind: str
    var_spec: VarSpec

    def __post_init__(self):
        if self.kind not in (COORDINATE, LOG):
            raise ValueError(f"unknown frame kind {self.kind!r}")

    __hash__ = None


def coordinate_frame(vs: VarSpec) -> Frame:
    return Frame(COORDINATE, vs)


def log_frame(vs: VarSpec) -> Frame:
    return Frame(LOG, vs)


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


@functools.cache
def _index_sets(nv: int, degree: int) -> frozenset[IndexSet]:
    """The valid index sets of a degree: strictly increasing tuples in 1..nv."""
    return frozenset(itertools.combinations(range(1, nv + 1), degree))


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
        valid = _index_sets(vs.total_vars, degree)
        clean: dict[IndexSet, LaurentPoly] = {}
        for indices, coeff in (terms or {}).items():
            indices = tuple(indices)
            if indices not in valid:
                raise ValueError(
                    f"index set {indices} is not {degree} increasing indices in 1..{vs.total_vars}"
                )
            if coeff.var_spec != vs:
                raise ValueError("coefficient var_spec mismatch")
            if not coeff.is_zero():
                clean[indices] = coeff
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
        """Exterior product.  Products are summed into one term dict per
        target index set (``ring.add_product``), and each coefficient is
        built once."""
        self._same_species(other)
        acc: dict[IndexSet, dict] = {}
        for li, lc in self.terms.items():
            for ri, rc in other.terms.items():
                merged = merge_indices(li, ri)
                if merged is not None:
                    sign, key = merged
                    add_product(acc.setdefault(key, {}), lc, rc, sign < 0)
        vs = self.frame.var_spec
        out = {key: LaurentPoly._from_sums(vs, sums) for key, sums in acc.items()}
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
    """Multivector field, in the coordinate or log frame."""


def wedge(a, b):
    """Graded-commutative exact product; degree adds, frames must agree."""
    return a.wedge(b)


# -- convenience constructors ------------------------------------------------


def form_monomial(frame: Frame, indices, coeff: LaurentPoly) -> DiffForm:
    return DiffForm(frame, len(tuple(indices)), {tuple(indices): coeff})


def vector_monomial(frame: Frame, indices, coeff: LaurentPoly) -> MultiVector:
    return MultiVector(frame, len(tuple(indices)), {tuple(indices): coeff})


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
        if frame.kind == COORDINATE or not vs.is_divisor_index(i):
            total += 1 if is_form else -1
    return total


# -- frame changes -----------------------------------------------------------


def _log_scaling(vs: VarSpec, indices: IndexSet, sign: int) -> tuple[int, ...]:
    exps = [0] * vs.total_vars
    for i in indices:
        if vs.is_divisor_index(i):
            exps[i - 1] = sign
    return tuple(exps)


def change_frame(x, target: Frame):
    """Re-express a form or multivector in the other frame.

    coordinate <-> log is a diagonal rescaling over the localized ring, so
    round trips are exact identities.
    """
    if x.frame == target:
        return x
    vs = x.frame.var_spec
    if vs != target.var_spec:
        raise ValueError("var_spec mismatch")
    sign = (1 if target.kind == LOG else -1) * (1 if isinstance(x, DiffForm) else -1)
    out = {
        indices: coeff.shift(_log_scaling(vs, indices, sign))
        for indices, coeff in x.terms.items()
    }
    return type(x)(target, x.degree, out)


# -- differential and contraction ---------------------------------------------


def exterior_derivative(w: DiffForm) -> DiffForm:
    """Exterior derivative in the frame of its input (d eta_i = 0).  Raises
    TypeError unless w is a DiffForm.

    d(x^E e_I) = sum_t D_t(x^E) e_t ^ e_I, with D_t = d/dx_t, or x_t d/dx_t
    on a divisor variable in the log frame (dx_t = x_t eta_t there); each
    term goes straight into one term dict per target index set, and each
    coefficient is built once."""
    if not isinstance(w, DiffForm):
        raise TypeError(f"exterior_derivative expects a DiffForm, not {type(w).__name__}")
    vs = w.frame.var_spec
    log_vars = vs.divisor_vars if w.frame.kind == LOG else 0
    acc: dict[IndexSet, dict] = {}
    for indices, coeff in w.terms.items():
        for t in range(1, vs.total_vars + 1):
            merged = merge_indices((t,), indices)
            if merged is None:
                continue
            sign, key = merged
            sums = acc.setdefault(key, {})
            pos, drop = t - 1, t > log_vars
            for exps, c in coeff.terms.items():
                if e := exps[pos]:
                    if drop:
                        exps = exps[:pos] + (e - 1,) + exps[t:]
                    prev = sums.get(exps)
                    c = c * e if sign > 0 else -c * e
                    sums[exps] = c if prev is None else prev + c
    out = {key: LaurentPoly._from_sums(vs, sums) for key, sums in acc.items()}
    return DiffForm(w.frame, w.degree + 1, out)


def contract(w: DiffForm, v: MultiVector) -> MultiVector:
    """Interior product of a 1-form with a multivector (coordinate frame).
    Raises TypeError unless w is a DiffForm and v a MultiVector."""
    if not (isinstance(w, DiffForm) and isinstance(v, MultiVector)):
        kinds = f"{type(w).__name__} and {type(v).__name__}"
        raise TypeError(f"contract expects a DiffForm and a MultiVector, not {kinds}")
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
