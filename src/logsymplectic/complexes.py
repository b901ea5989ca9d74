"""Weight-sliced de Rham-type complexes attached to a log-symplectic
structure, and exact rank computations on them.

All complexes here are graded by the weight of ring.py / exterior.py (dx
counts +1, dx/x counts 0, d/dx counts -1, coefficient exponents count as
they are).  Every differential built below preserves the weight, so fixing
a weight cap W turns each degree into a finite-dimensional rational vector
space and exactness claims into rank computations.

Three families are built:

* the log complex: basis eta_I * monomials, with the exterior derivative
  expressed in that basis;
* the log-plus complex, the image of the polynomial multivector algebra
  under the inverse of the bivector with basis phi_I * monomials, and its
  conjugate, the bracket complex on x^E d_I with the bracket with the
  bivector.  The log-plus matrix comes from the meromorphic exterior
  derivative, taken once per index set I on the 2n pieces eta_i ^ phi_I,
  each one monomial x^(-1_I) times a constant log form read off integer
  tables (below), with d(phi_I) = -sum_{i in I} eta_i ^ phi_I from the
  phi-model gate; the phi-coordinates of every piece are extracted in the
  log frame and certified by re-expanding them through the constant forms
  theta_K of the phi forms and comparing with the piece, and each column
  follows from the Leibniz rule
  d(x^E phi_I) = x^E (d(phi_I) + sum_i E_i eta_i ^ phi_I);
* the graded pieces of the filtration of the log-plus complex by number of
  phi factors.  On the multivector side the filtration splits monomially:
  x^E d_M sits at level #{divisor indices of M with vanishing exponent in
  E}, and the piece attached to a subset I is spanned by the monomials
  where that set is exactly I.  The induced differential is the bracket
  with the bivector; assembly fails loudly if an image leaves the slice.

Columns are generated in integer arithmetic and stored as exact values in
the normal form of ``linalg.exact``: an int when integral, otherwise a
Fraction.  Both sides scale A once by its common denominator D.  The
bracket columns take D lambda below as a difference of two integer vectors,
one cached per exponent vector and one per index set; a certified log-plus
piece is integer numerators over the lcm of its denominators, and the
pieces of an index set are merged once over the lcm of theirs.  Since
``linalg.exact`` normalises, the common denominator does not show in the
stored values.  On integral A every
stored entry is an int, and ``linalg`` ranks such rows without building a
Fraction.

Desk-scale restriction: all but the log complex need the invariant local
model (constant invertible log matrix A, every variable on the divisor),
where the weight bookkeeping above is exact; ``_invariant_grid`` is its gate.

The bracket differential in closed form
---------------------------------------

On these models the bivector is Pi = sum_{i<j} A[i][j] v_i ^ v_j with
v_i = x_i d_i and A = log_matrix(p) constant.  Write the label (M, E) as
x^E d_M = x^F v_M with F = E - 1_M (so F >= -1, and F_i = -1 exactly on
the i in M with E_i = 0).  With the Schouten convention of poisson.py:

* the v_i commute and Pi has constant coefficients in them, so
  [Pi, v_M] = 0, and the Leibniz rule with graded skew symmetry gives
  [x^F v_M, Pi] = [x^F, Pi] ^ v_M;
* [f, Pi] = -sum_b (Pi <-d_b) df/dx_b, which on f = x^F and
  Pi <-d_b = sum_a A[a][b] x_a x_b d_a is
  x^F sum_j lambda_j v_j with lambda_j = sum_i F_i A[i][j] (A is skew);
* v_j ^ x^F v_M = s_j x^(E + e_j) d_(M + {j}) for j not in M, where s_j is
  the sign of ``merge_indices((j,), M)``.

So the differential maps the label (M, E) to

    sum_{j not in M} s_j lambda_j (M + {j}, E + e_j),

O(2n) entries per column with no bracket to evaluate.  lambda is linear in
F = E - 1_M, so

    lambda = F A = E A - 1_M A:

the first term depends on the exponent vector alone and the second on the
index set alone, so ``_koszul_tables`` computes D E A once per exponent
vector and folds D 1_M A into the insertion table of M; an entry is one
integer subtraction.
``build_bracket_complex`` and ``build_qi`` assemble their matrices from
this formula; the Schouten bracket stays as the test oracle for it, and
``conjugation_report`` compares it with the certified log-plus derivative.

Block splitting: E + e_j - 1_(M + {j}) = F, so F is invariant, and the
weight |E| - |M| equals |F|.  Each weight slice is thus a direct sum of
blocks, one per F, and the block of F is the Koszul complex "wedge with
lambda_F" on v_S ^ Lambda(v_j : j not in S), S = {i : F_i = -1}.  It is
acyclic unless lambda_F vanishes off S, and then adds C(2n - |S|, k - |S|)
in degree k (Eisenbud, Commutative Algebra, ch. 17).  The graded piece of
I is the sum of the blocks with S = I, since S is the level set of the
label.  Each such block has one bottom label, (I, F + 1_I) in degree |I|,
whose image is empty exactly when lambda_F vanishes off I.  ``qi_cohomology``
counts those F on the 2n - |I| variables off I, from D A alone and without
a matrix; ``build_qi`` and its ranks, which share no table with it, are its
oracle.  So Q_I is exact for |I| = 1 (A nonsingular), and for
|I| = 2 unless I is a 2-resonant pair, some F having lambda_F vanish off
I; 2-general position does not exclude one (fixtures/resonant_structure.json).

The phi-coordinates in the log frame
------------------------------------

pi_sharp is contraction into the bivector; it is linear over functions and
extends to forms as a multiplicative map.  It sends phi_i to d_i, so it sends
x^E phi_J to x^E d_J: the phi-coordinates of a form are the coefficients of
its sharp in the coordinate frame.  In the log frame the sharp is constant:

* pi_sharp(eta_t) = sum_j A[t][j] v_j, since dx_t = x_t eta_t and the
  coefficient of d_t ^ d_j is A[t][j] x_t x_j;
* so pi_sharp(eta_J) = sum_K det A[J, K] v_K over |K| = |J|, the |J|-th
  compound of A (rows J, columns K);
* a form sum_J g_J eta_J goes to sum_K (sum_J g_J det A[J, K]) v_K, and
  v_K = x^(1_K) d_K.

So are the phi forms: pi_sharp(phi_i) = d_i = x_i^-1 v_i, so phi_i =
x_i^-1 theta_i with theta_i = sum_j B[i][j] eta_j, B = A^-1, and
phi_I = x^F theta_I, F = -1_I, theta_I the wedge of the theta_i over I.
Every piece is x^F times a constant form: eta_i ^ phi_I = x^F (eta_i ^
theta_I), and d(phi_I) = sum_t F_t x^F eta_t ^ theta_I (x_t d_t x^F = F_t x^F,
d eta_t = 0) = -sum_{i in I} eta_i ^ phi_I, the twisted shape of the graded
pieces, so d(phi_I) needs no piece of its own.  One gate, ``_theta``,
checks this model: it reads D A once (``_invariant_grid``), builds each
phi_i from its inverse as ``phi_forms`` does and reads it in the log frame
once, raises AssertionError naming i unless
phi_i is x_i^-1 times constants, and gives (D, D A) and theta_i as int
numerators over one T.  Its four callers read A through it alone.
``build_qi`` and the CLI's ``verify-exactness`` call it first: the pole
exponents F_i = -1 it verified are the signs of d(phi_I).
``filtration_report`` checks pi_sharp(phi_i) = d_i as (T theta) (D A) =
T D 1 in integers, with no form built.  ``_PlusMachine``
keeps theta_I over T^|I| (``_minors``), and ``pieces`` gives the 2n pieces
of I as integer rows, with no form built.  ``sharp_rows``
is the recipe above: per monomial x^E one integer product of its row with the
compound of D A (``_compounds``), and the label (K, E + 1_K); it extracts
and does not certify.  A piece enters as the single row {F: row};
``sharp_numerators`` makes the rows of a form by ``change_frame``.  The
certificate (``certifies``) re-expands sum n x^(E - 1_K) theta_K over the
labels ((K, E), n), per (monomial, J) over the common denominator, and
compares with the piece's row in integers: it reads the theta_K, from
``phi_forms``, and neither A nor the compound.

Slice layout
------------

Slice (k, w) of a frame basis is the concatenation, over I in
``combinations(2n, k)`` order, of ``_monomials(2n, total(I))`` with
total(I) = w - ``frame_element_weight(I)``.  So the label (I, E) sits at

    position = offset(I) + rank(E),

offset(I) the number of labels of the index sets before I and rank(E) the
index of E among the sorted monomials of its total; that is its index in
the sorted ``basis`` list.  Tables keyed by (number of variables, total)
alone, like ``_monomials``, give rank(E) (``_ranks``), rank(E + e_j) and
rank(E - e_t) (``_moved``, step 1 and -1) and, t the first variable of E,
the pair (t, rank(E - e_t)) (``_first_lowered``), so a builder finds the
position of every target by integer arithmetic and never hashes a label.
Each builder hands ``_fill_slices`` its layout, per slice the blocks
I -> (offset(I), total) and the labels, and one writer, called once per
block I of a source slice with the blocks of the target slice.

The layout of the frame basis depends on the shape alone, (frame kind,
var_spec, is_form, k, w), so ``_slice`` builds it once per shape and keeps
it for the life of the process, as the monomial tables are kept: every
later log, log-plus or bracket build of that shape reuses it, and so do
the two builds of one ``conjugation_report``.  The kept labels are a tuple;
each complex gets its own ``basis`` list, a copy, and writers only read the
blocks.  The price is memory: the 265 729 labels of the coordinate frame
at 2n = 8, cap 0 stay alive after the build, about 16.5 MiB
(``BENCH_shared_layouts.json``).  The writers:

* the log complex: per t not in I the insertion of ``_appended``,
  eta_I ^ eta_t with its sign, times (-1)^|I| for eta_t ^ eta_I, and per t
  the table ``_support`` of the E with E_t > 0: their rank, E_t and the
  rank of E - e_t (``_moved``).  The target keeps E (t on the divisor) or
  lowers it by e_t, so the writer visits exactly the entries it stores;
* the bracket complex: per j the insertion table of ``_koszul_tables``,
  offset(M + {j}) and the rank of E + e_j (``_moved``);
* the log-plus complex: per I the merged pieces eta_i ^ phi_I as targets
  (J, E2) with integer numerators c_1, ..., c_2n and c_0 = -sum_{i in I}
  c_i for d(phi_I); per target and total one table of c_0 + sum_i E_i c_i
  over the E of that total, each entry one addition to the entry of E - e_t
  in the table of the total below (``_first_lowered``), only the last
  table kept; and per total of E and target shift e2 one table of the
  ranks of E + e2 (``_shifted_ranks``, kept per shape like the layouts).
  A target's block is looked up (``_target_offset``) at its first nonzero
  entry;
* ``build_qi``: its own layout, ``_qi_slice``.  Slice (k, w) of Q_I has
  a block per M = I + K, |K| = k - |I|, holding the F' = E - 1_K of
  ``_monomials(2n - |I|, w + |I|)`` on the variables off I, so every
  block has that size and offset(M) is the index of K in ``combinations``
  order over the variables off I times it; (M, F') maps
  to (M + {j}, F') at the same rank, and a target block the piece lacks
  raises (``_target_offset``), as a log-plus target off the slice does.

``merge_indices`` runs once per (I, j) and build of a bracket complex or
Q_I, and once per (I, j) and process for the log writer (``_appended``),
not once per entry.  The log writer's tables ``_appended`` and
``_support``, like the layouts, are keyed by shape and kept for the life of
the process.  No generator emits a target twice in one column (its
targets are distinct insertions j or t, or distinct labels of a merged
piece), so every entry is one store and nothing is summed.

Ranks by clearing
-----------------

``WeightSlicedComplex.rank`` ranks d_k at weight w after d_(k+1) at the
same weight, and gives ``linalg`` only the rows of d_k whose index is not a
pivot column of d_(k+1) (Chen and Kerber, "Persistent homology computation
with a twist", 2011; Bauer, Kerber and Reininghaus, "Clear and compress",
2014).  The rows of d_k are indexed by the labels of slice (k + 1, w), which
are also the columns of d_(k+1).  The rank does not change:

* every pivot row r of the elimination of d_(k+1) is a combination of rows
  of d_(k+1), so r d_k = 0 when d_(k+1) d_k = 0;
* a pivot row is zero in the pivot columns found before it and nonzero in
  its own, so the square block of the pivot rows at the pivot columns P is
  triangular with a nonzero diagonal, hence invertible;
* so r d_k = 0 expresses the rows of d_k at P through the other rows, and
  leaving them out keeps the row space.

Elimination then sees dim(k + 1, w) - rank d_(k+1) = rank d_k + h^(k+1)
rows of d_k instead of dim(k + 1, w).  The argument needs d o d = 0, which
``verify_d_squared`` checks; of each elimination the complex keeps the rank
and, until the rank below is taken, the pivot columns as a set of ints.

On every complex the tests and the benchmark rank, the bracket complex at
2n = 8, cap 0 among them, the rows left after clearing have pairwise
distinct leading columns, so ``linalg.pivot_columns`` returns those leads
and eliminates nothing (its docstring has the proof); rows with a shared
lead would be eliminated.  The reversed-order rank that cross-checks these
ranks is an elimination, so the two routes share no elimination code.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .exterior import (
    COORDINATE,
    LOG,
    DiffForm,
    Frame,
    change_frame,
    frame_element_weight,
    log_frame,
    merge_indices,
)
from .poisson import PoissonStructure, _inverse, _phi_forms, log_matrix
from .ring import VarSpec

IndexSet = tuple[int, ...]
Label = tuple[IndexSet, tuple[int, ...]]  # (frame indices, coefficient exponents)


@dataclass
class WeightSlicedComplex:
    """A finite sequence of graded slices with exact rational differentials.

    ``basis[(degree, weight)]`` lists the labels of that slice in a fixed
    order.  ``diffs[(degree, weight)]`` is the matrix of the differential
    into ``(degree + 1, weight)`` with respect to those bases, stored as
    sparse rows: one ``dict`` per target label, mapping the position of a
    source label to a nonzero exact value in normal form (``linalg.exact``:
    an int when integral, otherwise a Fraction, never a Fraction with
    denominator 1).  Zeros are never stored, so two differentials are equal
    exactly when they are equal as matrices.  Values may be shared between
    rows and complexes, which is safe because ints and Fractions are
    immutable and ``linalg`` copies every row before it changes one.
    ``rank`` ranks each differential once, by clearing (module docstring),
    and keeps of each elimination only its rank and, until the rank below it
    is taken, its pivot columns as a set of ints; a complex made by
    ``dataclasses.replace`` starts with neither.
    """

    label: str
    var_spec: VarSpec
    degree_range: tuple[int, int]
    weight_cap: int
    basis: dict[tuple[int, int], list[Label]] = field(default_factory=dict)
    diffs: dict[tuple[int, int], list[linalg.Row]] = field(default_factory=dict)
    _ranks: dict[tuple[int, int], int] = field(default_factory=dict, init=False, compare=False)
    _pivots: dict[tuple[int, int], set[int]] = field(default_factory=dict, init=False, compare=False)

    def slice_dim(self, degree: int, weight: int) -> int:
        return len(self.basis.get((degree, weight), []))

    def weights_at(self, degree: int) -> list[int]:
        return sorted(w for (k, w) in self.basis if k == degree)

    def dims(self, degree: int) -> dict[int, int]:
        return {w: self.slice_dim(degree, w) for w in self.weights_at(degree)}

    def rank(self, degree: int, weight: int) -> int:
        """Rank of the differential out of (degree, weight), 0 if none; kept.

        Ranks by clearing (module docstring): the differential out of
        (degree + 1, weight) is ranked first, so higher degrees are ranked
        first, and the rows at its pivot columns are left out.  That assumes
        d o d = 0, which ``verify_d_squared`` checks; on a complex where it
        fails the rank can come out short.
        """
        key = (degree, weight)
        if key not in self._ranks:
            mat = self.diffs.get(key)
            if mat is None:
                self._ranks[key] = 0
            else:
                self.rank(degree + 1, weight)
                cleared = self._pivots.pop((degree + 1, weight), set())
                rows = [row for i, row in enumerate(mat) if i not in cleared]
                pivots = linalg.pivot_columns(rows) if rows else []
                self._ranks[key] = len(pivots)
                if (degree - 1, weight) in self.diffs:
                    self._pivots[key] = set(pivots)
        return self._ranks[key]


@functools.cache
def _monomials(nvars: int, total: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors >= 0 of the given total degree, sorted: stars and
    bars, whose bar positions in lexicographic order give sorted vectors."""
    if total < 0 or nvars == 0:
        return ((),) if total == nvars == 0 else ()
    end = (total + nvars - 1,)
    return tuple(
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))
        for bars in itertools.combinations(range(end[0]), nvars - 1)
    )


@functools.cache
def _ranks(nvars: int, total: int) -> dict[tuple[int, ...], int]:
    """The position of each exponent vector in ``_monomials(nvars, total)``."""
    return {exps: r for r, exps in enumerate(_monomials(nvars, total))}


@functools.cache
def _moved(nvars: int, total: int, step: int) -> tuple[tuple[int, ...], ...]:
    """Per variable j - 1, the rank of E + step e_j (step 1 or -1) in
    ``_monomials(nvars, total + step)`` for each E of ``_monomials(nvars,
    total)`` in order, -1 where E + step e_j has a negative entry."""
    ranks = _ranks(nvars, total + step)
    mons = _monomials(nvars, total)
    return tuple(
        tuple(ranks.get(e[:j] + (e[j] + step,) + e[j + 1 :], -1) for e in mons)
        for j in range(nvars)
    )


@functools.cache
def _first_lowered(nvars: int, total: int) -> tuple[tuple[int, int], ...]:
    """(t - 1, rank of E - e_t) for each E of ``_monomials(nvars, total)``,
    total >= 1, t the first variable of E, so the first with a rank in
    ``_moved(nvars, total, -1)``: the step of a table over E from total - 1."""
    lowered = _moved(nvars, total, -1)
    return tuple(
        next((t, rank) for t, rank in enumerate(ranks) if rank >= 0) for ranks in zip(*lowered)
    )


@functools.cache
def _support(nvars: int, total: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per variable t - 1, (r, E_t, rank of E - e_t) for the r-th E of
    ``_monomials(nvars, total)`` with E_t > 0, r ascending: the entries of
    the log writer's insertion of t."""
    mons = _monomials(nvars, total)
    return tuple(
        tuple((r, e[t], lowered[r]) for r, e in enumerate(mons) if e[t])
        for t, lowered in enumerate(_moved(nvars, total, -1))
    )


@functools.cache
def _shifted_ranks(nvars: int, total: int, e2: tuple[int, ...]) -> tuple[int, ...]:
    """The rank of E + e2 among the monomials of total + |e2| for each E of
    ``_monomials(nvars, total)``, -1 where it has a negative entry: the
    positions of a log-plus target within its block."""
    ranks = _ranks(nvars, total + sum(e2))
    return tuple(ranks.get(tuple(map(operator.add, e, e2)), -1) for e in _monomials(nvars, total))


@functools.cache
def _slice(kind: str, vs: VarSpec, is_form: bool, k: int, w: int):
    """The slice (k, w) of the basis of the frame of this kind (the weight
    rule of ``exterior.frame_element_weight``) as (blocks, labels), the
    block of I (offset(I), total) holding the (I, E), E in
    ``_monomials(2n, total)``, and the labels a tuple.  Kept per shape for
    the life of the process and shared by every build of it: writers only
    read the blocks, and ``_fill_slices`` copies the labels."""
    frame, nv = Frame(kind, vs), vs.total_vars
    blocks: dict[IndexSet, tuple[int, int]] = {}
    labels: list[Label] = []
    for indices in itertools.combinations(range(1, nv + 1), k):
        total = w - frame_element_weight(frame, indices, is_form)
        if mons := _monomials(nv, total):
            blocks[indices] = (len(labels), total)
            labels.extend((indices, e) for e in mons)
    return blocks, tuple(labels)


def _target_offset(blocks, source: IndexSet, indices: IndexSet, total: int) -> int:
    """offset(I) of the block of I and the given total in a target slice;
    AssertionError if there is none: an image of a column of source left it."""
    block = blocks.get(indices)
    if block is None or block[1] != total:
        target = f"a column of {source} has a target of {indices} and total {total}"
        raise AssertionError(f"differential left the slice: {target}")
    return block[0]


def _fill_slices(cx: WeightSlicedComplex, slice_of, write):
    """Fill ``cx.basis`` over its degree range and weights -degree..cap (no
    label weighs less than minus its degree), then ``cx.diffs`` below the
    top, by position.  ``slice_of(k, w)`` is the builder's layout (module
    docstring): (blocks, labels), blocks mapping I to (offset(I), total).
    ``write(blocks, indices, total, rows, col0)`` is called once per block
    of a source slice, with the target's blocks: it stores the image of
    the r-th label of the block as ``rows[p][col0 + r] = c`` for each
    target at position p, c nonzero and in normal form (``linalg.exact``).
    No generator emits a target twice in one column (its targets are
    distinct insertions, or distinct labels of a merged piece), so nothing
    is summed."""
    if cx.weight_cap < 0:
        raise ValueError("weight_cap must be >= 0")
    lo, top = cx.degree_range
    slices = {
        (degree, w): slice_of(degree, w)
        for degree in range(lo, top + 1)
        for w in range(-degree, cx.weight_cap + 1)
    }
    for key, (_blocks, labels) in slices.items():
        if labels:
            cx.basis[key] = list(labels)
    for (degree, w), (blocks, labels) in slices.items():
        if degree == top or not labels:
            continue
        target, target_labels = slices[(degree + 1, w)]
        rows: list[linalg.Row] = [{} for _ in target_labels]
        for indices, (col0, total) in blocks.items():
            write(target, indices, total, rows, col0)
        cx.diffs[(degree, w)] = rows
    return cx


# -- the log complex ----------------------------------------------------------


def build_log_complex(vs: VarSpec, weight_cap: int) -> WeightSlicedComplex:
    """Log forms with polynomial coefficients, sliced by weight <= cap.

    Labels (I, E) stand for x^E eta_I; eta_i over a divisor index has
    weight 0, the remaining dx_i weight 1.
    """
    nv, m = vs.total_vars, vs.divisor_vars

    def write(blocks, indices, total, rows, col0):
        # d(x^E eta_I) = sum_t E_t x^E eta_t ^ eta_I: dx_t = x_t eta_t on
        # divisor indices, so E stays put there and drops by e_t otherwise.
        # eta_t ^ eta_I = (-1)^|I| eta_I ^ eta_t, the insertion of _appended.
        flip, support = (-1) ** len(indices), _support(nv, total)
        for t, sign, key in _appended(nv, indices):
            if entries := support[t - 1]:  # none when |E| = 0
                offset, sign = blocks[key][0], sign * flip
                if t <= m:
                    for r, e, _lowered in entries:
                        rows[offset + r][col0 + r] = sign * e
                else:
                    for r, e, lowered in entries:
                        rows[offset + lowered][col0 + r] = sign * e

    cx = WeightSlicedComplex("log", vs, (0, nv), weight_cap)
    return _fill_slices(cx, functools.partial(_slice, LOG, vs, True), write)


# -- shared machinery for the log-plus side -----------------------------------


def _invariant_grid(p: PoissonStructure) -> tuple[int, list[list[int]]]:
    """The model gate: the constant log matrix A as (D, D * A), an integer
    grid over D, the least common denominator of A's entries.  Raises
    ValueError unless every variable is on the divisor and A is constant."""
    vs = p.var_spec
    if vs.divisor_vars != vs.total_vars:
        raise ValueError("the invariant model needs every variable on the divisor")
    a = log_matrix(p)
    if not a.is_constant():
        raise ValueError("the invariant model needs a constant log matrix")
    grid = a.constant_grid()
    den = math.lcm(*(c.denominator for row in grid for c in row))
    return den, [[int(c * den) for c in row] for row in grid]


def _theta(p: PoissonStructure):
    """The phi-model gate: ((D, D * A), (T, T * B)), the grid of
    ``_invariant_grid`` it ran and theta_i = sum_j B[i][j] eta_j as int
    numerators over the least T > 0, where phi_i = x_i^-1 theta_i (module
    docstring), so d(phi_I) = -sum_{i in I} eta_i ^ phi_I.  Runs
    ``_invariant_grid``, inverts that grid's A and builds the phi_i from it
    as ``phi_forms`` does (both raise ValueError: outside the model, on a
    singular A), so A is read once, and reads each phi_i in the log frame
    once; AssertionError naming i unless phi_i is x_i^-1 times constants.
    Its callers, ``_PlusMachine``, ``build_qi``, ``filtration_report`` and
    the CLI's ``verify-exactness``, read A through it alone."""
    grid = _invariant_grid(p)
    d, scaled = grid
    vs = p.var_spec
    nv = vs.total_vars
    log = log_frame(vs)
    theta = [[0] * nv for _ in range(nv)]
    b = _inverse(vs, [[Fraction(c, d) for c in row] for row in scaled])
    for i, phi in enumerate(_phi_forms(vs, b), 1):
        pole = tuple(-int(t == i) for t in range(1, nv + 1))
        for (j,), g in change_frame(phi, log).terms.items():
            if g.terms.keys() != {pole}:
                raise AssertionError(f"phi_{i} is not x_{i}^-1 times a constant log form")
            theta[i - 1][j - 1] = g.terms[pole]
    den = math.lcm(*(c.denominator for row in theta for c in row))
    return grid, (den, [[int(c * den) for c in row] for row in theta])


def _prefix_products(empty, step):
    """``product(I)``: step(... step(step(empty, i_1), i_2) ..., i_k) over I
    in order, memoized with every prefix of I.  It extends the longest
    known prefix in a loop, not by recursion, so no closure refers to
    itself: the memo is freed with the last reference to ``product``."""
    known = {(): empty}

    def product(indices: IndexSet):
        n = len(indices)
        while indices[:n] not in known:
            n -= 1
        for n in range(n + 1, len(indices) + 1):
            known[indices[:n]] = step(known[indices[: n - 1]], indices[n - 1])
        return known[indices]

    return product


@functools.cache
def _appended(nv: int, key: IndexSet) -> tuple[tuple[int, int, IndexSet], ...]:
    """(j, *merge_indices(key, (j,))) for the j in 1..nv not in key."""
    return tuple((j, *merge_indices(key, (j,))) for j in range(1, nv + 1) if j not in key)


def _minors(scaled: list[list[int]]):
    """``minors(J)``: {K: det M[J, K]} for the integer matrix M, the
    coefficients of the wedge over t in J, in order, of sum_j M[t][j] v_j,
    memoized with every prefix of J."""
    nv = len(scaled)

    def step(prefix: dict[IndexSet, int], t: int) -> dict[IndexSet, int]:
        out: dict[IndexSet, int] = {}
        row = scaled[t - 1]
        for key, minor in prefix.items():
            for j, sign, longer in _appended(nv, key):
                if a := row[j - 1]:
                    out[longer] = out.get(longer, 0) + sign * a * minor
        return out

    return _prefix_products({(): 1}, step)


def _compounds(scaled: list[list[int]]):
    """``compound(k)``: the k-th compound of the integer matrix M
    (``_minors``), as the position of each row index set J in sorted order
    and the columns [(K, (det M[J, K] for each J))]."""
    nv = len(scaled)
    minors = _minors(scaled)

    @functools.cache
    def compound(k: int) -> tuple[dict[IndexSet, int], list[tuple[IndexSet, tuple[int, ...]]]]:
        sets = list(itertools.combinations(range(1, nv + 1), k))
        rows = [minors(jdx) for jdx in sets]
        columns = [(kdx, tuple(row.get(kdx, 0) for row in rows)) for kdx in sets]
        return {jdx: pos for pos, jdx in enumerate(sets)}, columns

    return compound


class _PlusMachine:
    """Per-structure tables of ``build_logplus_complex`` and
    ``filtration_level_of``: the compounds of D * A, for the phi-coordinate
    extraction, and the constant log forms theta_I of phi_I = x^(-1_I)
    theta_I (module docstring), for the pieces and their certificate.  Both
    come from one call of the phi-model gate ``_theta``, which raises
    AssertionError naming i if phi_i is not x_i^-1 times constants."""

    def __init__(self, p: PoissonStructure):
        # theta_i as int numerators over T, theta_I over T^|I|
        (self.den, scaled), (self.theta_den, theta) = _theta(p)
        self.vs, self.log = p.var_spec, log_frame(p.var_spec)
        self.compound = _compounds(scaled)
        self.theta = _minors(theta)

    def pieces(self, indices: IndexSet) -> tuple[tuple[int, ...], list[list[int]]]:
        """(F, rows), F = -1_I: the 2n pieces of phi_I = x^F theta_I in the
        log frame, as int numerators over T^|I| of the eta_J, |J| = |I| + 1,
        in sorted order: rows[i - 1] is eta_i ^ phi_I = x^F (eta_i ^
        theta_I) for i = 1..2n.  d(phi_I) is -sum_{i in I} of them, by the
        gate (module docstring), and no piece of its own."""
        nv = self.vs.total_vars
        position = self.compound(len(indices) + 1)[0]
        rows = [[0] * len(position) for _ in range(nv)]
        flip = (-1) ** len(indices)
        for jdx, w in self.theta(indices).items():
            for i, sign, key in _appended(nv, jdx):
                rows[i - 1][position[key]] += sign * flip * w
        return tuple(-int(i in indices) for i in range(1, nv + 1)), rows

    def sharp_numerators(self, form: DiffForm) -> tuple[int, list[tuple[Label, int]]]:
        """``sharp_rows`` of the form: ``change_frame`` to the log frame, and
        per monomial x^E one row of int numerators over one denominator."""
        log = change_frame(form, self.log)
        num_den = math.lcm(*(c.denominator for g in log.terms.values() for c in g.terms.values()))
        position = self.compound(form.degree)[0]
        rows: dict[tuple[int, ...], list[int]] = {}
        for jdx, g in log.terms.items():
            pos = position[jdx]
            for e, c in g.terms.items():
                rows.setdefault(e, [0] * len(position))[pos] = c.numerator * (num_den // c.denominator)
        return self.sharp_rows(form.degree, num_den, rows)

    def sharp_rows(self, degree: int, num_den: int, rows) -> tuple[int, list[tuple[Label, int]]]:
        """(N, [((K, E), n)]): the phi-coordinates of the log form of the
        given degree whose coefficient of x^E eta_J is rows[E][position of
        J] / num_den, as int numerators over the least N > 0 that makes them
        integral; n / N is the coefficient of x^E phi_K in the form, and of
        x^E d_K in its pi_sharp.  In the log frame pi_sharp is the constant
        compound of A (module docstring), so this is one integer product of
        each row with ``compound``; x^E v_K = x^(E + 1_K) d_K gives the
        label.  A table piece enters as the single row {F: row}."""
        columns = self.compound(degree)[1]
        acc: dict[IndexSet, dict[tuple[int, ...], int]] = {}
        for e, row in rows.items():
            for kdx, column in columns:
                if n := sum(map(operator.mul, row, column)):
                    acc.setdefault(kdx, {})[e] = n
        den = num_den * self.den**degree
        g = math.gcd(den, *(n for sums in acc.values() for n in sums.values()))
        nums = []
        for kdx, sums in acc.items():
            ones = [int(i in kdx) for i in range(1, self.vs.total_vars + 1)]
            nums.extend(((kdx, tuple(map(operator.add, e, ones))), n // g) for e, n in sums.items())
        return den // g, nums

    def certifies(self, degree: int, pole, row: list[int], den: int, nums) -> bool:
        """Whether sum (n / den) x^(E - 1_K) theta_K over the ((K, E), n) in
        nums equals the piece x^pole sum_J row[J] eta_J over T^(degree - 1),
        the J in sorted order, in integers: the sum is accumulated per
        (monomial, J) over den T^degree and compared with the row scaled by
        den T.  It re-expands through the theta_K, which come from
        ``phi_forms``, and reads neither A nor the compound."""
        acc: dict[tuple[int, ...], dict[IndexSet, int]] = {}
        for (kdx, exps), n in nums:
            sums = acc.setdefault(tuple(e - (i in kdx) for i, e in enumerate(exps, 1)), {})
            for jdx, t in self.theta(kdx).items():
                sums[jdx] = sums.get(jdx, 0) + n * t
        scale = den * self.theta_den
        sets = itertools.combinations(range(1, self.vs.total_vars + 1), degree)
        want = {jdx: scale * w for jdx, w in zip(sets, row) if w}
        got = {mon: kept for mon, sums in acc.items() if (kept := {j: v for j, v in sums.items() if v})}
        return got == ({pole: want} if want else {})


def build_logplus_complex(p: PoissonStructure, weight_cap: int) -> WeightSlicedComplex:
    """The span of the x^E phi_I with the honest exterior derivative.

    The derivative is taken once per index set, not once per column, on
    the 2n pieces eta_i ^ phi_I (eta_i = dx_i/x_i), each x^(-1_I) times a
    constant log form read off integer tables (``_PlusMachine.pieces``).
    Each piece's phi-coordinates are extracted in the log frame
    (``_PlusMachine.sharp_rows``) as integer numerators over one
    denominator, and certified: re-expanded through the theta_K, they must
    equal the piece exactly, in integers (``_PlusMachine.certifies``).
    With d(phi_I) = -sum_{i in I} eta_i ^ phi_I from the gate (``_theta``),
    each column follows from the Leibniz rule

        d(x^E phi_I) = x^E (d(phi_I) + sum_i E_i eta_i ^ phi_I).

    The 2n pieces of I are merged once per I, over the lcm D of their
    denominators, into one list of targets (J, E2), each with the vector
    (D c_1, ..., D c_2n) from the eta_i ^ phi_I and D c_0 = -sum_{i in I}
    D c_i from d(phi_I); since E_i = 0 off the support of E, the pieces a
    column does not use add nothing.  So the
    pieces are computed once each, for every I that has a column, and only
    their merged targets are kept.  The column of x^E phi_I has
    D c_0 + sum_i E_i D c_i over D at (J, E2 + E) for each target, and must
    stay in the polynomial span.  Per target and total of E these numerators
    are one table over ``_monomials(2n, total)``, each entry one addition:
    value(E) = value(E - e_t) + D c_t, t the first variable of E, from the
    table of the total below (``_first_lowered``).  Totals arrive in
    ascending order for each I (``_fill_slices`` walks the weights upward),
    so only the last table of each target is kept.  Each value num / D
    (``linalg.exact``) is cached per numerator.  The position of (J, E2 + E)
    is offset(J) plus one table lookup: the ranks of E + E2 are tabulated
    once per total of E and shift E2 for the whole build (slice layout,
    module docstring).  The block of J is looked up at the target's first
    nonzero entry, so a target whose entries all vanish is skipped; one
    whose index set J has no block of total |E| + |E2| in the target slice
    raises AssertionError.  The writer never calls ``_koszul_tables``: the
    monomial tables it shares with the bracket side hold no structure.
    """
    machine = _PlusMachine(p)
    vs = p.var_spec
    nv = vs.total_vars

    @functools.cache
    def merged(indices: IndexSet):
        """([(J, E2, D c_0, [D c_1, ..., D c_2n])], value) over the targets
        of the 2n pieces of I, D their lcm, c_i = 0 where piece i has no
        (J, E2) and c_0 = -sum_{i in I} c_i; ``value(num)`` is the cached
        num / D (``linalg.exact``)."""
        pole, rows = machine.pieces(indices)
        degree, num_den = len(indices) + 1, machine.theta_den ** len(indices)
        parts = []
        for row in rows:
            den, nums = machine.sharp_rows(degree, num_den, {pole: row})
            if not machine.certifies(degree, pole, row, den, nums):
                raise AssertionError("phi-coefficient extraction failed to certify")
            parts.append((den, nums))
        den = math.lcm(*(d for d, _nums in parts))
        acc: dict[Label, list[int]] = {}
        for i, (d, nums) in enumerate(parts):
            scale = den // d
            for lab, num in nums:
                acc.setdefault(lab, [0] * nv)[i] = scale * num
        targets = [(jdx, e2, -sum(cs[i - 1] for i in indices), cs) for (jdx, e2), cs in acc.items()]
        return targets, functools.cache(functools.partial(linalg.exact, den=den))

    last: dict[tuple[IndexSet, int], tuple[int, list[int]]] = {}

    def numerators(key, c0: int, cs, total: int) -> list[int]:
        """D c_0 + sum_i E_i D c_i for each E of ``_monomials(2n, total)``,
        from the table of total - 1 by one addition per E (``_first_lowered``).
        Only the last table of each key is kept: the totals of a source
        block arrive in ascending order, so it is the one the next needs."""
        done, table = last.get(key, (0, [c0]))
        if done > total:
            done, table = 0, [c0]
        for t in range(done + 1, total + 1):
            table = [table[r] + cs[i] for i, r in _first_lowered(nv, t)]
        last[key] = total, table
        return table

    def write(blocks, indices, total, rows, col0):
        targets, value = merged(indices)
        for n, (jdx, e2, c0, cs) in enumerate(targets):
            table = numerators((indices, n), c0, cs, total)
            if not any(table):
                continue
            offset = _target_offset(blocks, indices, jdx, total + sum(e2))
            shift = _shifted_ranks(nv, total, e2)
            for r, num in enumerate(table):
                if num:
                    if (pos := shift[r]) < 0:
                        raise AssertionError("derivative left the polynomial log-plus span")
                    rows[offset + pos][col0 + r] = value(num)

    cx = WeightSlicedComplex("logplus", vs, (0, vs.total_vars), weight_cap)
    return _fill_slices(cx, functools.partial(_slice, COORDINATE, vs, False), write)


def _koszul_tables(invariant: tuple[int, list[list[int]]], variables):
    """(value, lam_columns, insertions) for a writer of the closed-form
    bracket differential (module docstring) on the given variables, from
    the invariant grid (D, D * A) of ``_invariant_grid`` or ``_theta``, A
    scaled by its common denominator D.  ``value(lam)`` is the cached
    pair (lam / D, -lam / D).  ``lam_columns(total)`` gives, per q-th
    variable j, D (E A)_j for each E of ``_monomials(len(variables), total)``:
    the row of E is the row of E - e_t plus the row of D A of t, the first
    variable of E (``_first_lowered``).  ``insertions(M, ones)`` is the table
    [(q, s_j < 0, M + {j}, D (1_ones A)_j)] over the q-th variables j not in M."""
    den, scaled = invariant
    grid = [[scaled[i - 1][j - 1] for j in variables] for i in variables]
    nv = len(grid)

    @functools.cache
    def value(lam: int) -> tuple[int | Fraction, int | Fraction]:
        return linalg.exact(lam, den), linalg.exact(-lam, den)

    rows_of_total = [[(0,) * nv]]

    def lam_rows(total: int) -> list[tuple[int, ...]]:
        while len(rows_of_total) <= total:
            prev, steps = rows_of_total[-1], _first_lowered(nv, len(rows_of_total))
            rows_of_total.append([tuple(map(operator.add, prev[r], grid[t])) for t, r in steps])
        return rows_of_total[total]

    @functools.cache
    def lam_columns(total: int) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*lam_rows(total)))

    @functools.cache
    def insertions(indices: IndexSet, ones: IndexSet) -> list[tuple[int, bool, IndexSet, int]]:
        table = []
        for q, j in enumerate(variables):
            merged = merge_indices((j,), indices)
            if merged is not None:
                sign, key = merged
                table.append((q, sign < 0, key, sum(scaled[i - 1][j - 1] for i in ones)))
        return table

    return value, lam_columns, insertions


def build_bracket_complex(p: PoissonStructure, weight_cap: int) -> WeightSlicedComplex:
    """Polynomial multivectors with the bracket-with-the-bivector
    differential, on the basis x^E d_I (labels match the log-plus complex).

    The columns come from the closed form of the module docstring, which
    the Schouten bracket checks in the tests: per entry the writer does one
    integer subtraction D lambda_j = D (E A)_j - D (1_M A)_j
    (``_koszul_tables`` on all 2n variables, with ones = M) and one store
    at offset(M + {j}) + rank(E + e_j) (``_moved``) of a cached exact value
    +-(D lambda_j) / D.  Raises ValueError outside the invariant model
    (``_invariant_grid``).
    """
    vs = p.var_spec
    nv = vs.total_vars
    value, lam_columns, insertions = _koszul_tables(_invariant_grid(p), range(1, nv + 1))

    def write(blocks, indices, total, rows, col0):
        lam_of, raised = lam_columns(total), _moved(nv, total, 1)
        for j, negative, key, shift in insertions(indices, indices):
            offset, raised_j = blocks[key][0], raised[j]
            for r, lam in enumerate(lam_of[j]):
                if lam := lam - shift:
                    rows[offset + raised_j[r]][col0 + r] = value(lam)[negative]

    cx = WeightSlicedComplex("bracket", vs, (0, nv), weight_cap)
    return _fill_slices(cx, functools.partial(_slice, COORDINATE, vs, False), write)


def conjugation_report(p: PoissonStructure, weight_cap: int, max_degree: int) -> dict:
    """Entrywise comparison of the exterior-derivative matrices on the phi
    basis with the bracket matrices on the matching multivector basis.

    The two sides come from unrelated code paths (meromorphic derivative
    of certified pieces, combined by the Leibniz rule, vs. the closed-form
    bracket differential).  A negative ``max_degree`` compares nothing and
    raises ValueError.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    plus = build_logplus_complex(p, weight_cap)
    bracket = build_bracket_complex(p, weight_cap)
    slices = []
    all_equal = True
    for k, w in sorted(kw for kw in plus.basis if kw[0] <= max_degree):
        equal = plus.diffs.get((k, w)) == bracket.diffs.get((k, w))
        all_equal = all_equal and equal
        slices.append(
            {
                "degree": k,
                "weight": w,
                "dim_source": plus.slice_dim(k, w),
                "dim_target": plus.slice_dim(k + 1, w),
                "equal": equal,
            }
        )
    return {"slices": slices, "verdict": all_equal, "weight_cap": weight_cap}


# -- graded pieces of the phi-count filtration ---------------------------------


def _qi_slice(vs: VarSpec, iset: IndexSet, degree: int, w: int):
    """Slice (degree, w) of Q_I as (blocks, labels), the layout of
    ``build_qi`` (module docstring).  The labels are the x^(E + 1_K)
    d_(I + K) of the classes phi_I ^ x^E eta_K with K disjoint from I,
    |K| = degree - |I|, E vanishing on I and |E| = w + |I|; the block of
    I + K is (offset, w + |I|), offset the number of labels before it.
    The loops emit the labels sorted: the K come in lexicographic order,
    which adding I keeps, since (I + K1) and (I + K2) differ exactly where
    K1 and K2 do and sorted tuples of one size compare by the least element
    of that symmetric difference; for one K the E come sorted
    (``_monomials``), and putting zeros at the positions of I and adding
    1_K keeps their order."""
    nv, total = vs.total_vars, w + len(iset)
    rest = [i for i in range(1, nv + 1) if i not in iset]
    spread = []
    for fexp in _monomials(len(rest), total):
        e = [0] * nv
        for var, x in zip(rest, fexp):
            e[var - 1] = x
        spread.append(e)
    blocks: dict[IndexSet, tuple[int, int]] = {}
    labels: list[Label] = []
    if degree < len(iset) or not spread:
        return blocks, labels
    for kset in itertools.combinations(rest, degree - len(iset)):
        indices, ones = tuple(sorted(iset + kset)), [int(i in kset) for i in range(1, nv + 1)]
        blocks[indices] = (len(labels), total)
        labels.extend((indices, tuple(map(operator.add, e, ones))) for e in spread)
    return blocks, labels


def _index_set(vs: VarSpec, index_set) -> IndexSet:
    """The sorted index set; ValueError unless of distinct divisor indices."""
    iset = tuple(sorted(index_set))
    if any(not vs.is_divisor_index(i) for i in iset):
        raise ValueError("index set must consist of divisor indices")
    if len(set(iset)) != len(iset):
        raise ValueError("index set has repeats")
    return iset


def build_qi(p: PoissonStructure, index_set, weight_cap: int) -> WeightSlicedComplex:
    """Graded piece of the filtration for a set of divisor indices.

    Monomial model in degrees D = |I|..2n: the slice at degree D, weight w
    is spanned by x^E d_M with I inside M, E vanishing exactly on I among
    the indices of M, and |E| = w + D.  Its layout is its own (module
    docstring): (M, E) sits at offset(M) + rank(F'), F' = E - 1_(M - I) on
    the variables off I.  The differential is the bracket with the
    bivector in closed form, with F = F' - 1_I: (M, F') maps to
    sum_{j not in M} s_j lambda_j (M + {j}, F') at the same rank, with
    D lambda_j = D (F' A)_j - D (1_I A)_j (``_koszul_tables`` on the
    variables off I); a target block the piece lacks raises AssertionError.
    The phi model is checked first, by the gate ``_theta``, which also
    refuses a singular A: phi_i = x_i^-1 theta_i with theta_i constant, so
    d(phi_I) = -sum_{i in I} eta_i ^ phi_I, the twisted shape this closed
    form is the differential of.
    """
    vs = p.var_spec
    iset = _index_set(vs, index_set)
    grid = _theta(p)[0]
    rest = [j for j in range(1, vs.total_vars + 1) if j not in iset]
    value, lam_columns, insertions = _koszul_tables(grid, rest)

    def write(blocks, indices, total, rows, col0):
        lam_of = lam_columns(total)
        for q, negative, key, shift in insertions(indices, iset):
            offset = _target_offset(blocks, indices, key, total)
            for r, lam in enumerate(lam_of[q]):
                if lam := lam - shift:
                    rows[offset + r][col0 + r] = value(lam)[negative]

    cx = WeightSlicedComplex(f"Q{list(iset)}", vs, (len(iset), vs.total_vars), weight_cap)
    return _fill_slices(cx, functools.partial(_qi_slice, vs, iset), write)


def qi_cohomology(p: PoissonStructure, index_set, weight_cap: int) -> dict[tuple[int, int], int]:
    """(degree, weight) -> cohomology dimension of Q_I at every slice it has,
    zeros included, by the block rule of the module docstring, without a
    matrix and on the 2n - |I| variables off I: each E' in
    ``_monomials(2n - |I|, w + |I|)`` with sum_{i not in I} E'_i (D A)[i][j]
    = sum_{i in I} (D A)[i][j] for every j not in I (lambda_F = 0 off I,
    F = E' - 1_I) adds C(2n - |I|, k - |I|) in degree k = |I|..2n.  D A is
    read from ``_invariant_grid`` alone.  Refuses what ``build_qi`` refuses,
    except a singular A, with the weight cap checked before the model."""
    vs = p.var_spec
    iset = _index_set(vs, index_set)
    if weight_cap < 0:
        raise ValueError("weight_cap must be >= 0")
    _den, scaled = _invariant_grid(p)
    nv, size = vs.total_vars, len(iset)
    rest = [i for i in range(nv) if i + 1 not in iset]
    columns = [([scaled[i][j] for i in rest], sum(scaled[i - 1][j] for i in iset)) for j in rest]
    out = {}
    for w in range(-size, weight_cap + 1):
        if mons := _monomials(len(rest), w + size):
            kept = sum(all(sum(map(operator.mul, e, col)) == t for col, t in columns) for e in mons)
            for k in range(size, nv + 1):
                out[(k, w)] = kept * math.comb(nv - size, k - size)
    return out


# -- cohomology ----------------------------------------------------------------


def cohomology_dims(cx: WeightSlicedComplex, degree: int) -> dict[int, int]:
    """Weight -> cohomology dimension at the given degree, by exact
    rank-nullity per weight slice.  The ranks are taken by clearing
    (``WeightSlicedComplex.rank``), higher degrees first, and assume
    d o d = 0, which ``verify_d_squared`` checks."""
    out: dict[int, int] = {}
    for w in cx.weights_at(degree):
        h = cx.slice_dim(degree, w) - cx.rank(degree, w) - cx.rank(degree - 1, w)
        if h < 0:
            raise AssertionError("rank bookkeeping produced a negative dimension")
        out[w] = h
    return out


def verify_d_squared(cx: WeightSlicedComplex) -> bool:
    """Composition of consecutive differentials vanishes on every slice.
    Each differential is read as integer rows (``linalg._int_rows``) once,
    and each product row is summed as integers (``linalg._sums``); a scale
    does not change which rows are zero, so no value is built."""
    ints = functools.cache(lambda key: linalg._int_rows(cx.diffs[key])[0])
    for (k, w), mat in cx.diffs.items():
        if mat and cx.diffs.get((k + 1, w)):
            if any(any(acc.values()) for acc in linalg._sums(ints((k + 1, w)), ints((k, w)))):
                return False
    return True


def verify_exactness(cx: WeightSlicedComplex, degrees) -> dict:
    """``exactness_report`` of the cohomology over the requested degrees and
    all weights, by ranks."""
    dims = {(k, w): h for k in degrees for w, h in cohomology_dims(cx, k).items()}
    return exactness_report(cx.label, cx.weight_cap, dims)


def exactness_report(complex_id: str, weight_cap: int, dims: dict[tuple[int, int], int]) -> dict:
    """Report of a (degree, weight) -> cohomology dimension table, sorted;
    verdict "exact" iff every dimension vanishes (an empty table is exact)."""
    return {
        "complex_id": complex_id,
        "weight_cap": weight_cap,
        "table": [
            {"degree": k, "weight": w, "dim_cohomology": h} for (k, w), h in sorted(dims.items())
        ],
        "verdict": "not_exact" if any(dims.values()) else "exact",
    }


# -- filtration membership ------------------------------------------------------


def filtration_level_of(p: PoissonStructure, form: DiffForm) -> int | None:
    """Least filtration level containing the form, or None when the form is
    not in the polynomial log-plus span at all.

    Through the sharp identification the filtration splits monomially, so
    this is a direct inspection of the labels x^E d_M of the multivector
    expansion: the largest level set {i in M : E_i = 0} (every variable is
    on the divisor in the invariant model), or None if an exponent is
    negative.  Raises TypeError unless the form is a DiffForm.
    """
    if not isinstance(form, DiffForm):
        raise TypeError(f"filtration_level_of expects a DiffForm, not {type(form).__name__}")
    level = 0
    for (indices, exps), _n in _PlusMachine(p).sharp_numerators(form)[1]:
        if any(e < 0 for e in exps):
            return None
        level = max(level, sum(exps[i - 1] == 0 for i in indices))
    return level


def filtration_report(p: PoissonStructure, level: int, weight_cap: int, max_degree: int) -> dict:
    """The graded quotient at this level as the direct sum of its pieces
    Q_I, |I| = level, slice by slice, with the expected annihilators.

    The slice of Q_I at (degree, w) is ``_qi_slice``: the labels
    (I + J, E + 1_J) with J disjoint from I, |J| = degree - |I| =: k, E
    vanishing on I and |E| = w + |I|.  The classes phi_I ^ x^E eta_K,
    |K| = k, span it, so each piece's rank is its slice size:

    * pi_sharp(phi_i) = d_i and pi_sharp(eta_t) = sum_j A[t][j] v_j, so
      the class of phi_I ^ x^E eta_K is sum_J +-det A[K, J] at the label
      (I + J, E + 1_J), over J disjoint from I with |J| = k;
    * for a fixed E these vectors are the rows of the k-th compound of the
      columns of A off I, with signs on its columns; A is nonsingular
      (the gate ``_theta`` refuses it otherwise), so those columns are
      independent and the compound has rank C(2n - |I|, k);
    * different E, and different I, land on disjoint labels, since every
      label has level set I (``filtration_level_of``).

    So each piece at (degree, w) has rank
    len(_monomials(2n - |I|, w + |I|)) * C(2n - |I|, k), the same for every
    I at this level, and a slice is listed when that number is nonzero;
    the pieces are direct by construction.  The class vectors themselves
    are a test oracle.  x_r, r in I, kills the class of phi_I when
    pi_sharp(phi_i) = d_i for every i: then pi_sharp(phi_I) = d_I has level
    |I| and x_r d_I level |I| - 1.  pi_sharp(phi_i) = x_i^-1 sum_k
    (theta A)_ik v_k (module docstring), so the annihilator check is
    theta A = 1, in the gate's integers (T theta) (D A) = T D 1; it holds
    vacuously at level 0, which has no phi_i.  Raises ValueError outside
    the invariant model and when A is singular (the gate ``_theta``), and
    unless 0 <= level <= 2n, weight_cap >= 0 and max_degree >= level, in
    that order.
    """
    (den, scaled), (theta_den, theta) = _theta(p)
    nv = p.var_spec.total_vars
    if not 0 <= level <= nv:
        raise ValueError(f"filtration level must lie in 0..{nv}")
    if weight_cap < 0:
        raise ValueError("weight_cap must be >= 0")
    if max_degree < level:
        raise ValueError(f"max_degree must be >= the filtration level {level}")
    isets = list(itertools.combinations(range(1, nv + 1), level))
    rest = nv - level
    slices = []
    for degree in range(level, min(max_degree, nv) + 1):
        for w in range(-level, weight_cap + 1):
            rank = len(_monomials(rest, w + level)) * math.comb(rest, degree - level)
            if rank:
                slices.append(
                    {
                        "degree": degree,
                        "weight": w,
                        "per_piece_rank": [rank] * len(isets),
                        "combined_rank": rank * len(isets),
                        "direct": True,
                    }
                )
    unit = theta_den * den
    ann_ok = level == 0 or all(
        sum(map(operator.mul, row, column)) == unit * (i == j)
        for i, row in enumerate(theta)
        for j, column in enumerate(zip(*scaled))
    )
    return {"level": level, "slices": slices, "direct": True, "annihilator_ok": ann_ok}
