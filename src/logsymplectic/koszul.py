"""The Koszul block rule: the graded pieces Q_I, counted without a matrix.

Block splitting: the closed form of ``complexes`` maps (M, E) into the
(M + {j}, E + e_j), and E + e_j - 1_(M + {j}) = F = E - 1_M, so F is
invariant, and the weight |E| - |M| equals |F|.  Each weight slice is thus a
direct sum of blocks, one per F, and the block of F is the Koszul complex
"wedge with lambda_F" on v_S ^ Lambda(v_j : j not in S), S = {i : F_i = -1}.
It is acyclic unless lambda_F vanishes off S, and then adds C(2n - |S|,
k - |S|) in degree k (Eisenbud, Commutative Algebra, ch. 17).  The graded
piece of I is the sum of the blocks with S = I, since S is the level set of
the label.  Each such block has one bottom label, (I, F + 1_I) in degree |I|,
whose image is empty exactly when lambda_F vanishes off I.  ``qi_cohomology``
counts those F on the 2n - |I| variables off I, from D A alone and without a
matrix; ``complexes.build_qi`` and its ranks, which share no table with it,
are its oracle.  So Q_I is exact for |I| = 1 (A nonsingular), and for |I| = 2
unless I is a 2-resonant pair, some F having lambda_F vanish off I;
2-general position does not exclude one (fixtures/resonant_structure.json).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .exterior import IndexSet
from .poisson import PoissonStructure, log_matrix
from .ring import VarSpec


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


def _index_set(vs: VarSpec, index_set) -> IndexSet:
    """The sorted index set; ValueError unless of distinct int divisor indices."""
    iset = tuple(sorted(index_set))
    if any(type(i) is not int or not vs.is_divisor_index(i) for i in iset):
        raise ValueError("index set must consist of divisor indices")
    if len(set(iset)) != len(iset):
        raise ValueError("index set has repeats")
    return iset


def qi_cohomology(p: PoissonStructure, index_set, weight_cap: int) -> dict[tuple[int, int], int]:
    """(degree, weight) -> cohomology dimension of Q_I at every slice it has,
    zeros included, by the block rule of the module docstring, without a
    matrix and on the 2n - |I| variables off I: each E' in
    ``_monomials(2n - |I|, w + |I|)`` with sum_{i not in I} E'_i (D A)[i][j]
    = sum_{i in I} (D A)[i][j] for every j not in I (lambda_F = 0 off I,
    F = E' - 1_I) adds C(2n - |I|, k - |I|) in degree k = |I|..2n.  D A is
    read from ``_invariant_grid`` alone.  Refuses what ``complexes.build_qi``
    refuses, except a singular A, with the weight cap checked before the
    model."""
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
