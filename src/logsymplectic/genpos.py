"""General-position tests for matrices over the local ring, with certificates.

A pair of k x k matrices M, N is in relative t-general position when every
t columns of the block matrix [M | N] admit t rows whose t x t minor is a
unit of the local ring at the origin (nonzero constant term).  Evaluation
at the origin is a ring homomorphism of the local ring, so for pole-free
entries a minor is a unit iff the same minor of the constant-term matrix
[M(0) | N(0)] is nonzero.  Both routes below work on that rational matrix.

Columns of [M | N] are numbered 1..2k, the first k coming from M.
Verdicts come with re-checkable certificates: a witness row set per passing
column set, and the failing column sets in lexicographic order.

A *complete* certificate (``is_relative_t_general``) lists every failing
column set.  A *truncated* one (``first_failure_t_general``,
``complete=False``) stops at the first failing column set in lexicographic
order and holds it with the witnesses of every column set before it: its
entries are a lexicographic prefix of the complete certificate's.  One
failing column set proves a false verdict, and the witnesses before it prove
that it is the first; a true verdict has no failure to stop at, so its
certificate is complete in both modes and keeps every witness.

*Verdict* (both functions): exact elimination.  A column set passes iff
its columns have rank t.  The column sets are walked in
lexicographic order as a depth-first search over the tree of their
prefixes, and each child extends its prefix's pivots by one column, so a
shared prefix is eliminated once.  A column that reduces to zero against
its prefix makes every completion of that prefix a failure, without further
elimination.  A witness is the set of pivot rows, that is the greedy
independent rows, which is the lexicographically first row set with a
nonzero minor.

*Check* (``verify_certificate``): minors.  It rejects entries with a pole or
a foreign ``var_spec`` and shapes other than k x 2k, then recomputes each
claimed minor of [M(0) | N(0)] by one memoized Laplace expansion, local to
the call: every witness minor must be nonzero, and every minor of a failing
column set zero.  Each row is scaled to integers by the positive common
denominator of its entries, so each minor is tested for zero on its scaled
integer, and the check builds no Fraction per minor.  Coverage is one
comparison for both kinds: the witnessed and failing column sets, sorted,
must be the first that many column sets in lexicographic order, all of them
if the certificate is complete, and if it is truncated those up to its
single failure.  The check shares no arithmetic with the verdict; in
particular it never calls ``linalg``.
Deciding t = 2n by the same minors would be cheap for skew matrices (a
column set S of A with identity columns T has minor +-det A[T^c, S]), but
the check would then repeat the verdict's computation instead of
confirming it, so the two routes stay apart at every t.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .ring import LaurentPoly, VarSpec
from .poisson import PoissonStructure, SkewMatrix, log_matrix


@dataclass(frozen=True)
class GenPosCertificate:
    verdict: bool
    t: int
    column_count: int
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict)
    failures: tuple[tuple[int, ...], ...] = ()
    complete: bool = True

    @property
    def first_failure(self) -> tuple[int, ...] | None:
        return self.failures[0] if self.failures else None

    def serialize(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "t": self.t,
            "column_count": self.column_count,
            "witnesses": [
                {"columns": list(cols), "rows": list(rows)}
                for cols, rows in sorted(self.witnesses.items())
            ],
            "failures": [list(cols) for cols in self.failures],
        }
        if not self.complete:
            doc["complete"] = False
        return doc


def _as_rows(mat) -> list[list[LaurentPoly]]:
    if isinstance(mat, SkewMatrix):
        return [list(row) for row in mat.rows]
    return [list(row) for row in mat]


def identity_rows(vs: VarSpec, k: int) -> list[list[LaurentPoly]]:
    """The k x k identity matrix as rows of constant polynomials."""
    one = LaurentPoly.const(vs, 1)
    zero = LaurentPoly.zero(vs)
    return [[one if i == j else zero for j in range(k)] for i in range(k)]


def is_relative_t_general(m, n, t: int) -> GenPosCertificate:
    """Relative t-general position of (M, N), with every failing column set;
    see the module docstring."""
    return _walk(m, n, t, all_failures=True)


def first_failure_t_general(m, n, t: int) -> GenPosCertificate:
    """The verdict of ``is_relative_t_general``, with a certificate that
    stops at the first failing column set (``complete=False``) when the
    verdict is false; see the module docstring."""
    return _walk(m, n, t, all_failures=False)


def _walk(m, n, t: int, all_failures: bool) -> GenPosCertificate:
    m_rows, n_rows = _as_rows(m), _as_rows(n)
    k = len(m_rows)
    if len(n_rows) != k:
        raise ValueError("M and N must have the same number of rows")
    if any(len(r) != k for r in m_rows + n_rows):
        raise ValueError("M and N must be square of equal size")
    if not 1 <= t <= k:
        raise ValueError(f"t must satisfy 1 <= t <= {k}")
    vs = None
    for row in m_rows + n_rows:
        for p in row:
            if p.has_negative_exponents():
                raise ValueError("matrix entries must lie in the local ring (no poles)")
            vs = vs or p.var_spec
            if p.var_spec != vs:
                raise ValueError("var_spec mismatch among entries")
    # [M(0) | N(0)] in the kernel's normal form, ints where integral, so
    # that an integral column is only copied into integer form below
    block = [
        [linalg.exact(c.numerator, c.denominator) for c in (p.constant_term() for p in mrow + nrow)]
        for mrow, nrow in zip(m_rows, n_rows)
    ]
    # column j as a sparse row {matrix row r: numerator}, built once in the
    # kernel's integer form: the walk reads only pivot positions, and a
    # column's numerators span the same line as the column
    columns = [linalg._scaled({r: row[j] for r, row in enumerate(block)})[0] for j in range(2 * k)]
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = {}
    failures: list[tuple[int, ...]] = []

    def label(cols0) -> tuple[int, ...]:
        return tuple(c + 1 for c in cols0)

    def grow(prefix: tuple[int, ...], pivots) -> bool:
        """Walk the completions of a prefix; True once the walk must stop."""
        # the children of a prefix in lexicographic order, each leaving room
        # for the columns that complete it to t
        first = prefix[-1] + 1 if prefix else 0
        for c in range(first, 2 * k - t + len(prefix) + 1):
            cols0 = prefix + (c,)
            grown = linalg._eliminate([columns[c]], start=pivots)
            if len(grown) < len(cols0):
                # column c depends on the prefix, in every completion too
                rests = itertools.combinations(range(c + 1, 2 * k), t - len(cols0))
                if not all_failures:
                    failures.append(label(cols0 + next(rests)))
                    return True
                failures.extend(label(cols0 + rest) for rest in rests)
            elif len(cols0) < t:
                if grow(cols0, grown):
                    return True
            else:
                witnesses[label(cols0)] = tuple(sorted(r + 1 for r in grown))
        return False

    grow((), {})
    return GenPosCertificate(
        verdict=not failures,
        t=t,
        column_count=2 * k,
        witnesses=witnesses,
        failures=tuple(failures),
        complete=all_failures or not failures,
    )


def is_standard_t_general(m, t: int) -> GenPosCertificate:
    """t-general position of M: relative t-general position of (M, identity)."""
    m_rows = _as_rows(m)
    # the identity takes its var_spec from an entry; an M without entries
    # has no valid shape, and _walk refuses it like any other
    vs = next((p.var_spec for row in m_rows for p in row), None)
    n_rows = identity_rows(vs, len(m_rows)) if vs is not None else [[] for _ in m_rows]
    return is_relative_t_general(m_rows, n_rows, t)


def poisson_t_general(p: PoissonStructure, t: int) -> GenPosCertificate:
    """t-general position of a Poisson structure: the test applied to its
    log-basis matrix."""
    return is_standard_t_general(log_matrix(p), t)


def _scaled_minors(grid):
    """``(scaled, scales)`` for a rational grid: ``scaled(rows, cols)`` is the
    minor on the rows and columns in the bit masks ``rows`` and ``cols``
    (as many of each), times the positive ``scales`` of its rows.

    One Laplace expansion along the first row computes every minor: an r x r
    minor comes from the (r - 1) x (r - 1) minors of the remaining rows, and
    each minor is memoized for the life of ``scaled``, so column sets that
    share columns share work.  Each row is scaled by the common denominator
    of its entries, so that the table holds integers.
    """
    scales = [math.lcm(*(Fraction(x).denominator for x in row)) for row in grid]
    ints = [[int(x * s) for x in row] for row, s in zip(grid, scales)]

    @functools.cache
    def scaled(rows: int, cols: int) -> int:
        if not rows:
            return 1
        head = ints[(rows & -rows).bit_length() - 1]
        rest = rows & (rows - 1)
        value, sign, left = 0, 1, cols
        while left:
            low = left & -left
            c = low.bit_length() - 1
            if head[c]:
                value += sign * head[c] * scaled(rest, cols ^ low)
            sign, left = -sign, left ^ low
        return value

    return scaled, scales


def _laplace_minors(grid):
    """``minor(rows, cols)``: the determinant of a rational grid restricted to
    the given distinct rows and columns, each taken in increasing order; a
    minor is its value in ``_scaled_minors`` over the scales of its rows."""
    scaled, scales = _scaled_minors(grid)

    def minor(rows, cols) -> Fraction:
        rows, cols = set(rows), set(cols)
        if len(rows) != len(cols):
            raise ValueError("a minor needs as many rows as columns")
        value = scaled(sum(1 << r for r in rows), sum(1 << c for c in cols))
        return Fraction(value, math.prod(scales[r] for r in rows))

    return minor


def _increasing(seq, t: int, top: int) -> bool:
    """Whether ``seq`` is a tuple of t >= 1 strictly increasing integers in 1..top."""
    return (
        isinstance(seq, tuple)
        and len(seq) == t
        and all(isinstance(x, int) for x in seq)
        and all(a < b for a, b in zip(seq, seq[1:]))
        and 1 <= seq[0]
        and seq[-1] <= top
    )


def verify_certificate(m, n, cert: GenPosCertificate) -> bool:
    """Recompute every claim in a certificate, on minors of [M(0) | N(0)]
    and independently of the elimination: each witness must be t rows in
    increasing order whose minor is nonzero, failing column sets must come
    in strictly increasing lexicographic order and have no nonzero minor at
    all.  Sorted together, the claimed column sets must be the first ones
    in lexicographic order: all C(2k, t) if the certificate is complete,
    and up to its single failure if it is truncated.  Entries with a pole
    or a foreign ``var_spec``, and M or N not k x k, are rejected, because
    the constant-term test is sound only on the local ring."""
    m_rows, n_rows = _as_rows(m), _as_rows(n)
    k = len(m_rows)
    if k == 0 or len(n_rows) != k or any(len(row) != k for row in m_rows + n_rows):
        return False
    block = [m_rows[i] + n_rows[i] for i in range(k)]
    vs = block[0][0].var_spec
    if any(p.var_spec != vs or p.has_negative_exponents() for row in block for p in row):
        return False
    if cert.column_count != 2 * k or not 1 <= cert.t <= k:
        return False
    t, width = cert.t, 2 * k
    claimed = [*cert.witnesses, *cert.failures]
    if (
        any(not _increasing(cols, t, width) for cols in claimed)
        or any(not _increasing(rows, t, k) for rows in cert.witnesses.values())
        or cert.verdict != (not cert.failures)
        or any(a >= b for a, b in zip(cert.failures, cert.failures[1:]))
    ):
        return False
    claimed.sort()
    column_sets = itertools.combinations(range(1, width + 1), t)
    if claimed != list(itertools.islice(column_sets, len(claimed))):
        return False
    if cert.complete:
        if next(column_sets, None) is not None:
            return False
    elif not cert.failures or claimed[-1] != cert.failures[0]:
        return False
    # the row scales are positive, so a minor is zero iff its scaled value is
    scaled, _ = _scaled_minors([[p.constant_term() for p in row] for row in block])

    def mask(labels) -> int:
        return sum(1 << (i - 1) for i in labels)

    for cols, rows in cert.witnesses.items():
        if not scaled(mask(rows), mask(cols)):
            return False
    row_sets = [mask(rows) for rows in itertools.combinations(range(1, k + 1), t)]
    for cols in cert.failures:
        col_set = mask(cols)
        if any(scaled(rows, col_set) for rows in row_sets):
            return False
    return True
