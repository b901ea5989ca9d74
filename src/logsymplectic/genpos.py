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

*Verdict* (both functions): exact elimination.  A column set passes iff its
columns have rank t.  The column sets are walked in lexicographic order as a
depth-first search over the tree of their prefixes; each child reduces its
column against its prefix's pivots with the kernel's row step,
``linalg._clear``, so a shared prefix is eliminated once.  A column that
reduces to zero makes every completion of its prefix a failure, without
further elimination.  A witness is the set of pivot rows, that is the greedy
independent rows, the lexicographically first row set with a nonzero minor.

*Check* (``verify_certificate``): minors.  It rejects entries with a pole or
a foreign ``var_spec`` and shapes other than k x 2k, then recomputes each
claimed minor of [M(0) | N(0)] by one memoized Laplace expansion: every
witness minor must be nonzero, and every minor of a failing column set
zero.  Each row is scaled to integers by the positive common denominator
of its entries, so each minor is tested for zero on its scaled integer,
and the check builds no Fraction per minor.  Coverage is one
comparison for both kinds: the witnessed and failing column sets, sorted,
must be the first that many column sets in lexicographic order, all of them
if the certificate is complete, and if it is truncated those up to its
single failure.  The check shares no arithmetic with the verdict; in
particular it never calls ``linalg``.
Deciding t = 2n by the same minors would be cheap for skew matrices (a
column set S of A with identity columns T has minor +-det A[T^c, S]), but
the check would then repeat the verdict's computation instead of
confirming it, so the two routes stay apart at every t.

*One matrix, many t* (``PreparedPair``): the public functions each prepare
their pair and use it once; ``toric.certify`` prepares [A(0) | I] once per
report and decides and checks its four t on it, so the validation, the
walk's integer columns and the check's memo of scaled minors are each
built once.  The check's memo is its own table, built from the polynomial
entries, never from the walk's columns.  The walk and the Laplace
expansion recurse through module-level functions over explicit tables, so
no function refers to itself and everything they build is freed by
reference counting, without the cycle collector.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

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


class PreparedPair:
    """The pair (M, N) of k x k matrices over the local ring, validated once
    for any number of walks (``decide``) and checks (``check``) on it.  The
    walk's integer columns and the check's memo of scaled minors are each
    built on first use and kept; see the module docstring."""

    __slots__ = ("k", "error", "_block", "_columns", "_ints", "_memo")

    def __init__(self, m, n):
        m_rows, n_rows = _as_rows(m), _as_rows(n)
        self.k = len(m_rows)
        self._block = [mrow + nrow for mrow, nrow in zip(m_rows, n_rows)]
        self.error = _problem(m_rows, n_rows, self._block)
        self._columns = self._ints = self._memo = None

    def decide(self, t: int, all_failures: bool) -> GenPosCertificate:
        """The verdict for t with every failing column set, or with the first
        only when not ``all_failures``; raises ValueError on an invalid pair
        or t."""
        if self.error:
            raise ValueError(self.error)
        k = self.k
        if not 1 <= t <= k:
            raise ValueError(f"t must satisfy 1 <= t <= {k}")
        if self._columns is None:
            # column j of [M(0) | N(0)] as a sparse row {row label r:
            # numerator} in the kernel's integer form: the walk reads only
            # pivot positions, and a column's numerators span its line
            constants = [[p.constant_term() for p in row] for row in self._block]
            self._columns = [
                linalg._scaled({r: row[j] for r, row in enumerate(constants, 1)})[0]
                for j in range(2 * k)
            ]
        witnesses: dict[tuple[int, ...], tuple[int, ...]] = {}
        failures: list[tuple[int, ...]] = []
        _grow(self._columns, t, all_failures, (), {}, witnesses, failures)
        return GenPosCertificate(
            verdict=not failures,
            t=t,
            column_count=2 * k,
            witnesses=witnesses,
            failures=tuple(failures),
            complete=all_failures or not failures,
        )

    def check(self, cert: GenPosCertificate) -> bool:
        """``verify_certificate`` on this pair."""
        k = self.k
        if self.error or not k:
            return False
        # exact types: True == 1 and 8.0 == 8 pass the comparisons below, and
        # the unpacking below raises on a witnesses or failures of None
        fields = (cert.t, cert.column_count, cert.verdict, cert.complete, cert.witnesses, cert.failures)
        if tuple(map(type, fields)) != (int, int, bool, bool, dict, tuple):
            return False
        if cert.column_count != 2 * k or not 1 <= cert.t <= k:
            return False
        t, width = cert.t, 2 * k
        claimed = [*cert.witnesses, *cert.failures]
        labels = itertools.chain.from_iterable(claimed)
        # tuples of ints: then the coverage comparison below also proves each
        # claimed column set to be t increasing labels in 1..2k
        if (
            not all(map(isinstance, claimed, itertools.repeat(tuple)))
            or not all(map(isinstance, labels, itertools.repeat(int)))
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
        if self._memo is None:
            grid = [[p.constant_term() for p in row] for row in self._block]
            self._ints = _scaled_minors(grid)[0]
            self._memo = {}
        ints, memo = self._ints, self._memo

        # the row scales are positive, so a minor is zero iff its scaled value is
        bit = [0, *(1 << i for i in range(width))].__getitem__  # label i -> 1 << (i - 1)

        def mask(labels) -> int:
            return sum(map(bit, labels))

        for cols, rows in cert.witnesses.items():
            if not _scaled_minor(ints, memo, mask(rows), mask(cols)):
                return False
        row_sets = [mask(rows) for rows in itertools.combinations(range(1, k + 1), t)]
        for cols in cert.failures:
            col_set = mask(cols)
            if any(_scaled_minor(ints, memo, rows, col_set) for rows in row_sets):
                return False
        return True


def _problem(m_rows, n_rows, block) -> str | None:
    """Why (M, N) is no pair of k x k matrices over one local ring, or None."""
    k = len(m_rows)
    if len(n_rows) != k:
        return "M and N must have the same number of rows"
    if any(len(r) != k for r in m_rows + n_rows):
        return "M and N must be square of equal size"
    vs = block[0][0].var_spec if k else None
    for row in block:
        for p in row:
            if p.has_negative_exponents():
                return "matrix entries must lie in the local ring (no poles)"
            if p.var_spec != vs:
                return "var_spec mismatch among entries"
    return None


def is_relative_t_general(m, n, t: int) -> GenPosCertificate:
    """Relative t-general position of (M, N), with every failing column set;
    see the module docstring."""
    return PreparedPair(m, n).decide(t, True)


def first_failure_t_general(m, n, t: int) -> GenPosCertificate:
    """The verdict of ``is_relative_t_general``, with a certificate that
    stops at the first failing column set (``complete=False``) when the
    verdict is false; see the module docstring."""
    return PreparedPair(m, n).decide(t, False)


def _grow(columns, t: int, all_failures: bool, prefix: tuple[int, ...], pivots,
          witnesses: dict, failures: list) -> bool:
    """Walk the completions of a prefix of column labels, adding to
    ``witnesses`` and ``failures``; True once the walk must stop.  The
    pivots are keyed by row label, so a witness is its sorted keys."""
    width = len(columns)
    # the children of a prefix in lexicographic order, each leaving room
    # for the columns that complete it to t
    first = prefix[-1] + 1 if prefix else 1
    for c in range(first, width - t + len(prefix) + 2):
        cols = prefix + (c,)
        nums, den = dict(columns[c - 1]), 1
        while hits := nums.keys() & pivots.keys():
            r = min(hits)
            den = linalg._clear(nums, den, r, pivots[r])
        if not nums:
            # column c depends on the prefix, in every completion too
            rests = itertools.combinations(range(c + 1, width + 1), t - len(cols))
            if not all_failures:
                failures.append(cols + next(rests))
                return True
            failures.extend(cols + rest for rest in rests)
        elif len(cols) < t:
            grown = pivots | {min(nums): (nums, den)}
            if _grow(columns, t, all_failures, cols, grown, witnesses, failures):
                return True
        else:
            witnesses[cols] = tuple(sorted([*pivots, min(nums)]))
    return False


def is_standard_t_general(m, t: int) -> GenPosCertificate:
    """t-general position of M: relative t-general position of (M, identity)."""
    m_rows = _as_rows(m)
    # the identity takes its var_spec from an entry; an M without entries
    # has no valid shape, and PreparedPair refuses it like any other
    vs = next((p.var_spec for row in m_rows for p in row), None)
    n_rows = identity_rows(vs, len(m_rows)) if vs is not None else [[] for _ in m_rows]
    return is_relative_t_general(m_rows, n_rows, t)


def poisson_t_general(p: PoissonStructure, t: int) -> GenPosCertificate:
    """t-general position of a Poisson structure: the test applied to its
    log-basis matrix."""
    return is_standard_t_general(log_matrix(p), t)


def _scaled_minors(grid) -> tuple[list[list[int]], list[int]]:
    """``(ints, scales)`` for a rational grid of ints and Fractions: each row
    times the positive common denominator ``scales[r]`` of its entries, so
    that ``ints`` holds integers."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in grid]
    ints = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(grid, scales)]
    return ints, scales


def _scaled_minor(ints, memo: dict, rows: int, cols: int) -> int:
    """The minor of ``ints`` on the rows and columns in the bit masks
    ``rows`` and ``cols`` (as many of each).

    One Laplace expansion along the first row computes every minor: an r x r
    minor comes from the (r - 1) x (r - 1) minors of the remaining rows,
    each kept in ``memo`` under ``(rows, cols)``, so column sets that share
    columns share work for as long as the caller keeps the memo.
    """
    if not rows:
        return 1
    head = ints[(rows & -rows).bit_length() - 1]
    rest = rows & (rows - 1)
    value, sign, left = 0, 1, cols
    while left:
        low = left & -left
        x = head[low.bit_length() - 1]
        if x:
            sub = cols ^ low
            minor = memo.get((rest, sub))
            if minor is None:
                minor = memo[(rest, sub)] = _scaled_minor(ints, memo, rest, sub)
            value += sign * x * minor
        sign, left = -sign, left ^ low
    return value


def _increasing(seq, t: int, top: int) -> bool:
    """Whether ``seq`` is a tuple of t >= 1 strictly increasing integers in 1..top."""
    return (
        isinstance(seq, tuple)
        and len(seq) == t
        and all(map(isinstance, seq, itertools.repeat(int)))
        and 1 <= seq[0]
        and seq[-1] <= top
        and all(map(operator.lt, seq, seq[1:]))
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
    the constant-term test is sound only on the local ring.  So is a
    mistyped field: ``t`` and ``column_count`` must be ints and not bools,
    ``verdict`` and ``complete`` bools."""
    return PreparedPair(m, n).check(cert)
