"""Exact linear algebra over the rationals, on sparse rows, in integers.

Values are exact rationals in one normal form, the one ``exact`` returns:
an ``int`` when the value is integral, otherwise a ``Fraction``, never a
Fraction with denominator 1.  A row is a ``dict[int, value]`` from column
index to a nonzero value.  Dense rows (lists) are accepted as well, and
entries may be any ints or Fractions, zeros included.

Inside the kernel a row is a ``Scaled`` row: integer numerators over one
positive denominator, divided by their gcd after every update, so its
integers are no larger than the reduced Fractions of the same row would
be, and no Fraction is built while eliminating.  Every row is copied into
that form on entry, so the caller's rows are never changed; a row of ints
is copied as it is, with denominator 1, which is the path the stored
differentials of ``complexes`` take on an integral log matrix.  One
elimination loop, ``_eliminate``, serves ``rank``, ``det``, ``inverse`` and
``solve_columns``; ``pivot_columns`` (so ``rank`` in the default order)
skips it when the rows' leading columns are pairwise distinct, as such rows
are already in echelon form.  It has no continuation mode: the ``genpos``
walk clears each new column of its prefix's pivots itself, with ``_clear``.

One product path serves ``mat_mul`` and ``complexes.verify_d_squared``:
``_int_rows`` reads each factor as integer rows over one scale (dict rows
of ints as they are), and ``_sums`` accumulates each product row as
integers.  ``mat_mul`` builds a value only for a nonzero sum.  ``det``,
``inverse`` and ``solve_columns`` return Fractions.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from fractions import Fraction

Matrix = list[list[Fraction]]
Row = dict[int, int | Fraction]
Scaled = tuple[dict[int, int], int]  # (numerators, positive denominator)


def exact(num: int, den: int = 1) -> int | Fraction:
    """The rational num / den (integers, den nonzero) in normal form: an int
    when it is integral, otherwise a Fraction."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def _items(row):
    """The (column, value) pairs of a dense or sparse row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _nonzero(row) -> dict:
    """The nonzero entries of a dense or sparse row, as a new dict."""
    return {c: v for c, v in _items(row) if v}


def _scaled(row) -> Scaled:
    """A fresh Scaled copy of a dense or sparse row of ints and Fractions.
    The denominator is the lcm of the entries' reduced denominators, so the
    numerators and it have no common factor.  A row of ints (its sum is an
    int: a Fraction term makes it a Fraction) is only copied."""
    vals = row.values() if isinstance(row, dict) else row
    if type(sum(vals)) is int:
        if 0 in vals:
            return _nonzero(row), 1
        return dict(row) if isinstance(row, dict) else dict(enumerate(row)), 1
    nums = _nonzero(row)
    den = math.lcm(*(v.denominator for v in nums.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in nums.items()}, den


def _clear(nums: dict[int, int], den: int, c: int, pivot: Scaled) -> int:
    """``nums / den -= (nums[c] / pivot[c]) * pivot`` in place, dropping the
    entries that cancel (c among them); returns the new denominator, after
    dividing the row by the gcd of its numerators and denominator.

    With x = pivot[c], y = nums[c] and g = gcd(x, y) the new row is
    ((x / g) * nums - (y / g) * pivot numerators) / ((x / g) * den): the
    pivot's own denominator cancels."""
    pnums = pivot[0]
    x, y = pnums[c], nums[c]
    g = math.gcd(x, y)
    a, b = x // g, y // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for k in nums:
            nums[k] *= a
        den *= a
    for k, v in pnums.items():
        w = nums.get(k, 0) - b * v
        if w:
            nums[k] = w
        else:
            del nums[k]
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            for k in nums:
                nums[k] //= g
            den //= g
    return den


def _eliminate(rows: Iterable, column_order=None, reduced: bool = False) -> dict[int, Scaled]:
    """Exact Gaussian elimination of ``rows``; returns the pivots.

    Only the columns in ``column_order`` (default: every column, in
    increasing order) can become pivots.  Each incoming row is cleared of the
    existing pivot columns, lowest first; if a column in the order is left,
    the first one becomes the row's pivot.  The result maps each pivot
    column to its row as a ``Scaled`` row (numerators, denominator), in the
    order of the input rows that produced them.  Pivot rows are not
    normalised: ``nums[c] / den`` is the pivot value of ``pivots[c]``.

    With ``reduced`` each new pivot is also cleared from the older pivot
    rows, in place, so every pivot row is zero in all other pivot columns.
    """
    if column_order is None:
        pos, first = None, min
    else:
        pos = {c: i for i, c in enumerate(column_order)}
        first = functools.partial(min, key=pos.__getitem__)
    pivots: dict[int, Scaled] = {}
    for row in rows:
        nums, den = _scaled(row)
        while hits := nums.keys() & pivots.keys():
            c = first(hits)
            den = _clear(nums, den, c, pivots[c])
        live = nums if pos is None else nums.keys() & pos.keys()
        if not live:
            continue
        lead = first(live)
        new = (nums, den)
        if reduced:
            for c, (onums, oden) in pivots.items():
                if lead in onums:
                    pivots[c] = onums, _clear(onums, oden, lead, new)
        pivots[lead] = new
    return pivots


def _int_rows(rows) -> tuple[list[dict[int, int]], int]:
    """Dense or sparse rows as dicts of ints over one positive scale, the lcm
    of their denominators: row i is the i-th dict divided by the scale.
    Dict rows of ints are returned as they are, zeros and all, with scale 1,
    since a zero term adds nothing to a product; other rows are copied (a
    sum with a Fraction term is a Fraction, even one with denominator 1)."""
    rows = [row if isinstance(row, dict) else _nonzero(row) for row in rows]
    if type(sum(map(sum, map(dict.values, rows)))) is int:
        return rows, 1
    scale = math.lcm(*(v.denominator for row in rows for v in row.values()))
    return [{k: v.numerator * (scale // v.denominator) for k, v in row.items()} for row in rows], scale


def _sums(a: list[dict[int, int]], b: list[dict[int, int]]):
    """Per row x of a, the integer sums of x b as a dict, zeros kept.  Every
    column of a must index a row of b; the loop does not check it."""
    for row in a:
        acc: dict[int, int] = {}
        get = acc.get
        for t, x in row.items():
            for k, v in b[t].items():
                acc[k] = get(k, 0) + x * v
        yield acc


def mat_mul(a, b) -> list[Row]:
    """The product as sparse rows of values in normal form (``exact``).
    Both factors are read as integers over one scale each (``_int_rows``),
    and only nonzero sums become values.  Every column of a must index a
    row of b; this is not checked."""
    a, sa = _int_rows(a)
    b, sb = _int_rows(b)
    den = sa * sb
    return [{k: exact(v, den) for k, v in acc.items() if v} for acc in _sums(a, b)]


def is_zero_matrix(a) -> bool:
    return not any(any(row.values() if isinstance(row, dict) else row) for row in a)


def pivot_columns(a, column_order=None) -> list[int]:
    """The pivot columns of one exact elimination of the rows of ``a``
    (``_eliminate``), in the order the rows produced them.  Only columns in
    ``column_order``, when it is given, can become pivots.

    Without ``column_order``, if the nonempty rows are dicts with no zero
    value and pairwise distinct least columns (leads), the leads in row
    order are that list and nothing is eliminated.  Proof: a row meeting a
    pivot at c is cleared by a multiple of its row, whose columns are >= c;
    c, an earlier row's lead and a column of this row, is above this row's
    lead, so the row keeps its lead, gains nothing below it, and becomes the
    pivot there.  Other input, a dense row or a stored zero, is eliminated."""
    if column_order is None:
        a = [row for row in a if row]
        if all(isinstance(row, dict) and 0 not in row.values() for row in a):
            leads = list(map(min, a))
            if len(set(leads)) == len(leads):
                return leads
    return list(_eliminate(a, column_order))


def rank(a, column_order: list[int] | None = None) -> int:
    """Rank by exact elimination: the number of pivot columns.

    `column_order` permutes the elimination order of the columns; the result
    is of course the same, which makes a reversed order a cheap independent
    cross-check of the elimination code.  It must hold every column with a
    nonzero entry, else ValueError: a column outside it never becomes a
    pivot, and the count would fall short.
    """
    if column_order is not None:
        a = list(a)
        allowed = set(column_order)
        if any(c not in allowed for row in a for c, v in _items(row) if v):
            raise ValueError("column_order misses a column that holds a nonzero entry")
    return len(pivot_columns(a, column_order))


def _square_size(a) -> int:
    """The number of rows, checked to equal the width of every row."""
    n = len(a)
    for row in a:
        fits = all(0 <= c < n for c in row) if isinstance(row, dict) else len(row) == n
        if not fits:
            raise ValueError("matrix is not square")
    return n


def det(a) -> Fraction:
    n = _square_size(a)
    pivots = _eliminate(a)
    if len(pivots) < n:
        return Fraction(0)
    # row i changed only by multiples of the rows before it, and is zero left
    # of its pivot cols[i]: a row permutation of a triangular matrix
    cols = list(pivots)
    inversions = sum(cols[j] > cols[i] for i in range(n) for j in range(i))
    num = math.prod(pivots[c][0][c] for c in cols)
    return Fraction((-1) ** inversions * num, math.prod(pivots[c][1] for c in cols))


def inverse(a) -> Matrix:
    n = _square_size(a)
    augmented = (_nonzero(row) | {n + i: 1} for i, row in enumerate(a))
    pivots = _eliminate(augmented, range(n), reduced=True)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    # reduced, pivot row c is (d e_c | d * row c of the inverse)
    out = zeros(n, n)
    for c, (nums, _den) in pivots.items():
        for j, v in nums.items():
            if j >= n:
                out[c][j - n] = Fraction(v, nums[c])
    return out


def solve_columns(columns: list, target) -> list[Fraction] | None:
    """Express `target` as a linear combination of `columns`, or None.

    Columns and target may be dense or sparse.  Returns one exact
    coefficient vector (free coefficients set to zero) when the system is
    consistent.
    """
    vectors = [*columns, target]
    if len({len(v) for v in vectors if not isinstance(v, dict)}) > 1:
        raise ValueError("column length mismatch")
    ncols = len(columns)
    rows: dict[int, Row] = {}
    for j, vec in enumerate(vectors):
        for i, v in _nonzero(vec).items():
            rows.setdefault(i, {})[j] = v
    # the target column comes last: it becomes a pivot exactly when it is
    # not in the span of the others
    pivots = _eliminate(rows.values(), reduced=True)
    if ncols in pivots:
        return None
    return [
        Fraction(pivots[j][0].get(ncols, 0), pivots[j][0][j]) if j in pivots else Fraction(0)
        for j in range(ncols)
    ]
