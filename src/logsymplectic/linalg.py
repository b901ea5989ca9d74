"""Exact linear algebra over the rationals, on sparse rows.

A row is a ``dict[int, Fraction]`` from column index to a nonzero value.
Dense rows (lists) are accepted as well, and entries may be ints: every
row is copied into a sparse row of Fractions on entry, so results stay
exact and the caller's rows are never changed.  Values that already are
Fractions go into the copy as they are (Fractions are immutable), so
ranking a stored differential builds no new value until elimination does.
One elimination loop, ``_eliminate``, serves ``rank``, ``det``, ``inverse``
and ``solve_columns``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

Matrix = list[list[Fraction]]
Row = dict[int, Fraction]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def _sparse(row) -> Row:
    """A fresh sparse copy of a dense or sparse row, with Fraction values.
    Values that already are Fractions are shared, not rebuilt: they are
    immutable, and only the row dict is ever changed in place."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v if type(v) is Fraction else Fraction(v) for c, v in items if v}


def _add_multiple(row: Row, f: Fraction, other: Row) -> None:
    """``row += f * other`` in place, dropping the entries that cancel."""
    for c, v in other.items():
        x = row.get(c)
        if x is None:
            row[c] = f * v
        else:
            x += f * v
            if x:
                row[c] = x
            else:
                del row[c]


def _eliminate(
    rows: Iterable, column_order=None, reduced: bool = False, start: dict[int, Row] | None = None
) -> dict[int, Row]:
    """Exact Gaussian elimination of ``rows``; returns the pivots.

    Only the columns in ``column_order`` (default: every column, in
    increasing order) can become pivots.  Each incoming row is cleared of the
    existing pivot columns, lowest first; if a column in the order is left,
    the first one becomes the row's pivot.  The result maps each pivot
    column to its row, in the order of the input rows that produced them.
    Pivot rows are not normalised: ``pivots[c][c]`` is the pivot value.

    With ``reduced`` each new pivot is also cleared from the older pivot
    rows, so every pivot row is zero in all other pivot columns.

    ``start``, the pivots of an earlier call with the same ``column_order``,
    continues that elimination: the result is a new dict that begins with
    them, as if their rows had come first.  Without ``reduced`` the rows of
    ``start`` are shared but never changed, so one ``start`` can be extended
    in several ways; ``reduced`` changes them in place.
    """
    pos = None if column_order is None else {c: i for i, c in enumerate(column_order)}
    key = None if pos is None else pos.__getitem__
    pivots: dict[int, Row] = dict(start) if start else {}
    for row in rows:
        row = _sparse(row)
        while hits := [c for c in row if c in pivots]:
            c = min(hits, key=key)
            _add_multiple(row, -row[c] / pivots[c][c], pivots[c])
        live = row if pos is None else [c for c in row if c in pos]
        if not live:
            continue
        lead = min(live, key=key)
        if reduced:
            for other in pivots.values():
                if lead in other:
                    _add_multiple(other, -other[lead] / row[lead], row)
        pivots[lead] = row
    return pivots


def mat_mul(a, b) -> list[Row]:
    """The product as sparse rows."""
    b = [_sparse(row) for row in b]
    out = []
    for row in a:
        acc: Row = {}
        for t, x in _sparse(row).items():
            _add_multiple(acc, x, b[t])
        out.append(acc)
    return out


def is_zero_matrix(a) -> bool:
    return not any(_sparse(row) for row in a)


def rank(a, column_order: list[int] | None = None) -> int:
    """Rank by exact elimination.

    `column_order` permutes the elimination order of the columns; the result
    is of course the same, which makes a reversed order a cheap independent
    cross-check of the elimination code.
    """
    return len(_eliminate(a, column_order))


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
    pivots = _eliminate(a, range(n))
    if len(pivots) < n:
        return Fraction(0)
    # row i changed only by multiples of the rows before it, and is zero left
    # of its pivot cols[i]: a row permutation of a triangular matrix
    cols = list(pivots)
    inversions = sum(cols[j] > cols[i] for i in range(n) for j in range(i))
    return Fraction((-1) ** inversions * math.prod(pivots[c][c] for c in cols))


def inverse(a) -> Matrix:
    n = _square_size(a)
    augmented = (_sparse(row) | {n + i: 1} for i, row in enumerate(a))
    pivots = _eliminate(augmented, range(n), reduced=True)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    # reduced, pivot row c is (d e_c | d * row c of the inverse)
    out = zeros(n, n)
    for c, row in pivots.items():
        for j, v in row.items():
            if j >= n:
                out[c][j - n] = v / row[c]
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
        for i, v in _sparse(vec).items():
            rows.setdefault(i, {})[j] = v
    # the target column comes last in the order: it becomes a pivot exactly
    # when it is not in the span of the others
    pivots = _eliminate(rows.values(), range(ncols + 1), reduced=True)
    if ncols in pivots:
        return None
    return [
        pivots[j].get(ncols, 0) / pivots[j][j] if j in pivots else Fraction(0)
        for j in range(ncols)
    ]
