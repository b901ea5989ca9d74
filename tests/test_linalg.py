import copy
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsymplectic import linalg
from logsymplectic.poisson import pfaffian

# small rationals with zero drawn often, so that rank drops are common
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


# every kind of value the kernel takes: ints, Fractions with denominator 1
# and proper Fractions, with zero drawn often
MIXED = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-6, 6), st.integers(2, 5)),
)


def matrices(min_rows=0, max_rows=5, min_cols=0, max_cols=5, entry=ENTRY):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(min_cols, max_cols).flatmap(
            lambda m: st.lists(
                st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


def square(max_size=4, entry=ENTRY):
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def sparse(a):
    return [{c: v for c, v in enumerate(row) if v} for row in a]


def forms(a):
    """The same matrix as dense rows, sparse rows, and dicts that keep
    their zero entries."""
    return [a, sparse(a), [dict(enumerate(row)) for row in a]]


def transpose(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


def leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[j] > perm[i] for i in range(n) for j in range(i))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


class TestExactOnIntegers:
    def test_det(self):
        d = linalg.det([[1, 2], [3, 4]])
        assert d == -2 and type(d) is Fraction

    def test_inverse(self):
        inv = linalg.inverse([[1, 2], [3, 4]])
        assert inv == [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
        assert all(type(x) is Fraction for row in inv for x in row)

    def test_solve_columns(self):
        sol = linalg.solve_columns([[1, 3], [2, 4]], [5, 6])
        assert sol == [-4, Fraction(9, 2)]
        assert all(type(x) is Fraction for x in sol)

    def test_rank_beyond_float_precision(self):
        # 10**17 and 10**17 + 1 are the same float
        assert linalg.rank([[10**17, 1], [10**17 + 1, 1]]) == 2
        assert linalg.det([[10**17, 1], [10**17 + 1, 1]]) == -1


class TestShapes:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.det([[1, 2]])
        with pytest.raises(ValueError):
            linalg.inverse([{0: 1}, {2: 1}])

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError):
            linalg.inverse([[1, 2], [2, 4]])

    def test_solve_length_mismatch(self):
        with pytest.raises(ValueError):
            linalg.solve_columns([[1, 2]], [1, 2, 3])

    def test_column_order_must_hold_every_nonzero_column(self):
        # a column left out of the order never becomes a pivot: refused,
        # where the count would fall short of the true rank 2
        with pytest.raises(ValueError, match="column_order"):
            linalg.rank([[1, 2], [3, 4]], [1])
        with pytest.raises(ValueError, match="column_order"):
            linalg.rank([{0: 1, 5: 1}, {5: 2}], [0, 1, 2])
        assert linalg.rank([{0: 1, 5: 1}, {5: 2}], [5, 0]) == 2
        # columns that hold only zeros may be left out
        assert linalg.rank([[0, 1], [0, 2]], [1]) == 1
        assert linalg.rank([{0: 1, 1: 0}], [0]) == 1

    def test_empty(self):
        assert linalg.rank([]) == 0
        assert linalg.rank([[], []]) == 0
        assert linalg.det([]) == 1
        assert linalg.solve_columns([], [0, 0]) == []
        assert linalg.solve_columns([], [0, 1]) is None


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_rank_invariances(self, a):
        ncols = len(a[0]) if a else 0
        r = linalg.rank(a)
        assert linalg.rank(sparse(a)) == r
        reversed_order = list(range(ncols))[::-1]
        assert linalg.rank(a, reversed_order) == r
        assert linalg.rank(sparse(a), reversed_order) == r
        assert linalg.rank(transpose(a, ncols)) == r
        assert r <= min(len(a), ncols)

    @settings(max_examples=150, deadline=None)
    @given(square())
    def test_det_is_leibniz(self, a):
        expected = leibniz(a)
        assert linalg.det(a) == expected
        assert linalg.det(sparse(a)) == expected
        assert (expected != 0) == (linalg.rank(a) == len(a))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 3).flatmap(
            lambda h: st.lists(ENTRY, min_size=h * (2 * h - 1), max_size=h * (2 * h - 1))
        )
    )
    def test_det_of_skew_is_pfaffian_squared(self, upper):
        n = next(n for n in range(0, 8, 2) if n * (n - 1) // 2 == len(upper))
        grid = [[Fraction(0)] * n for _ in range(n)]
        values = iter(upper)
        for i, j in itertools.combinations(range(n), 2):
            grid[i][j] = next(values)
            grid[j][i] = -grid[i][j]
        assert linalg.det(grid) == pfaffian(grid) ** 2
        assert linalg.det(sparse(grid)) == pfaffian(grid) ** 2

    @settings(max_examples=150, deadline=None)
    @given(square(5))
    def test_inverse(self, a):
        n = len(a)
        if linalg.det(a) == 0:
            with pytest.raises(ValueError):
                linalg.inverse(sparse(a))
            return
        for given_a in (a, sparse(a)):
            inv = linalg.inverse(given_a)
            assert linalg.mat_mul(a, inv) == sparse(linalg.identity(n))
            assert linalg.mat_mul(inv, sparse(a)) == sparse(linalg.identity(n))

    @settings(max_examples=200, deadline=None)
    @given(matrices(min_rows=1), st.data())
    def test_solve_columns(self, columns, data):
        nrows = len(columns[0])
        target = data.draw(st.lists(ENTRY, min_size=nrows, max_size=nrows))
        raises_rank = linalg.rank([*columns, target]) > linalg.rank(columns)
        for cols, tgt in ((columns, target), (sparse(columns), sparse([target])[0])):
            sol = linalg.solve_columns(cols, tgt)
            assert (sol is None) == raises_rank
            if sol is not None:
                combo = [sum(x * col[i] for x, col in zip(sol, columns)) for i in range(nrows)]
                assert combo == target

    @settings(max_examples=100, deadline=None)
    @given(matrices(min_rows=1, min_cols=1), st.data())
    def test_mat_mul_matches_dense_product(self, a, data):
        inner = len(a[0])
        b = data.draw(matrices(inner, inner, 0, 4))
        ncols = len(b[0]) if b else 0
        dense = [
            [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(ncols)]
            for i in range(len(a))
        ]
        assert linalg.mat_mul(sparse(a), b) == sparse(dense)
        assert linalg.is_zero_matrix(linalg.mat_mul(a, b)) == all(
            v == 0 for row in dense for v in row
        )

    @settings(max_examples=100, deadline=None)
    @given(square())
    def test_inputs_left_unchanged(self, a):
        # the kernel shares Fraction values with its input but copies every
        # row, so the caller's dense and sparse rows never change: stored
        # differentials are ranked and read again afterwards
        for given_a in (a, sparse(a)):
            before = copy.deepcopy(given_a)
            linalg.rank(given_a)
            linalg.rank(given_a, list(range(len(a)))[::-1])
            if linalg.det(given_a):
                linalg.inverse(given_a)
            linalg.mat_mul(given_a, given_a)
            assert given_a == before

    @settings(max_examples=150, deadline=None)
    @given(matrices(min_rows=1))
    def test_pivot_rows_in_lowest_terms(self, a):
        # each pivot row is nonzero int numerators over a positive
        # denominator with no common factor, nonzero in its pivot column,
        # also after the in-place updates of the reduced mode
        for reduced in (False, True):
            for c, (nums, den) in linalg._eliminate(a, reduced=reduced).items():
                assert nums[c] and all(type(v) is int and v for v in nums.values())
                assert type(den) is int and den > 0 and math.gcd(den, *nums.values()) == 1


def gauss(a):
    """(rank, determinant) by dense Gaussian elimination over Fractions, the
    textbook route; the determinant is None unless the matrix is square."""
    m = [[Fraction(v) for v in row] for row in a]
    nrows, ncols = len(m), len(m[0]) if m else 0
    r, det = 0, Fraction(1)
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        det *= m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    if nrows != ncols:
        return r, None
    return r, det if r == nrows else Fraction(0)


def gauss_jordan_inverse(a):
    """The inverse of a nonsingular matrix by dense Gauss-Jordan elimination
    over Fractions."""
    n = len(a)
    m = [
        [Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def in_normal_form(v):
    """A stored value: nonzero, an int exactly when it is integral."""
    return v != 0 and type(v) is (int if Fraction(v).denominator == 1 else Fraction)


class TestIntegerKernelOracle:
    """The integer kernel against dense Fraction elimination, on rows that
    mix ints, Fractions with denominator 1 and proper Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(matrices(entry=MIXED))
    def test_rank_and_det_match_gauss(self, a):
        r, d = gauss(a)
        for given_a in forms(a):
            assert linalg.rank(given_a) == r
            if d is not None:
                det = linalg.det(given_a)
                assert det == d and type(det) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(square(5, entry=MIXED))
    def test_inverse_matches_gauss_jordan(self, a):
        if gauss(a)[1] == 0:
            for given_a in forms(a):
                with pytest.raises(ValueError):
                    linalg.inverse(given_a)
            return
        expected = gauss_jordan_inverse(a)
        for given_a in forms(a):
            inv = linalg.inverse(given_a)
            assert inv == expected
            assert all(type(x) is Fraction for row in inv for x in row)

    @settings(max_examples=150, deadline=None)
    @given(matrices(min_rows=1, entry=MIXED), st.data())
    def test_rank_unchanged_by_scaling_a_row(self, a, data):
        i = data.draw(st.integers(0, len(a) - 1))
        factor = data.draw(MIXED.filter(bool))
        scaled = [row if j != i else [factor * v for v in row] for j, row in enumerate(a)]
        r = linalg.rank(a)
        assert linalg.rank(scaled) == r
        assert linalg.rank(sparse(scaled), list(range(len(a[0])))[::-1]) == r

    @settings(max_examples=150, deadline=None)
    @given(matrices(min_rows=1, min_cols=1, entry=MIXED), st.data())
    def test_mat_mul_matches_dense_product_in_normal_form(self, a, data):
        inner = len(a[0])
        b = data.draw(matrices(inner, inner, 0, 4, entry=MIXED))
        ncols = len(b[0]) if b else 0
        dense = [
            [sum(Fraction(a[i][t]) * b[t][j] for t in range(inner)) for j in range(ncols)]
            for i in range(len(a))
        ]
        for given_a, given_b in zip(forms(a), forms(b)):
            product = linalg.mat_mul(given_a, given_b)
            assert product == sparse(dense)
            assert all(in_normal_form(v) for row in product for v in row.values())


def normal(v):
    """A rational in the normal form of ``linalg.exact``."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def dense_product(a, b, ncols):
    return [[sum(Fraction(x) * b[t][j] for t, x in enumerate(row)) for j in range(ncols)] for row in a]


def left_kernel(b, ncols):
    """A basis of the vectors y with y b = 0, by dense Gauss-Jordan
    elimination of the transpose of b over Fractions."""
    inner = len(b)
    m = [[Fraction(b[t][j]) for t in range(inner)] for j in range(ncols)]
    pivots = []
    for c in range(inner):
        r = len(pivots)
        p = next((i for i in range(r, ncols) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(ncols):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(inner) if c not in pivots):
        y = [Fraction(0)] * inner
        y[free] = Fraction(1)
        for i, c in enumerate(pivots):
            y[c] = -m[i][free]
        basis.append(y)
    return basis


def has_empty_rows(a, b) -> bool:
    """Whether ``mat_mul(a, b)`` has only empty rows: the product path that
    ``complexes.verify_d_squared`` runs, on factors as given."""
    return not any(linalg.mat_mul(a, b))


class TestProductIsZero:
    """A zero product through ``mat_mul`` against the dense product, on
    products made zero on purpose (the rows of a from the left kernel of b)
    and on any."""

    @settings(max_examples=150, deadline=None)
    @given(matrices(1, 5, 0, 4, entry=MIXED), st.data())
    def test_rows_from_the_left_kernel(self, b, data):
        ncols = len(b[0])
        kernel = left_kernel(b, ncols)
        coefficients = data.draw(st.lists(
            st.lists(MIXED, min_size=len(kernel), max_size=len(kernel)), min_size=1, max_size=4,
        ))
        a = [
            [normal(sum(c * y[t] for c, y in zip(cs, kernel))) for t in range(len(b))]
            for cs in coefficients
        ]
        assert not any(any(row) for row in dense_product(a, b, ncols))
        for given_a, given_b in itertools.product(forms(a), forms(b)):
            assert has_empty_rows(given_a, given_b)
        # one entry of a moved off the kernel: compare with the dense product
        i, t = data.draw(st.integers(0, len(a) - 1)), data.draw(st.integers(0, len(b) - 1))
        a[i][t] = normal(a[i][t] + data.draw(MIXED.filter(bool)))
        zero = not any(any(row) for row in dense_product(a, b, ncols))
        for given_a, given_b in itertools.product(forms(a), forms(b)):
            assert has_empty_rows(given_a, given_b) == zero

    @settings(max_examples=150, deadline=None)
    @given(matrices(min_rows=1, min_cols=1, entry=MIXED), st.data())
    def test_matches_the_dense_product(self, a, data):
        inner = len(a[0])
        b = data.draw(matrices(inner, inner, 0, 4, entry=MIXED))
        ncols = len(b[0]) if b else 0
        zero = not any(any(row) for row in dense_product(a, b, ncols))
        for given_a, given_b in itertools.product(forms(a), forms(b)):
            assert has_empty_rows(given_a, given_b) == zero

    def test_large_integers_and_denominators(self):
        big = 10**20
        assert has_empty_rows([[1, -1]], [[big, 1], [big, 1]])
        assert not has_empty_rows([[1, -1]], [[big + 1, 1], [big, 1]])
        third = Fraction(1, 3)
        assert has_empty_rows([{0: third, 1: 1}], [{0: 3}, {0: -1}])
        assert not has_empty_rows([{0: third, 1: 1}], [{0: 3}, {0: Fraction(-1, big)}])
        assert has_empty_rows([], [[1]]) and has_empty_rows([[]], [])


# nonzero ints, and Fractions with and without a denominator
NONZERO = {
    "ints": st.integers(-6, 6).filter(bool),
    "fractions": st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
}


@st.composite
def distinct_lead_rows(draw, entry, max_rows=6, max_cols=9):
    """Sparse rows with no zero value whose least columns are pairwise
    distinct, in any order, with empty rows among them."""
    ncols = draw(st.integers(1, max_cols))
    leads = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=max_rows, unique=True))
    rows = []
    for lead in leads:
        above = draw(st.sets(st.integers(lead + 1, ncols)).map(sorted))
        rows.append({c: draw(entry) for c in [lead, *above]})
        if draw(st.booleans()):
            rows.append({})
    return rows


class Eliminations:
    """Counts the calls of ``linalg._eliminate`` while active; with
    ``forbid`` a call raises instead."""

    def __init__(self, forbid=False):
        self.calls, self.forbid, self.real = 0, forbid, linalg._eliminate

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.forbid:
            raise AssertionError("eliminated")
        return self.real(*args, **kwargs)

    def __enter__(self):
        linalg._eliminate = self
        return self

    def __exit__(self, *exc):
        linalg._eliminate = self.real


class TestLeadShortcut:
    """``pivot_columns`` without a column order returns the rows' leads when
    they are distinct, and eliminates otherwise; either way its list is the
    one ``_eliminate`` finds."""

    @pytest.mark.parametrize("kind", NONZERO)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_distinct_leads_take_no_elimination(self, kind, data):
        rows = data.draw(distinct_lead_rows(NONZERO[kind]))
        expected = list(linalg._eliminate(rows))
        leads = [min(row) for row in rows if row]
        assert expected == leads
        with Eliminations(forbid=True):
            assert linalg.pivot_columns(rows) == expected
            assert linalg.pivot_columns(iter(rows)) == expected
            assert linalg.rank(rows) == len(leads)

    @pytest.mark.parametrize("kind", NONZERO)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lead_collision_eliminates(self, kind, data):
        rows = data.draw(distinct_lead_rows(NONZERO[kind]))
        twin = data.draw(st.sampled_from([row for row in rows if row]))
        # a row with twin's lead: a multiple of twin plus a row above its lead
        factor, extra = data.draw(NONZERO[kind]), data.draw(NONZERO[kind])
        collision = {c: factor * v for c, v in twin.items()}
        collision[max(twin) + 1] = extra
        rows.insert(data.draw(st.integers(0, len(rows))), collision)
        expected = list(linalg._eliminate(rows))
        with Eliminations() as seen:
            assert linalg.pivot_columns(rows) == expected
        assert seen.calls == 1

    @pytest.mark.parametrize("kind", NONZERO)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stored_zero_or_dense_rows_eliminate(self, kind, data):
        rows = data.draw(distinct_lead_rows(NONZERO[kind]))
        ncols = 1 + max(max(row) for row in rows if row)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        # a stored zero at a column of a row that holds no entry there, left
        # of its lead or right of it
        i = data.draw(st.integers(0, len(rows) - 1))
        zeroed = [dict(row) for row in rows]
        free = [c for c in range(ncols + 1) if c not in rows[i]]
        zeroed[i][data.draw(st.sampled_from(free))] = 0 * data.draw(NONZERO[kind])
        expected = list(linalg._eliminate(rows))
        for given_rows in (dense, zeroed):
            assert list(linalg._eliminate(given_rows)) == expected
            with Eliminations() as seen:
                assert linalg.pivot_columns(given_rows) == expected
            assert seen.calls == 1

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([{0: 0, 3: 5}, {1: 2}], [3, 1]),
            ([{0: Fraction(0), 3: Fraction(1, 2)}], [3]),
            ([{2: 0}, {}, {1: 1}], [1]),
            ([[0, 0, 4], [], [0, 1, 1]], [2, 1]),
            ([[0, 0], [0, 0]], []),
            ([{1: 1, 2: 1}, {}, {1: 1, 2: 2}], [1, 2]),
            ([{1: 1, 2: 1}, {1: 2, 2: 2}, {}], [1]),
        ],
        ids=["stored-zero", "stored-fraction-zero", "zero-row", "dense", "dense-zero",
             "collision", "collision-dependent"],
    )
    def test_fallbacks(self, rows, expected):
        assert list(linalg._eliminate(rows)) == expected
        with Eliminations() as seen:
            assert linalg.pivot_columns(rows) == expected
            assert linalg.rank(rows) == len(expected)
        assert seen.calls == 2

    def test_empty_rows_are_dropped(self):
        with Eliminations(forbid=True):
            assert linalg.pivot_columns([]) == []
            assert linalg.pivot_columns([{}, {}, []]) == []
            assert linalg.pivot_columns([{}, {4: 1, 5: 2}, [], {0: -1}]) == [4, 0]

    def test_other_entry_points_still_eliminate(self):
        # rows with distinct leads: only pivot_columns and rank in the
        # default order take the shortcut
        rows = [{2: 1, 3: 1}, {0: 2, 3: 1}, {1: 3}, {3: 1}]
        dense = [[row.get(c, 0) for c in range(4)] for row in rows]
        with Eliminations() as seen:
            assert linalg.rank(rows) == 4 and seen.calls == 0
            assert linalg.rank(rows, [3, 2, 1, 0]) == 4 and seen.calls == 1
            assert linalg.pivot_columns(rows, [3, 2, 1, 0]) == [3, 2, 1, 0] and seen.calls == 2
            assert linalg.det(rows) == linalg.det(dense) == 6 and seen.calls == 4
            assert linalg.inverse(rows) == linalg.inverse(dense) and seen.calls == 6
            assert linalg.solve_columns(dense, [1, 1, 1, 1]) is not None and seen.calls == 7
