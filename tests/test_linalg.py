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


def matrices(min_rows=0, max_rows=5, min_cols=0, max_cols=5):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(min_cols, max_cols).flatmap(
            lambda m: st.lists(
                st.lists(ENTRY, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


def square(max_size=4):
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def sparse(a):
    return [{c: v for c, v in enumerate(row) if v} for row in a]


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
    @given(matrices(min_rows=1), st.data())
    def test_start_continues_an_elimination(self, a, data):
        split = data.draw(st.integers(0, len(a)))
        prefix = linalg._eliminate(a[:split])
        frozen = {c: dict(row) for c, row in prefix.items()}
        continued = linalg._eliminate(a[split:], start=prefix)
        assert continued == linalg._eliminate(a)
        assert list(continued) == list(linalg._eliminate(a))
        # without reduction the rows of start are shared and left unchanged
        assert prefix == frozen
