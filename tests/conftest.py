import random
from fractions import Fraction

import pytest

# The package is imported inside the helpers and fixtures, not here: a
# package that fails to import then fails the modules that use it, and
# modules that import nothing from it (the census) still report.

EXPLICIT_GRID = [
    [0, 1, 2, 3],
    [-1, 0, 4, 5],
    [-2, -4, 0, 6],
    [-3, -5, -6, 0],
]


def toric_structure(grid):
    """Invariant bivector of a constant skew grid, all variables divisorial."""
    from logsymplectic.exterior import MultiVector, coordinate_frame
    from logsymplectic.poisson import PoissonStructure
    from logsymplectic.ring import LaurentPoly, VarSpec

    size = len(grid)
    vs = VarSpec(size, size)
    terms = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            a = Fraction(grid[i - 1][j - 1])
            if a == 0:
                continue
            exps = [0] * size
            exps[i - 1] = 1
            exps[j - 1] = 1
            terms[(i, j)] = LaurentPoly.monomial(vs, tuple(exps), a)
    return PoissonStructure(vs, MultiVector(coordinate_frame(vs), 2, terms))


def poly_det(rows, vs):
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the first row (O(n!) products).  The oracle of the genpos minors
    and of the Pfaffian inverse of the log matrix."""
    from logsymplectic.ring import LaurentPoly

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


def random_skew_grid(rng: random.Random, size: int, lo=-9, hi=9):
    grid = [[Fraction(0)] * size for _ in range(size)]
    values = [v for v in range(lo, hi + 1) if v != 0]
    for i in range(size):
        for j in range(i + 1, size):
            v = Fraction(rng.choice(values))
            grid[i][j] = v
            grid[j][i] = -v
    return grid


@pytest.fixture
def vs4():
    from logsymplectic.ring import VarSpec

    return VarSpec(4, 4)


@pytest.fixture
def vs4_mixed():
    from logsymplectic.ring import VarSpec

    return VarSpec(4, 2)


@pytest.fixture
def explicit_toric():
    return toric_structure(EXPLICIT_GRID)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
