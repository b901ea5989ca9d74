"""General-position tests for matrices over the local ring, with certificates.

A pair of k x k matrices M, N is in relative t-general position when every
t columns of the block matrix [M | N] admit t rows whose t x t minor is a
unit of the local ring at the origin (nonzero constant term).  Evaluation
at the origin is a ring homomorphism, so a minor of a pole-free matrix is a
unit iff the same minor of the constant-term matrix [M(0) | N(0)] is
nonzero: the test is one exact elimination of each column set of that
rational matrix, which has rank t iff some t x t minor is nonzero.

Columns of [M | N] are numbered 1..2k, the first k coming from M.
Verdicts come with re-checkable certificates: a witness row set per passing
column set, and the list of failing column sets (lexicographic order)
otherwise.  A witness is the set of pivot rows of the elimination, that is
the greedy independent rows, which is the lexicographically first row set
with a nonzero minor.  ``verify_certificate`` recomputes the claimed minors
as polynomials, independently of the elimination.
"""

from __future__ import annotations

import itertools
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

    @property
    def first_failure(self) -> tuple[int, ...] | None:
        return self.failures[0] if self.failures else None

    def serialize(self) -> dict:
        return {
            "verdict": self.verdict,
            "t": self.t,
            "column_count": self.column_count,
            "witnesses": [
                {"columns": list(cols), "rows": list(rows)}
                for cols, rows in sorted(self.witnesses.items())
            ],
            "failures": [list(cols) for cols in self.failures],
        }


def _as_rows(mat) -> list[list[LaurentPoly]]:
    if isinstance(mat, SkewMatrix):
        return [list(row) for row in mat.rows]
    return [list(row) for row in mat]


def _poly_minor(rows: list[list[LaurentPoly]], row_idx, col_idx, vs: VarSpec) -> LaurentPoly:
    from .exterior import poly_det

    sub = [[rows[r][c] for c in col_idx] for r in row_idx]
    return poly_det(sub, vs)


def identity_rows(vs: VarSpec, k: int) -> list[list[LaurentPoly]]:
    """The k x k identity matrix as rows of constant polynomials."""
    one = LaurentPoly.const(vs, 1)
    zero = LaurentPoly.zero(vs)
    return [[one if i == j else zero for j in range(k)] for i in range(k)]


def is_relative_t_general(m, n, t: int) -> GenPosCertificate:
    """Relative t-general position of (M, N); see the module docstring."""
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
    block = [m_rows[i] + n_rows[i] for i in range(k)]
    # column j of [M(0) | N(0)] as a sparse row {matrix row r: constant term}
    columns = [
        {r: row[j].constant_term() for r, row in enumerate(block)} for j in range(2 * k)
    ]
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = {}
    failures: list[tuple[int, ...]] = []
    for cols0 in itertools.combinations(range(2 * k), t):
        cols = tuple(c + 1 for c in cols0)
        pivots = linalg._eliminate(columns[c] for c in cols0)
        if len(pivots) == t:
            witnesses[cols] = tuple(sorted(r + 1 for r in pivots))
        else:
            failures.append(cols)
    return GenPosCertificate(
        verdict=not failures,
        t=t,
        column_count=2 * k,
        witnesses=witnesses,
        failures=tuple(failures),
    )


def is_standard_t_general(m, t: int) -> GenPosCertificate:
    """t-general position of M: relative t-general position of (M, identity)."""
    m_rows = _as_rows(m)
    vs = m_rows[0][0].var_spec
    return is_relative_t_general(m_rows, identity_rows(vs, len(m_rows)), t)


def poisson_t_general(p: PoissonStructure, t: int) -> GenPosCertificate:
    """t-general position of a Poisson structure: the test applied to its
    log-basis matrix."""
    return is_standard_t_general(log_matrix(p), t)


def verify_certificate(m, n, cert: GenPosCertificate) -> bool:
    """Recompute every claim in a certificate: each witness must be t rows in
    increasing order whose minor is a unit, failing column sets must admit no
    unit minor at all, and together they must cover every column set."""
    m_rows, n_rows = _as_rows(m), _as_rows(n)
    k = len(m_rows)
    vs = m_rows[0][0].var_spec
    block = [m_rows[i] + n_rows[i] for i in range(k)]
    if cert.column_count != 2 * k or not 1 <= cert.t <= k:
        return False
    expected = {
        tuple(c + 1 for c in cols)
        for cols in itertools.combinations(range(2 * k), cert.t)
    }
    row_sets = set(itertools.combinations(range(1, k + 1), cert.t))
    covered = set(cert.witnesses) | set(cert.failures)
    if (
        covered != expected
        or cert.verdict != (not cert.failures)
        or any(tuple(rows) not in row_sets for rows in cert.witnesses.values())
    ):
        return False
    for cols, rows in cert.witnesses.items():
        minor = _poly_minor(
            block, [r - 1 for r in rows], [c - 1 for c in cols], vs
        )
        if minor.constant_term() == 0:
            return False
    for cols in cert.failures:
        for row_idx in itertools.combinations(range(k), cert.t):
            minor = _poly_minor(block, row_idx, [c - 1 for c in cols], vs)
            if minor.constant_term() != 0:
                return False
    return True
