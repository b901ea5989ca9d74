"""Acceptance suite: one test per exit criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); a
FAIL line is always followed by the pytest assertion failure carrying the
details.  Random fixtures are drawn from fixed seeds, so the whole suite is
deterministic.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from logsymplectic.cli import main as cli_main
from logsymplectic.complexes import build_qi, conjugation_report, verify_exactness
from logsymplectic.exterior import (
    change_frame,
    coordinate_frame,
    exterior_derivative,
    log_one_form,
    log_vector,
    wedge,
)
from logsymplectic.genpos import (
    identity_rows,
    is_standard_t_general,
    poisson_t_general,
    verify_certificate,
)
from logsymplectic.poisson import (
    log_matrix,
    pfaffian,
    phi_forms,
    pi_flat,
    pi_sharp,
    schouten,
    top_power,
)
from logsymplectic.ring import LaurentPoly, VarSpec

from conftest import toric_structure

SEED = 1789


def _report(criterion: int, ok: bool, message: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {criterion}: {message}"


def random_rational_skew(rng: random.Random, size: int):
    grid = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            if v == 0:
                v = Fraction(1)
            grid[i][j] = v
            grid[j][i] = -v
    return grid


@pytest.fixture(scope="module")
def skew_fixtures():
    rng = random.Random(SEED)
    grids = [random_rational_skew(rng, 4) for _ in range(25)]
    grids += [random_rational_skew(rng, 6) for _ in range(5)]
    return grids


@pytest.fixture(scope="module")
def general_fixtures():
    """Five nonsingular 2-general invariant structures in dimension 4."""
    rng = random.Random(SEED + 1)
    out = []
    while len(out) < 5:
        grid = random_rational_skew(rng, 4)
        if pfaffian(grid) == 0:
            continue
        p = toric_structure(grid)
        if is_standard_t_general(log_matrix(p), 2).verdict:
            out.append((grid, p))
    return out


def test_c01_top_power_is_pfaffian_times_coordinates(skew_fixtures):
    start = time.monotonic()
    ok = True
    for grid in skew_fixtures:
        size = len(grid)
        n = size // 2
        p = toric_structure(grid)
        f, _top = top_power(p)
        expected = LaurentPoly.monomial(
            p.var_spec, (1,) * size, math.factorial(n) * pfaffian(grid)
        )
        ok = ok and f == expected
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(1, ok, f"top power equals n! Pf(A) x1..x2n on 30 fixtures in {elapsed:.2f}s (< 10s)")


def test_c02_jacobi_identity(skew_fixtures):
    ok = all(
        schouten(toric_structure(g).bivector, toric_structure(g).bivector).is_zero()
        for g in skew_fixtures
    )
    _report(2, ok, "Schouten self-bracket vanishes exactly on all 30 fixtures")


def test_c03_musical_maps_inverse_on_bases(skew_fixtures):
    checked = 0
    ok = True
    for grid in skew_fixtures:
        if pfaffian(grid) == 0:
            continue
        p = toric_structure(grid)
        vs = p.var_spec
        coord = coordinate_frame(vs)
        for i in range(1, vs.total_vars + 1):
            eta = change_frame(log_one_form(vs, i), coord)
            ok = ok and pi_flat(p, pi_sharp(p, eta)) == eta
            v = change_frame(log_vector(vs, i), coord)
            ok = ok and pi_sharp(p, pi_flat(p, v)) == v
        checked += 1
    ok = ok and checked > 0
    _report(
        3, ok, f"flat∘sharp = id on the log coframe and sharp∘flat = id on the log frame ({checked} fixtures)"
    )


def test_c04_conjugation_matrices_agree(general_fixtures):
    ok = True
    for _grid, p in general_fixtures:
        rep = conjugation_report(p, weight_cap=4, max_degree=3)
        ok = ok and rep["verdict"] and all(s["equal"] for s in rep["slices"])
    _report(
        4,
        ok,
        "derivative and bracket matrices agree entrywise in degrees 0-3, weights <= 4, on 5 fixtures",
    )


def test_c04_conjugation_matrices_agree_2n6():
    rng = random.Random(SEED + 2)
    grid = random_rational_skew(rng, 6)
    while pfaffian(grid) == 0:
        grid = random_rational_skew(rng, 6)
    rep = conjugation_report(toric_structure(grid), weight_cap=1, max_degree=5)
    ok = rep["verdict"] and len(rep["slices"]) == 27 and all(s["equal"] for s in rep["slices"])
    _report(
        4,
        ok,
        "derivative and bracket matrices agree entrywise in degrees 0-5, weights <= 1, at 2n = 6",
    )


def test_c05_closed_form_differentials(general_fixtures):
    ok = True
    for _grid, p in general_fixtures:
        vs = p.var_spec
        coord = coordinate_frame(vs)
        for i, phi in enumerate(phi_forms(p), start=1):
            ok = ok and exterior_derivative(phi.scale(LaurentPoly.variable(vs, i))).is_zero()
            eta = change_frame(log_one_form(vs, i), coord)
            ok = ok and exterior_derivative(phi) == wedge(phi, eta)
    _report(5, ok, "x_i phi_i is closed and d(phi_i) = phi_i ^ dx_i/x_i for all i on 5 fixtures")


def test_c06_graded_pieces_exact_in_low_degrees(general_fixtures):
    start = time.monotonic()
    ok = True
    import itertools

    # |I| = 1, 2 are the only sizes with a degree <= 2
    for _grid, p in general_fixtures:
        for size in (1, 2):
            for iset in itertools.combinations(range(1, 5), size):
                piece = build_qi(p, iset, weight_cap=4)
                rep = verify_exactness(piece, range(size, 3))
                ok = ok and bool(rep["table"]) and rep["verdict"] == "exact"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"all graded pieces with 1 <= |I| <= 2 exact in degrees <= 2, weights <= 4 ({elapsed:.1f}s < 60s)",
    )


def test_c07_single_group_has_full_cohomology(general_fixtures):
    ok = True
    for _grid, p in general_fixtures:
        cx = build_qi(p, (1, 2, 3, 4), weight_cap=4)
        dims = cx.dims(4)
        rep = verify_exactness(cx, range(4, 5))
        coh = {row["weight"]: row["dim_cohomology"] for row in rep["table"]}
        ok = ok and dims == {-4: 1} and coh == dims and rep["verdict"] == "not_exact"
        for degree in range(5, 9):
            ok = ok and cx.weights_at(degree) == []
    _report(
        7, ok, "the full-index piece is one group whose cohomology equals its own dimension per weight"
    )


def test_c08_general_position_suite(general_fixtures):
    rng = random.Random(SEED + 2)
    ok = True
    # (a) skew matrices are never 2n-general, with verified certificates
    for _ in range(6):
        grid = random_rational_skew(rng, 4)
        rows = [[LaurentPoly.const(VarSpec(4, 4), x) for x in row] for row in grid]
        cert = is_standard_t_general(rows, 4)
        ok = ok and not cert.verdict
        ok = ok and verify_certificate(rows, identity_rows(VarSpec(4, 4), 4), cert)
    # (b) a product of two surface factors is not 3-general
    block = toric_structure(
        [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    )
    cert_b = poisson_t_general(block, 3)
    a_rows = log_matrix(block)
    ok = ok and not cert_b.verdict
    ok = ok and verify_certificate(a_rows, identity_rows(block.var_spec, 4), cert_b)
    # (c) the explicit integer matrix passes t = 2
    explicit = toric_structure(
        [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    )
    cert_c = poisson_t_general(explicit, 2)
    ok = ok and cert_c.verdict
    ok = ok and verify_certificate(
        log_matrix(explicit), identity_rows(explicit.var_spec, 4), cert_c
    )
    _report(
        8,
        ok,
        "2n-general always fails with verified witness; 2+2 blocks fail t=3; the explicit matrix passes t=2",
    )


def test_c09_dimension_bookkeeping():
    from logsymplectic.toric import betti_torus, deformation_tangent_dim

    betti_row = [betti_torus(4, i) for i in range(5)]
    ok = betti_row == [1, 4, 6, 4, 1]
    ok = ok and deformation_tangent_dim(2) == 6
    ok = ok and deformation_tangent_dim(3) == 15
    ok = ok and all(
        deformation_tangent_dim(n) == betti_torus(2 * n, 2) for n in (2, 3)
    )
    _report(9, ok, "torus Betti row (1,4,6,4,1); tangent dimensions 6 and 15 equal the degree-2 Betti numbers")


def test_c10_deterministic_reports(tmp_path):
    structure_file = tmp_path / "structure.json"
    structure = {
        "dimension": 4,
        "divisor_vars": 4,
        "terms": [
            {"i": 1, "j": 2, "coeff": "x1*x2"},
            {"i": 1, "j": 3, "coeff": "2*x1*x3"},
            {"i": 1, "j": 4, "coeff": "3*x1*x4"},
            {"i": 2, "j": 3, "coeff": "4*x2*x3"},
            {"i": 2, "j": 4, "coeff": "5*x2*x4"},
            {"i": 3, "j": 4, "coeff": "6*x3*x4"},
        ],
    }
    structure_file.write_text(json.dumps(structure))
    ok = True
    pairs = []
    for run in (1, 2):
        outs = {}
        for name, argv in {
            "toric": ["toric-report", "--random", "--n", "2", "--seed", "7"],
            "genpos": ["genpos", "--structure", str(structure_file), "--t", "2"],
            "exact": [
                "verify-exactness",
                "--structure",
                str(structure_file),
                "--I",
                "1,2",
                "--max-degree",
                "3",
                "--weight-cap",
                "2",
            ],
        }.items():
            out = tmp_path / f"{name}_{run}.json"
            cli_main(argv + ["--out", str(out)])
            outs[name] = out.read_bytes()
        pairs.append(outs)
    for name in pairs[0]:
        ok = ok and pairs[0][name] == pairs[1][name]
    # a fresh interpreter produces the same bytes as well
    sub_out = tmp_path / "toric_sub.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "logsymplectic.cli",
            "toric-report",
            "--random",
            "--n",
            "2",
            "--seed",
            "7",
            "--out",
            str(sub_out),
        ],
        capture_output=True,
        text=True,
    )
    ok = ok and proc.returncode in (0, 1) and sub_out.read_bytes() == pairs[0]["toric"]
    _report(10, ok, "report files are byte-identical across repeated and fresh-process runs with one seed")
