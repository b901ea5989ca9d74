"""Workloads of the benchmark: seeded inputs, the jobs of one cycle, and the
checks that decide whether a job's result is correct.

A workload's cycle is its job mix run once on each of a few seeded inputs;
the jobs on one input form a mix.  Each job is one call a user makes to get
a verdict: a library function or one CLI command.  Only the job's call is
timed; reading reports back and checking them happens between jobs.

Every job has seed-independent checks (facts that hold for any input the
generator can draw) and a comparison of its mathematical results (verdicts,
cohomology tables, ranks, witness sets) with the values stored in
``expected.json``: on the default seed, or on every seed for jobs whose
input does not depend on it.  Report bytes are never
compared, so adding a field to a report does not count as a failure.

The ``smoke`` sizes run the same code paths on inputs small enough that a
whole workload finishes in seconds; the benchmark uses them as warm-up and
the self-test runs them end to end.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from logsymplectic import (
    GenPosCertificate,
    LaurentPoly,
    VarSpec,
    betti_torus,
    build_bracket_complex,
    build_log_complex,
    cohomology_dims,
    conjugation_report,
    filtration_report,
    is_standard_t_general,
    log_matrix,
    make_toric,
    pfaffian,
    verify_certificate,
    verify_d_squared,
)
from logsymplectic import cli

# Inputs drawn per workload, one mix each.  Every run covers whole cycles,
# so it averages over the same structures.
INPUTS_PER_CYCLE = {"construct": 2, "cohomology": 2, "genpos": 12}


@dataclass
class Job:
    """One timed call.  ``run`` is timed; ``checks`` and ``summary`` are not.

    ``checks(raw)`` returns a list of problems (empty when the result is
    correct for any seed).  ``summary(raw)`` returns the JSON-able
    mathematical result compared with ``expected.json``.  ``seeded`` is
    false for jobs whose input does not depend on the seed (the committed
    ``fixtures/`` files, the log complexes); their stored results hold on
    every seed.
    """

    kind: str
    key: str
    run: Callable[[], Any]
    checks: Callable[[Any], list[str]]
    summary: Callable[[Any], Any]
    seeded: bool = True
    report: Path | None = None


# -- seeded inputs -----------------------------------------------------------


def _skew_grid(rng: random.Random, size: int) -> list[list[Fraction]]:
    """Constant skew matrix with nonzero integer entries in -9..9 above the
    diagonal.  Drawn here rather than by the library so that the inputs stay
    fixed when library code changes."""
    grid = [[Fraction(0)] * size for _ in range(size)]
    values = [v for v in range(-9, 10) if v != 0]
    for i in range(size):
        for j in range(i + 1, size):
            v = Fraction(rng.choice(values))
            grid[i][j] = v
            grid[j][i] = -v
    return grid


def general_toric(rng: random.Random, n: int):
    """Rejection-sample a nonsingular 2-general invariant structure in
    dimension 2n."""
    while True:
        grid = _skew_grid(rng, 2 * n)
        if pfaffian(grid) == 0:
            continue
        t = make_toric(grid)
        if is_standard_t_general(log_matrix(t.structure), 2).verdict:
            return t


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# -- helpers shared by the checks --------------------------------------------


def plus_slice_dim(nv: int, k: int, w: int) -> int:
    """Size of the slice x^E d_I, |I| = k, |E| = w + k, in nv variables."""
    total = w + k
    if total < 0:
        return 0
    return math.comb(nv, k) * math.comb(total + nv - 1, nv - 1)


def nonzeros(mat) -> int:
    """Nonzero entries of a matrix stored as nested lists or dicts.  Dicts are
    accepted so that the count survives a move of the differentials to
    sparse storage, the change this benchmark is meant to measure."""
    if isinstance(mat, dict):
        mat = list(mat.values())
    if not mat:
        return 0
    if isinstance(mat[0], (list, tuple, dict)):
        return sum(nonzeros(row) for row in mat)
    return len(list(filter(None, mat)))


def cohomology_table(dims_by_degree: dict[int, dict[int, int]]) -> list[list[int]]:
    return [
        [k, w, h]
        for k, dims in sorted(dims_by_degree.items())
        for w, h in sorted(dims.items())
    ]


def _exit_for(ok: bool) -> int:
    return cli.EXIT_TRUE if ok else cli.EXIT_FALSE


def _cli_job(kind: str, key: str, argv: list[str], out: Path, checks, summary, seeded=True) -> Job:
    """A CLI command with its canonical report written to ``out``."""
    full = argv + ["--out", str(out)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(full)

    def load(code):
        return code, json.loads(out.read_text())

    return Job(
        kind,
        key,
        run,
        lambda code: checks(*load(code)),
        lambda code: summary(*load(code)),
        seeded,
        out,
    )


def _write_structure(path: Path, structure) -> Path:
    path.write_text(json.dumps(structure.to_json(), sort_keys=True))
    return path


# -- construct ---------------------------------------------------------------


def _construct(seed: int, smoke: bool, work: Path, fixtures: Path) -> list[list[Job]]:
    cap = 0 if smoke else 4
    conj_degree = 1 if smoke else 3
    bracket_n = 2 if smoke else 3
    rng = _rng("construct", seed)
    mixes = []
    for i in range(INPUTS_PER_CYCLE["construct"]):
        t4 = general_toric(rng, 2)
        t6 = general_toric(rng, bracket_n)
        sfile = _write_structure(work / f"construct-{i}.json", t4.structure)
        mix = [_conjugation_job(i, t4.structure, cap, conj_degree)]
        for iset in ("1", "1,2"):
            argv = ["verify-exactness", "--structure", str(sfile), "--I", iset,
                    "--weight-cap", str(cap)]
            mix.append(_cli_job(
                "verify_exactness_I" + iset.replace(",", ""),
                f"verify_exactness_I{iset}/{i}",
                argv,
                work / f"construct-vex-{i}.json",
                _check_exactness_report,
                _summarize_exactness_report,
            ))
        mix.append(_bracket_build_job(i, t6.structure))
        mixes.append(mix)
    return mixes


def _conjugation_job(i: int, structure, cap: int, degree: int) -> Job:
    nv = structure.var_spec.total_vars

    def checks(rep):
        problems = []
        if rep["verdict"] is not True:
            problems.append("derivative and bracket matrices differ")
        for s in rep["slices"]:
            k, w = s["degree"], s["weight"]
            if not s["equal"]:
                problems.append(f"slice ({k}, {w}) not equal")
            if (s["dim_source"], s["dim_target"]) != (
                plus_slice_dim(nv, k, w), plus_slice_dim(nv, k + 1, w)
            ):
                problems.append(f"slice ({k}, {w}) has wrong dimensions")
        return problems

    def summary(rep):
        return {
            "verdict": rep["verdict"],
            "slices": [
                [s["degree"], s["weight"], s["dim_source"], s["dim_target"], s["equal"]]
                for s in rep["slices"]
            ],
        }

    return Job(
        "conjugation",
        f"conjugation/{i}",
        lambda: conjugation_report(structure, weight_cap=cap, max_degree=degree),
        checks,
        summary,
    )


def _check_exactness_report(code: int, rep: dict) -> list[str]:
    if code != _exit_for(rep["verdict"] == "exact"):
        return [f"exit code {code} does not match verdict {rep['verdict']}"]
    return []


def _summarize_exactness_report(code: int, rep: dict) -> dict:
    return {
        "exit": code,
        "verdict": rep["verdict"],
        "dphi_signs": rep["dphi_signs"],
        "table": [[r["degree"], r["weight"], r["dim_cohomology"]] for r in rep["table"]],
    }


def _bracket_build_job(i: int, structure) -> Job:
    nv = structure.var_spec.total_vars

    def checks(cx):
        problems = [
            f"slice {kw} has {len(labels)} labels"
            for kw, labels in sorted(cx.basis.items())
            if len(labels) != plus_slice_dim(nv, *kw)
        ]
        # d o d = 0 on degrees 0..2 only: the full check costs a third of
        # the build, and the cohomology workload runs it on a whole complex.
        low = replace(cx, diffs={kw: m for kw, m in cx.diffs.items() if kw[0] <= 1})
        if not verify_d_squared(low):
            problems.append("d o d != 0 in degrees 0..2")
        return problems

    def summary(cx):
        return {
            "dims": [[k, w, len(labels)] for (k, w), labels in sorted(cx.basis.items())],
            "nnz": [[k, w, nonzeros(m)] for (k, w), m in sorted(cx.diffs.items())],
        }

    return Job(
        "bracket_build",
        f"bracket_build/{i}",
        lambda: build_bracket_complex(structure, 0),
        checks,
        summary,
    )


# -- cohomology --------------------------------------------------------------


def _cohomology(seed: int, smoke: bool, work: Path, fixtures: Path) -> list[list[Job]]:
    cap = 0 if smoke else 4
    filt_cap = 0 if smoke else 3
    rng = _rng("cohomology", seed)
    mixes = []
    log_cases = [(4, 4, cap), (4, 2, cap), (6, 6, 0 if smoke else 2)]
    for i in range(INPUTS_PER_CYCLE["cohomology"]):
        t4 = general_toric(rng, 2)
        mixes.append([
            _bracket_cohomology_job(i, t4.structure, cap),
            *(_log_cohomology_job(nv, m, log_cap) for nv, m, log_cap in log_cases),
            _filtration_job(i, t4.structure, filt_cap),
        ])
    return mixes


def _all_degrees(cx) -> dict[int, dict[int, int]]:
    lo, hi = cx.degree_range
    return {k: cohomology_dims(cx, k) for k in range(lo, hi + 1)}


def _bracket_cohomology_job(i: int, structure, cap: int) -> Job:
    def run():
        cx = build_bracket_complex(structure, cap)
        return _all_degrees(cx), verify_d_squared(cx)

    def checks(raw):
        return [] if raw[1] else ["d o d != 0"]

    def summary(raw):
        return {"cohomology": cohomology_table(raw[0]), "d_squared_zero": raw[1]}

    return Job("bracket_cohomology", f"bracket_cohomology/{i}", run, checks, summary)


def _log_cohomology_job(nv: int, m: int, cap: int) -> Job:
    def run():
        return _all_degrees(build_log_complex(VarSpec(nv, m), cap))

    def checks(dims):
        if m != nv:
            return []
        row = [dims[k].get(0) for k in range(nv + 1)]
        want = [betti_torus(nv, k) for k in range(nv + 1)]
        return [] if row == want else [f"weight-0 row {row} != torus Betti numbers {want}"]

    def summary(dims):
        return {"cohomology": cohomology_table(dims)}

    kind = f"log_cohomology_{nv}_{m}"
    return Job(kind, kind, run, checks, summary, seeded=False)


def _filtration_job(i: int, structure, cap: int) -> Job:
    nv = structure.var_spec.total_vars

    def checks(rep):
        problems = []
        if not rep["direct"]:
            problems.append("graded quotient is not the direct sum of its pieces")
        if not rep["annihilator_ok"]:
            problems.append("annihilator check failed")
        return problems

    def summary(rep):
        return {
            "direct": rep["direct"],
            "annihilator_ok": rep["annihilator_ok"],
            "slices": [
                [s["degree"], s["weight"], s["per_piece_rank"], s["combined_rank"]]
                for s in rep["slices"]
            ],
        }

    return Job(
        "filtration",
        f"filtration/{i}",
        lambda: filtration_report(structure, 1, cap, nv),
        checks,
        summary,
    )


# -- genpos ------------------------------------------------------------------


def _genpos(seed: int, smoke: bool, work: Path, fixtures: Path) -> list[list[Job]]:
    random_n = 2 if smoke else 3
    structure_n = 2 if smoke else 4
    rng = _rng("genpos", seed)
    mixes = []
    for i in range(INPUTS_PER_CYCLE["genpos"]):
        toric_seed = rng.randrange(10**6)
        t = general_toric(rng, structure_n)
        sfile = _write_structure(work / f"genpos-{i}.json", t.structure)
        mix = [_cli_job(
            "toric_report_random",
            f"toric_report_random/{i}",
            ["toric-report", "--random", "--n", str(random_n), "--seed", str(toric_seed)],
            work / "genpos-toric.json",
            _check_toric_report,
            _summarize_toric_report,
        )]
        mix += [_genpos_job(i, t.structure, sfile, tt, work) for tt in (1, 2, 3)]
        mix += _fixture_jobs(fixtures, work, i)
        mixes.append(mix)
    return mixes


def _check_toric_report(code: int, rep: dict) -> list[str]:
    problems = []
    if not rep["certificates_verified"]:
        problems.append("certificates not verified")
    top = str(2 * rep["n"])
    if rep["general_position"][top] is not False:
        problems.append(f"t = {top} verdict is not false")
    ok = rep["log_symplectic_2_general"] and rep["certificates_verified"]
    if code != _exit_for(ok):
        problems.append(f"exit code {code} does not match the report")
    return problems


def _summarize_toric_report(code: int, rep: dict) -> dict:
    return {
        "exit": code,
        "pfaffian": rep["pfaffian"],
        "general_position": rep["general_position"],
        "certificates_verified": rep["certificates_verified"],
        "log_symplectic_2_general": rep["log_symplectic_2_general"],
    }


def _genpos_job(i: int, structure, sfile: Path, t: int, work: Path) -> Job:
    vs = structure.var_spec
    k = vs.total_vars

    def checks(code, rep):
        problems = []
        if code != _exit_for(rep["verdict"]):
            problems.append(f"exit code {code} does not match verdict")
        if t <= 2 and not rep["verdict"]:
            problems.append(f"t = {t} verdict false on a 2-general input")
        cert = GenPosCertificate(
            verdict=rep["verdict"],
            t=rep["t"],
            column_count=rep["column_count"],
            witnesses={tuple(w["columns"]): tuple(w["rows"]) for w in rep["witnesses"]},
            failures=tuple(tuple(f) for f in rep["failures"]),
        )
        one, zero = LaurentPoly.const(vs, 1), LaurentPoly.zero(vs)
        ident = [[one if a == b else zero for b in range(k)] for a in range(k)]
        if not verify_certificate(log_matrix(structure), ident, cert):
            problems.append("certificate does not verify")
        return problems

    def summary(code, rep):
        return {
            "exit": code,
            "verdict": rep["verdict"],
            "witnesses": [[w["columns"], w["rows"]] for w in rep["witnesses"]],
            "failures": rep["failures"],
        }

    return _cli_job(
        f"genpos_t{t}",
        f"genpos_t{t}/{i}",
        ["genpos", "--structure", str(sfile), "--t", str(t)],
        work / "genpos-cert.json",
        checks,
        summary,
    )


def _fixture_jobs(fixtures: Path, work: Path, i: int) -> list[Job]:
    """The CLI examples on fixtures/.  One pfaffian per mix, on the two matrix
    files in turn, keeps the mix at nine jobs: its median job then falls on
    one kind (genpos t=2) instead of between two."""
    out = work / "genpos-fixture.json"
    matrices = ("toric_matrix", "block_matrix")
    jobs = [
        _cli_job(
            "toric_report_fixture", f"toric_report:{name}",
            ["toric-report", "--matrix", str(fixtures / f"{name}.json")], out,
            _check_toric_report, _summarize_toric_report, seeded=False,
        )
        for name in matrices
    ]
    name = matrices[i % 2]
    jobs.append(_cli_job(
        "pfaffian", f"pfaffian:{name}",
        ["pfaffian", "--matrix", str(fixtures / f"{name}.json")], out,
        lambda code, rep: [] if code == _exit_for(rep["nonsingular"]) else ["exit code"],
        lambda code, rep: {"exit": code, "pfaffian": rep["pfaffian"]},
        seeded=False,
    ))
    for name in ("toric_structure", "broken_structure"):
        jobs.append(_cli_job(
            "jacobi", f"jacobi:{name}",
            ["jacobi", "--structure", str(fixtures / f"{name}.json")], out,
            lambda code, rep: [] if code == _exit_for(rep["jacobi_holds"]) else ["exit code"],
            lambda code, rep: {"exit": code, "jacobi_holds": rep["jacobi_holds"]},
            seeded=False,
        ))
    return jobs


_BUILDERS = {"construct": _construct, "cohomology": _cohomology, "genpos": _genpos}


def make_mixes(
    workload: str, seed: int, smoke: bool, work: Path, fixtures: Path
) -> list[list[Job]]:
    """Draw the workload's inputs from the seed, write the CLI input files
    into ``work`` and return one cycle: a mix of jobs per input.  Every mix
    holds every job kind of the workload."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, smoke, work, fixtures)
