"""Self-test of the benchmark, at smoke size (about a minute in all).

    python3 perfbench/selftest.py

Checks, for every workload:
  * a smoke run passes and prints every end-to-end metric of BENCHMARK.json,
    in its unit;
  * a traced smoke run prints every per-layer metric, in its unit, and two
    traced runs of one seed give the same counts;
  * the gate bites: with one stored result corrupted, the run counts a
    failed job, reports ``correct: false`` and exits non-zero.
And that the benchmark exits non-zero, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_out" / "selftest"
EXACT_COUNTS = ("ring.poly_new.count", "linalg.rank.entries", "complexes.nnz", "genpos.minors")


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def corrupted_expected(workload: str) -> Path:
    """expected.json with the first stored smoke result of one of the
    workload's seeded jobs changed."""
    import workloads

    doc = json.loads((HERE / "expected.json").read_text())
    mixes = workloads.make_mixes(workload, doc["seed"], True, WORK / "inputs", ROOT / "fixtures")
    key = next(job.key for job in mixes[0] if job.seeded)
    doc["profiles"]["smoke"][key] = {"corrupted": True}
    path = WORK / f"expected-{workload}.json"
    path.write_text(json.dumps(doc))
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def units(out: dict) -> dict:
        return {name: metric["unit"] for name, metric in out["metrics"].items()}

    WORK.mkdir(parents=True, exist_ok=True)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        code, out = run(workload)
        expect(code == 0 and out is not None and out["correct"] and out["failed"] == 0,
               f"{workload}: smoke run passes")
        expect(out is not None and units(out) == end_to_end,
               f"{workload}: prints exactly the end-to-end metrics, in their units")

        traced = [run(workload, "--trace", "1") for _ in range(2)]
        expect(all(code == 0 and out is not None for code, out in traced),
               f"{workload}: traced smoke runs pass")
        if all(out is not None for _, out in traced):
            metrics = [out["metrics"] for _, out in traced]
            expect(units(traced[0][1]) == per_layer,
                   f"{workload}: prints exactly the per-layer metrics, in their units")
            expect(all(metrics[0][n]["value"] == metrics[1][n]["value"] for n in EXACT_COUNTS),
                   f"{workload}: counts repeat exactly across runs of one seed")

        code, out = run(workload, "--expected", str(corrupted_expected(workload)))
        expect(code != 0 and out is not None and not out["correct"] and out["failed"] >= 1,
               f"{workload}: a corrupted stored result counts as a failed job")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = run("construct", cwd=bare)
    expect(code != 0 and out is None, "exits non-zero with no result outside a checkout")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
