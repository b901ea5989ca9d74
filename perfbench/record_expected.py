"""Write perfbench/expected.json: the mathematical results of one cycle of
every workload on the default seed, at full and smoke sizes.

    python3 perfbench/record_expected.py

Run it only when a workload's inputs or jobs change, never to make a
failing check pass: the stored results are what the benchmark checks the
library against.  A job is recorded only after its seed-independent checks
pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def record(workload: str, smoke: bool, work: Path) -> dict:
    out: dict = {}
    mixes = workloads.make_mixes(workload, DEFAULT_SEED, smoke, work, ROOT / "fixtures")
    for job in (job for mix in mixes for job in mix):
        raw = job.run()
        problems = job.checks(raw)
        if problems:
            raise SystemExit(f"{workload} {job.key}: {problems}")
        summary = json.loads(json.dumps(job.summary(raw)))
        if out.setdefault(job.key, summary) != summary:
            raise SystemExit(f"{workload} {job.key}: two runs in one cycle disagree")
    return out


def main() -> None:
    work = ROOT / ".bench_out" / "record"
    profiles = {
        profile: {
            key: summary
            for workload in WORKLOADS
            for key, summary in record(workload, profile == "smoke", work / profile).items()
        }
        for profile in ("full", "smoke")
    }
    # One line per job keeps diffs of this file readable.
    lines = [f'{{"seed": {DEFAULT_SEED}, "profiles": {{']
    for p, (profile, jobs) in enumerate(profiles.items()):
        lines.append(f'"{profile}": {{')
        body = [f"{json.dumps(key)}: {json.dumps(jobs[key], sort_keys=True, separators=(',', ':'))}"
                for key in sorted(jobs)]
        lines.append(",\n".join(body))
        lines.append("}" + ("," if p < len(profiles) - 1 else ""))
    lines.append("}}")
    (HERE / "expected.json").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
