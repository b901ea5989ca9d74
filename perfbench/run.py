"""Benchmark of the logsymplectic kit: three workloads, end-to-end metrics,
and a traced run with per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Each workload runs in its own fresh single-threaded process as a closed loop:
one job after another, whole cycles of the workload's job mix, until
``--seconds`` have passed (at least one cycle).  Every job's result is
checked; the last line of standard output is one JSON object with the
metrics, and the exit code is 1 when any check failed.  ``--trace 1``
reports the per-layer metrics of one traced mix instead, from wrappers
installed around the library's public functions.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKERS_ENV = "LOGSYMPLECTIC_WORKERS"
WORKLOADS = ("construct", "cohomology", "genpos")
# The seed expected.json was recorded on.
DEFAULT_SEED = 1

# setup_s is the median of this many fresh processes that each set up and exit.
SETUP_SAMPLES = 5
# verdict_s.p90 needs ten jobs beyond it.
P90_MIN_JOBS = 100

UNITS = {
    "jobs_per_s": "1/s",
    "trace.jobs_per_s": "1/s",
    "verdict_s.p50": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs that run the same code paths in seconds")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="stored results compared on the default seed")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- environment ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": args.seed,
        WORKERS_ENV: os.environ.get(WORKERS_ENV, "unset"),
    }


# -- set-up --------------------------------------------------------------------


def work_dir(args) -> Path:
    return OUT / f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"


def set_up(args, expected):
    """Seeded inputs, CLI input files and, unless this is a smoke run, a
    warm-up: one smoke-size mix, untimed.  Returns the mixes of one cycle
    and the warm-up results."""
    import workloads

    work = work_dir(args)
    fixtures = ROOT / "fixtures"
    mixes = workloads.make_mixes(args.workload, args.seed, args.smoke, work, fixtures)
    warm = []
    if not args.smoke:
        smoke = workloads.make_mixes(args.workload, args.seed, True, work / "warmup", fixtures)
        warm = [run_job(job, expected.lookup("smoke")) for job in smoke[0]]
    return mixes, warm


class Expected:
    """Results stored in expected.json: per size profile, job key ->
    summary.  Seeded jobs are compared only on the seed they were stored
    for; jobs on fixtures/ on every seed."""

    def __init__(self, path: Path, seed: int):
        stored = json.loads(path.read_text()) if path.is_file() else {}
        self.stored_seed = stored.get("seed")
        self.profiles = stored.get("profiles", {})
        self.seed = seed

    def lookup(self, profile: str):
        jobs = self.profiles.get(profile, {})

        def expected_for(job):
            if job.seeded and self.seed != self.stored_seed:
                return None
            return jobs.get(job.key)

        return expected_for


def time_set_up(args) -> list[float]:
    """Wall time of fresh processes that import, set up and exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--expected", str(args.expected), "--setup-only"]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# -- jobs ----------------------------------------------------------------------


def call(job, tracer=None):
    """The timed part of a job: its call and nothing else."""
    if tracer is not None:
        tracer.begin_job()
    start = time.perf_counter()
    try:
        return job.run(), None, time.perf_counter() - start
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.end_job(job.kind)


def check(job, raw, error, elapsed, expected_for) -> dict:
    """The untimed part: seed-independent checks, then the stored results."""
    problems = [error] if error else []
    if not problems:
        try:
            problems = job.checks(raw)
            want = expected_for(job)
            if not problems and want is not None:
                got = json.loads(json.dumps(job.summary(raw)))
                if got != want:
                    problems.append(f"result differs from expected.json: {got}")
        except Exception:
            problems = [traceback.format_exc()]
    return {"kind": job.kind, "key": job.key, "seconds": elapsed, "problems": problems}


def run_job(job, expected_for, tracer=None) -> dict:
    result = check(job, *call(job, tracer), expected_for)
    if tracer is not None and job.report is not None and job.report.exists():
        tracer.counts["cli.report_bytes"] += job.report.stat().st_size
    return result


def run_cycles(cycle, seconds, expected_for):
    """Whole cycles until ``seconds`` have passed; at least one."""
    results = []
    cycles = 0
    start = time.perf_counter()
    while True:
        results += [run_job(job, expected_for) for job in cycle]
        cycles += 1
        if time.perf_counter() - start >= seconds:
            return results, cycles


def memory_pass(mix, expected_for):
    """tracemalloc peak of one job of each kind, before tracing starts."""
    peaks, results = {}, []
    for job in mix:
        if job.kind in peaks:
            continue
        tracemalloc.start()
        outcome = call(job)
        peaks[job.kind] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        results.append(check(job, *outcome, expected_for))
    return peaks, results


# -- metrics -------------------------------------------------------------------


def end_to_end(timed, setup_times) -> dict:
    seconds = [r["seconds"] for r in timed]
    return {
        "jobs_per_s": len(seconds) / sum(seconds),
        "verdict_s.p50": statistics.median(seconds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(tracer, timed, mem_peaks) -> tuple[dict, dict]:
    """Layer metrics of the traced mix, and the layer self times behind the
    summary table."""
    from tracer import LAYERS

    s, c = tracer.self_s, tracer.counts

    def self_of(name):
        return s.get(name, 0.0)

    def count(name):
        return c.get(name, 0)

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    m = {
        "ring.poly_new.count": count("ring.poly_new"),
        "ring.mul.count": count("ring.mul"),
        "ring.mul.self_s": self_of("ring.mul"),
        "ring.add.self_s": self_of("ring.add"),
        "ring.partial.count": count("ring.partial"),
        "ring.partial.self_s": self_of("ring.partial"),
        "ring.other.self_s": self_of("ring.other"),
        "exterior.d.count": count("exterior.d"),
        "exterior.d.self_s": self_of("exterior.d"),
        "exterior.wedge.count": count("exterior.wedge"),
        "exterior.wedge.self_s": self_of("exterior.wedge"),
        "exterior.change_frame.self_s": self_of("exterior.change_frame"),
        "exterior.other.self_s": self_of("exterior.other"),
        "poisson.schouten.count": count("poisson.schouten"),
        "poisson.schouten.self_s": self_of("poisson.schouten"),
        "poisson.other.self_s": self_of("poisson.other"),
        "complexes.build.self_s": self_of("complexes.build"),
        "complexes.columns": count("complexes.columns"),
        "complexes.dense_entries": count("complexes.dense_entries"),
        "complexes.nnz": count("complexes.nnz"),
        "complexes.density": ratio("complexes.nnz", "complexes.dense_entries"),
        "complexes.cohomology.self_s": self_of("complexes.cohomology"),
        "complexes.other.self_s": self_of("complexes.other"),
        "linalg.rank.count": count("linalg.rank"),
        "linalg.rank.self_s": self_of("linalg.rank"),
        "linalg.rank.entries": count("linalg.rank.entries"),
        "linalg.rank.nnz": count("linalg.rank.nnz"),
        "linalg.rank.repeat_frac": ratio("linalg.rank.repeats", "linalg.rank"),
        "linalg.mat_mul.self_s": self_of("linalg.mat_mul"),
        "linalg.other.self_s": self_of("linalg.other"),
        "genpos.column_sets": count("genpos.column_sets"),
        "genpos.minors": count("genpos.minors"),
        "genpos.unit_frac": ratio("genpos.witnessed", "genpos.minors"),
        "genpos.small_t.self_s": self_of("genpos.small_t"),
        "genpos.top_t.self_s": self_of("genpos.top_t"),
        "genpos.other.self_s": self_of("genpos.other"),
        "genpos.verify.self_s": self_of("genpos.verify"),
        "toric.certify.self_s": self_of("toric.certify"),
        "toric.other.self_s": self_of("toric.other"),
        "cli.self_s": self_of("cli"),
        "cli.report_bytes": count("cli.report_bytes"),
        "mem.traced_peak_mib": max(mem_peaks.values()),
    }
    layers = {
        layer: sum(v for k, v in s.items() if k.split(".")[0] == layer) for layer in LAYERS
    }
    m["trace.job_s"] = tracer.job_s
    m["trace.remainder_s"] = tracer.job_s - sum(layers.values())
    m["trace.overhead_s"] = tracer.overhead_s
    m["trace.jobs_per_s"] = len(timed) / tracer.job_s
    return m, layers


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith(".density"):
        return "ratio"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- reporting -----------------------------------------------------------------


def print_kinds(timed) -> None:
    kinds: dict[str, list[float]] = {}
    for r in timed:
        kinds.setdefault(r["kind"], []).append(r["seconds"])
    for kind, secs in kinds.items():
        print(f"  {kind:24s} {len(secs):3d} jobs, median {statistics.median(secs):.4f} s")


def print_layers(layers: dict, inclusive: dict, metrics: dict) -> None:
    job_s = metrics["trace.job_s"]
    print(f"  traced job time {job_s:.3f} s = layer self times + remainder;"
          " inclusive = outermost spans of the layer, other layers' children included")
    print(f"  {'layer':10s} {'self s':>9s} {'self %':>7s} {'incl. s':>9s} {'incl. %':>7s}")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        incl = inclusive.get(layer, 0.0)
        print(f"  {layer:10s} {secs:9.3f} {100 * secs / job_s:7.1f}"
              f" {incl:9.3f} {100 * incl / job_s:7.1f}")
    rem = metrics["trace.remainder_s"]
    print(f"  {'remainder':10s} {rem:9.3f} {100 * rem / job_s:7.1f}"
          f"  (tracer counting {metrics['trace.overhead_s']:.3f} s of it)")


def run_workload(args) -> int:
    expected = Expected(args.expected, args.seed)
    expected_for = expected.lookup("smoke" if args.smoke else "full")
    if args.setup_only:
        set_up(args, expected)
        return 0
    env = environment(args)
    setup_times = [] if args.trace else time_set_up(args)
    mixes, results = set_up(args, expected)
    if args.trace:
        from tracer import Tracer, install

        # One mix (the first input) is traced, a fixed amount of work: its
        # counts repeat exactly, and the run stays short although the
        # memory pass under tracemalloc is slow.
        mem_peaks, mem_results = memory_pass(mixes[0], expected_for)
        results += mem_results
        tracer = Tracer()
        install(tracer)
        timed = [run_job(job, expected_for, tracer) for job in mixes[0]]
        metrics, layers = per_layer(tracer, timed, mem_peaks)
        tracer.write_spans(work_dir(args) / "spans.jsonl")
        measured = f"one traced mix of {len(timed)} jobs"
    else:
        timed, cycles = run_cycles([job for mix in mixes for job in mix], args.seconds,
                                   expected_for)
        metrics = end_to_end(timed, setup_times)
        measured = f"{cycles} cycle(s) of {len(mixes)} mixes, {len(timed)} timed jobs"
    results += timed
    failed = [r for r in results if r["problems"]]

    print(f"perfbench workload={args.workload} trace={args.trace} "
          + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"  {measured}; {len(results) - len(timed)} untimed warm-up/memory jobs")
    print_kinds(timed)
    print(f"  failed_frac {len(failed) / len(results):.4f} ratio "
          f"({len(failed)} failed of {len(results)} attempted)")
    for r in failed:
        print(f"  FAILED {r['key']}: {' | '.join(p.strip() for p in r['problems'])}")
    if args.trace:
        print_layers(layers, tracer.inclusive_s(), metrics)
        print("  tracemalloc peak per job kind: "
              + ", ".join(f"{k} {v:.1f} MiB" for k, v in mem_peaks.items()))
    else:
        secs = [r["seconds"] for r in timed]
        if len(secs) >= P90_MIN_JOBS:
            p90 = statistics.quantiles(secs, n=10)[-1]
            print(f"  verdict_s.p90 {p90:.6f} s ({len(secs)} jobs)")
        else:
            print(f"  verdict_s.p90 not reported: {len(secs)} jobs < {P90_MIN_JOBS}")
        print(f"  setup_s samples: {', '.join(f'{t:.3f}' for t in setup_times)}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--expected", str(args.expected)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "logsymplectic" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop(WORKERS_ENV, None)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
