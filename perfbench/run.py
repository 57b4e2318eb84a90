"""Benchmark runner for the associahedra package (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Every job runs in a fresh interpreter (`job.py`), because each `assoc`
invocation pays the `lru_cache` fills again.  A job is a closed loop with
one caller in one thread: each operation starts when the previous one has
returned.  Jobs run one after another, never side by side.

--trace 0: half the SETUP_SAMPLES set-up-only jobs (these also warm the
bytecode cache), then measured jobs until the next one would end after
--seconds (at least one), then the other half.  Prints the medians of
`wall_s`, `setup_s` and `peak_rss_mb` and the share of known-answer checks
that passed.  `wall_s` and `setup_s` are in reference seconds: each job
rescales its set-up and wall times by the host speed sampled while they ran
(`hostspeed.py`).  The measured times and the host speeds are printed on a
`#` line.

--trace 1: one untraced job, then one job with every layer function wrapped;
prints the per-layer metrics and `trace.overhead_s` (traced minus untraced
`wall_s`).  The spans themselves are left in .perfbench/spans-*.jsonl.

The last line of standard output is the result object; lines before it
start with `#` and give the digest of the results and the run metadata.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "associahedra"
WORK = ROOT / ".perfbench"
WORKLOADS = ("verify_n5", "build_analyze_n6", "compare_n5")
SETUP_SAMPLES = {"verify_n5": 24, "build_analyze_n6": 24, "compare_n5": 8}
DEADLINE_S = 170  # a run must end within 180 s: jobs still running then are killed


class JobFailed(Exception):
    pass


def run_job(workload, seed, mode, deadline):
    """Start one job in a fresh interpreter, wait for it, return its result."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), workload, str(seed), repr(launched), mode, str(workdir)],
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - launched),
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise JobFailed(f"{mode} job exited with {proc.returncode}")
        result = json.loads(lines[-1])
        if mode == "trace":
            shutil.copyfile(workdir / "spans.jsonl", WORK / f"spans-{workload}-{seed}.jsonl")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))


def pick(kind, values):
    """The `kind` metrics of BENCHMARK.json, by name, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    jobs, setups, raw_setups, attempted, failed = [], [], [], 0, 0

    def job(mode):
        """Run one job; a job that crashes or times out counts as one failed check."""
        nonlocal attempted, failed
        try:
            result = run_job(args.workload, args.seed, mode, deadline)
        except (JobFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"# {mode} job failed: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
            return None
        setups.append(result["setup_s"])
        raw_setups.append(result["raw_setup_s"])
        if mode != "setup":
            attempted += result["attempted"]
            failed += result["failed"]
            jobs.append(result)
        return result

    metrics = {}
    if args.trace:
        untraced, traced = job("run"), job("trace")
        if untraced and traced:
            # a layer that did not run has no spans and reads 0
            values = defaultdict(int, traced["layers"])
            values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            metrics = pick("per_layer", values)
    else:
        # set-ups before and after the measured jobs, so their median spans
        # the run's changes in host speed
        samples = SETUP_SAMPLES[args.workload]
        for _ in range(samples - samples // 2):
            job("setup")
        while True:
            result = job("run")
            elapsed = time.monotonic() - start
            if not result or elapsed + result["setup_s"] + result["raw_wall_s"] > args.seconds:
                break
        for _ in range(samples // 2):
            job("setup")
        if jobs:
            metrics = pick("end_to_end", {
                "wall_s": statistics.median(j["wall_s"] for j in jobs),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
                "success_rate": (attempted - failed) / attempted,
            })

    print(f"# workload={args.workload} seed={args.seed} jobs={len(jobs)} "
          f"ops_per_job={jobs[0]['ops'] if jobs else 0} attempted={attempted} failed={failed}")
    print(f"# digest={','.join(sorted({j['digest'] for j in jobs}))}")
    print("# raw_wall_s=" + ",".join(f"{j['raw_wall_s']:.3f}" for j in jobs)
          + " host_speed=" + ",".join(f"{j['host_speed']:.3f}" for j in jobs)
          + f" raw_setup_s={statistics.median(raw_setups) if raw_setups else 0:.4f}"
          + f" setups={len(setups)}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} src_lines={src_lines()}")
    print(json.dumps({
        "correct": bool(metrics) and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
