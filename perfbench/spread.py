"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1,2,...] [--seconds S] [--trace 0|1] [--out FILE]

For each workload, runs `run.py` once per seed, one run at a time, and
prints per metric the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread: (Q3 - Q1) / median, the figure the end-to-end bounds in
BENCHMARK.json are set against.  With --out, writes every run's result
line and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {}
    for workload in args.workload:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "info": lines[:-1], "result": result})
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} {values}", flush=True)
        failed_runs = [r["seed"] for r in runs if not r["result"]["correct"]]
        ok = [r["result"]["metrics"] for r in runs if r["result"]["correct"]]
        summary = {name: summarize([m[name]["value"] for m in ok]) for name in (ok[0] if ok else {})}
        print(f"{workload} runs failed for seeds: {failed_runs}")
        for name, s in summary.items():
            print(f"{workload} {name}: median={s['median']:.4f} q1={s['q1']:.4f} "
                  f"q3={s['q3']:.4f} spread={s['spread']:.4f}", flush=True)
        report[workload] = {"runs": runs, "failed_runs": failed_runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
