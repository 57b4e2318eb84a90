"""One workload job in a fresh interpreter; `run.py` starts it.

    python3 perfbench/job.py WORKLOAD SEED LAUNCHED MODE WORKDIR

LAUNCHED is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, `import associahedra` and
the workload's set-up.  Host speed is sampled from the start of this
script (`hostspeed`), and `setup_s` and `wall_s` are rescaled to reference
seconds by the samples taken during each; `raw_setup_s` and `raw_wall_s`
are the times as measured.  MODE is `setup` (stop before the first operation),
`run` (closed loop over the operations, no tracing) or `trace` (the same
with every layer function wrapped; spans go to WORKDIR/spans.jsonl).  The
last line of standard output is one JSON object with the job's results.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    workload, seed, launched, mode, workdir = argv
    seed, launched, workdir = int(seed), float(launched), Path(workdir)
    with hostspeed.Sampler() as sampler:
        return measure(workload, seed, launched, mode, workdir, sampler)


def measure(workload, seed, launched, mode, workdir, sampler):
    sys.path.insert(0, str(ROOT / "src"))

    import associahedra  # noqa: F401  (timed as part of set-up)
    import workloads

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        ops = workloads.SETUPS[workload](seed, workdir)
        raw_setup_s = time.monotonic() - launched
        set_up = sampler.mark()
        setup = {
            "setup_s": sampler.rescale(raw_setup_s, hostspeed.START, set_up),
            "raw_setup_s": raw_setup_s,
        }
        if mode == "setup":
            print(json.dumps(setup))
            return 0
        failed, records = 0, []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            try:
                op_failed, record = op.run()
            except Exception as exc:  # a failing operation is counted; the loop goes on
                traceback.print_exc()
                op_failed, record = op.checks, f"raised {type(exc).__name__}: {exc}"
            failed += op_failed
            records.append(record)
        raw_wall_s = time.perf_counter() - start
        done = sampler.mark()
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        **setup,
        "wall_s": sampler.rescale(raw_wall_s, set_up, done),
        "raw_wall_s": raw_wall_s,
        "host_speed": statistics.fmean(sampler.speeds(set_up, done)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops": len(ops),
        "attempted": sum(op.checks for op in ops),
        "failed": failed,
        "digest": hashlib.sha256(workloads.canonical(records)).hexdigest(),
    }
    if tracer is not None:
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
