"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The determinism test runs two traced jobs per workload and takes a few
minutes; the other tests take seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from associahedra import analysis, exactlin, verification  # noqa: E402


def test_tracer_patches_every_binding_and_restores_them():
    original_solve = exactlin.solve_linear
    original_manifest = list(verification.MANIFEST)
    t = tracing.Tracer()
    t.install()
    try:
        # imported by name into analysis and cluster, not only defined in exactlin
        assert analysis.solve_linear is not original_solve
        assert analysis.solve_linear is exactlin.solve_linear
        assert verification.extract_facets is analysis.extract_facets
        assert all(fn.__wrapped__ is orig for (_, fn), (_, orig)
                   in zip(verification.MANIFEST, original_manifest))
        verification.run_manifest(1, 0)
    finally:
        t.restore()
    assert exactlin.solve_linear is original_solve
    assert analysis.solve_linear is original_solve
    assert verification.MANIFEST == original_manifest
    layers = t.metrics()
    assert layers["verification.facet_counts.calls"] == 1
    # extract_facets is called through verification's own binding
    assert layers["analysis.extract_facets.calls"] >= 3
    assert all(layers[f"{name}.self_s"] <= layers[f"{name}.s"] + 1e-9
               for name in {key.rsplit(".", 1)[0] for key in layers if key.endswith(".calls")})


def test_sampler_samples_throughout_and_leaves_its_own_time_out():
    with hostspeed.Sampler() as sampler:
        begin = sampler.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 1.2:
            sum(range(1000))
        wall_s = time.perf_counter() - start
        end = sampler.mark()
    speeds = sampler.speeds(begin, end)
    # one sample after FIRST_S, then one every INTERVAL_S
    assert len(speeds) >= int((1.2 - hostspeed.FIRST_S) / hostspeed.INTERVAL_S)
    assert all(speed > 0 for speed in speeds)
    paused_s = end[1] - begin[1]
    assert 0 < paused_s < 0.5 * wall_s
    assert sampler.rescale(wall_s, begin, end) == pytest.approx(
        (wall_s - paused_s) * sum(speeds) / len(speeds))


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


EXACT = ("polytope.max_coord_bits", "serialize.bytes_written")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_exact_counts(workload):
    seed = 42
    results = [run.run_job(workload, seed, "trace", time.monotonic() + 170) for _ in range(2)]
    for result in results:
        assert result["failed"] == 0
    first, second = ({k: v for k, v in r["layers"].items() if k.endswith(".calls") or k in EXACT}
                     for r in results)
    assert first == second
    assert results[0]["digest"] == results[1]["digest"]


def test_every_per_layer_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {span for _, _, span in tracing.TARGETS}
    names |= {f"verification.{name}" for name, _ in verification.MANIFEST}
    produced = {f"{n}.{field}" for n in names for field in ("calls", "s", "self_s")}
    produced |= {"analysis.fit_affine_map.hit_ratio", "serialize.bytes_written",
                 "polytope.max_coord_bits", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
