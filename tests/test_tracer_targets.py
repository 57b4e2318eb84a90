"""The benchmark tracer (`perfbench/tracer.py`) wraps package functions by
name; every binding it names must exist, or `perfbench/run.py --trace 1`
fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _ in tracer.TARGETS:
        if not hasattr(importlib.import_module(f"associahedra.{module}"), attr):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_manifest_functions_resolve_by_name():
    # the tracer wraps each manifest row's function as
    # `verification.<fn.__name__>`; a row whose function is not bound there
    # under its own name breaks `run.py --trace 1`
    from associahedra import verification

    unbound = [
        name
        for name, fn in verification.MANIFEST
        if getattr(verification, fn.__name__, None) is not fn
    ]
    assert not unbound
