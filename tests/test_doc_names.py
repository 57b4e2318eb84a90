"""Every backticked `module.name` or `Class.attr` in README.md and in the
package's sources names something that exists: a module of the package
and what it defines, or a class of the package and its attributes, where
dataclass and NamedTuple fields count as attributes.  A name left behind
by a rename or a deletion misleads every later reader.

Spans that start with anything else (`p.vertices`, `fractions.Fraction`)
are not checked; nor are file names (`cluster.py`) or the benchmark's
per-layer metric names, which BENCHMARK.json defines and the docs quote."""

import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "associahedra"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FENCE = re.compile(r"```.*?```", re.S)
FILE_SUFFIXES = {"py", "json", "jsonl", "md", "toml"}


def package_names():
    """({module name: module}, {class name: class}) of the package."""
    modules = {
        path.stem: importlib.import_module(f"associahedra.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }
    return modules, classes


def _fields(cls):
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    return set(getattr(cls, "_fields", ()))


def resolves(name, modules, classes):
    first, *rest = name.split(".")
    obj = modules.get(first) or classes[first]
    for part in rest:
        if inspect.isclass(obj) and part in _fields(obj):
            return True
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def stale_names(text, modules, classes, exempt=frozenset()):
    """The backticked dotted names in `text` that start with a module or
    class of the package and do not resolve, in order."""
    stale = []
    for span in re.findall(r"`([^`]+)`", FENCE.sub("", text)):
        match = DOTTED.match(span)
        if match is None:
            continue
        name = match[0]
        if name.split(".")[0] not in modules and name.split(".")[0] not in classes:
            continue
        if name.rsplit(".", 1)[1] in FILE_SUFFIXES or name in exempt:
            continue
        if not resolves(name, modules, classes):
            stale.append(name)
    return stale


def test_backticked_names_in_the_docs_resolve():
    modules, classes = package_names()
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    found = []
    for path in [ROOT / "README.md", *sorted(SRC.glob("*.py"))]:
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}: {name}" for name in stale_names(text, modules, classes, metrics)]
    assert found == []


def test_detector_sees_stale_names():
    modules, classes = package_names()
    text = (
        "`exactlin.exchange_inverse` and `Hull.rows`, `cluster.py`, `p.missing`,\n"
        "`LabeledPolytope.labels`, `LabeledPolytope.params`, `Hull.missing`\n"
        "```\n`exactlin.missing`\n```\n"
        "`polygon.all_triangulations(n)[i]` and `cluster.polytopality_check.calls`"
    )
    assert stale_names(text, modules, classes) == [
        "exactlin.exchange_inverse",
        "Hull.missing",
        "cluster.polytopality_check.calls",
    ]
    exempt = {"cluster.polytopality_check.calls"}
    assert stale_names(text, modules, classes, exempt) == ["exactlin.exchange_inverse", "Hull.missing"]
