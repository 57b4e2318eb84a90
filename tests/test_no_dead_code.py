"""Every top-level function and class of the package is used: referenced
somewhere in `src/` or `demos/` outside its own definition, or wrapped by
the benchmark tracer (`perfbench/tracer.py`'s `TARGETS`).  Code kept alive
only by tests hides what the package really needs: the reference formulas
only the tests read live in `tests/oracles.py`, and the one allowance left
is listed below with its reason.

A reference is any name or attribute with the definition's name, in any
module: a local variable of the same name hides a dead definition, never
the other way round."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "associahedra"
TRACER = ROOT / "perfbench" / "tracer.py"

# definitions no package module, demo or tracer target reads: (module, name) -> why it stays
ALLOWED = {
    # read by name outside the package and the tests
    ("serialize", "polytope_to_json"): (
        "the benchmark's digest encoder, and the document the polytope_text line is pinned to"
    ),
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """The names of the module's top-level functions and classes."""
    return [node.name for node in tree.body if isinstance(node, DEFINITION)]


def references(tree):
    """Each name or attribute read in the module, except a definition's
    own name inside that definition."""
    found = set()
    for stmt in tree.body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, DEFINITION):
            names.discard(stmt.name)
        found |= names
    return found


def unreferenced(modules, others=()):
    """(module, name) of every definition in `modules` ({name: source})
    that no module of `modules` and no source in `others` references."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        used |= references(tree)
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in definitions(tree)
        if name not in used
    )


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    value = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    )
    return {(module, attr) for module, attr, _ in ast.literal_eval(value)}


def test_no_dead_code_in_package():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    demos = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    dead = set(unreferenced(modules, demos)) - tracer_targets()
    assert sorted(dead - set(ALLOWED)) == []
    # an allowance whose definition is gone or used again is stale
    assert sorted(set(ALLOWED) - dead) == []


def test_detector_sees_dead_definitions():
    modules = {
        "a": (
            "def used():\n    return 1\n\n"
            "def recursive(k):\n    return recursive(k - 1)\n\n"
            "def shown():\n    pass\n"
        ),
        "b": (
            "from .a import used\n\nx = used() + late()\n\n"
            "def late():\n    return 1\n\n"
            "class Unused:\n    pass\n"
        ),
    }
    demo = "import a\na.shown()\n"
    assert unreferenced(modules, [demo]) == [("a", "recursive"), ("b", "Unused")]
