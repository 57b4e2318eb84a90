"""Every name imported into a package module is used there: a leftover
import hides what a module really depends on.  A name listed in the
module's `__all__` counts as used (a re-export), and an import line may
opt out with `# noqa: F401`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "associahedra"


def _imported(tree):
    """(name bound by the import, line of its alias) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, alias.lineno


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source, filename="<module>"):
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    used = _used(tree)
    return [
        (name, lineno)
        for name, lineno in _imported(tree)
        if name not in used and "# noqa: F401" not in lines[lineno - 1]
    ]


def test_no_unused_imports_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found += [f"{path.name}:{line} {name}" for name, line in unused_imports(source, str(path))]
    assert not found


def test_detector_sees_leftovers():
    source = (
        "from .exactlin import (\n"
        "    span,\n"
        "    transpose,\n"
        "    solve_linear,  # noqa: F401\n"
        ")\n"
        "import os.path\n"
        "from . import polygon as pg\n"
        "__all__ = ['pg']\n"
        "x = span\n"
    )
    assert unused_imports(source) == [("transpose", 3), ("os", 6)]
