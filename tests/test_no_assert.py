"""`python -O` strips `assert` statements, so no guard in the package may be
one: every check must raise explicitly."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "associahedra"


def test_no_assert_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found
