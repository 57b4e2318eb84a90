"""The demos run as scripts against the package in `src/` and print their
verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# lines each demo must print, verbatim
VERDICTS = {
    "01_three_realizations.py": [
        "triangulation ((0, 2), (0, 3)):",
        "  secondary (area vectors)   (10, 1, 4, 9, 6)",
        "  cluster (root fan)         (4, -2, -2)",
        "  minkowski (simplex sum)    (1, 2, 3)",
    ],
    "02_parallel_facets.py": [
        "  secondary  0 parallel pairs: none",
        "  cluster    3 parallel pairs: (0, 4)||(1, 5), (1, 3)||(2, 4), (1, 4)||(2, 5)",
        "  minkowski  3 parallel pairs: (0, 2)||(1, 5), (0, 3)||(2, 5), (0, 4)||(3, 5)",
    ],
    "03_non_equivalence.py": [
        "secondary vs cluster: non_equivalent",
        "secondary vs minkowski: non_equivalent",
        "cluster vs minkowski: non_equivalent",
        "minkowski vs its translate: equivalent",
        "  witness translation: (Fraction(25, 6), Fraction(25, 6), Fraction(25, 6), "
        "Fraction(25, 6))",
    ],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(VERDICTS)


@pytest.mark.parametrize("demo", sorted(VERDICTS))
def test_demo_runs_and_prints_its_verdicts(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in VERDICTS[demo] if line not in lines] == []
