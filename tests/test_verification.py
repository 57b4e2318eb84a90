"""Negative controls for the manifest's parallel-pair rows and for the
failure path of `assoc verify`: a row that cannot fail shows nothing."""

import functools
import json
import random

import pytest

from associahedra import analysis, verification
from associahedra.analysis import extract_facets
from associahedra.cli import main
from associahedra.constructions import CONSTRUCTIONS

SEED = 42


def test_secondary_row_fails_on_polytopes_with_parallel_facets(monkeypatch):
    # the Minkowski polytopes in place of the secondary ones: each has the
    # n block pairs where none are expected
    draws = verification._default_and_draws
    monkeypatch.setattr(
        verification, "_default_and_draws", lambda name, n, rng: draws("minkowski", n, rng)
    )
    ok, detail = verification.check_secondary_no_parallel(3, SEED)
    assert not ok
    want = [
        (n, verification.minkowski_expected_pairs(n), []) for n in (2, 3) for _ in range(4)
    ]
    assert detail == {"bad": want}


def test_cluster_row_fails_when_a_pair_is_not_expected(monkeypatch):
    expected = verification.cluster_expected_pairs
    monkeypatch.setattr(verification, "cluster_expected_pairs", lambda n: expected(n)[1:])
    ok, detail = verification.check_cluster_parallel(3, SEED)
    assert not ok
    assert detail == {"bad": [(n, expected(n), expected(n)[1:]) for n in (2, 3) for _ in range(4)]}


def test_minkowski_row_fails_when_a_pair_is_not_expected(monkeypatch):
    expected = verification.minkowski_expected_pairs
    monkeypatch.setattr(verification, "minkowski_expected_pairs", lambda n: expected(n)[:-1])
    ok, detail = verification.check_minkowski_parallel(3, SEED)
    assert not ok
    assert detail == {"bad": [(n, expected(n), expected(n)[:-1]) for n in (2, 3) for _ in range(4)]}


def test_minkowski_row_fails_on_a_wrong_block_pair_normal(monkeypatch):
    # the last block pair's normal negated: it is no longer primitive with
    # first entry positive, so both of its facets mismatch, in each of the
    # default and the three draws, and no other facet does
    normal = verification.block_pair_normal
    monkeypatch.setattr(
        verification,
        "block_pair_normal",
        lambda i, n: tuple(-a for a in normal(i, n)) if i == n else normal(i, n),
    )
    ok, detail = verification.check_minkowski_parallel(3, SEED)
    assert not ok
    want = [
        (n, "direction_mismatch", d)
        for n in (2, 3)
        for _ in range(4)
        for d in verification.minkowski_expected_pairs(n)[-1]
    ]
    assert detail == {"bad": want}


@pytest.mark.parametrize(
    "wrong",
    [
        lambda a, n: tuple(2 * x for x in a),
        lambda a, n: tuple(x + 1 for x in a),
    ],
    ids=["doubled", "plus_all_ones"],
)
def test_minkowski_row_fails_on_a_scaled_or_shifted_block_pair_normal(monkeypatch, wrong):
    # the last block pair's normal doubled (parallel, not primitive) or
    # plus all-ones (primitive, out of the hull's direction space): both of
    # its facets mismatch, in each of the default and the three draws, and
    # no other facet does
    normal = verification.block_pair_normal
    monkeypatch.setattr(
        verification,
        "block_pair_normal",
        lambda i, n: wrong(normal(i, n), n) if i == n else normal(i, n),
    )
    ok, detail = verification.check_minkowski_parallel(3, SEED)
    assert not ok
    want = [
        (n, "direction_mismatch", d)
        for n in (2, 3)
        for _ in range(4)
        for d in verification.minkowski_expected_pairs(n)[-1]
    ]
    assert detail == {"bad": want}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_chart_comparison_is_the_ambient_one(n):
    # on every facet of the default and two draws of each construction, a
    # candidate normal gets the facet's chart normal iff it is the facet's
    # lifted ambient normal: each facet's normal, doubled, negated, plus
    # all-ones and plus e_0
    rng = random.Random(n)
    matches = 0
    for c in CONSTRUCTIONS.values():
        for p in [c.build(c.default(n), n)] + [c.build(c.draw(n, rng), n) for _ in range(2)]:
            facets = extract_facets(p)
            for f in facets:
                a = f.normal
                for e in (a, tuple(2 * x for x in a), tuple(-x for x in a),
                          tuple(x + 1 for x in a), (a[0] + 1, *a[1:])):
                    chart = verification._chart_normal_of(p.hull, e)
                    for g in facets:
                        assert (g.chart_normal == chart) == (g.normal == e)
                        matches += g.normal == e
    assert matches >= 3 * 3 * n * (n + 3) // 2


def test_verify_lifts_no_normal(monkeypatch):
    # `assoc verify --n-max 5` decides every row in the chart
    lifts = []
    lift = analysis._normal_lift
    monkeypatch.setattr(analysis, "_normal_lift", lambda hull: lifts.append(hull) or lift(hull))
    monkeypatch.setattr(verification, "build_all_defaults", functools.lru_cache(maxsize=None)(
        verification.build_all_defaults.__wrapped__
    ))
    assert main(["verify", "--n-max", "5", "--seed", str(SEED)]) == 0
    assert lifts == []


def test_verify_exits_1_with_a_fail_line_and_the_first_counterexample(monkeypatch, capsys):
    expected = verification.cluster_expected_pairs
    monkeypatch.setattr(verification, "cluster_expected_pairs", lambda n: expected(n)[1:])
    code = main(["verify", "--n-max", "2", "--seed", str(SEED)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    width = max(len(name) for name, _ in verification.MANIFEST)
    row = out.index(f"{'cluster_n_parallel_pairs'.ljust(width)}  FAIL")
    first = [(2, expected(2), expected(2)[1:])]
    assert out[row + 1] == f"  first counterexample: {json.dumps(repr(first))}"
    # every other row passes, with no counterexample line
    assert sum("FAIL" in line for line in out) == 1
    assert len(out) == len(verification.MANIFEST) + 1
