"""The theorem-verification manifest run by `assoc verify` and the
acceptance test suite.

Each check is a named callable over an n range; all expectations are exact
(zero tolerance).  Checks return (ok, detail) and the runner assembles a
pass/fail table in manifest order.
"""

import random
from fractions import Fraction
from functools import lru_cache

from . import analysis, cluster, minkowski, secondary
from .analysis import extract_facets, parallel_pairs, special_profile
from .constructions import CONSTRUCTIONS
from .exactlin import AffineMap

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


@lru_cache(maxsize=None)
def build_all_defaults(n):
    return {name: c.build(c.default(n), n) for name, c in CONSTRUCTIONS.items()}


def _default_and_draws(name, n, rng):
    """The cached default polytope and the polytopes of three seeded draws."""
    c = CONSTRUCTIONS[name]
    return [build_all_defaults(n)[name]] + [c.build(c.draw(n, rng), n) for _ in range(3)]


def check_vertex_counts(n_max, seed):
    bad = []
    for n in range(1, n_max + 1):
        for tag, p in build_all_defaults(n).items():
            if len(p.vertices) != CATALAN[n + 1]:
                bad.append((n, tag, len(p.vertices)))
    return not bad, {"expected": CATALAN[2 : n_max + 2], "bad": bad}


def check_facet_counts(n_max, seed):
    bad = []
    for n in range(1, n_max + 1):
        for tag, p in build_all_defaults(n).items():
            facets = extract_facets(p)
            if len(facets) != n * (n + 3) // 2:
                bad.append((n, tag, len(facets)))
    return not bad, {"bad": bad}


def check_secondary_no_parallel(n_max, seed):
    rng = random.Random(seed)
    bad = []
    for n in range(2, n_max + 1):
        for p in _default_and_draws("secondary", n, rng):
            pairs = parallel_pairs(extract_facets(p))
            if pairs:
                bad.append((n, pairs))
    return not bad, {"bad": bad}


def cluster_expected_pairs(n):
    pairs = []
    for i in range(1, n + 1):
        d1 = cluster.root_to_diagonal(cluster.pos(i, i), n)
        d2 = cluster.root_to_diagonal(cluster.neg(i), n)
        pairs.append(tuple(sorted((d1, d2))))
    return sorted(pairs)


def check_cluster_parallel(n_max, seed):
    rng = random.Random(seed)
    bad = []
    for n in range(2, n_max + 1):
        expected = cluster_expected_pairs(n)
        for p in _default_and_draws("cluster", n, rng):
            got = sorted(tuple(sorted(pair)) for pair in parallel_pairs(extract_facets(p)))
            if got != expected:
                bad.append((n, got, expected))
    return not bad, {"bad": bad}


def check_cluster_fan(n_max, seed):
    bad = []
    for n in range(1, n_max + 1):
        report = cluster.verify_fan(n)
        if not report["ok"]:
            bad.append((n, report["problems"][:3]))
    return not bad, {"bad": bad}


def minkowski_expected_pairs(n):
    return sorted(
        tuple(sorted(((i, n + 2), (0, i + 1)))) for i in range(1, n + 1)
    )


def check_minkowski_parallel(n_max, seed):
    rng = random.Random(seed)
    bad = []
    for n in range(2, n_max + 1):
        expected = minkowski_expected_pairs(n)
        for p in _default_and_draws("minkowski", n, rng):
            facets = extract_facets(p)
            got = sorted(tuple(sorted(pair)) for pair in parallel_pairs(facets))
            if got != expected:
                bad.append((n, got, expected))
                continue
            by_diag = {f.diagonal: f for f in facets}
            for i in range(1, n + 1):
                blocks = (tuple(range(1, i + 1)), tuple(range(i + 1, n + 2)))
                want = minkowski.block_pair_direction(blocks, n)
                for d in ((i, n + 2), (0, i + 1)):
                    if by_diag[d].direction != want:
                        bad.append((n, "direction_mismatch", d))
    return not bad, {"bad": bad}


def check_face_lattice(n_max, seed):
    """Each default polytope's certified facets are all its facets and its
    edges are the flips (`analysis.face_lattice`), with f-vector
    (Catalan(n+1), n*Catalan(n+1)/2, n(n+3)/2)."""
    bad = []
    for n in range(1, n_max + 1):
        want = (CATALAN[n + 1], n * CATALAN[n + 1] // 2, n * (n + 3) // 2)
        for tag, p in build_all_defaults(n).items():
            report = analysis.face_lattice(p)
            if not report["ok"] or report["f_vector"] != want:
                bad.append((n, tag, report["f_vector"], report["problems"][:3]))
    return not bad, {"bad": bad}


def check_special_profiles(n_max, seed):
    bad = []
    for n in range(2, n_max + 1):
        built = build_all_defaults(n)
        for tag in ("cluster", "minkowski"):
            profile = special_profile(extract_facets(built[tag]))
            if len(profile) != 2 * n:
                bad.append((n, tag, "special_count", len(profile)))
            if tag == "minkowski":
                low = sorted(d for d, c in profile.items() if c <= n - 1)
                want = sorted([(1, n + 2), (0, n + 1)])
                if low != want or any(profile[d] != n - 1 for d in want):
                    bad.append((n, tag, "low_count_diagonals", low))
            elif n >= 3:
                low = sorted(d for d, c in profile.items() if c <= n - 1)
                if n == 3:
                    expected = [cluster.root_to_diagonal(cluster.pos(2, 2), 3)]
                    if low != expected or profile[expected[0]] != 2:
                        bad.append((n, tag, "low_count_diagonals", low))
                elif low:
                    bad.append((n, tag, "unexpected_low_counts", low))
    return not bad, {"bad": bad}


def check_non_equivalence(n_max, seed):
    rng = random.Random(seed)
    bad = []
    comparisons = []
    for n in range(2, min(n_max, 4) + 1):
        built = build_all_defaults(n)
        drawn = {name: c.build(c.draw(n, rng), n) for name, c in CONSTRUCTIONS.items()}
        pairs = [("secondary", "cluster"), ("secondary", "minkowski")]
        if n >= 3:
            pairs.append(("cluster", "minkowski"))
        for a, b in pairs:
            for source in (built, drawn):
                comparisons.append((n, a, b, source[a], source[b]))
    for n, a, b, pa, pb in comparisons:
        report = analysis.equivalence_search(pa, pb)
        fired = any(f for _, f, _ in report.obstructions)
        if report.verdict != "non_equivalent" or not fired or report.witness is not None:
            bad.append((n, a, b, report.verdict))
    return not bad, {"compared": len(comparisons), "bad": bad}


def check_loday_regression(n_max, seed):
    p2 = build_all_defaults(2)["minkowski"]
    got2 = {tuple(int(c) for c in coords) for coords, _ in p2.vertices}
    want2 = {(3, 2, 1), (3, 1, 2), (2, 1, 3), (1, 2, 3), (1, 4, 1)}
    p1 = build_all_defaults(1)["minkowski"]
    got1 = {tuple(int(c) for c in coords) for coords, _ in p1.vertices}
    ok = got2 == want2 and got1 == {(2, 1), (1, 2)}
    return ok, {"n2": sorted(got2), "n1": sorted(got1)}


def _shear_translate(p):
    d = p.ambient_dim
    matrix = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    matrix[0][1] += Fraction(1, 3)
    shear = AffineMap(
        matrix=tuple(tuple(row) for row in matrix),
        translation=tuple(Fraction(1) for _ in range(d)),
    )
    pairs = [(shear.apply(c), label) for c, label in p.vertices]
    return analysis.make_polytope(p.construction, p.n, d, pairs)


def check_exactness_invariants(n_max, seed):
    bad = []
    for n in range(1, n_max + 1):
        # the default secondary vertices are the GKZ vectors of the parabola
        p = build_all_defaults(n)["secondary"]
        target = 3 * secondary.polygon_area(p.params["coords"])
        for v, t in p.vertices:
            if sum(v) != target:
                bad.append((n, "gkz_sum", t))
        p = build_all_defaults(n)["minkowski"]
        total = sum(p.params["a"].values())
        for c, _ in p.vertices:
            if sum(c) != total:
                bad.append((n, "minkowski_sum", c))
        base_pairs = parallel_pairs(extract_facets(p))
        sheared_pairs = parallel_pairs(extract_facets(_shear_translate(p)))
        if base_pairs != sheared_pairs:
            bad.append((n, "shear_invariance"))
    return not bad, {"bad": bad}


MANIFEST = [
    ("vertex_counts_catalan", check_vertex_counts),
    ("facet_counts", check_facet_counts),
    ("secondary_no_parallel_facets", check_secondary_no_parallel),
    ("cluster_n_parallel_pairs", check_cluster_parallel),
    ("cluster_fan_certificate", check_cluster_fan),
    ("minkowski_parallel_pairs_and_directions", check_minkowski_parallel),
    # the row checks all three constructions; it keeps the name the
    # benchmark's per-layer metric `verification.minkowski_face_correspondence.s`
    # reads, and is renamed together with that metric
    ("minkowski_face_correspondence", check_face_lattice),
    ("special_facet_profiles", check_special_profiles),
    ("pairwise_non_equivalence", check_non_equivalence),
    ("loday_regression", check_loday_regression),
    ("exactness_invariants", check_exactness_invariants),
]


def run_manifest(n_max, seed):
    results = []
    for name, fn in MANIFEST:
        ok, detail = fn(n_max, seed)
        results.append((name, ok, detail))
    return results
