"""The theorem-verification manifest run by `assoc verify` and the
acceptance test suite.

Each check is a named callable over an n range; all expectations are exact
(zero tolerance).  Checks return (ok, detail) and the runner assembles a
pass/fail table in manifest order, where a check that raises is a failing
row: the manifest reports, it does not raise (but a CertificationError
propagates).
"""

import random
from functools import lru_cache
from math import gcd
from operator import mul

from . import analysis, cluster, polygon, secondary
from .analysis import extract_facets, parallel_pairs, special_profile
from .constructions import CONSTRUCTIONS, practical_bound
from .exactlin import hull_equations

CATALAN = [polygon.catalan(m) for m in range(practical_bound() + 2)]


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
            if len(p.labels) != CATALAN[n + 1]:
                bad.append((n, tag, len(p.labels)))
    return not bad, {"expected": CATALAN[2 : n_max + 2], "bad": bad}


def check_facet_counts(n_max, seed):
    bad = []
    for n in range(1, n_max + 1):
        for tag, p in build_all_defaults(n).items():
            facets = extract_facets(p)
            if len(facets) != n * (n + 3) // 2:
                bad.append((n, tag, len(facets)))
    return not bad, {"bad": bad}


def _parallel_row(name, expected, normal, n_max, seed):
    """At each n = 2..n_max, the default `name` polytope and three seeded
    draws have exactly the parallel pairs `expected(n)`, else
    (n, got, want); with `normal`, the two facets of the i-th pair
    (i = 1..n) have the primitive normal `normal(i, n)`, compared in the
    chart (`_chart_normal_of`), else (n, "direction_mismatch", d) for each
    facet d that does not."""
    rng = random.Random(seed)
    bad = []
    for n in range(2, n_max + 1):
        want = expected(n)
        for p in _default_and_draws(name, n, rng):
            facets = extract_facets(p)
            got = parallel_pairs(facets)
            if got != want:
                bad.append((n, got, want))
            elif normal is not None:
                by_diag = {f.diagonal: f.chart_normal for f in facets}
                for i, pair in enumerate(want, 1):
                    c = _chart_normal_of(p.hull, normal(i, n))
                    wrong = [d for d in pair if by_diag[d] != c]
                    bad += [(n, "direction_mismatch", d) for d in wrong]
    return not bad, {"bad": bad}


def _chart_normal_of(hull, normal):
    """The `FacetDescriptor.chart_normal` of a facet whose ambient normal,
    primitive with its first nonzero entry positive, is the int `normal`;
    None unless `normal` is such a vector in the hull's direction space:
    f . normal = 0 for each of its equations f (`exactlin.hull_equations`,
    the ones `analysis._flip_basis` checks every vertex row against).  On
    that space the chart (`analysis._chart_normals`) is one-to-one, so a
    facet has this normal iff its chart normal is this one, made primitive
    with its first nonzero entry positive; no normal is lifted."""
    if gcd(*normal) != 1 or next(a for a in normal if a) < 0:
        return None
    if any(sum(map(mul, f, normal)) for f in hull_equations(hull.basis, hull.pivots, len(normal))):
        return None
    (c,) = analysis._chart_normals(hull, [normal])
    return tuple(c) if next(a for a in c if a) > 0 else tuple(-a for a in c)


def check_secondary_no_parallel(n_max, seed):
    return _parallel_row("secondary", lambda n: [], None, n_max, seed)


def cluster_expected_pairs(n):
    pairs = []
    for i in range(1, n + 1):
        d1 = cluster.root_to_diagonal(cluster.pos(i, i), n)
        d2 = cluster.root_to_diagonal(cluster.neg(i), n)
        pairs.append(tuple(sorted((d1, d2))))
    return sorted(pairs)


def check_cluster_parallel(n_max, seed):
    return _parallel_row("cluster", cluster_expected_pairs, None, n_max, seed)


def check_cluster_fan(n_max, seed):
    bad = []
    for n in range(1, n_max + 1):
        report = cluster.verify_fan(n)
        if not report["ok"]:
            bad.append((n, report["problems"][:3]))
    return not bad, {"bad": bad}


def minkowski_expected_pairs(n):
    """The pairs ((0, i+1), (i, n+2)), in order of i = 1..n."""
    return sorted(
        tuple(sorted(((i, n + 2), (0, i + 1)))) for i in range(1, n + 1)
    )


def block_pair_normal(i, n):
    """The primitive normal of the Minkowski facets of (i, n+2) and
    (0, i+1), whose direction space the simplices on the blocks A = 1..i
    and B = i+1..n+1 span: in the hull (coordinate sum constant) it is
    (|B| 1_A - |A| 1_B) / gcd(|A|, |B|)."""
    a, b = i, n + 1 - i
    g = gcd(a, b)
    return (b // g,) * a + (-(a // g),) * b


def check_minkowski_parallel(n_max, seed):
    return _parallel_row("minkowski", minkowski_expected_pairs, block_pair_normal, n_max, seed)


def check_face_lattice(n_max, seed):
    """Each default polytope's certified facets are all its facets and its
    edges are the flips (`analysis.face_lattice`), with f-vector
    (Catalan(n+1), n*Catalan(n+1)/2, n(n+3)/2)."""
    bad = []
    for n in range(1, n_max + 1):
        want = (CATALAN[n + 1], n * CATALAN[n + 1] // 2, n * (n + 3) // 2)
        for tag, p in build_all_defaults(n).items():
            f_vector = analysis.face_lattice(p)
            if f_vector != want:
                bad.append((n, tag, f_vector))
    return not bad, {"bad": bad}


def check_special_profiles(n_max, seed):
    bad = []
    for n in range(2, n_max + 1):
        built = build_all_defaults(n)
        for tag in ("cluster", "minkowski"):
            profile = special_profile(parallel_pairs(extract_facets(built[tag])))
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
    # the Loday vertices are integral: the hull rows over scale 1
    p2, p1 = build_all_defaults(2)["minkowski"], build_all_defaults(1)["minkowski"]
    got2, got1 = set(p2.hull.rows), set(p1.hull.rows)
    want2 = {(3, 2, 1), (3, 1, 2), (2, 1, 3), (1, 2, 3), (1, 4, 1)}
    ok = p2.hull.scale == p1.hull.scale == 1 and got2 == want2 and got1 == {(2, 1), (1, 2)}
    return ok, {"n2": sorted(got2), "n1": sorted(got1), "scales": (p2.hull.scale, p1.hull.scale)}


def _shear_translate(p):
    """p under x -> x + (x_1 / 3) e_0 + (1, ..., 1), on its integer hull
    rows r over scale s: the image rows are 3r + r_1 e_0 + 3s over 3s."""
    s = p.hull.scale
    pairs = [
        ((3 * r[0] + r[1] + 3 * s, *(3 * (a + s) for a in r[1:])), label)
        for r, label in zip(p.hull.rows, p.labels)
    ]
    return analysis.make_polytope(p.construction, p.n, p.ambient_dim, pairs, scale=3 * s)


def check_exactness_invariants(n_max, seed):
    bad = []
    for n in range(1, n_max + 1):
        # the default secondary vertices are the GKZ vectors of the parabola
        p = build_all_defaults(n)["secondary"]
        # on the hull rows over their scale s: sum(row) = s * target
        target = 3 * secondary.polygon_area(p.params["coords"]) * p.hull.scale
        for r, t in zip(p.hull.rows, p.labels):
            if sum(r) != target:
                bad.append((n, "gkz_sum", t))
        p = build_all_defaults(n)["minkowski"]
        total = sum(p.params["a"].values()) * p.hull.scale
        for r, t in zip(p.hull.rows, p.labels):
            if sum(r) != total:
                bad.append((n, "minkowski_sum", t))
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
    """(name, ok, detail) per row, in manifest order.  A row that raises
    is a failing row whose detail["bad"] is ["raised <Type>: <text>"]; a
    CertificationError is not caught, as it is `assoc verify`'s rc 4."""
    results = []
    for name, fn in MANIFEST:
        try:
            ok, detail = fn(n_max, seed)
        except analysis.CertificationError:
            raise
        except Exception as exc:
            ok, detail = False, {"bad": [f"raised {type(exc).__name__}: {exc}"]}
        results.append((name, ok, detail))
    return results
