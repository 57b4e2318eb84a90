"""Weighted Minkowski sum of the coordinate simplices on index ranges.

The polytope is sum a_ij * conv{e_i, ..., e_j} over 1 <= i <= j <= n+1.
Its vertices are given by Loday's formula (Loday, "Realization of the
Stasheff polytope", 2004): the vertex of a triangulation T has, for every
triangle (lo, k, hi) of T, x_k = sum of a_ij over lo < i <= k <= j < hi.
A linear functional is converted to a polygon subdivision by the
sub-polygon rule: for every label k, the hull of the labels with value
>= w_k (labels 0 and n+2 count as +infinity) contributes its chord edges
as diagonals.

The weights are scaled to ints once, by the lcm of their denominators, and
the interval sum of each of the C(n+3, 3) triangles (lo, k, hi) is
tabulated once as an int (`interval_table`); a vertex reads n+1 table
entries, and only its coordinates are made Fractions, over that lcm.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

from . import polygon
from .analysis import extract_facets, make_polytope
from .exactlin import integer_points, integer_scaling, span, unit, vsub


def all_summands(n):
    return [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]


def ones_weights(n):
    return {s: Fraction(1) for s in all_summands(n)}


def subdivision_from_functional(w, n):
    """Common refinement of the subdivisions induced by the sub-polygons
    of labels with value >= w_k; labels 0 and n+2 always belong."""
    diagonals = set()
    for k in range(1, n + 2):
        members = [0] + [i for i in range(1, n + 2) if w[i - 1] >= w[k - 1]] + [n + 2]
        if len(members) <= 2:
            continue
        cyc = members + [members[0]]
        for a, b in zip(cyc, cyc[1:]):
            d = (a, b) if a < b else (b, a)
            if not polygon.is_polygon_edge(d, n):
                diagonals.add(d)
    out = tuple(sorted(diagonals))
    for idx in range(len(out)):
        for jdx in range(idx + 1, len(out)):
            if polygon.crossing(out[idx], out[jdx]):
                raise AssertionError("induced diagonals cross")
    return out


def interval_table(a, n):
    """(table, denominator): for every triangle (lo, k, hi) of the (n+3)-gon,
    the total weight of the intervals [i..j] with lo < i <= k <= j < hi, on
    the weights scaled to ints by the lcm of their denominators, and that
    lcm."""
    summands = all_summands(n)
    (weights,), denominator = integer_scaling([tuple(a[s] for s in summands)])
    w = dict(zip(summands, weights))
    table = {
        (lo, k, hi): sum(w[(i, j)] for i in range(lo + 1, k + 1) for j in range(k, hi))
        for lo, k, hi in combinations(range(n + 3), 3)
    }
    return table, denominator


def _vertex(table, denominator, t, n):
    v = [0] * (n + 1)
    for tri in polygon.triangles(t, n):
        v[tri[1] - 1] = table[tri]
    return tuple(Fraction(x, denominator) for x in v)


def loday_vertex(a, t, n):
    """The vertex of triangulation t: each triangle (lo, k, hi) sets x_k to
    the total weight of the intervals [i..j] with lo < i <= k <= j < hi."""
    return _vertex(*interval_table(a, n), t, n)


def build_minkowski(a, n):
    """One vertex per triangulation, by Loday's formula; `a` must hold
    exactly one positive weight per summand."""
    if set(a) != set(all_summands(n)):
        raise ValueError(f"weights must be given for exactly the {len(all_summands(n))} summands")
    for s in all_summands(n):
        if a[s] <= 0:
            raise ValueError(f"weight a{s} must be positive")
    table, denominator = interval_table(a, n)
    pairs = [(_vertex(table, denominator, t, n), t) for t in polygon.all_triangulations(n)]
    return make_polytope("minkowski", n, n + 1, pairs, params={"a": dict(a)})


def cut_depths(s, n):
    """For each label 1..n+1, how many diagonals of s separate it from the
    polygon edge {0, n+2}."""
    depths = []
    for i in range(1, n + 2):
        depths.append(sum(1 for (a, b) in s if a < i < b))
    return depths


def functional_for_subdivision(s, n):
    """A functional whose induced subdivision is s; certified by replay."""
    w = tuple(Fraction(-d) for d in cut_depths(s, n))
    got = subdivision_from_functional(w, n)
    if got != tuple(sorted(s)):
        raise AssertionError(f"functional reconstruction failed for {s}")
    return w


def verify_correspondence(p, n):
    """Face-lattice checks for the Minkowski construction.

    (a) vertex labels biject with triangulations, (b) edges (certified by a
    functional maximized exactly on a vertex pair) biject with flips,
    (c) facets biject with diagonals via geometric certification.
    """
    problems = []
    labels = [label for _, label in p.vertices]
    if sorted(labels) != sorted(polygon.all_triangulations(n)):
        problems.append(("labels_not_triangulations",))

    flip_pairs = set()
    for idx, (_, t) in enumerate(p.vertices):
        for jdx in range(idx + 1, len(p.vertices)):
            t2 = p.vertices[jdx][1]
            if len(set(t) & set(t2)) == n - 1:
                flip_pairs.add((idx, jdx))
    edge_count = 0
    # a positive scale of the vertices and of each functional keeps its argmax
    rows = p.hull.rows
    for idx, jdx in sorted(flip_pairs):
        t1, t2 = p.vertices[idx][1], p.vertices[jdx][1]
        shared = tuple(sorted(set(t1) & set(t2)))
        w = integer_points([functional_for_subdivision(shared, n)])[0]
        values = [sum(map(mul, w, x)) for x in rows]
        best = max(values)
        argmax = {k for k, val in enumerate(values) if val == best}
        if argmax != {idx, jdx}:
            problems.append(("edge_not_certified", t1, t2))
        else:
            edge_count += 1

    facets = extract_facets(p)
    for f in facets:
        expected = frozenset(
            k for k, (_, label) in enumerate(p.vertices) if f.diagonal in label
        )
        if f.vertex_indices != expected:
            problems.append(("facet_vertex_mismatch", f.diagonal))

    sizes = polygon.subdivision_sizes(n)
    f_vector = (len(p.vertices), edge_count, len(facets))
    expected_f = (sizes.get(n, 0), sizes.get(n - 1, 0), sizes.get(1, 0))
    if f_vector != expected_f:
        problems.append(("f_vector_mismatch", f_vector, expected_f))
    return {
        "ok": not problems,
        "f_vector": f_vector,
        "problems": problems,
    }


def block_pair_direction(blocks, n):
    """Canonical span of the direction spaces of the two index-set simplices."""
    gens = []
    for block in blocks:
        base = block[0]
        for k in block[1:]:
            gens.append(vsub(unit(k - 1, n + 1), unit(base - 1, n + 1)))
    return span(gens, n + 1)
