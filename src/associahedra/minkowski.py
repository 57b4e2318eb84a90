"""Weighted Minkowski sum of the coordinate simplices on index ranges.

The polytope is sum a_ij * conv{e_i, ..., e_j} over 1 <= i <= j <= n+1.
Its vertices are given by Loday's formula (Loday, "Realization of the
Stasheff polytope", 2004): the vertex of a triangulation T has, for every
triangle (lo, k, hi) of T, x_k = sum of a_ij over lo < i <= k <= j < hi.

The weights are scaled to ints once, by the lcm of their denominators, and
the interval sum of each of the C(n+3, 3) triangles (lo, k, hi) is
tabulated once as an int (`interval_table`); a vertex reads n+1 table
entries, and the rows are handed to `make_polytope` with that lcm as
their scale.
"""

from fractions import Fraction
from itertools import combinations

from . import polygon
from .analysis import face_lattice, make_polytope
from .exactlin import integer_scaling


def all_summands(n):
    return [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]


def ones_weights(n):
    return {s: Fraction(1) for s in all_summands(n)}


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


def _row(table, t, n):
    """The vertex of t times the table's denominator, as an int tuple."""
    v = [0] * (n + 1)
    for tri in polygon.triangles(t, n):
        v[tri[1] - 1] = table[tri]
    return tuple(v)


def interval_normals(n):
    """The facet normals, per diagonal (a, b): the indicator of a < k < b."""
    return [[int(a < k < b) for k in range(1, n + 2)] for a, b in polygon.all_diagonals(n)]


def check_weights(a, n):
    """ValueError unless `a` holds exactly one positive weight per summand
    (`build_minkowski`, and a file's params)."""
    if set(a) != set(all_summands(n)):
        raise ValueError(f"weights must be given for exactly the {len(all_summands(n))} summands")
    for s in all_summands(n):
        if a[s] <= 0:
            raise ValueError(f"weight a{s} must be positive")


def build_minkowski(a, n):
    """One vertex per triangulation, by Loday's formula; `a` must hold
    exactly one positive weight per summand."""
    check_weights(a, n)
    table, denominator = interval_table(a, n)
    pairs = [(_row(table, t, n), t) for t in polygon.all_triangulations(n)]
    return make_polytope("minkowski", n, n + 1, pairs, params={"a": dict(a)}, scale=denominator)


def verify_correspondence(p, n):
    """The f-vector of the Minkowski polytope p of dimension n
    (`analysis.face_lattice`): its facets are the diagonals', its edges the flips."""
    if n != p.n:
        raise ValueError(f"polytope has n={p.n}, not {n}")
    return face_lattice(p)

