"""Combinatorics of the convex (n+3)-gon with labels 0..n+2.

Diagonals are pairs (a, b) with a < b; triangulations and subdivisions are
sorted tuples of pairwise non-crossing diagonals.  Enumeration order is
lexicographic everywhere so outputs are reproducible.
"""

from functools import lru_cache
from math import comb


def crossing(d1, d2):
    """True iff the endpoints strictly interleave; sharing an endpoint is not crossing."""
    a1, b1 = d1
    a2, b2 = d2
    return (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1)


def catalan(m):
    """The m-th Catalan number; the (n+3)-gon has catalan(n + 1) triangulations."""
    return comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def all_diagonals(n):
    return tuple(
        (a, b)
        for a in range(n + 3)
        for b in range(a + 2, n + 3)
        if not (a == 0 and b == n + 2)
    )


def noncrossing_sets(n):
    """All sets of pairwise non-crossing diagonals (the subdivisions, one per
    face of the associahedron), as a flat list, lexicographic."""
    diags = all_diagonals(n)
    out = []

    def backtrack(start, current):
        out.append(tuple(current))
        if len(current) == n:
            return
        for i in range(start, len(diags)):
            d = diags[i]
            if all(not crossing(d, e) for e in current):
                current.append(d)
                backtrack(i + 1, current)
                current.pop()

    backtrack(0, [])
    return out


@lru_cache(maxsize=None)
def all_triangulations(n):
    """The triangulations, sorted: the faces of `noncrossing_sets` with n
    diagonals, in its order (the keys of `_triangles_by_triangulation`)."""
    return tuple(_triangles_by_triangulation(n))


@lru_cache(maxsize=None)
def _triangles_by_triangulation(n):
    """{triangulation: its n+1 triangles (a, b, c), a < b < c, sorted},
    in sorted order of the triangulations.

    A triangulation of the sub-polygon a, a+1, ..., b has one triangle
    (a, k, b) on its edge (a, b), with apex k strictly between; the rest
    triangulates a..k and k..b, each memoized per (a, b).  The diagonals
    among (a, k) and (k, b) join those of the two sides, and the triangle
    joins theirs.
    """
    memo = {}

    def inside(a, b):
        if (a, b) not in memo:
            memo[a, b] = [((), ())] if b - a < 2 else [
                (
                    left + right + tuple(d for d in ((a, k), (k, b)) if d[1] - d[0] > 1),
                    lt + rt + ((a, k, b),),
                )
                for k in range(a + 1, b)
                for left, lt in inside(a, k)
                for right, rt in inside(k, b)
            ]
        return memo[a, b]

    pairs = inside(0, n + 2) if n >= 0 else []
    return dict(sorted((tuple(sorted(t)), tuple(sorted(tri))) for t, tri in pairs))


@lru_cache(maxsize=None)
def flip_table(n):
    """For each triangulation, in `all_triangulations` order, the indices of
    its n flips: entry k is the triangulation that replaces its k-th
    diagonal.  A ridge (a triangulation minus one diagonal) lies in exactly
    two triangulations, the flip pair across it (AssertionError if not:
    `fan.make_fan` and `analysis.face_lattice` rely on it, so the check
    runs once per n).  One pass records, per ridge, each triangulation
    holding it with the position of the diagonal the ridge lacks."""
    ts = all_triangulations(n)
    containing = {}
    for i, t in enumerate(ts):
        for k in range(len(t)):
            containing.setdefault(t[:k] + t[k + 1 :], []).append((i, k))
    table = [[None] * n for _ in ts]
    for ridge, members in containing.items():
        if len(members) != 2:
            raise AssertionError(f"ridge {ridge} lies in {len(members)} triangulations, not 2")
        (i, k), (j, at) = members
        table[i][k], table[j][at] = j, i
    return tuple(map(tuple, table))


def triangles(t, n):
    """The n+1 triangles (a, b, c), a < b < c, of a triangulation, sorted;
    ValueError if t is not a triangulation of the (n+3)-gon."""
    tri = _triangles_by_triangulation(n).get(tuple(sorted(t)))
    if tri is None:
        raise ValueError("not a triangulation")
    return tri


def flip(t, d, n):
    """Replace diagonal d by the opposite diagonal of its surrounding quadrilateral."""
    if d not in t:
        raise ValueError("diagonal not in triangulation")
    a, b = d
    adjacent = [c for c in triangles(t, n) if a in c and b in c]
    if len(adjacent) != 2:
        raise ValueError(f"diagonal {d} does not bound two triangles")
    quad = set(adjacent[0]) | set(adjacent[1])
    other = sorted(quad - {a, b})
    d_new = (other[0], other[1])
    return tuple(sorted((set(t) - {d}) | {d_new}))
