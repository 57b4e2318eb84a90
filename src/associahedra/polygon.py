"""Combinatorics of the convex (n+3)-gon with labels 0..n+2.

Diagonals are pairs (a, b) with a < b; triangulations and subdivisions are
sorted tuples of pairwise non-crossing diagonals.  Enumeration order is
lexicographic everywhere so outputs are reproducible.
"""

from functools import lru_cache


def is_polygon_edge(d, n):
    a, b = d
    return b - a == 1 or (a == 0 and b == n + 2)


def crossing(d1, d2):
    """True iff the endpoints strictly interleave; sharing an endpoint is not crossing."""
    a1, b1 = d1
    a2, b2 = d2
    return (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1)


@lru_cache(maxsize=None)
def all_diagonals(n):
    return tuple(
        (a, b)
        for a in range(n + 3)
        for b in range(a + 2, n + 3)
        if not (a == 0 and b == n + 2)
    )


def _noncrossing_sets(n, max_size):
    """All non-crossing diagonal sets, grouped as a flat list, lexicographic."""
    diags = all_diagonals(n)
    out = []

    def backtrack(start, current):
        out.append(tuple(current))
        if len(current) == max_size:
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
    return tuple(s for s in _noncrossing_sets(n, n) if len(s) == n)


@lru_cache(maxsize=None)
def all_subdivisions(n):
    return tuple(_noncrossing_sets(n, n))


def subdivision_sizes(n):
    counts = {}
    for s in all_subdivisions(n):
        counts[len(s)] = counts.get(len(s), 0) + 1
    return counts


def refines(s1, s2):
    """s1 refines s2 iff s2's diagonals are a subset of s1's (more diagonals = finer)."""
    return set(s2) <= set(s1)


def cells(subdivision, n):
    """The cells of a subdivision, each as a sorted tuple of vertex labels."""

    def rec(cycle, diags):
        if not diags:
            return [tuple(cycle)]
        (a, b), rest = diags[0], diags[1:]
        ia, ib = sorted((cycle.index(a), cycle.index(b)))
        side1 = cycle[ia : ib + 1]
        side2 = cycle[ib:] + cycle[: ia + 1]
        in1 = [d for d in rest if d[0] in side1 and d[1] in side1]
        in2 = [d for d in rest if d not in in1]
        return rec(side1, in1) + rec(side2, in2)

    result = rec(list(range(n + 3)), sorted(subdivision))
    return sorted(tuple(sorted(c)) for c in result)


@lru_cache(maxsize=None)
def triangles(t, n):
    """The n+1 triangles (a, b, c), a < b < c, of a triangulation, sorted."""
    tri = cells(t, n)
    if any(len(c) != 3 for c in tri):
        raise ValueError("not a triangulation")
    return tuple(tri)


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
