"""Combinatorics of the convex (n+3)-gon with labels 0..n+2.

Diagonals are pairs (a, b) with a < b; triangulations and subdivisions are
sorted tuples of pairwise non-crossing diagonals.  Enumeration order is
lexicographic everywhere so outputs are reproducible.
"""

from functools import lru_cache


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
    diagonals, in its order.

    A triangulation of the sub-polygon a, a+1, ..., b has one triangle on
    its edge (a, b), with apex k strictly between; the rest triangulates
    a..k and k..b, each memoized per (a, b).  The diagonals among (a, k)
    and (k, b) join those of the two sides.
    """
    memo = {}

    def inside(a, b):
        if (a, b) not in memo:
            memo[a, b] = [()] if b - a < 2 else [
                left + right + tuple(d for d in ((a, k), (k, b)) if d[1] - d[0] > 1)
                for k in range(a + 1, b)
                for left in inside(a, k)
                for right in inside(k, b)
            ]
        return memo[a, b]

    return tuple(sorted(tuple(sorted(t)) for t in inside(0, n + 2))) if n >= 0 else ()


@lru_cache(maxsize=None)
def flip_table(n):
    """For each triangulation, in `all_triangulations` order, the indices of
    its n flips: entry k is the triangulation that replaces its k-th
    diagonal.  A ridge (a triangulation minus one diagonal) lies in exactly
    two triangulations, which are the flip pair across it."""
    ts = all_triangulations(n)
    by_ridge = {}
    for i, t in enumerate(ts):
        for k in range(n):
            by_ridge.setdefault(t[:k] + t[k + 1 :], []).append(i)
    return tuple(
        tuple(sum(by_ridge[t[:k] + t[k + 1 :]]) - i for k in range(n)) for i, t in enumerate(ts)
    )


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
