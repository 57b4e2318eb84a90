"""Combinatorics of the convex (n+3)-gon with labels 0..n+2.

Diagonals are pairs (a, b) with a < b; triangulations are sorted tuples
of n pairwise non-crossing diagonals.  Enumeration order is
lexicographic everywhere so outputs are reproducible.

Each n's triangulations are enumerated once (`_enumeration`), each as a
bitmask over `all_diagonals(n)` with the lex-first diagonal at the top
bit and a bitmask over its triangles, and every per-n table is read off
that: the labels (`all_triangulations`), their diagonals' positions
(`diagonal_indices`) and their triangles (`label_triangles`).
Sorted labels are the masks in descending order: where two labels first
differ, the smaller diagonal is in the lex-first one only, and every
smaller diagonal is in both or neither, so it is the top differing bit.
"""

from functools import lru_cache
from itertools import combinations
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


@lru_cache(maxsize=None)
def diagonal_index(n):
    """{diagonal: its position in `all_diagonals(n)`}; its mask bit is
    1 << (len - 1 - position).  Cached and shared: nothing in it can be
    changed."""
    return {d: f for f, d in enumerate(all_diagonals(n))}


def all_triangulations(n):
    """The triangulations, sorted (the keys of `_triangles_by_triangulation`)."""
    return _enumeration(n)[0]


def diagonal_indices(n):
    """Per triangulation, in `all_triangulations` order, the positions of
    its diagonals in `all_diagonals(n)`, ascending."""
    return _enumeration(n)[1]


def label_triangles(n):
    """Per triangulation, in `all_triangulations` order, its n+1 triangles
    (a, b, c), a < b < c, sorted."""
    return _enumeration(n)[2]


@lru_cache(maxsize=None)
def _enumeration(n):
    """(labels, diagonal indices, triangles), one entry per triangulation
    in sorted order.

    A triangulation of the sub-polygon a, a+1, ..., b has one triangle
    (a, k, b) on its edge (a, b), with apex k strictly between; the rest
    triangulates a..k and k..b, each memoized per (a, b) as (diagonal
    mask, triangle mask) pairs.  The two sides, the diagonals among (a, k)
    and (k, b) and the triangle combine by `|`; one decode per
    triangulation, top bit first, reads off all three entries in order.
    """
    diagonals, index = all_diagonals(n), diagonal_index(n)
    triples = list(combinations(range(n + 3), 3))
    top, ttop = len(diagonals), len(triples)
    bit = {d: 1 << top - 1 - f for d, f in index.items()}
    tbit = {tri: 1 << ttop - 1 - t for t, tri in enumerate(triples)}
    memo = {}

    def inside(a, b):
        if (a, b) not in memo:
            pairs = [(0, 0)] if b - a < 2 else []
            for k in range(a + 1, b):
                sides, tri = bit.get((a, k), 0) | bit.get((k, b), 0), tbit[a, k, b]
                right = inside(k, b)
                for ld, lt in inside(a, k):
                    ld, lt = ld | sides, lt | tri
                    pairs += [(ld | rd, lt | rt) for rd, rt in right]
            memo[a, b] = pairs
        return memo[a, b]

    labels, indices, triangles = [], [], []
    for dmask, tmask in sorted(inside(0, n + 2) if n >= 0 else [], reverse=True):
        fs, ts = [], []
        while dmask:
            b = dmask.bit_length()
            fs.append(top - b)
            dmask ^= 1 << b - 1
        while tmask:
            b = tmask.bit_length()
            ts.append(triples[ttop - b])
            tmask ^= 1 << b - 1
        labels.append(tuple([diagonals[f] for f in fs]))
        indices.append(tuple(fs))
        triangles.append(tuple(ts))
    # cached and shared by every caller: nothing in it can be changed
    return tuple(labels), tuple(indices), tuple(triangles)


@lru_cache(maxsize=None)
def _triangles_by_triangulation(n):
    """{triangulation: its n+1 triangles (a, b, c), a < b < c, sorted},
    in sorted order of the triangulations."""
    return dict(zip(all_triangulations(n), label_triangles(n)))


@lru_cache(maxsize=None)
def flip_table(n):
    """For each triangulation, in `all_triangulations` order, the indices of
    its n flips: entry k is the triangulation that replaces its k-th
    diagonal.  A ridge (a triangulation minus one diagonal) lies in exactly
    two triangulations, the flip pair across it (AssertionError if not:
    the cluster fan certificate `cluster.verify_fan` and
    `analysis.face_lattice` rely on it, so the check runs once per n).
    One pass over the labels as masks (`diagonal_index`) records, per
    ridge mask ^ bit, each triangulation holding it with the position of
    the diagonal the ridge lacks."""
    ts, index = all_triangulations(n), diagonal_index(n)
    top = len(index) - 1
    containing = {}
    for i, t in enumerate(ts):
        bits = [1 << top - index[d] for d in t]
        mask = sum(bits)
        for k, b in enumerate(bits):
            containing.setdefault(mask ^ b, []).append((i, k))
    table = [[None] * n for _ in ts]
    for members in containing.values():
        if len(members) != 2:
            i, k = members[0]
            ridge = ts[i][:k] + ts[i][k + 1 :]
            raise AssertionError(f"ridge {ridge} lies in {len(members)} triangulations, not 2")
        (i, k), (j, at) = members
        table[i][k], table[j][at] = j, i
    return tuple(map(tuple, table))


@lru_cache(maxsize=None)
def reverse_flips(n):
    """Per triangulation i, in `all_triangulations` order, and each of its
    flips k to j = flip_table(n)[i][k], the position of i among j's flips:
    where j flips back."""
    table = flip_table(n)
    return tuple(tuple(table[j].index(i) for j in row) for i, row in enumerate(table))


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
