"""Fraction reference formulas that only the tests read: each one restates
a fact the package computes on integers another way, so a test can compare
the two.  The package's own definitions of these were removed once no code
path used them."""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from associahedra import minkowski, secondary
from associahedra.exactlin import echelon_basis, primitive_rows, rref, vsub
from associahedra.fan import _scaled
from associahedra.polygon import all_diagonals, crossing


def vec(*entries):
    return tuple(Fraction(e) for e in entries)


def rank(rows):
    """The rank of Fraction or int rows."""
    return len(echelon_basis(primitive_rows(rows))[1])


@dataclass(frozen=True)
class Subspace:
    """Linear subspace in canonical reduced-echelon form.

    Two equal subspaces have identical representations, so equality of
    direction spaces (facet parallelism) is a syntactic comparison.
    """

    basis: tuple
    ambient_dim: int

    @property
    def dim(self):
        return len(self.basis)


def span(vectors, ambient_dim):
    red, _ = rref(vectors) if vectors else ((), ())
    return Subspace(basis=red, ambient_dim=ambient_dim)


def subspace_from_differences(points):
    """Canonical span of {p_i - p_0}; zero subspace if all points equal."""
    if len(points) < 1:
        raise ValueError("need at least one point")
    return span([vsub(p, points[0]) for p in points[1:]], len(points[0]))


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


def gkz_vector(coords, t, n):
    """Per-label sum of incident triangle areas, as an exact rational vector."""
    table, denominator = secondary.area_table(coords)
    return tuple(Fraction(x, denominator) for x in secondary._area_row(table, t, n))


def loday_vertex(a, t, n):
    """The vertex of triangulation t: each triangle (lo, k, hi) sets x_k to
    the total weight of the intervals [i..j] with lo < i <= k <= j < hi."""
    table, denominator = minkowski.interval_table(a, n)
    return tuple(Fraction(x, denominator) for x in minkowski._row(table, t, n))


def cone_vertices(fan, h):
    """(rows, scale): the vertex of each cone of a `fan.make_fan` fan, in
    cone order, over one scale, by the per-cone solve the cluster build's
    closed form replaced: one integer product of the cone's inverse with
    h scaled to ints.  Every other ray's inequality must hold strictly
    there, by one scalar dot product per cone and ray; the first failing
    cone and, in ray order, its first failing ray are named
    (AssertionError).  ValueError if the fan's certificate fails."""
    if fan.problems:
        raise ValueError(f"not a complete simplicial fan: {fan.problems[:3]}")
    hs, scale = _scaled(h)
    common = lcm(*(cone.denominator for cone in fan.cones))
    rows = []
    for cone in fan.cones:
        rhs = [hs[d] for d in cone.diagonals] + [0]
        x = [sum(map(mul, row, rhs)) for row in cone.inverse]
        for d, ray in fan.rays.items():
            if d not in cone.diagonals and sum(map(mul, ray, x)) >= cone.denominator * hs[d]:
                raise AssertionError(f"vertex of {cone.diagonals} violates inequality of {d}")
        rows.append(tuple(v * (common // cone.denominator) for v in x))
    return rows, common * scale


def projected_normals(fan):
    """{diagonal: D ray - (sum ray) 1}, D the rays' length: each ray
    projected into the sum-zero hyperplane and scaled to ints."""
    return {d: tuple(len(ray) * a - sum(ray) for a in ray) for d, ray in fan.rays.items()}
