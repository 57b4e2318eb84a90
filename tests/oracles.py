"""Fraction reference formulas that only the tests read: each one restates
a fact the package computes on integers another way, so a test can compare
the two.  The package's own definitions of these were removed once no code
path used them."""

from dataclasses import dataclass
from fractions import Fraction

from associahedra import minkowski, secondary
from associahedra.exactlin import echelon_basis, primitive_rows, rref, vsub
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
