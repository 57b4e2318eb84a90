"""Secondary polytope of a convex (n+3)-gon.

Each triangulation gets one vertex: its area vector (the GKZ vector), whose
i-th coordinate is the total area of the triangles incident to polygon
vertex i.  The default geometry places the labels on the parabola (k, k^2),
k = 1..n+3, which is rational and strictly convex.

The points are scaled to ints once, and twice the area of each of the
C(n+3, 3) triangles is tabulated once as an int (`area_table`); an area
vector is a sum of table entries on ints, handed to `make_polytope`
with the table's one denominator as its scale.
"""

from fractions import Fraction
from itertools import combinations

from . import polygon
from .analysis import make_polytope
from .exactlin import integer_scaling


def parabola_geometry(n):
    return tuple((Fraction(k), Fraction(k * k)) for k in range(1, n + 4))


def signed_area2(p, q, r):
    """Twice the signed area of triangle pqr (positive = counterclockwise)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def geometry_problem(coords):
    """None if the points are in strictly convex counterclockwise position."""
    m = len(coords)
    if len(set(coords)) != m:
        return "duplicate points"
    for i in range(m):
        a2 = signed_area2(coords[i], coords[(i + 1) % m], coords[(i + 2) % m])
        if a2 <= 0:
            return f"non-positive turn at vertex {(i + 1) % m}"
    return None


def check_geometry(coords, n):
    """ValueError unless `coords` are n + 3 points in strictly convex
    counterclockwise position (`build_secondary`, and a file's params)."""
    if len(coords) != n + 3:
        raise ValueError(f"need n + 3 = {n + 3} points, got {len(coords)}")
    problem = geometry_problem(coords)
    if problem is not None:
        raise ValueError(f"invalid polygon geometry: {problem}")


def validate_geometry(coords):
    return geometry_problem(coords) is None


def polygon_area(coords):
    total = Fraction(0)
    m = len(coords)
    for i in range(m):
        x1, y1 = coords[i]
        x2, y2 = coords[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return total / 2


def area_table(coords):
    """(table, denominator): for every triangle (a, b, c), a < b < c, of the
    points, |2 * area| of the points scaled to ints by one factor s, and the
    denominator 2 * s^2 that turns an entry back into the triangle's area."""
    rows, scale = integer_scaling(coords)
    table = {
        tri: abs(signed_area2(*(rows[i] for i in tri)))
        for tri in combinations(range(len(rows)), 3)
    }
    return table, 2 * scale * scale


def _area_row(table, t, n):
    """The area vector of t times the table's denominator, as an int tuple."""
    v = [0] * (n + 3)
    for tri in polygon.triangles(t, n):
        area = table[tri]
        for label in tri:
            v[label] += area
    return tuple(v)


def gkz_vector(coords, t, n):
    """Per-label sum of incident triangle areas, as an exact rational vector."""
    table, denominator = area_table(coords)
    return tuple(Fraction(x, denominator) for x in _area_row(table, t, n))


def build_secondary(coords=None, *, n):
    if coords is None:
        coords = parabola_geometry(n)
    coords = tuple((Fraction(x), Fraction(y)) for x, y in coords)
    check_geometry(coords, n)
    table, denominator = area_table(coords)
    pairs = [(_area_row(table, t, n), t) for t in polygon.all_triangulations(n)]
    params = {"coords": coords}
    return make_polytope("secondary", n, n + 3, pairs, params=params, scale=denominator)

