"""Fraction reference formulas that only the tests read: each one restates
a fact the package computes on integers another way, so a test can compare
the two.  The package's own definitions of these were removed once no code
path used them."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from associahedra import cluster, minkowski, polygon, secondary
from associahedra.exactlin import (
    UNDERDETERMINED,
    ZERO,
    AffineMap,
    echelon_basis,
    integer_inverse,
    integer_scaling,
    lane_failures,
    make_hyperplane,
    primitive_rows,
    rref,
    solve_linear,
    vsub,
)
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
    return tuple(
        Fraction(x, denominator) for x in secondary._area_row(table, polygon.triangles(t, n), n)
    )


def loday_vertex(a, t, n):
    """The vertex of triangulation t: each triangle (lo, k, hi) sets x_k to
    the total weight of the intervals [i..j] with lo < i <= k <= j < hi."""
    table, denominator = minkowski.interval_table(a, n)
    return tuple(
        Fraction(x, denominator) for x in minkowski._row(table, polygon.triangles(t, n), n)
    )


class Cone(NamedTuple):
    """A triangulation's diagonals; `inverse / denominator` inverts the
    matrix of their rays plus the all-ones row."""

    diagonals: tuple
    inverse: tuple
    denominator: int


class Fan(NamedTuple):
    rays: dict  # diagonal -> int row
    cones: tuple  # one Cone per triangulation, None where its rays are dependent
    walls: tuple  # (i, j) cone index pairs, i < j, whose wall separates
    problems: tuple  # what fails the certificate, in `cluster.verify_fan`'s order


def coefficients(cone, v):
    """d times v's coefficients in the cone's rays, then in all-ones: a
    dense product with the inverse's columns."""
    return [sum(map(mul, v, col)) for col in zip(*cone.inverse)]


def make_fan(rays, n):
    """The fan on `rays`, any int rows, whose cones are the triangulations
    of the (n+3)-gon, certified cone by cone: one `integer_inverse` per
    cone, None where its rays are dependent, and each ray's coefficients
    by `coefficients`.  The certificate and its problems are those of
    `cluster.verify_fan`, in its order: dependent cones, then each flip
    (i, k, j) of `polygon.flip_table(n)` with j > i from a cone i that has
    an inverse, a wall when the ray of j's flip back has a negative
    coefficient on cone i's k-th ray, then the number of closed cones
    holding the sum of cone 0's rays when it is not 1."""
    ts, flips = polygon.all_triangulations(n), polygon.flip_table(n)
    ones = (1,) * len(next(iter(rays.values())))
    cones = []
    for t in ts:
        try:
            cones.append(Cone(t, *integer_inverse([rays[d] for d in t] + [ones])))
        except ValueError:
            cones.append(None)
    problems = [("dependent_cone", t) for t, cone in zip(ts, cones) if cone is None]
    walls = []
    for i, (t, cone) in enumerate(zip(ts, cones)):
        for k, j in enumerate(flips[i]):
            if cone is None or j < i:
                continue
            if coefficients(cone, rays[ts[j][flips[j].index(i)]])[k] < 0:
                walls.append((i, j))
            else:
                problems.append(("wall_not_separating", t[:k] + t[k + 1 :]))
    point = tuple(map(sum, zip(*(rays[d] for d in ts[0]))))
    covering = sum(
        all(c >= 0 for c in coefficients(cone, point)[:-1]) for cone in cones if cone is not None
    )
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    return Fan(rays, tuple(cones), tuple(walls), tuple(problems))


def report(fan):
    """`cluster.verify_fan`'s report of a `make_fan` fan."""
    return {
        "ok": not fan.problems,
        "cones": len(fan.cones),
        "walls": len(fan.walls),
        "problems": list(fan.problems),
    }


@lru_cache(maxsize=None)
def cluster_fan(n):
    """`make_fan` on the cluster rays, each diagonal's root coordinates."""
    return make_fan(dict(zip(all_diagonals(n), cluster.ray_normals(n))), n)


def by_diagonal(h, n):
    """Support values on roots, keyed by their diagonals."""
    return {cluster.root_to_diagonal(r, n): v for r, v in h.items()}


def cone_vertices(fan, h):
    """(rows, scale): the vertex of each cone of a `make_fan` fan, in
    cone order, over one scale, by the per-cone solve the cluster build's
    closed form replaced: one integer product of the cone's inverse with
    h scaled to ints.  Every other ray's inequality must hold strictly
    there, by one scalar dot product per cone and ray; the first failing
    cone and, in ray order, its first failing ray are named
    (AssertionError).  ValueError if the fan's certificate fails."""
    if fan.problems:
        raise ValueError(f"not a complete simplicial fan: {fan.problems[:3]}")
    (row,), scale = integer_scaling([h.values()])
    hs = dict(zip(h, row))
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


def lane_pass_vertices(h, n):
    """(rows, scale): the cluster build's vertex rows, certified by the
    lane pass that certified a build before its walls did.  Each cluster's
    vertex is ((n+1) y - (sum y) 1) over (n+1) L, y its tree potential
    (`cluster._potentials`, h scaled to ints by L).  Every other ray's
    inequality must hold strictly there: one `exactlin.lane_failures` over
    all rows, functional (n+1) L h(ray) - ray . x per ray, tight on the
    cluster's own.  A tie or violation means h is not strictly convex; the
    first failing cluster and, in diagonal order, its first failing ray are
    named (AssertionError)."""
    hs, scale, ys = cluster._potentials(h, n)
    m = n + 1
    rows = [tuple(m * v - sum(y) for v in y) for y in ys]
    rays = cluster.ray_normals(n)
    functionals = [(tuple(-a for a in ray), -m * v) for ray, v in zip(rays, hs)]
    failures = lane_failures(functionals, rows, cluster._spanning_trees(n).tight)
    if failures:
        i, (f, *_) = failures[0]
        t, d = polygon.all_triangulations(n)[i], polygon.all_diagonals(n)[f]
        raise AssertionError(f"vertex of {t} violates inequality of {d}")
    return rows, m * scale


def projected_normals(fan):
    """{diagonal: D ray - (sum ray) 1}, D the rays' length: each ray
    projected into the sum-zero hyperplane and scaled to ints."""
    return {d: tuple(len(ray) * a - sum(ray) for a in ray) for d, ray in fan.rays.items()}


def sorted_roots(roots):
    return sorted(roots, key=lambda r: (r[0] == "+",) + r[1:])


def cluster_of(t, n):
    return frozenset(cluster.diagonal_to_root(d, n) for d in t)


@lru_cache(maxsize=None)
def reference_walls(n):
    """The cluster fan's walls as pairs of clusters, by a flip loop over
    the triangulations (`polygon.flip`), each pair at its first flip."""
    seen = set()
    out = []
    for t in polygon.all_triangulations(n):
        c1 = cluster_of(t, n)
        for d in t:
            c2 = cluster_of(polygon.flip(t, d, n), n)
            key = frozenset((c1, c2))
            if key not in seen:
                seen.add(key)
                out.append((c1, c2))
    return tuple(out)


def reference_wall_relation(c1, c2, n):
    """(1, lam, coeffs): the relation beta + lam beta' = sum coeffs[g] g
    over the shared roots g of the wall from cluster c1 to c2, by a
    Fraction solve; ValueError unless the clusters are adjacent and the
    wall separates them."""
    out = c1 - c2
    inc = c2 - c1
    if len(out) != 1 or len(inc) != 1:
        raise ValueError("clusters are not adjacent")
    beta = next(iter(out))
    beta_p = next(iter(inc))
    shared = sorted_roots(c1 & c2)
    # unknowns: lam, then one coefficient per shared root
    cols = [cluster.root_coordinates(beta_p, n)] + [
        tuple(-x for x in cluster.root_coordinates(g, n)) for g in shared
    ]
    system = [tuple(col[row] for col in cols) for row in range(n + 1)]
    rhs = tuple(-x for x in cluster.root_coordinates(beta, n))
    sol = solve_linear(system, rhs)
    if sol is None or sol is UNDERDETERMINED:
        raise ValueError("wall relation is not uniquely determined")
    lam = sol[0]
    if lam <= 0:
        raise ValueError("exchanged roots lie on the same side of the wall")
    coeffs = dict(zip(shared, sol[1:]))
    return Fraction(1), lam, coeffs


@lru_cache(maxsize=None)
def reference_wall_relations(n):
    """(beta, beta', lam, ((g, c_g), ...)) per wall of `reference_walls`."""
    out = []
    for c1, c2 in reference_walls(n):
        beta = next(iter(c1 - c2))
        beta_p = next(iter(c2 - c1))
        _, lam, coeffs = reference_wall_relation(c1, c2, n)
        out.append((beta, beta_p, lam, tuple(coeffs.items())))
    return tuple(out)


def reference_wall_slacks(h, n):
    """lhs - rhs per wall, lhs = h(beta) + lam h(beta') and rhs =
    sum c_g h(g), as Fractions: all positive iff h is strictly convex
    across every wall."""
    return [
        h[beta] + lam * h[beta_p] - sum((c * h[g] for g, c in coeffs), ZERO)
        for beta, beta_p, lam, coeffs in reference_wall_relations(n)
    ]


def reference_polytopality_check(h, n):
    """The Fraction wall check the integer one replaced: (ok, violations),
    each violation a wall's exchanged roots and its deficit rhs - lhs."""
    violations = [
        (beta, beta_p, -slack)
        for (beta, beta_p, *_), slack in zip(reference_wall_relations(n), reference_wall_slacks(h, n))
        if slack <= 0
    ]
    return (not violations), violations


def vertex_pass_lift(p, q, images):
    """The integer vertex pass that the facet check of `analysis._lift`
    replaced: the map x -> y_0 + M (x - x_0), M = Y^T (X X^T)^-1 X times
    s_p / s_q, that p's frame (vertex 0 and its flips) and its `images`
    fix, checked at every vertex row r with image row e as
    K r + (g y_0 - K x_0) == g e, for (G, g) the `integer_inverse` of
    X X^T and K = Y^T (G X); None if a vertex fails."""
    frame = (0, *polygon.flip_table(p.n)[0])
    rows, dst_rows = p.hull.rows, q.hull.rows
    x0, y0 = rows[frame[0]], dst_rows[images[frame[0]]]
    xs = [vsub(rows[i], x0) for i in frame[1:]]
    ys = [vsub(dst_rows[images[i]], y0) for i in frame[1:]]
    inverse, g = integer_inverse([[sum(map(mul, a, b)) for b in xs] for a in xs])
    projected = [[sum(map(mul, row, col)) for col in zip(*xs)] for row in inverse]
    matrix = [[sum(map(mul, y, col)) for col in zip(*projected)] for y in zip(*ys)]
    shift = [g * b - sum(map(mul, k, x0)) for k, b in zip(matrix, y0)]
    for r, j in zip(rows, images):
        e = dst_rows[j]
        if any(sum(map(mul, k, r)) + b != g * a for k, b, a in zip(matrix, shift, e)):
            return None
    s, t = p.hull.scale, q.hull.scale * g
    return AffineMap(
        matrix=tuple(tuple(Fraction(s * a, t) for a in k) for k in matrix),
        translation=tuple(Fraction(b, t) for b in shift),
    )


def eager_facets(p, normals=None):
    """Each certified facet of p as (diagonal, members, normal, offset,
    scale, hyperplane), made as the facet certificate made them before
    normals were lifted on first read: from `normals`, the ambient normals
    p's builder carried, by diagonal, or else from each facet's chart
    normal c lifted by one matrix per polytope, B^T (d G^-1) for B the
    hull's basis and (d G^-1, d) the `integer_inverse` of its Gram matrix
    B B^T; then made primitive with its first nonzero entry positive, and
    the offset read at the first member's row over the hull's scale, in
    lowest terms."""
    basis, rows, scale = p.hull.basis, p.hull.rows, p.hull.scale
    inverse, _ = integer_inverse([[sum(map(mul, a, b)) for b in basis] for a in basis])
    lift = [[sum(map(mul, column, m)) for m in zip(*inverse)] for column in zip(*basis)]
    out = []
    for f in p.certified_facets:
        if normals is None:
            normal = [sum(map(mul, row, f.chart_normal)) for row in lift]
        else:
            normal = normals[f.diagonal]
        g = gcd(*normal)
        if next(a for a in normal if a) < 0:
            g = -g
        normal = tuple(a // g for a in normal)
        offset = sum(map(mul, normal, rows[min(f.vertex_indices)]))
        g = gcd(offset, scale)
        hyperplane = make_hyperplane(normal, Fraction(offset // g, scale // g))
        out.append((f.diagonal, f.vertex_indices, normal, offset // g, scale // g, hyperplane))
    return out


@lru_cache(maxsize=None)
def reference_triangles_by_triangulation(n):
    """{triangulation: its n+1 triangles (a, b, c), a < b < c, sorted},
    in sorted order of the triangulations, by the tuple recursion the mask
    enumeration (`polygon._enumeration`) replaced: the triangle (a, k, b)
    on the edge (a, b) of the sub-polygon a..b, the rest triangulating
    a..k and k..b, memoized per (a, b), and each label sorted at the end."""
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
def reference_flip_table(n):
    """`polygon.flip_table(n)` by the ridge pass over label tuples that the
    one over masks replaced: per ridge, a label minus one diagonal, each
    label holding it with the position of the diagonal it lacks."""
    ts = list(reference_triangles_by_triangulation(n))
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


def reference_diagonal_indices(n):
    """Per reference label, its diagonals' positions in `all_diagonals(n)`,
    by a {diagonal: position} dict."""
    index = {d: f for f, d in enumerate(all_diagonals(n))}
    return tuple(tuple(index[d] for d in t) for t in reference_triangles_by_triangulation(n))


def reference_facet_plan(n):
    """`analysis._facet_plan(n)` made from the reference labels, flips and
    indices, as it was made before the tables were shared."""
    labels, flip_table = list(reference_triangles_by_triangulation(n)), reference_flip_table(n)
    diagonals, tight = all_diagonals(n), reference_diagonal_indices(n)
    carriers = [[] for _ in diagonals]
    for i, t in enumerate(tight):
        for f in t:
            carriers[f].append(i)
    plan = []
    for d, ordered in zip(diagonals, carriers):
        if not ordered:
            plan.append(None)
            continue
        v, members = ordered[0], frozenset(ordered)
        flips = tuple(w for e, w in zip(labels[v], flip_table[v]) if e != d)
        out = next((i for i in range(len(labels)) if i not in members), v)
        plan.append((members, v, flips, out))
    return diagonals, tuple(plan), tight


def reference_spanning_trees(n):
    """`cluster._spanning_trees(n)`'s fields, as a tuple in `_Trees` order,
    made from the reference labels and flips by the walk it replaced: per
    cluster, each coordinate's edges out as lists, a coordinate reached
    when it is not yet in the reached list, and each wall's exchanged ray
    found by searching the far cluster's flips for the near one."""
    triangulations = list(reference_triangles_by_triangulation(n))
    flips, rays, diagonals = reference_flip_table(n), cluster.ray_normals(n), all_diagonals(n)
    ends = [(ray.index(1), ray.index(-1)) for ray in rays]
    tight = [list(fs) for fs in reference_diagonal_indices(n)]
    point = tuple(map(sum, zip(*(rays[f] for f in tight[0]))))
    walks, dependent, problems, walls, covering = [], [], [], 0, 0
    bits = [1 << x for x in range(n + 1)]
    for i, (t, fs) in enumerate(zip(triangulations, tight)):
        steps = [[] for _ in range(n + 1)]
        for f in fs:
            a, b = ends[f]
            steps[b].append((a, f, 1))
            steps[a].append((b, f, -1))
        walk, reached = [], [0]
        for parent in reached:
            for child, f, sign in steps[parent]:
                if child not in reached:
                    reached.append(child)
                    walk.append((child, parent, f, sign))
        if len(reached) <= n:
            walks.append(None)
            dependent.append(("dependent_cone", t))
            continue
        walks.append(walk)
        below, sums, edge, inside = bits[:], list(point), {}, True
        for child, parent, f, sign in reversed(walk):
            sub, total = below[child], sums[child]
            edge[f] = sub, sign
            below[parent] |= sub
            sums[parent] += total
            inside = inside and sign * total >= 0
        covering += inside
        for k, j in enumerate(flips[i]):
            if j < i:
                continue
            (a, b), (sub, sign) = ends[tight[j][flips[j].index(i)]], edge[fs[k]]
            if sign * ((sub >> a & 1) - (sub >> b & 1)) < 0:
                walls += 1
            else:
                problems.append(("wall_not_separating", t[:k] + t[k + 1 :]))
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    d2r = cluster._root_diagonal_maps(n)[1]
    normals = {d: tuple((n + 1) * a - sum(ray) for a in ray) for d, ray in zip(diagonals, rays)}
    roots = [d2r[d] for d in diagonals]
    return roots, ends, tight, walks, normals, walls, tuple(dependent + problems)
