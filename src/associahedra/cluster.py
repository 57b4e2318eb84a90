"""Type-A cluster fan and its polytopal realization.

Almost positive roots are ('-', i) for the negated simple roots and
('+', i, j) for the consecutive sums alpha_i + ... + alpha_j.  Each root is
identified with a diagonal of the (n+3)-gon through a fixed snake
triangulation; compatibility is non-crossing of the identified diagonals.
The polytope lives in the sum-zero hyperplane of rational (n+1)-space and
is cut out by support values h certified through wall-crossing
inequalities.
"""

from fractions import Fraction
from functools import lru_cache

from . import polygon
from .analysis import make_polytope
from .exactlin import (
    UNDERDETERMINED,
    ZERO,
    dot,
    rank,
    solve_linear,
    transpose,
    unit,
    vsub,
)


def neg(i):
    return ("-", i)


def pos(i, j):
    return ("+", i, j)


def all_roots(n):
    roots = [neg(i) for i in range(1, n + 1)]
    roots += [pos(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return roots


def root_coordinates(r, n):
    """Embed a root in rational (n+1)-space; output sums to zero."""
    e = lambda i: unit(i - 1, n + 1)
    if r[0] == "-":
        i = r[1]
        return vsub(e(i + 1), e(i))
    _, i, j = r
    return vsub(e(i), e(j + 1))


def snake_diagonal(i, n):
    """The i-th diagonal of the fixed zigzag triangulation."""
    a = (i + 1) // 2
    b = n + 2 - i // 2
    return (a, b) if a < b else (b, a)


@lru_cache(maxsize=None)
def _root_diagonal_maps(n):
    snakes = {i: snake_diagonal(i, n) for i in range(1, n + 1)}
    snake_t = tuple(sorted(snakes.values()))
    if len(snake_t) != n or snake_t not in polygon.all_triangulations(n):
        raise AssertionError("snake diagonals are not a triangulation")
    r2d = {neg(i): snakes[i] for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            want = set(range(i, j + 1))
            candidates = [
                d
                for d in polygon.all_diagonals(n)
                if {k for k in snakes if polygon.crossing(d, snakes[k])} == want
            ]
            if len(candidates) != 1:
                raise AssertionError(
                    f"snake convention broken: root {pos(i, j)} has "
                    f"{len(candidates)} candidate diagonals"
                )
            r2d[pos(i, j)] = candidates[0]
    d2r = {d: r for r, d in r2d.items()}
    if not len(d2r) == len(r2d) == n * (n + 3) // 2:
        raise AssertionError("roots and diagonals are not in bijection")
    return r2d, d2r


def root_to_diagonal(r, n):
    return _root_diagonal_maps(n)[0][r]


def diagonal_to_root(d, n):
    return _root_diagonal_maps(n)[1][d]


def compatible(r1, r2, n):
    d1, d2 = root_to_diagonal(r1, n), root_to_diagonal(r2, n)
    return not polygon.crossing(d1, d2)


def cluster_of(t, n):
    return frozenset(diagonal_to_root(d, n) for d in t)


@lru_cache(maxsize=None)
def all_clusters(n):
    """Clusters in the order of the triangulation enumeration."""
    return tuple(cluster_of(t, n) for t in polygon.all_triangulations(n))


def _sorted_roots(roots):
    return sorted(roots, key=lambda r: (r[0] == "+",) + r[1:])


@lru_cache(maxsize=None)
def walls(n):
    """Adjacent cluster pairs (sharing n-1 roots), via diagonal flips."""
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


def wall_relation(c1, c2, n):
    """Exact linear dependence across a wall.

    With beta the root exchanged out of c1 and beta' the one exchanged in,
    returns (1, lam, coeffs) such that beta + lam*beta' = sum coeffs[gamma]*gamma
    over the shared roots, with lam > 0; raises ValueError otherwise.
    """
    out = c1 - c2
    inc = c2 - c1
    if len(out) != 1 or len(inc) != 1:
        raise ValueError("clusters are not adjacent")
    beta = next(iter(out))
    beta_p = next(iter(inc))
    shared = _sorted_roots(c1 & c2)
    # unknowns: lam, then one coefficient per shared root
    cols = [root_coordinates(beta_p, n)] + [
        tuple(-x for x in root_coordinates(g, n)) for g in shared
    ]
    system = [tuple(col[row] for col in cols) for row in range(n + 1)]
    rhs = tuple(-x for x in root_coordinates(beta, n))
    sol = solve_linear(system, rhs)
    if sol is None or sol is UNDERDETERMINED:
        raise ValueError("wall relation is not uniquely determined")
    lam = sol[0]
    if lam <= 0:
        raise ValueError("exchanged roots lie on the same side of the wall")
    coeffs = dict(zip(shared, sol[1:]))
    return Fraction(1), lam, coeffs


@lru_cache(maxsize=None)
def _wall_relations(n):
    out = []
    for c1, c2 in walls(n):
        beta = next(iter(c1 - c2))
        beta_p = next(iter(c2 - c1))
        _, lam, coeffs = wall_relation(c1, c2, n)
        out.append((beta, beta_p, lam, tuple(coeffs.items())))
    return tuple(out)


def polytopality_check(h, n):
    """Strict convexity of the support values across every wall.

    Returns (ok, violations); each violation records the wall and the slack.
    """
    violations = []
    for beta, beta_p, lam, coeffs in _wall_relations(n):
        lhs = h[beta] + lam * h[beta_p]
        rhs = sum((c * h[g] for g, c in coeffs), ZERO)
        if lhs <= rhs:
            violations.append((beta, beta_p, rhs - lhs))
    return (not violations), violations


def repair_support_values(h, n):
    """Iteratively raise h on the exchanged roots of the most-violated wall
    until every wall inequality is strict; bounded iterations."""
    h = dict(h)
    max_iters = 10 * len(walls(n))
    for _ in range(max_iters):
        ok, violations = polytopality_check(h, n)
        if ok:
            return h
        beta, beta_p, deficit = max(violations, key=lambda v: v[2])
        bump = deficit + 1
        h[beta] += bump
        h[beta_p] += bump
    raise RuntimeError("no support values found")


def default_support_values(n):
    """Explicit support values h(rho) = l(n+3-l), where l = b - a is the
    length of the diagonal (a, b) of rho.

    Every wall inequality holds with slack at least 2 (6 at n = 2, 8 at
    n = 1); `build_cluster_polytope` certifies this on every call.
    """
    h = {}
    for r in all_roots(n):
        a, b = root_to_diagonal(r, n)
        h[r] = Fraction((b - a) * (n + 3 - (b - a)))
    return h


@lru_cache(maxsize=None)
def _cluster_systems(n):
    """Per cluster: sorted roots and the square system rows for vertex solving."""
    systems = []
    for t in polygon.all_triangulations(n):
        roots = _sorted_roots(cluster_of(t, n))
        rows = [root_coordinates(r, n) for r in roots]
        rows.append(tuple(Fraction(1) for _ in range(n + 1)))
        systems.append((t, roots, tuple(rows)))
    return tuple(systems)


def build_cluster_polytope(h, n):
    """One vertex per cluster: the point of the sum-zero hyperplane meeting
    all n root hyperplanes <rho, x> = h(rho) of the cluster.

    Every inequality for a root outside the cluster must hold strictly;
    a tie or violation means h is not polytopal and is a hard error.
    """
    ok, violations = polytopality_check(h, n)
    if not ok:
        raise ValueError(f"support values fail the wall check: {violations[:3]}")
    roots = all_roots(n)
    coords_of = {r: root_coordinates(r, n) for r in roots}
    pairs = []
    for t, cluster_roots, rows in _cluster_systems(n):
        rhs = [h[r] for r in cluster_roots] + [ZERO]
        x = solve_linear(rows, rhs)
        if x is None or x is UNDERDETERMINED:
            raise AssertionError(f"cluster system degenerate for {t}")
        for r in roots:
            if r in cluster_roots:
                continue
            if dot(coords_of[r], x) >= h[r]:
                raise AssertionError(
                    f"vertex of {t} violates inequality of root {r}"
                )
        pairs.append((x, t))
    return make_polytope("cluster", n, n + 1, pairs, params={"h": dict(h)})


def verify_fan(n):
    """Exact certificate that the cluster cones form a complete simplicial fan
    (De Loera-Rambau-Santos, Triangulations, section 4.5).

    (a) each cluster has n linearly independent roots, (b) every (n-1)-subset
    of a cluster lies in exactly two clusters, whose exchanged roots lie on
    opposite sides of it, and (c) the sum of the rays of the first cluster
    lies in exactly one closed cone.  (b) makes the cones a pseudomanifold
    without boundary, so the number of cones covering a point off the walls
    is the same everywhere, and (c) makes that number 1.
    """
    problems = []
    clusters = all_clusters(n)
    rays = [[root_coordinates(r, n) for r in _sorted_roots(c)] for c in clusters]
    for c, rows in zip(clusters, rays):
        if len(c) != n or rank(rows) != n:
            problems.append(("dependent_cluster", _sorted_roots(c)))
    containing = {}
    for i, c in enumerate(clusters):
        for r in c:
            containing.setdefault(c - {r}, []).append(i)
    for shared, members in containing.items():
        if len(members) != 2:
            problems.append(("wall_shared_by", len(members), _sorted_roots(shared)))
            continue
        try:
            wall_relation(clusters[members[0]], clusters[members[1]], n)
        except ValueError:
            problems.append(("wall_not_separating", _sorted_roots(shared)))
    point = tuple(sum(col, ZERO) for col in zip(*rays[0]))
    covering = 0
    for rows in rays:
        lambdas = solve_linear(transpose(rows), point)
        if isinstance(lambdas, tuple) and all(l >= 0 for l in lambdas):
            covering += 1
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    return {
        "ok": not problems,
        "cones": len(clusters),
        "walls": len(containing),
        "problems": problems,
    }
