"""Type-A cluster fan and its polytopal realization.

Almost positive roots are ('-', i) for the negated simple roots and
('+', i, j) for the consecutive sums alpha_i + ... + alpha_j.  Each root is
identified with a diagonal of the (n+3)-gon through a fixed snake
triangulation; compatibility is non-crossing of the identified diagonals.
The polytope lives in the sum-zero hyperplane of rational (n+1)-space and
is cut out by support values h certified through wall-crossing
inequalities.

The fan (integer cone inverses, walls, wall relations) is built once per
n; a build scales h to ints once, and the wall check, the vertices and the
strict root inequalities are integer products.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple

from . import polygon
from .analysis import make_polytope
from .exactlin import integer_inverse


def neg(i):
    return ("-", i)


def pos(i, j):
    return ("+", i, j)


def all_roots(n):
    roots = [neg(i) for i in range(1, n + 1)]
    roots += [pos(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return roots


def root_key(r):
    """File key of a root: "-a1", "a2" or "a1..3"."""
    if r[0] == "-":
        return f"-a{r[1]}"
    _, i, j = r
    return f"a{i}" if i == j else f"a{i}..{j}"


def parse_root_key(key):
    """The root of a file key; ValueError unless `root_key` gives the key back."""
    if key.startswith("-a"):
        r = neg(int(key[2:]))
    else:
        i, _, j = key[1:].partition("..")
        r = pos(int(i), int(j or i))
    if root_key(r) != key:
        raise ValueError(f"not a canonical root key: {key!r}")
    return r


def root_coordinates(r, n):
    """Embed a root in (n+1)-space as an int tuple e_i - e_j; it sums to zero."""
    i, j = (r[1] + 1, r[1]) if r[0] == "-" else (r[1], r[2] + 1)
    return tuple((k == i) - (k == j) for k in range(1, n + 2))


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


class _Cone(NamedTuple):
    """A cluster's sorted roots; `inverse / denominator` inverts the matrix
    of their int rows plus the all-ones row."""

    roots: tuple
    inverse: tuple
    denominator: int


def _cone(roots, n):
    roots = tuple(_sorted_roots(roots))
    if len(roots) != n:
        raise ValueError("a cluster has n roots")
    rows = [root_coordinates(r, n) for r in roots] + [(1,) * (n + 1)]
    return _Cone(roots, *integer_inverse(rows))


def _ridges(clusters):
    """Each cluster minus one root -> indices of the clusters containing it."""
    containing = {}
    for i, c in enumerate(clusters):
        for r in c:
            containing.setdefault(c - {r}, []).append(i)
    return containing


def _in_basis(cone, v):
    """d times the coefficients of v in the rows of the cone matrix."""
    return [sum(map(mul, v, col)) for col in zip(*cone.inverse)]


def _int_relation(cone, c2, n):
    """The wall relation a*beta + b*beta' = sum c_g*g over the shared roots g
    in ints, a, b > 0, as (beta, beta', a, b, ((g, c_g), ...)): beta' in the
    basis of c1's cone is (-a*beta + sum c_g*g) / b, with b = d."""
    out, inc = set(cone.roots) - c2, c2 - set(cone.roots)
    if len(out) != 1 or len(inc) != 1:
        raise ValueError("clusters are not adjacent")
    (beta,), (beta_p,) = out, inc
    y = dict(zip(cone.roots, _in_basis(cone, root_coordinates(beta_p, n))))
    a = -y.pop(beta)
    if a <= 0:
        raise ValueError("exchanged roots do not lie on opposite sides of the wall")
    return beta, beta_p, a, cone.denominator, tuple(y.items())


class _Fan(NamedTuple):
    cones: tuple  # one _Cone per cluster, in all_clusters order
    walls: tuple  # (c1, c2) pairs
    relations: tuple  # one _int_relation per wall


@lru_cache(maxsize=None)
def _fan(n):
    """The cluster fan of `all_clusters(n)`.  Walls come from ridge incidence
    in flip order: each cluster in turn, its roots by diagonal, a wall kept
    where the other cone comes later."""
    clusters = all_clusters(n)
    cones = tuple(_cone(c, n) for c in clusters)
    containing = _ridges(clusters)
    walls, relations = [], []
    for i, c in enumerate(clusters):
        for r in sorted(c, key=lambda r: root_to_diagonal(r, n)):
            a, b = containing[c - {r}]  # a complete fan: two cones per ridge
            j = a + b - i
            if j > i:
                walls.append((c, clusters[j]))
                relations.append(_int_relation(cones[i], clusters[j], n))
    return _Fan(cones, tuple(walls), tuple(relations))


def walls(n):
    """Adjacent cluster pairs (sharing n-1 roots), in the order the flips of
    the triangulations in enumeration order first meet them."""
    return _fan(n).walls


def wall_relation(c1, c2, n):
    """Exact linear dependence across a wall.

    With beta the root exchanged out of c1 and beta' the one exchanged in,
    returns (1, lam, coeffs) such that beta + lam*beta' = sum coeffs[gamma]*gamma
    over the shared roots, with lam > 0; raises ValueError otherwise.
    """
    _, _, a, b, cs = _int_relation(_cone(c1, n), c2, n)
    return Fraction(1), Fraction(b, a), {g: Fraction(c, a) for g, c in cs}


def _scaled(h, n):
    """h times the lcm of its denominators, as ints, and that lcm."""
    scale = lcm(*(h[r].denominator for r in all_roots(n)))
    return {r: h[r].numerator * (scale // h[r].denominator) for r in all_roots(n)}, scale


def polytopality_check(h, n):
    """Strict convexity of the support values across every wall.

    Returns (ok, violations); each violation records the wall and the slack
    rhs - lhs of its relation.  The check runs on h scaled to ints.
    """
    hs, scale = _scaled(h, n)
    violations = []
    for beta, beta_p, a, b, cs in _fan(n).relations:
        value = a * hs[beta] + b * hs[beta_p] - sum(c * hs[g] for g, c in cs)
        if value <= 0:
            violations.append((beta, beta_p, Fraction(-value, a * scale)))
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


def build_cluster_polytope(h, n):
    """One vertex per cluster: the point of the sum-zero hyperplane meeting
    all n root hyperplanes <rho, x> = h(rho) of the cluster.

    h holds exactly one value per root.  Every inequality for a root outside
    the cluster must hold strictly (one integer dot product each); a tie or
    violation means h is not polytopal and is a hard error.
    """
    roots = all_roots(n)
    if set(h) != set(roots):
        raise ValueError(f"support values must be given for exactly the {len(roots)} roots")
    ok, violations = polytopality_check(h, n)
    if not ok:
        raise ValueError(f"support values fail the wall check: {violations[:3]}")
    hs, scale = _scaled(h, n)
    coords = {r: root_coordinates(r, n) for r in roots}
    pairs = []
    for t, cone in zip(polygon.all_triangulations(n), _fan(n).cones):
        rhs = [hs[r] for r in cone.roots] + [0]
        x = [sum(map(mul, row, rhs)) for row in cone.inverse]
        for r in roots:
            if r not in cone.roots and sum(map(mul, coords[r], x)) >= cone.denominator * hs[r]:
                raise AssertionError(f"vertex of {t} violates inequality of root {r}")
        pairs.append((tuple(Fraction(v, cone.denominator * scale) for v in x), t))
    return make_polytope("cluster", n, n + 1, pairs, params={"h": dict(h)})


def verify_fan(n):
    """Exact certificate that the cluster cones form a complete simplicial fan
    (De Loera-Rambau-Santos, Triangulations, section 4.5).

    (a) each cluster has n linearly independent roots, (b) every (n-1)-subset
    of a cluster lies in exactly two clusters, whose exchanged roots lie on
    opposite sides of it, and (c) the sum of the rays of the first cluster
    lies in exactly one closed cone.  (b) makes the cones a pseudomanifold
    without boundary, so the number of cones covering a point off the walls
    is the same everywhere, and (c) makes that number 1.  Certifies whatever
    `all_clusters(n)` returns at call time, on integer cone inverses.
    """
    problems = []
    clusters = all_clusters(n)
    cones = []
    for c in clusters:
        try:
            cones.append(_cone(c, n))
        except ValueError:
            problems.append(("dependent_cluster", _sorted_roots(c)))
    containing = _ridges(clusters)
    for shared, members in containing.items():
        if len(members) != 2:
            problems.append(("wall_shared_by", len(members), _sorted_roots(shared)))
            continue
        try:
            wall_relation(clusters[members[0]], clusters[members[1]], n)
        except ValueError:
            problems.append(("wall_not_separating", _sorted_roots(shared)))
    point = tuple(map(sum, zip(*(root_coordinates(r, n) for r in clusters[0]))))
    # the all-ones coefficient of a sum-zero point is 0
    covering = sum(all(y >= 0 for y in _in_basis(cone, point)) for cone in cones)
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    return {
        "ok": not problems,
        "cones": len(clusters),
        "walls": len(containing),
        "problems": problems,
    }
