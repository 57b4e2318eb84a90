"""Type-A cluster fan and its polytopal realization.

Almost positive roots are ('-', i) for the negated simple roots and
('+', i, j) for the consecutive sums alpha_i + ... + alpha_j.  Through a
fixed snake triangulation each root is a diagonal of the (n+3)-gon: snake
diagonal i is -alpha_i, any other diagonal the sum of the simple roots of
the snake diagonals it crosses.  Compatible roots are non-crossing
diagonals, so the clusters are the triangulations.  A cluster's rays
e_a - e_b are the edges of a spanning tree on the n+1 coordinates
(`_spanning_trees`), and everything here is read off those trees with no
matrix inverted: the exact certificate that the clusters form a complete
simplicial fan, made once per n with the trees (`verify_fan`), a build's
vertices as the trees' potentials (`tight_vertices`), and each wall's
slack on ints (`polytopality_check`).  On the certified fan the walls
certify a build: support values strictly convex across every wall make
every vertex strict on every other ray's inequality.  This module adds
the root names and file keys, the root-diagonal map and the default
support values h, one per root.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import polygon
from .analysis import make_polytope
from .exactlin import integer_scaling, rat_str


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
    """Snake diagonal i is neg(i); any other diagonal is pos(i, j) for the
    interval [i, j] of the snake diagonals it crosses.  The n snake
    diagonals are checked to be distinct and pairwise non-crossing, which
    makes them a triangulation, with no triangulation enumerated."""
    snakes = [snake_diagonal(i, n) for i in range(1, n + 1)]
    if len(set(snakes)) != n or any(polygon.crossing(d, e) for d, e in combinations(snakes, 2)):
        raise AssertionError("snake diagonals are not a triangulation")
    d2r = {d: neg(i) for i, d in enumerate(snakes, 1)}
    for d in polygon.all_diagonals(n):
        if d not in d2r:
            crossed = [i for i, s in enumerate(snakes, 1) if polygon.crossing(d, s)]
            if not crossed or crossed != list(range(crossed[0], crossed[-1] + 1)):
                raise AssertionError(f"snake convention broken: {d} crosses {crossed}")
            d2r[d] = pos(crossed[0], crossed[-1])
    r2d = {r: d for d, r in d2r.items()}
    if not len(r2d) == len(d2r) == n * (n + 3) // 2:
        raise AssertionError("roots and diagonals are not in bijection")
    return r2d, d2r


def root_to_diagonal(r, n):
    return _root_diagonal_maps(n)[0][r]


def diagonal_to_root(d, n):
    return _root_diagonal_maps(n)[1][d]


def ray_normals(n):
    """The facet normals, per diagonal: its ray, its root's coordinates."""
    return [root_coordinates(diagonal_to_root(d, n), n) for d in polygon.all_diagonals(n)]


def polytopality_check(h, n, potentials=None):
    """Strict convexity of the support values across every wall, on ints:
    the certificate of a cluster build.

    A wall (i, f, g) (`_exchanges`) exchanges beta, ray f of cluster i,
    for beta' = e_a - e_b, ray g.  In cluster i's tree, beta' is the signed
    sum of the rays on the path from a to b, beta among them with
    coefficient -1 (the wall separates).  So the wall's relation is
    beta + beta' = sum c_s s over the shared roots s, each c_s in
    {-1, 0, 1}, and it holds strictly iff lhs = h(beta) + h(beta')
    exceeds rhs = sum c_s h(s).  As h(ray) is ray . x_i on cluster i's
    rays, x_i its vertex, lhs - rhs is h(beta') - beta' . x_i: with h
    scaled to ints by L and y cluster i's tree potential (`_potentials`,
    or `potentials` where the caller has them), it is
    (L h(beta') - (y_a - y_b)) / L.
    Returns (ok, violations), in flip order; each violation records the
    wall's exchanged roots and its deficit rhs - lhs >= 0, the only
    Fractions made.

    It certifies a build: on the complete simplicial fan of `verify_fan`,
    a function linear on each cone and strictly convex across every wall
    is strictly convex on the whole space (the local-to-global step of
    De Loera-Rambau-Santos, Triangulations, section 4.5), so every vertex
    meets every other ray's inequality strictly.  Conversely a wall's
    slack is the slack of one of those inequalities, beta' . x_i <
    h(beta'), so the check fails iff some vertex fails one.
    """
    trees, flips = _spanning_trees(n), polygon.flip_table(n)
    hs, scale, ys = potentials or _potentials(h, n)
    violations = []
    for i, y in enumerate(ys):
        for _, f, g in _exchanges(flips, trees.tight, i):
            a, b = trees.ends[g]
            slack = hs[g] - y[a] + y[b]
            if slack <= 0:
                violations.append((trees.roots[f], trees.roots[g], Fraction(-slack, scale)))
    return (not violations), violations


def repair_support_values(h, n):
    """Iteratively raise h on the exchanged roots of the most-violated wall
    until every wall inequality is strict; bounded iterations."""
    h = dict(h)
    max_iters = 5 * n * len(polygon.all_triangulations(n))  # 10 per wall
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
    n = 1); `build_cluster_polytope`'s wall check certifies this on every
    call.
    """
    h = {}
    for r in all_roots(n):
        a, b = root_to_diagonal(r, n)
        h[r] = Fraction((b - a) * (n + 3 - (b - a)))
    return h


def check_roots(h, n):
    """ValueError unless `h` holds exactly one value per root
    (`build_cluster_polytope`, and a file's params)."""
    roots = all_roots(n)
    if set(h) != set(roots):
        raise ValueError(f"support values must be given for exactly the {len(roots)} roots")


class _Trees(NamedTuple):
    """The cluster fan at one n, read off its spanning trees (`_spanning_trees`)."""

    roots: list  # in diagonal order
    ends: list  # (a, b) per ray e_a - e_b, in diagonal order
    tight: list  # per triangulation, its rays' indices
    walks: list  # per triangulation, its tree's walk, or None
    normals: dict  # per diagonal, its ray's normal (n+1) ray - (sum ray) 1
    walls: int  # how many walls separate
    problems: tuple  # what fails the fan's certificate, in `verify_fan`'s order


@lru_cache(maxsize=None)
def _spanning_trees(n):
    """The `_Trees` of n, and with them the exact certificate that the
    cluster cones form a complete simplicial fan, in one pass once per n;
    `ray_normals` is read once.

    Rays e_a - e_b, as edges {a, b} on the n+1 coordinates, are independent
    iff the edges form a forest: a cycle's edges, signed along it, sum to
    zero, and in a forest some coordinate meets one edge only, whose
    coefficient in a vanishing combination is then 0, leaving a forest.
    So a cluster's n independent rays are a spanning tree.  Its walk lists
    the edges outward from coordinate 0 as (child, parent, f, sign): ray f
    is sign (e_child - e_parent), parent reached earlier.  A walk that
    misses a coordinate (dependent rays) is None.

    A sum-zero vector v is sum c_f ray_f over a tree's rays, and ray
    f = sign (e_child - e_parent) has c_f = sign times the sum of v over
    the subtree at child: one reverse pass over the walk gives all n.
    The certificate (De Loera-Rambau-Santos, Triangulations, section 4.5):
    (a) each cluster's rays are a spanning tree, that is independent
    modulo all-ones (else ("dependent_cone", t)); (b) every ridge lies in
    exactly two cones, whose exchanged rays lie on opposite sides of it:
    at each wall (i, f, g) of `_exchanges`, ray g has a negative
    coefficient on ray f in cluster i's tree (else ("wall_not_separating",
    ridge)); and (c) the sum of the rays of cluster 0 lies in exactly one
    closed cone (else ("point_covered_by", count, point)).  The
    combinatorial half of (b) is `polygon.flip_table`'s, which raises
    AssertionError unless it holds, once per n.  (b) makes the cones a
    pseudomanifold without boundary, so the number of cones covering a
    point off the walls is the same everywhere, and (c) makes that number
    1.  Problems come in that order: dependent clusters, whose walls are
    not read, then walls in flip order, then the cover.  No wall is kept:
    `_exchanges` lists them again where they are read.
    """
    triangulations, flips = polygon.all_triangulations(n), polygon.flip_table(n)
    diagonals, rays = polygon.all_diagonals(n), ray_normals(n)
    ends = [(ray.index(1), ray.index(-1)) for ray in rays]
    index = {d: f for f, d in enumerate(diagonals)}
    tight = [[index[d] for d in t] for t in triangulations]
    point = tuple(map(sum, zip(*(rays[f] for f in tight[0]))))
    walks, dependent, problems, walls, covering = [], [], [], 0, 0
    bits = [1 << x for x in range(n + 1)]
    for i, (t, fs) in enumerate(zip(triangulations, tight)):
        steps = [[] for _ in range(n + 1)]  # per coordinate, its edges out
        for f in fs:
            a, b = ends[f]
            steps[b].append((a, f, 1))
            steps[a].append((b, f, -1))
        walk, reached = [], [0]
        for parent in reached:  # grows as the walk reaches coordinates
            for child, f, sign in steps[parent]:
                if child not in reached:
                    reached.append(child)
                    walk.append((child, parent, f, sign))
        if len(reached) <= n:
            walks.append(None)
            dependent.append(("dependent_cone", t))
            continue
        walks.append(walk)
        # per coordinate, its subtree as bits and the point's sum over it
        below, sums, edge, inside = bits[:], list(point), {}, True
        for child, parent, f, sign in reversed(walk):
            sub, total = below[child], sums[child]
            edge[f] = sub, sign
            below[parent] |= sub
            sums[parent] += total
            inside = inside and sign * total >= 0
        covering += inside
        for k, f, g in _exchanges(flips, tight, i):
            (a, b), (sub, sign) = ends[g], edge[f]
            if sign * ((sub >> a & 1) - (sub >> b & 1)) < 0:
                walls += 1
            else:
                problems.append(("wall_not_separating", t[:k] + t[k + 1 :]))
    if covering != 1:
        problems.append(("point_covered_by", covering, point))
    d2r = _root_diagonal_maps(n)[1]
    normals = {d: tuple((n + 1) * a - sum(ray) for a in ray) for d, ray in zip(diagonals, rays)}
    roots = [d2r[d] for d in diagonals]
    return _Trees(roots, ends, tight, walks, normals, walls, tuple(dependent + problems))


def _exchanges(flips, tight, i):
    """Cluster i's walls, in flip order: (k, f, g) at each flip (i, k, j)
    of `flips` (`polygon.flip_table`) with j > i, ray f = tight[i][k] of
    cluster i exchanged for ray g of cluster j."""
    for k, j in enumerate(flips[i]):
        if j > i:
            yield k, tight[i][k], tight[j][flips[j].index(i)]


def _potentials(h, n):
    """(hs, L, ys): h's values in diagonal order scaled to ints by L, the
    lcm of their denominators, and each cluster's tree potential y, in
    triangulation order: from y_0 = 0, y_a - y_b = hs[f] on each of its
    rays f = e_a - e_b, filled in one pass over its walk.  AssertionError
    unless the fan passed its certificate (`_spanning_trees`), naming the
    first cluster whose rays are not a spanning tree if there is one."""
    trees = _spanning_trees(n)
    if trees.problems:
        kind, t, *_ = trees.problems[0]
        if kind == "dependent_cone":
            raise AssertionError(f"rays of {t} are not a spanning tree")
        problems = trees.problems[:3]
        raise AssertionError(f"the clusters are not a complete simplicial fan: {problems}")
    (hs,), scale = integer_scaling([[h[r] for r in trees.roots]])
    ys = []
    for walk in trees.walks:
        y = [0] * (n + 1)
        for child, parent, f, sign in walk:
            y[child] = y[parent] + sign * hs[f]
        ys.append(y)
    return hs, scale, ys


def tight_vertices(h, n):
    """(rows, scale): each cluster's vertex, in triangulation order, as an
    int row over one positive scale, certified by the walls.

    With h scaled to ints by L and y a cluster's tree potential
    (`_potentials`), y_a - y_b = L h on each of its rays e_a - e_b, so
    its vertex, where the rays' equations hold on the sum-zero hyperplane,
    is ((n+1) y - (sum y) 1) / ((n+1) L).  Every wall must be strict
    (`polytopality_check`, on the same potentials), else ValueError
    naming the first three failing walls in flip order.
    """
    potentials = _potentials(h, n)
    ok, violations = polytopality_check(h, n, potentials)
    if not ok:
        walls = "; ".join(
            f"wall exchanging {root_key(beta)} and {root_key(beta_p)}: deficit {rat_str(deficit)}"
            for beta, beta_p, deficit in violations[:3]
        )
        raise ValueError(f"support values fail the wall check: {walls}")
    _, scale, ys = potentials
    m = n + 1
    rows = []
    for y in ys:
        total = sum(y)
        rows.append(tuple([m * v - total for v in y]))
    return rows, m * scale


def build_cluster_polytope(h, n):
    """One vertex per cluster: the point of the sum-zero hyperplane meeting
    all n root hyperplanes <rho, x> = h(rho) of the cluster, read in closed
    form (`tight_vertices`).

    h holds exactly one value per root.  A fan that fails its certificate
    (`verify_fan`, made once per n) is refused with AssertionError, and
    support values that fail a wall (`polytopality_check`) with
    ValueError; nothing is built.  Otherwise every ray's inequality is
    tight at the clusters holding it and strict at every other, so the ray
    projected into the sum-zero hyperplane, (n+1) ray - (sum ray) 1, is its
    facet's normal there; the polytope carries these, and
    `analysis.extract_facets` certifies nothing again.
    """
    check_roots(h, n)
    rows, scale = tight_vertices(h, n)
    from .constructions import CONSTRUCTIONS  # it imports this module

    pairs = zip(rows, polygon.all_triangulations(n))
    width, normals = CONSTRUCTIONS["cluster"].ambient_dim(n), _spanning_trees(n).normals
    return make_polytope(
        "cluster", n, width, pairs, params={"h": dict(h)}, scale=scale, normals=normals
    )


def verify_fan(n):
    """The exact certificate that the cluster cones form a complete
    simplicial fan, made once per n with the trees (`_spanning_trees`),
    with its cone and wall counts."""
    trees = _spanning_trees(n)
    return {
        "ok": not trees.problems,
        "cones": len(trees.tight),
        "walls": trees.walls,
        "problems": list(trees.problems),
    }

