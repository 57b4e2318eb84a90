"""Type-A cluster fan and its polytopal realization.

Almost positive roots are ('-', i) for the negated simple roots and
('+', i, j) for the consecutive sums alpha_i + ... + alpha_j.  Through a
fixed snake triangulation each root is a diagonal of the (n+3)-gon: snake
diagonal i is -alpha_i, any other diagonal the sum of the simple roots of
the snake diagonals it crosses.  Compatible roots are non-crossing
diagonals, so the clusters are the triangulations.  The fan is
`fan.make_fan` on the rays e_i - e_j of the roots, built once per n; this
module adds the root names and file keys, the root-diagonal map and the
default support values h, one per root.  A build is one lane pass over
the fan's vertices (`fan.tight_vertices`), which is also its facet
certificate: the polytope carries the facet normals it certified.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import polygon
from .analysis import make_polytope
from .exactlin import rat_str
from .fan import hull_normals, make_fan, tight_vertices, wall_slacks


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


@lru_cache(maxsize=None)
def _fan(n):
    """The cluster fan: each diagonal's ray is its facet normal."""
    return make_fan(dict(zip(polygon.all_diagonals(n), ray_normals(n))), n)


def _by_diagonal(h, n):
    r2d = _root_diagonal_maps(n)[0]
    return {r2d[r]: h[r] for r in all_roots(n)}


def polytopality_check(h, n):
    """Strict convexity of the support values across every wall.

    The relation of a wall exchanging beta and beta' holds strictly iff
    lhs = h(beta) + lam*h(beta') exceeds rhs = sum c_g*h(g) over the shared
    roots g.  Returns (ok, violations); each violation records the wall's
    exchanged roots and its deficit rhs - lhs >= 0, its `fan.wall_slacks`
    entry negated.

    A build does not run it first: the tight-vertex lane pass holds iff
    every wall is strict (`fan.wall_slacks`), so it runs only after that
    pass has failed, to name the failing walls.
    """
    fan, d2r = _fan(n), _root_diagonal_maps(n)[1]
    violations = [
        (d2r[beta], d2r[beta_p], -slack)
        for (beta, beta_p, *_), slack in zip(fan.relations, wall_slacks(fan, _by_diagonal(h, n)))
        if slack <= 0
    ]
    return (not violations), violations


def repair_support_values(h, n):
    """Iteratively raise h on the exchanged roots of the most-violated wall
    until every wall inequality is strict; bounded iterations."""
    h = dict(h)
    max_iters = 10 * len(_fan(n).walls)
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
    n = 1); `build_cluster_polytope`'s lane pass certifies this on every
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


def build_cluster_polytope(h, n):
    """One vertex per cluster: the point of the sum-zero hyperplane meeting
    all n root hyperplanes <rho, x> = h(rho) of the cluster.

    h holds exactly one value per root.  Every inequality for a root
    outside the cluster must hold strictly at the vertex, one lane pass
    over all vertices (`fan.tight_vertices`).  That pass is the facet
    certificate, so the polytope carries its facet normals, each ray's
    `fan.hull_normals` entry, and `analysis.extract_facets` certifies
    nothing again.  It holds iff every wall is strict (`fan.wall_slacks`),
    so the walls are checked only once it has failed: `polytopality_check`
    names them in the ValueError.  A failed pass with no failing wall
    cannot happen by that argument; should it, its AssertionError is
    raised and nothing is built.
    """
    check_roots(h, n)
    fan = _fan(n)
    try:
        rows, scale = tight_vertices(fan, _by_diagonal(h, n))
    except AssertionError:
        _, violations = polytopality_check(h, n)
        if not violations:
            raise
        walls = "; ".join(
            f"wall exchanging {root_key(beta)} and {root_key(beta_p)}: deficit {rat_str(deficit)}"
            for beta, beta_p, deficit in violations[:3]
        )
        raise ValueError(f"support values fail the wall check: {walls}") from None
    pairs = zip(rows, polygon.all_triangulations(n))
    return make_polytope(
        "cluster", n, n + 1, pairs, params={"h": dict(h)}, scale=scale, normals=hull_normals(fan)
    )


def verify_fan(n):
    """The exact certificate that the cluster cones form a complete
    simplicial fan, read from the cached fan (see `fan.make_fan`)."""
    fan = _fan(n)
    return {
        "ok": not fan.problems,
        "cones": len(fan.cones),
        "walls": len(fan.walls),
        "problems": list(fan.problems),
    }
