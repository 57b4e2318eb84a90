"""Seeded rational parameter draws for the verification sweeps.

All draws are exact rationals with denominators bounded by 1000 so the
downstream computations stay in exact arithmetic.  Every draw is valid by
construction; none is searched for or repaired.
"""

from fractions import Fraction

from . import cluster, minkowski, secondary


def _rat(rng, lo, hi, max_den=1000):
    den = rng.randint(1, max_den)
    num = rng.randint(int(lo * den), int(hi * den))
    return Fraction(num, den)


def random_convex_geometry(n, rng):
    """Strictly convex counterclockwise rational (n+3)-gon: increasing x,
    y built from strictly positive second differences."""
    m = n + 3
    xs = []
    x = Fraction(0)
    for _ in range(m):
        x += _rat(rng, 1, 3)
        xs.append(x)
    slopes = []
    slope = _rat(rng, -3, -1)
    for _ in range(m - 1):
        slope += _rat(rng, 1, 2) / 4
        slopes.append(slope)
    ys = [Fraction(0)]
    for i in range(m - 1):
        ys.append(ys[-1] + slopes[i] * (xs[i + 1] - xs[i]))
    coords = tuple(zip(xs, ys))
    if secondary.geometry_problem(coords) is not None:
        raise RuntimeError("drawn polygon is not strictly convex")
    return coords


def random_weights(n, rng):
    return {s: _rat(rng, 1, 2) for s in minkowski.all_summands(n)}


def perturbed_support_values(n, rng):
    """The default support values plus a jitter in [0, 1/8] per root.

    The jitter keeps every wall inequality strict: the default values have
    wall slack at least 2, and every wall relation has exchange coefficient
    1 and at most two shared coefficients, each 0 or 1, so the jitter moves
    a slack by at most 1/4.
    """
    h = cluster.default_support_values(n)
    return {r: h[r] + _rat(rng, 0, 1) / 8 for r in cluster.all_roots(n)}
