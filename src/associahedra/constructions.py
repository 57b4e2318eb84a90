"""The registry of constructions: one `Construction` record per realization.

A record says how a construction's parameter is stored (its key in a
polytope's `params`, and its JSON encoding), where a default or a seeded
random parameter comes from, the length of its vertex rows (a file's
rows must have it), which parameters are in its domain (the cheap
checks its builder makes first, run on a file's params too), how a
polytope is built from it and its facet normals, which `analysis`
certifies in place of solving for them.  The records call their functions
through the modules at call time, so a replaced function is the one run.
"""

from dataclasses import dataclass
from typing import Callable

from . import cluster, minkowski, sampling, secondary
from .exactlin import parse_rat, rat_str


def practical_bound():
    """The largest n a polytope may be built or loaded for."""
    return 7


@dataclass(frozen=True)
class Construction:
    name: str
    key: str  # the parameter's key in `LabeledPolytope.params` and in files
    ambient_dim: Callable  # n -> the length of every vertex row, built or read
    encode: Callable  # parameter -> JSON value
    decode: Callable  # JSON value -> parameter
    default: Callable  # n -> parameter
    draw: Callable  # (n, rng) -> parameter
    check: Callable  # (parameter, n) -> None; ValueError off the domain `build` takes
    build: Callable  # (parameter, n) -> LabeledPolytope
    normals: Callable  # (parameter, n) -> an int facet normal per `polygon.all_diagonals(n)`


def _object_items(doc):
    """The items of a JSON object; a list or scalar is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"parameter is a {type(doc).__name__}, not a JSON object")
    return doc.items()


def _decode_coords(doc):
    # a string or an object would unpack silently, character by character
    if not isinstance(doc, list) or not all(isinstance(p, list) and len(p) == 2 for p in doc):
        raise ValueError("coords is not a list of [x, y] pairs")
    return tuple((parse_rat(x), parse_rat(y)) for x, y in doc)


def _decode_weights(doc):
    a = {}
    for key, v in _object_items(doc):
        i, j = map(int, key.split(","))
        if f"{i},{j}" != key:
            raise ValueError(f"not a canonical summand key: {key!r}")
        a[(i, j)] = parse_rat(v)
    return a


# in this order the seeded draws consume a shared rng
CONSTRUCTIONS = {
    c.name: c
    for c in (
        Construction(
            "secondary",
            "coords",
            ambient_dim=lambda n: n + 3,
            encode=lambda coords: [[rat_str(x), rat_str(y)] for x, y in coords],
            decode=_decode_coords,
            default=lambda n: secondary.parabola_geometry(n),
            draw=lambda n, rng: sampling.random_convex_geometry(n, rng),
            check=lambda coords, n: secondary.check_geometry(coords, n),
            build=lambda coords, n: secondary.build_secondary(coords=coords, n=n),
            normals=lambda coords, n: secondary.fold_normals(coords, n),
        ),
        Construction(
            "cluster",
            "h",
            ambient_dim=lambda n: n + 1,
            encode=lambda h: {cluster.root_key(r): rat_str(v) for r, v in h.items()},
            decode=lambda doc: {
                cluster.parse_root_key(k): parse_rat(v) for k, v in _object_items(doc)
            },
            default=lambda n: cluster.default_support_values(n),
            draw=lambda n, rng: sampling.perturbed_support_values(n, rng),
            check=lambda h, n: cluster.check_roots(h, n),
            build=lambda h, n: cluster.build_cluster_polytope(h, n),
            normals=lambda h, n: cluster.ray_normals(n),
        ),
        Construction(
            "minkowski",
            "a",
            ambient_dim=lambda n: n + 1,
            encode=lambda a: {f"{i},{j}": rat_str(v) for (i, j), v in a.items()},
            decode=_decode_weights,
            default=lambda n: minkowski.ones_weights(n),
            draw=lambda n, rng: sampling.random_weights(n, rng),
            check=lambda a, n: minkowski.check_weights(a, n),
            build=lambda a, n: minkowski.build_minkowski(a, n),
            normals=lambda a, n: minkowski.interval_normals(n),
        ),
    )
}
