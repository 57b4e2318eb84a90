"""JSON (de)serialization with rationals as "p/q" strings."""

import json

from .analysis import make_polytope
from .constructions import CONSTRUCTIONS, practical_bound
from .exactlin import parse_rat, rat_str


def polytope_to_json(p):
    c = CONSTRUCTIONS[p.construction]
    params = {"n": p.n, c.key: c.encode(p.params[c.key])} if c.key in p.params else {}
    return {
        "construction": p.construction,
        "n": p.n,
        "params": params,
        "vertices": [
            {
                "coords": [rat_str(x) for x in coords],
                "triangulation": [[a, b] for a, b in label],
            }
            for coords, label in p.vertices
        ],
    }


def _endpoint(a):
    # True == 1 and hash(True) == hash(1): a boolean would pass as a label
    if type(a) is not int:
        raise ValueError(f"triangulation endpoint {a!r} is not an integer")
    return a


def polytope_from_json(doc):
    c = CONSTRUCTIONS.get(doc["construction"])
    if c is None:
        raise ValueError(f"unknown construction {doc['construction']!r}")
    n = doc["n"]
    if type(n) is not int or not 1 <= n <= practical_bound():
        raise ValueError(f"n={n!r} is not an integer in 1..{practical_bound()}")
    pairs = [
        (
            tuple(parse_rat(x) for x in v["coords"]),
            tuple(sorted((_endpoint(a), _endpoint(b)) for a, b in v["triangulation"])),
        )
        for v in doc["vertices"]
    ]
    if not pairs:
        raise ValueError("no vertices")
    ambient_dim = len(pairs[0][0])
    if any(len(coords) != ambient_dim for coords, _ in pairs):
        raise ValueError("vertex coordinate rows have unequal lengths")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params is not an object")
    if "n" in params and (type(params["n"]) is not int or params["n"] != n):
        raise ValueError(f"params are for n={params['n']!r}, not n={n}")
    params = {c.key: c.decode(params[c.key])} if params else {}
    return make_polytope(c.name, n, ambient_dim, pairs, params=params)


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_polytope(p, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(polytope_to_json(p)))


def load_polytope(path):
    with open(path, encoding="utf-8") as f:
        return polytope_from_json(json.load(f))
