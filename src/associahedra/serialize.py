"""JSON (de)serialization with rationals as "p/q" strings.

Vertex coordinates are coded straight from and to a polytope's integer
hull rows over their one scale (`exactlin.ratio_str`, `parse_ratio`), with
no Fraction in between: a file's rows are its reduced numerators over the
lcm of its denominators, the record the same vertices give as Fractions.
"""

import json
from math import lcm

from .analysis import make_polytope
from .constructions import CONSTRUCTIONS, practical_bound
from .exactlin import parse_ratio, ratio_str


def coordinate_strings(p):
    """Each vertex's coordinates as "p/q" strings, in vertex order."""
    s = p.hull.scale
    return [[ratio_str(a, s) for a in row] for row in p.hull.rows]


def polytope_to_json(p):
    c = CONSTRUCTIONS[p.construction]
    params = {"n": p.n, c.key: c.encode(p.params[c.key])} if c.key in p.params else {}
    return {
        "construction": p.construction,
        "n": p.n,
        "params": params,
        "vertices": [
            {"coords": coords, "triangulation": [[a, b] for a, b in label]}
            for coords, label in zip(coordinate_strings(p), p.labels)
        ],
    }


def _list(x, what):
    # a string or an object would be read character by character or key
    # by key
    if not isinstance(x, list):
        raise ValueError(f"{what} is a {type(x).__name__}, not a JSON list")
    return x


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
    ratios, labels = [], []
    for v in _list(doc["vertices"], "vertices"):
        ratios.append([parse_ratio(x) for x in _list(v["coords"], "vertex coords")])
        label = _list(v["triangulation"], "vertex triangulation")
        labels.append(tuple(sorted((_endpoint(a), _endpoint(b)) for a, b in label)))
    if not ratios:
        raise ValueError("no vertices")
    ambient_dim = len(ratios[0])
    if any(len(row) != ambient_dim for row in ratios):
        raise ValueError("vertex coordinate rows have unequal lengths")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params is not an object")
    if "n" in params and (type(params["n"]) is not int or params["n"] != n):
        raise ValueError(f"params are for n={params['n']!r}, not n={n}")
    params = {c.key: c.decode(params[c.key])} if params else {}
    # each p/q is in lowest terms, so this is `integer_scaling` of the Fractions
    scale = lcm(*(q for row in ratios for _, q in row))
    rows = [tuple(a * (scale // q) for a, q in row) for row in ratios]
    return make_polytope(c.name, n, ambient_dim, zip(rows, labels), params=params, scale=scale)


def dumps(doc):
    """A report (`assoc analyze`, `compare`) as indented JSON."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def polytope_text(p):
    """A polytope file: compact JSON on one line, then a newline.  With no
    indent CPython encodes in C; an indented file takes several times as
    long and bytes."""
    return json.dumps(polytope_to_json(p), sort_keys=True) + "\n"


def save_polytope(p, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(polytope_text(p))


def load_polytope(path):
    with open(path, encoding="utf-8") as f:
        return polytope_from_json(json.load(f))
