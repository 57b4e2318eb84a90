"""JSON (de)serialization with rationals as "p/q" strings."""

import json
from fractions import Fraction

from .analysis import make_polytope


def rat_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s):
    return Fraction(s)


def root_key(r):
    if r[0] == "-":
        return f"-a{r[1]}"
    _, i, j = r
    return f"a{i}" if i == j else f"a{i}..{j}"


def parse_root_key(key):
    if key.startswith("-a"):
        return ("-", int(key[2:]))
    body = key[1:]
    if ".." in body:
        i, j = body.split("..")
        return ("+", int(i), int(j))
    return ("+", int(body), int(body))


def geometry_to_json(n, coords):
    return {"n": n, "coords": [[rat_str(x), rat_str(y)] for x, y in coords]}


def geometry_from_json(doc):
    coords = tuple((parse_rat(x), parse_rat(y)) for x, y in doc["coords"])
    return doc["n"], coords


def support_values_to_json(n, h):
    return {"n": n, "h": {root_key(r): rat_str(v) for r, v in sorted(h.items())}}


def support_values_from_json(doc):
    h = {parse_root_key(k): parse_rat(v) for k, v in doc["h"].items()}
    return doc["n"], h


def weights_to_json(n, a):
    return {"n": n, "a": {f"{i},{j}": rat_str(v) for (i, j), v in sorted(a.items())}}


def weights_from_json(doc):
    a = {}
    for key, v in doc["a"].items():
        i, j = key.split(",")
        a[(int(i), int(j))] = parse_rat(v)
    return doc["n"], a


def _params_to_json(p):
    params = p.params
    if p.construction == "secondary" and "coords" in params:
        return geometry_to_json(p.n, params["coords"])
    if p.construction == "cluster" and "h" in params:
        return support_values_to_json(p.n, params["h"])
    if p.construction == "minkowski" and "a" in params:
        return weights_to_json(p.n, params["a"])
    return {}


def _params_from_json(construction, doc):
    if not doc:
        return {}
    if construction == "secondary":
        return {"coords": geometry_from_json(doc)[1]}
    if construction == "cluster":
        return {"h": support_values_from_json(doc)[1]}
    if construction == "minkowski":
        return {"a": weights_from_json(doc)[1]}
    return {}


def polytope_to_json(p):
    return {
        "construction": p.construction,
        "n": p.n,
        "params": _params_to_json(p),
        "vertices": [
            {
                "coords": [rat_str(c) for c in coords],
                "triangulation": [[a, b] for a, b in label],
            }
            for coords, label in p.vertices
        ],
    }


def polytope_from_json(doc):
    pairs = [
        (
            tuple(parse_rat(c) for c in v["coords"]),
            tuple(sorted((a, b) for a, b in v["triangulation"])),
        )
        for v in doc["vertices"]
    ]
    if not pairs:
        raise ValueError("no vertices")
    ambient_dim = len(pairs[0][0])
    if any(len(coords) != ambient_dim for coords, _ in pairs):
        raise ValueError("vertex coordinate rows have unequal lengths")
    return make_polytope(
        doc["construction"],
        doc["n"],
        ambient_dim,
        pairs,
        params=_params_from_json(doc["construction"], doc.get("params", {})),
    )


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_polytope(p, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(polytope_to_json(p)))


def load_polytope(path):
    with open(path, encoding="utf-8") as f:
        return polytope_from_json(json.load(f))
