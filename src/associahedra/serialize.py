"""JSON (de)serialization with rationals as "p/q" strings.

Vertex coordinates are coded straight from and to a polytope's integer
hull rows over their one scale (`exactlin.ratio_str`, `parse_ratio`), with
no Fraction in between: a file's rows are its reduced numerators over the
lcm of its denominators, the record the same vertices give as Fractions.

Both codecs work once per distinct value: a builder makes each coordinate
from local data (Loday's subtree products, GKZ's triangle areas, the
cluster tight solve), so the n = 6 defaults hold 13 to 213 distinct
strings among their 3003 to 3861 coordinates.
"""

import json
from functools import lru_cache
from itertools import chain
from math import lcm

from . import polygon
from .analysis import make_polytope
from .constructions import CONSTRUCTIONS, practical_bound
from .exactlin import parse_ratio, ratio_str


def coordinate_strings(p):
    """Each vertex's coordinates as "p/q" strings, in vertex order; each
    distinct entry of the rows is formatted once."""
    s, rows = p.hull.scale, p.hull.rows
    text = {a: ratio_str(a, s) for a in set(chain.from_iterable(rows))}
    return [[text[a] for a in row] for row in rows]


def _file_params(p):
    """A polytope's params as its file holds them: {} when it has none."""
    c = CONSTRUCTIONS[p.construction]
    return {"n": p.n, c.key: c.encode(p.params[c.key])} if c.key in p.params else {}


def polytope_to_json(p):
    """A polytope file's JSON document (`polytope_text` writes its bytes)."""
    return {
        "construction": p.construction,
        "n": p.n,
        "params": _file_params(p),
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


def _distinct_ratios(strings):
    """{x: parse_ratio(x)} for the distinct entries x of the rows `strings`,
    parsed in file order, so the first malformed entry is the one named."""
    try:
        distinct = dict.fromkeys(chain.from_iterable(strings))
    except TypeError:
        # an unhashable entry (a list or an object) is not a rational either:
        # parsing every entry in order names the first bad one
        for x in chain.from_iterable(strings):
            parse_ratio(x)
        raise
    return {x: parse_ratio(x) for x in distinct}


def _as_written(x, d):
    """True iff the JSON diagonal x is d as files write it, an [a, b] pair
    of ints; a JSON boolean equals 0 or 1 and would pass the comparison."""
    return x == [*d] and type(x[0]) is type(x[1]) is int


def _read_vertices(vertices, n):
    """Each vertex's coordinate strings and label, read and checked vertex
    by vertex in file order, so the first error in the file is named.

    A file lists the triangulations of the (n+3)-gon in order, each with
    its diagonals in order: a vertex whose triangulation is
    `polygon.all_triangulations(n)[i]` as written takes that cached label,
    with no endpoint checked and no sort; any other is checked and sorted."""
    strings, labels = [], []
    try:
        for v, t in zip(vertices, polygon.all_triangulations(n)):
            strings.append(_list(v["coords"], "vertex coords"))
            label = _list(v["triangulation"], "vertex triangulation")
            if len(label) != len(t) or not all(map(_as_written, label, t)):
                t = tuple(sorted((_endpoint(a), _endpoint(b)) for a, b in label))
            labels.append(t)
    except Exception:
        # a vertex's coordinates come before its triangulation and the
        # vertices after it: a bad coordinate read so far is named first
        _distinct_ratios(strings)
        raise
    return strings, labels


def polytope_from_json(doc):
    c = CONSTRUCTIONS.get(doc["construction"])
    if c is None:
        raise ValueError(f"unknown construction {doc['construction']!r}")
    n = doc["n"]
    if type(n) is not int or not 1 <= n <= practical_bound():
        raise ValueError(f"n={n!r} is not an integer in 1..{practical_bound()}")
    vertices = _list(doc["vertices"], "vertices")
    # the Catalan number: a wrong count is refused before any coordinate is decoded
    count = polygon.catalan(n + 1)
    if len(vertices) != count:
        raise ValueError(f"{len(vertices)} vertices, but n={n} has {count} triangulations")
    strings, labels = _read_vertices(vertices, n)
    ratios = _distinct_ratios(strings)
    ambient_dim = len(strings[0])
    if any(len(row) != ambient_dim for row in strings):
        raise ValueError("vertex coordinate rows have unequal lengths")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params is not an object")
    if "n" in params and (type(params["n"]) is not int or params["n"] != n):
        raise ValueError(f"params are for n={params['n']!r}, not n={n}")
    if params:
        value = c.decode(params[c.key])
        # the domain checks of `c.build`: a file's params are what it would take
        c.check(value, n)
        params = {c.key: value}
    # each p/q is in lowest terms, so this is `integer_scaling` of the Fractions
    scale = lcm(*{q for _, q in ratios.values()})
    scaled = {x: a * (scale // q) for x, (a, q) in ratios.items()}
    rows = [tuple(map(scaled.__getitem__, row)) for row in strings]
    return make_polytope(c.name, n, ambient_dim, zip(rows, labels), params=params, scale=scale)


def dumps(doc):
    """A report (`assoc analyze`, `compare`) as indented JSON."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@lru_cache(maxsize=None)
def _vertex_tails(n):
    """The end of each vertex's object in a file, its triangulation, for
    the triangulations of the (n+3)-gon in order: the labels
    `make_polytope` gives every polytope."""
    return tuple(
        f', "triangulation": [{", ".join(f"[{a}, {b}]" for a, b in label)}]}}'
        for label in polygon.all_triangulations(n)
    )


def polytope_text(p):
    """A polytope file: compact JSON on one line, then a newline, the bytes
    of `json.dumps(polytope_to_json(p), sort_keys=True)`.  The line is
    written here from the coordinate strings (which need no escaping) and
    the cached triangulation texts, with no document in between."""
    vertices = ", ".join(
        '{"coords": ["' + '", "'.join(row) + '"]' + tail
        for row, tail in zip(coordinate_strings(p), _vertex_tails(p.n))
    )
    return (
        f'{{"construction": {json.dumps(p.construction)}, "n": {p.n}, '
        f'"params": {json.dumps(_file_params(p), sort_keys=True)}, "vertices": [{vertices}]}}\n'
    )


def save_polytope(p, path):
    # the text first: a polytope that cannot be written leaves the file as it was
    text = polytope_text(p)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_polytope(path):
    with open(path, encoding="utf-8") as f:
        return polytope_from_json(json.load(f))
