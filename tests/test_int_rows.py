"""A polytope is its labels and its integer hull rows over one scale.

Nothing in the package reads the Fraction vertices or a facet's Fraction
hyperplane: both are made only when a caller reads them.  Files are coded
straight between "p/q" strings and the rows, with the same results as the
Fraction codec the int one replaced (kept below as the reference).
"""

import json
import random
from operator import mul

import pytest

from associahedra import serialize, verification
from associahedra.analysis import (
    dihedral_relabelings,
    equivalence_search,
    extract_facets,
    make_polytope,
    relabel_triangulation,
)
from associahedra.cli import analyze_report
from associahedra.constructions import CONSTRUCTIONS
from associahedra.exactlin import integer_scaling, parse_rat, parse_ratio, rat_str, ratio_str

NS = [1, 2, 3, 4, 5]


def fresh_polytopes(n):
    """Each construction's default and one seeded draw, newly built (the
    manifest's cached defaults may have been read by other tests)."""
    rng = random.Random(n)
    out = []
    for c in CONSTRUCTIONS.values():
        out.append(c.build(c.default(n), n))
        out.append(c.build(c.draw(n, rng), n))
    return out


def assert_no_fractions_made(p):
    assert "vertices" not in p.__dict__
    assert all("hyperplane" not in f.__dict__ for f in p.__dict__.get("certified_facets", ()))


@pytest.mark.parametrize("n", NS)
def test_pipeline_reads_rows_not_fractions(tmp_path, n):
    ps = fresh_polytopes(n)
    for k, p in enumerate(ps):
        assert len(extract_facets(p)) == n * (n + 3) // 2
        path = tmp_path / f"{k}.json"
        serialize.save_polytope(p, path)
        q = serialize.load_polytope(path)
        assert q == p
        assert analyze_report(q)["vertex_count"] == len(p.labels)
        # a hit (lifted and checked) and a search against another construction
        assert equivalence_search(p, q).witness is not None
        equivalence_search(p, ps[(k + 2) % len(ps)])
        assert_no_fractions_made(p)
        assert_no_fractions_made(q)


def test_manifest_reads_rows_not_fractions():
    verification.build_all_defaults.cache_clear()
    assert all(ok for _, ok, _ in verification.run_manifest(3, 42))
    for n in range(1, 4):
        for p in verification.build_all_defaults(n).values():
            assert "certified_facets" in p.__dict__
            assert_no_fractions_made(p)


def reference_polytope_to_json(p):
    """The Fraction writer the int one replaced, kept verbatim."""
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


def reference_rows(doc):
    """What the Fraction reader handed on: its Fractions scaled to ints."""
    return integer_scaling([tuple(parse_rat(x) for x in v["coords"]) for v in doc["vertices"]])


def handed_rows(monkeypatch, doc):
    """(rows, scale, polytope): the rows in file order and the scale that
    `polytope_from_json` hands to `make_polytope`, and what it returns."""
    seen = {}

    def spy(construction, n, ambient_dim, pairs, params=None, scale=None):
        pairs = list(pairs)
        seen["rows"] = [tuple(c) for c, _ in pairs]
        seen["scale"] = scale
        return make_polytope(construction, n, ambient_dim, pairs, params=params, scale=scale)

    monkeypatch.setattr(serialize, "make_polytope", spy)
    p = serialize.polytope_from_json(doc)
    return seen["rows"], seen["scale"], p


def unimodular_image(p, rng):
    """A seeded integer affine image of p with determinant 1, relabelled by
    a seeded dihedral symmetry, made as a map's image is: from Fraction
    coordinates, with no params and no scale."""
    d = p.ambient_dim
    # unit upper triangular: determinant 1, invertible over the integers
    shear = [[rng.randint(-2, 2) * (j > i) + (j == i) for j in range(d)] for i in range(d)]
    shift = [rng.randint(-3, 3) for _ in range(d)]
    perm = rng.choice(dihedral_relabelings(p.n))
    pairs = [
        (
            tuple(sum(map(mul, row, coords)) + t for row, t in zip(shear, shift)),
            relabel_triangulation(perm, label),
        )
        for coords, label in p.vertices
    ]
    return make_polytope(p.construction, p.n, d, pairs)


@pytest.mark.parametrize("n", NS + [6])
def test_int_codec_matches_fraction_reference(monkeypatch, n):
    ps = fresh_polytopes(n)
    rng = random.Random(n)
    for p in ps + [unimodular_image(p, rng) for p in ps[::2]]:
        doc = serialize.polytope_to_json(p)
        text = serialize.polytope_text(p)
        # the line written directly is the document's compact JSON, byte for byte
        assert text == json.dumps(doc, sort_keys=True) + "\n"
        assert serialize.dumps(doc) == serialize.dumps(reference_polytope_to_json(p))
        rows, scale, q = handed_rows(monkeypatch, json.loads(text))
        assert (rows, scale) == reference_rows(doc)
        assert q == p and (q.hull.rows, q.hull.scale) == (p.hull.rows, p.hull.scale)
        assert q.params == p.params
        assert serialize.polytope_text(q) == text


def test_codecs_work_once_per_distinct_value(tmp_path, monkeypatch):
    c = CONSTRUCTIONS["secondary"]
    p = c.build(c.default(6), 6)
    entries = [a for row in p.hull.rows for a in row]
    assert (len(set(entries)), len(entries)) == (34, 3861)
    formatted, parsed = [], []

    def counted_ratio_str(a, b):
        formatted.append(a)
        return ratio_str(a, b)

    def counted_parse_ratio(x):
        parsed.append(x)
        return parse_ratio(x)

    monkeypatch.setattr(serialize, "ratio_str", counted_ratio_str)
    monkeypatch.setattr(serialize, "parse_ratio", counted_parse_ratio)
    path = tmp_path / "p.json"
    serialize.save_polytope(p, path)
    # one ratio_str per distinct row entry, one parse_ratio per distinct string
    assert sorted(formatted) == sorted(set(entries))
    q = serialize.load_polytope(path)
    strings = [x for v in json.loads(path.read_text())["vertices"] for x in v["coords"]]
    assert parsed == list(dict.fromkeys(strings)) and len(parsed) == 34
    assert q == p


P = 2**127 - 1  # a Mersenne prime

# the two vertex rows of a Minkowski n = 1 file, written unreduced, signed
# and zero-padded
STRING_ROWS = {
    "unreduced": (["2/4", "0"], ["3", "6/4"]),
    "signed": (["-0", "+3"], ["-2/4", "+0/7"]),
    "zero_padded": (["007/014", "0"], ["010", "003/009"]),
    "p_over_p": ([f"{P}/{P}", "0"], [f"-{P}/{P}", f"{2 * P}/{P}"]),
}


@pytest.mark.parametrize("case", sorted(STRING_ROWS))
def test_int_codec_reduces_strings_like_fractions(monkeypatch, case):
    c = CONSTRUCTIONS["minkowski"]
    doc = serialize.polytope_to_json(c.build(c.default(1), 1))
    for v, coords in zip(doc["vertices"], STRING_ROWS[case]):
        v["coords"] = coords
    rows, scale, q = handed_rows(monkeypatch, doc)
    assert (rows, scale) == reference_rows(doc)
    if case == "p_over_p":
        assert scale == 1
    # written back in lowest terms, as the Fraction writer did
    assert serialize.dumps(serialize.polytope_to_json(q)) == serialize.dumps(
        reference_polytope_to_json(q)
    )
