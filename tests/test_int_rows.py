"""A polytope is its labels and its integer hull rows over one scale.

Nothing in the package reads the Fraction vertices or a facet's Fraction
hyperplane: both are made only when a caller reads them.  Files are coded
straight between "p/q" strings and the rows, with the same results as the
Fraction codec the int one replaced (kept below as the reference).
"""

import random

import pytest

from associahedra import serialize, verification
from associahedra.analysis import equivalence_search, extract_facets, make_polytope
from associahedra.cli import analyze_report
from associahedra.constructions import CONSTRUCTIONS
from associahedra.exactlin import integer_scaling, parse_rat, rat_str

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


@pytest.mark.parametrize("n", NS)
def test_int_codec_matches_fraction_reference(monkeypatch, n):
    for p in fresh_polytopes(n):
        doc = serialize.polytope_to_json(p)
        assert serialize.dumps(doc) == serialize.dumps(reference_polytope_to_json(p))
        rows, scale, q = handed_rows(monkeypatch, doc)
        assert (rows, scale) == reference_rows(doc)
        assert q == p and (q.hull.rows, q.hull.scale) == (p.hull.rows, p.hull.scale)


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
