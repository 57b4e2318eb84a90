import argparse
import gc
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from associahedra import analysis, cli, serialize, verification
from associahedra.cli import _rat_decimal, main
from associahedra.constructions import CONSTRUCTIONS, practical_bound
from associahedra.cluster import all_roots, default_support_values, parse_root_key, root_key
from associahedra.exactlin import parse_rat, rat_str
from associahedra.minkowski import all_summands, build_minkowski, ones_weights

F = Fraction
# Catalan(n + 1), the vertex count at n, for n = 1, 2, ...: 2, 5, 14, ...
CATALAN = [comb(2 * k, k) // (k + 1) for k in range(2, 14)]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rational_strings():
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(5)) == "5"
    assert parse_rat("-7/2") == F(-7, 2)
    assert parse_rat("6/4") == F(3, 2)


@pytest.mark.parametrize("value", ["1/0", "0/0", "0.5", "1e3", " 1", "1/-2", "", 0.1, 1, True, None])
def test_parse_rat_rejects(value):
    with pytest.raises(ValueError):
        parse_rat(value)


def test_root_keys_roundtrip():
    for r in all_roots(4):
        assert parse_root_key(root_key(r)) == r
    assert root_key(("+", 2, 2)) == "a2"
    assert root_key(("+", 1, 3)) == "a1..3"
    assert root_key(("-", 1)) == "-a1"


def test_polytope_json_roundtrip(tmp_path):
    p = build_minkowski(ones_weights(2), 2)
    path = tmp_path / "p.json"
    serialize.save_polytope(p, path)
    q = serialize.load_polytope(path)
    assert q.vertices == p.vertices
    assert q.construction == p.construction and q.n == p.n
    # byte-identical re-serialization
    serialize.save_polytope(q, tmp_path / "q.json")
    assert (tmp_path / "p.json").read_bytes() == (tmp_path / "q.json").read_bytes()


def test_written_labels_are_read_from_the_table(monkeypatch):
    # a file as written lists the triangulations in order, each with its
    # diagonals in order: its labels are compared with the cached ones, with
    # no endpoint checked one by one and no label sorted; the same labels
    # with their diagonals in another order take the checked path
    p = build_minkowski(ones_weights(3), 3)
    doc = json.loads(serialize.polytope_text(p))
    endpoints, sorts = [], []
    endpoint = serialize._endpoint
    monkeypatch.setattr(serialize, "_endpoint", lambda a: endpoints.append(a) or endpoint(a))
    monkeypatch.setattr(serialize, "sorted", lambda x: sorts.append(1) or sorted(x), raising=False)
    assert serialize.polytope_from_json(doc) == p
    assert endpoints == sorts == []
    for v in doc["vertices"]:
        v["triangulation"].reverse()
    assert serialize.polytope_from_json(doc) == p
    assert len(endpoints) == 2 * 3 * len(p.labels) and len(sorts) == len(p.labels)
    # and so do the vertices in another order
    for v in doc["vertices"]:
        v["triangulation"].reverse()
    doc["vertices"].reverse()
    endpoints.clear()
    assert serialize.polytope_from_json(doc) == p
    assert len(endpoints) == 2 * 3 * len(p.labels)


def test_one_vertex_off_the_table_is_the_only_one_checked(monkeypatch):
    # the table is compared vertex by vertex: one middle vertex with its
    # diagonals reversed takes the checked path alone, 2n endpoints and one
    # sort, and every other vertex takes the cached label
    n = 4
    p = build_minkowski(ones_weights(n), n)
    doc = json.loads(serialize.polytope_text(p))
    middle = len(p.labels) // 2
    doc["vertices"][middle]["triangulation"].reverse()
    endpoints, sorts = [], []
    endpoint = serialize._endpoint
    monkeypatch.setattr(serialize, "_endpoint", lambda a: endpoints.append(a) or endpoint(a))
    monkeypatch.setattr(serialize, "sorted", lambda x: sorts.append(1) or sorted(x), raising=False)
    assert serialize.polytope_from_json(doc) == p
    assert len(endpoints) == 2 * n and len(sorts) == 1


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_polytope_files_are_one_compact_json_line(tmp_path, capsys, construction):
    built, exported, saved = (tmp_path / f"{k}.json" for k in ("built", "exported", "saved"))
    code, _, _ = run(["build", "--construction", construction, "--n", "3", "--out", str(built)], capsys)
    assert code == 0
    code, out, _ = run(["export", str(built), "--format", "json"], capsys)
    assert code == 0
    code, _, _ = run(["export", str(built), "--format", "json", "--out", str(exported)], capsys)
    assert code == 0
    p = serialize.load_polytope(built)
    serialize.save_polytope(p, saved)
    text = built.read_text()
    # all three writers give the same bytes: one line of compact JSON
    assert out == text == exported.read_text() == saved.read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert text == json.dumps(serialize.polytope_to_json(p), sort_keys=True) + "\n"
    assert serialize.load_polytope(saved) == p
    assert json.loads(text) == serialize.polytope_to_json(p)


def test_build_minkowski_defaults(tmp_path, capsys):
    out = tmp_path / "m2.json"
    code, _, _ = run(["build", "--construction", "minkowski", "--n", "2", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 5


def test_build_secondary_square(tmp_path, capsys):
    params = tmp_path / "geom.json"
    params.write_text(json.dumps({
        "n": 1,
        "coords": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
    }))
    out = tmp_path / "s1.json"
    code, _, _ = run(
        ["build", "--construction", "secondary", "--n", "1",
         "--params", str(params), "--out", str(out)],
        capsys,
    )
    assert code == 0
    got = {tuple(v["coords"]) for v in json.loads(out.read_text())["vertices"]}
    assert got == {("1", "1/2", "1", "1/2"), ("1/2", "1", "1/2", "1")}


def test_build_invalid_weights_exit_2(tmp_path, capsys):
    params = tmp_path / "a.json"
    params.write_text(json.dumps({"n": 2, "a": {
        "1,1": "-1", "1,2": "1", "1,3": "1", "2,2": "1", "2,3": "1", "3,3": "1",
    }}))
    out = tmp_path / "m.json"
    code, _, err = run(
        ["build", "--construction", "minkowski", "--n", "2",
         "--params", str(params), "--out", str(out)],
        capsys,
    )
    assert code == 2


def test_build_out_of_range_exit_3(tmp_path, capsys):
    code, _, _ = run(
        ["build", "--construction", "minkowski", "--n", "9",
         "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 3


def _built(tmp_path, capsys, construction, n):
    out = tmp_path / f"{construction}{n}.json"
    code, _, _ = run(
        ["build", "--construction", construction, "--n", str(n), "--out", str(out)],
        capsys,
    )
    assert code == 0
    return out


def test_analyze_reports(tmp_path, capsys):
    sec = _built(tmp_path, capsys, "secondary", 3)
    code, out, _ = run(["analyze", str(sec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["parallel_pairs"] == []
    mink = _built(tmp_path, capsys, "minkowski", 3)
    code, out, _ = run(["analyze", str(mink)], capsys)
    doc = json.loads(out)
    assert len(doc["parallel_pairs"]) == 3
    clus = _built(tmp_path, capsys, "cluster", 2)
    code, out, _ = run(["analyze", str(clus)], capsys)
    doc = json.loads(out)
    assert len(doc["parallel_pairs"]) == 2


def test_analyze_malformed_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(["analyze", str(bad)], capsys)
    assert code == 2


def test_compare_non_equivalent(tmp_path, capsys):
    sec = _built(tmp_path, capsys, "secondary", 2)
    mink = _built(tmp_path, capsys, "minkowski", 2)
    code, out, _ = run(["compare", str(sec), str(mink)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "non_equivalent"


def test_compare_translated_copy(tmp_path, capsys):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    doc = json.loads(mink.read_text())
    for v in doc["vertices"]:
        v["coords"] = [rat_str(parse_rat(c) + 1) for c in v["coords"]]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    code, out, _ = run(["compare", str(mink), str(moved)], capsys)
    assert code == 1
    assert "witness" in json.loads(out)


def test_large_numerators_at_the_construction_width(tmp_path, capsys):
    # numerators are bounded by the byte cap alone, not by the lcm budget: a
    # generic integer affine image of the n = 5 Minkowski default, with
    # ~200-digit coordinates and no params, has the source's facets and
    # parallel pairs and is equivalent to it
    source = _built(tmp_path, capsys, "minkowski", 5)
    p = serialize.load_polytope(source)
    rng = random.Random(5)
    d = p.ambient_dim
    matrix = [[rng.randrange(-(10**192), 10**192) for _ in range(d)] for _ in range(d)]
    shift = [rng.randrange(10**199, 10**200) for _ in range(d)]
    doc = json.loads(source.read_text())
    doc["params"] = {}
    for v, (coords, _) in zip(doc["vertices"], p.vertices):
        v["coords"] = [
            rat_str(sum(a * x for a, x in zip(row, coords)) + s) for row, s in zip(matrix, shift)
        ]
    assert min(len(c.lstrip("-")) for v in doc["vertices"] for c in v["coords"]) >= 199
    image = tmp_path / "image.json"
    image.write_text(json.dumps(doc))
    q = serialize.load_polytope(image)
    members = [f.vertex_indices for f in analysis.extract_facets(q)]
    assert members == [f.vertex_indices for f in analysis.extract_facets(p)]
    (code, out, _), (code_source, out_source, _) = (
        run(["analyze", str(path)], capsys) for path in (image, source)
    )
    assert code == code_source == 0 and out == out_source
    assert len(json.loads(out)["parallel_pairs"]) == 5
    code, out, _ = run(["compare", str(source), str(image)], capsys)
    assert code == 1 and json.loads(out)["verdict"] == "equivalent"


@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_compare_default_against_a_draw_exit_0(tmp_path, capsys, construction):
    # no obstruction fires and no relabeling fits: certified non-equivalent
    c = CONSTRUCTIONS[construction]
    default = _built(tmp_path, capsys, construction, 3)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 3, c.key: c.encode(c.draw(3, random.Random(1)))}))
    drawn = tmp_path / "drawn.json"
    code, _, _ = run(
        ["build", "--construction", construction, "--n", "3",
         "--params", str(params), "--out", str(drawn)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["compare", str(default), str(drawn)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "non_equivalent"
    assert "witness" not in doc
    assert not any(o["fired"] for o in doc["obstructions"])


# sha256 of `assoc compare`'s output on each n = 4 default and its image
# under (x_0, x_1, ...) -> (x_0 + x_1 + 1, x_1 - 2, ...), relabelled by the
# given dihedral relabeling: the witness and report of each positive control
COMPARE_GOLDEN = {
    "secondary": (3, "ea002a59dea4c47738ae89a3ce55f53ba8e0d4a9cd4a15aad04d2bf82c907ff0"),
    "cluster": (9, "7bc7d0b5bcd0965ad937fc8b26832dbc7480b6401491b6cbfb4f1896d4dbdd4c"),
    "minkowski": (13, "018c52ba14d66bfbefa832d65fe598781c4b88aaf1f1ecf0fc19d23119858bf2"),
}


@pytest.mark.parametrize("construction", sorted(COMPARE_GOLDEN))
def test_compare_positive_control_output_is_golden(tmp_path, capsys, construction):
    k, digest = COMPARE_GOLDEN[construction]
    path = _built(tmp_path, capsys, construction, 4)
    p = serialize.load_polytope(path)
    perm, s = analysis.dihedral_relabelings(4)[k], p.hull.scale
    pairs = [
        ((r[0] + r[1] + s, r[1] - 2 * s, *r[2:]), analysis.relabel_triangulation(perm, label))
        for r, label in zip(p.hull.rows, p.labels)
    ]
    image = tmp_path / "image.json"
    q = analysis.make_polytope(p.construction, 4, p.ambient_dim, pairs, scale=s)
    serialize.save_polytope(q, image)
    code, out, err = run(["compare", str(path), str(image)], capsys)
    assert (code, err, json.loads(out)["verdict"]) == (1, "", "equivalent")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compare_mismatched_n(tmp_path, capsys):
    a = _built(tmp_path, capsys, "minkowski", 2)
    b = _built(tmp_path, capsys, "minkowski", 3)
    code, _, _ = run(["compare", str(a), str(b)], capsys)
    assert code == 2


def test_verify_small(capsys):
    code, out, _ = run(["verify", "--n-max", "2", "--seed", "42"], capsys)
    assert code == 0
    assert "Catalan counts 2, 5" in out
    assert "FAIL" not in out


def test_main_leaves_no_parser_to_the_cyclic_collector(capsys):
    # a parser is a cycle of actions and containers: one built per call
    # would be garbage each time, and DEBUG_SAVEALL keeps what is collected
    gc.collect()
    flags, start = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert run(["verify", "--n-max", "1"], capsys)[0] == 0
        gc.collect()
        parsers = [x for x in gc.garbage[start:] if isinstance(x, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert parsers == []


def test_verify_out_of_range(capsys):
    for n_max in (0, practical_bound() + 1):
        code, _, err = run(["verify", "--n-max", str(n_max)], capsys)
        assert code == 3
        assert f"out of range 1..{practical_bound()}" in err


def test_verify_accepts_the_build_cap(capsys):
    # the whole manifest at the cap, about 2 s in a fresh interpreter
    code, out, _ = run(["verify", "--n-max", str(practical_bound()), "--seed", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(verification.MANIFEST)
    assert all(line.split()[1] == "PASS" for line in lines)
    assert "Catalan counts " + ", ".join(map(str, CATALAN[: practical_bound()])) in out


def test_export_csv(tmp_path, capsys):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    code, out, _ = run(["export", str(mink), "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 5 vertices


def test_export_off(tmp_path, capsys):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    code, out, _ = run(["export", str(mink), "--format", "off"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OFF"
    assert lines[1].split() == ["5", "5", "0"]


def _mapped_file(tmp_path, capsys, scale, shift):
    """The Minkowski n = 2 default file with every coordinate x written as
    scale * x + shift, and those coordinates."""
    doc = json.loads(_built(tmp_path, capsys, "minkowski", 2).read_text())
    coords = []
    for v in doc["vertices"]:
        v["coords"] = [rat_str(scale * F(x) + shift) for x in v["coords"]]
        coords.append([F(x) for x in v["coords"]])
    path = tmp_path / "mapped.json"
    path.write_text(json.dumps(doc))
    return path, coords


@pytest.mark.parametrize(
    "scale, shift",
    [(10**400, 0), (1, 3 * 2**60), (-(10**400), F(1, 3))],
    # a float overflows on the first and prints 3 * 2^60 + 1 as 3 * 2^60
    ids=["beyond_float_range", "beyond_float_precision", "negative_thirds"],
)
def test_export_off_prints_exact_digits(tmp_path, capsys, scale, shift):
    path, coords = _mapped_file(tmp_path, capsys, scale, shift)
    code, out, _ = run(["export", str(path), "--format", "off"], capsys)
    assert code == 0
    lines = out.splitlines()[2 : 2 + len(coords)]
    for line, row in zip(lines, coords):
        for cell, x in zip(line.split(), row):
            # x rounded to 12 places, read back exactly
            assert len(cell.partition(".")[2]) == 12
            assert abs(F(cell) - x) <= F(1, 2 * 10**12)


def test_rat_decimal_rounds_exactly():
    assert [_rat_decimal(x) for x in (F(-1, 3), F(2, 3), F(-1, 10**13), F(0), F(-7))] == [
        "-0.333333333333",
        "0.666666666667",
        "0.000000000000",
        "0.000000000000",
        "-7.000000000000",
    ]


def test_export_unknown_format(tmp_path, capsys):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    code, _, _ = run(["export", str(mink), "--format", "xyz"], capsys)
    assert code == 2


def test_analyze_roundtrip_stable(tmp_path, capsys):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    code, out1, _ = run(["analyze", str(mink)], capsys)
    exported = tmp_path / "re.json"
    code, _, _ = run(["export", str(mink), "--format", "json", "--out", str(exported)], capsys)
    code, out2, _ = run(["analyze", str(exported)], capsys)
    assert out1 == out2


def _empty_vertices(doc):
    doc["vertices"] = []
    return doc


def _extra_coordinate_on(k):
    def mutate(doc):
        doc["vertices"][k]["coords"].append("0")
        return doc

    return mutate


def _one_vertex_too_many(doc):
    doc["vertices"].append(doc["vertices"][0])
    return doc


def _number_coords(doc):
    doc["vertices"][0]["coords"] = 5
    return doc


def _coord(value):
    def mutate(doc):
        doc["vertices"][0]["coords"][0] = value
        return doc

    return mutate


def _endpoint_1_as(value):
    """Write the first endpoint 1 of a vertex's triangulation as `value`,
    which Python compares and hashes equal to 1."""

    def mutate(doc):
        for v in doc["vertices"]:
            for d in v["triangulation"]:
                if d[0] == 1:
                    d[0] = value
                    return doc
        raise AssertionError("no endpoint 1")

    return mutate


MALFORMED = {
    "zero_denominator_coord": _coord("1/0"),
    # JSON numbers and booleans are not rationals: 0.1 is a binary fraction
    "float_coord": _coord(0.1),
    "bool_coord": _coord(True),
    "empty_vertices": _empty_vertices,
    "vertex_count_not_catalan": _one_vertex_too_many,
    "extra_coordinate_vertex0": _extra_coordinate_on(0),
    "extra_coordinate_vertex2": _extra_coordinate_on(2),
    # would enumerate the triangulations of a 21-gon if not rejected first
    "n_18": lambda doc: {**doc, "n": 18},
    "unknown_construction": lambda doc: {**doc, "construction": "bogus"},
    "top_level_list": lambda doc: [],
    "number_coords": _number_coords,
    "bool_endpoint": _endpoint_1_as(True),
    "float_endpoint": _endpoint_1_as(1.0),
    # unhashable: the reader's table of distinct strings cannot hold them
    "list_coord": _coord(["1", "2"]),
    "object_coord": _coord({"p": "1"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
def test_malformed_vertices_exit_2(tmp_path, capsys, command, case):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED[case](json.loads(mink.read_text()))))
    argv = {
        "analyze": ["analyze", str(bad)],
        "compare": ["compare", str(bad), str(mink)],
        "export": ["export", str(bad), "--format", "json"],
    }[command]
    start = time.monotonic()
    code, out, err = run(argv, capsys)
    assert time.monotonic() - start < 5
    assert code == 2
    assert out == ""
    assert "malformed polytope file" in err


def test_vertex_count_is_checked_before_any_coordinate_is_decoded(tmp_path, capsys, monkeypatch):
    # an n = 1 file with 10**4 copies of a vertex: refused on its count,
    # naming both counts, without a coordinate decoded
    mink = _built(tmp_path, capsys, "minkowski", 1)
    doc = json.loads(mink.read_text())
    doc["vertices"] *= 5000
    bad = tmp_path / "many.json"
    bad.write_text(json.dumps(doc))
    parsed = []
    monkeypatch.setattr(serialize, "parse_ratio", lambda s: parsed.append(s))
    code, out, err = run(["analyze", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert "10000 vertices, but n=1 has 2 triangulations" in err
    assert parsed == []


@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
def test_files_over_the_byte_cap_are_refused_before_decoding(
    tmp_path, capsys, monkeypatch, command
):
    # a file padded with trailing spaces: at the cap it decodes, one byte
    # over it is refused, naming both sizes, before the JSON decoder runs
    text = _built(tmp_path, capsys, "minkowski", 1).read_text()
    cap = serialize.max_file_bytes()
    decoded = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda f: decoded.append(f) or load(f))
    for size, want in ((cap, {"analyze": 0, "compare": 1, "export": 0}[command]), (cap + 1, 2)):
        path = tmp_path / f"{size}.json"
        path.write_text(text + " " * (size - len(text)))
        assert path.stat().st_size == size
        decoded.clear()
        argv = {
            "analyze": ["analyze", str(path)],
            "compare": ["compare", str(path), str(path)],
            "export": ["export", str(path), "--format", "json"],
        }[command]
        code, _, err = run(argv, capsys)
        assert code == want
        if size > cap:
            assert decoded == []
            assert f"malformed polytope file: file has {size} bytes, over the {cap}-byte cap" in err
        else:
            assert decoded


def test_params_files_over_the_byte_cap_are_refused_before_decoding(
    tmp_path, capsys, monkeypatch
):
    # the polytope file's cap and check: a params file padded to the cap
    # builds, one byte more exits 2 naming both sizes, and is never decoded
    text = json.dumps({"n": 1, "a": {"1,1": "1", "1,2": "1", "2,2": "1"}})
    cap = serialize.max_file_bytes()
    decoded = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda f: decoded.append(f) or load(f))
    for size, want in ((cap, 0), (cap + 1, 2)):
        params, out = tmp_path / f"{size}.json", tmp_path / f"m{size}.json"
        params.write_text(text + " " * (size - len(text)))
        assert params.stat().st_size == size
        decoded.clear()
        argv = ["build", "--construction", "minkowski", "--n", "1",
                "--params", str(params), "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == want
        if size > cap:
            assert decoded == [] and not out.exists()
            assert err == (
                f"error: invalid parameters: file has {size} bytes, over the {cap}-byte cap\n"
            )
        else:
            assert decoded and err == ""
            assert len(json.loads(out.read_text())["vertices"]) == 2


# (first, second) bad coordinates: the reader names the first in file
# order, whichever sorts or hashes first and whether either is unhashable
TWO_BAD_COORDS = {
    "strings": ("z/0", "a/0"),
    "string_then_list": ("1/0", ["1"]),
    "object_then_string": ({"p": "1"}, "0/0"),
}


@pytest.mark.parametrize("case", sorted(TWO_BAD_COORDS))
def test_the_first_bad_coordinate_in_file_order_is_named(tmp_path, capsys, case):
    first, second = TWO_BAD_COORDS[case]
    mink = _built(tmp_path, capsys, "minkowski", 2)
    doc = json.loads(mink.read_text())
    doc["vertices"][1]["coords"][2] = first
    doc["vertices"][3]["coords"][0] = second
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(["analyze", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert f"not a rational 'p' or 'p/q': {first!r}" in err
    assert repr(second) not in err


def _bad_coord_at(k):
    def mutate(doc):
        doc["vertices"][k]["coords"][0] = "1/0"
        return doc

    return mutate


def _bad_endpoint_at(k):
    def mutate(doc):
        doc["vertices"][k]["triangulation"][0][0] = "1"
        return doc

    return mutate


def _string_coords_at(k):
    def mutate(doc):
        doc["vertices"][k]["coords"] = "0"
        return doc

    return mutate


COORD_ERROR = "not a rational 'p' or 'p/q': '1/0'"
ENDPOINT_ERROR = "triangulation endpoint '1' is not an integer"
SHAPE_ERROR = "vertex coords is a str"
# (first, second, the error named, the error not named): vertex by vertex,
# a vertex's coordinates before its triangulation, as in the file
BAD_COORD_AND_STRUCTURE = {
    "coord_then_later_coords_shape": (_bad_coord_at(0), _string_coords_at(1), COORD_ERROR, SHAPE_ERROR),
    "coord_then_later_endpoint": (_bad_coord_at(0), _bad_endpoint_at(1), COORD_ERROR, ENDPOINT_ERROR),
    "coord_then_own_endpoint": (_bad_coord_at(1), _bad_endpoint_at(1), COORD_ERROR, ENDPOINT_ERROR),
    "endpoint_then_later_coord": (_bad_endpoint_at(0), _bad_coord_at(1), ENDPOINT_ERROR, COORD_ERROR),
}


@pytest.mark.parametrize("case", sorted(BAD_COORD_AND_STRUCTURE))
def test_a_bad_coordinate_and_a_bad_structure_name_the_first_in_file_order(tmp_path, capsys, case):
    first, second, named, not_named = BAD_COORD_AND_STRUCTURE[case]
    mink = _built(tmp_path, capsys, "minkowski", 2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(second(first(json.loads(mink.read_text())))))
    code, out, err = run(["analyze", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert named in err
    assert not_named not in err


def _swapped_labels(tmp_path, capsys):
    """A Minkowski n = 2 file with two vertex labels swapped: it loads, but
    its facets fail certification."""
    mink = _built(tmp_path, capsys, "minkowski", 2)
    doc = json.loads(mink.read_text())
    vs = doc["vertices"]
    vs[0]["triangulation"], vs[1]["triangulation"] = vs[1]["triangulation"], vs[0]["triangulation"]
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(doc))
    return swapped


def test_analyze_swapped_labels_exit_4(tmp_path, capsys):
    code, _, err = run(["analyze", str(_swapped_labels(tmp_path, capsys))], capsys)
    assert code == 4
    assert "hyperplane is not supporting" in err


@pytest.mark.parametrize("contents", [None, "{not json"])
def test_build_unreadable_params_exit_2(tmp_path, capsys, contents):
    params = tmp_path / "params.json"
    if contents is not None:
        params.write_text(contents)
    code, _, err = run(
        ["build", "--construction", "minkowski", "--n", "2",
         "--params", str(params), "--out", str(tmp_path / "m.json")],
        capsys,
    )
    assert code == 2
    assert "invalid parameters" in err


@pytest.mark.parametrize("contents", [None, "{not json"])
def test_export_unreadable_file_exit_2(tmp_path, capsys, contents):
    path = tmp_path / "p.json"
    if contents is not None:
        path.write_text(contents)
    code, _, err = run(["export", str(path), "--format", "csv"], capsys)
    assert code == 2
    assert "malformed polytope file" in err


@pytest.mark.parametrize("command", ["analyze", "compare", "export", "build"])
def test_deeply_nested_file_exit_2(tmp_path, capsys, command):
    # the JSON decoder gives up on this depth with a RecursionError
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    out = str(tmp_path / "out.json")
    argv = {
        "analyze": ["analyze", str(nested)],
        "compare": ["compare", str(nested), str(nested)],
        "export": ["export", str(nested), "--format", "json"],
        "build": ["build", "--construction", "minkowski", "--n", "2",
                  "--params", str(nested), "--out", out],
    }[command]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "Traceback" not in err
    message = "invalid parameters" if command == "build" else "malformed polytope file"
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("n", [0, -1])
def test_build_n_below_range_exit_3(tmp_path, capsys, n):
    code, _, err = run(
        ["build", "--construction", "minkowski", "--n", str(n),
         "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 3
    assert "out of range" in err


SQUARE_COORDS = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]

# every case is built with --n 2
MISMATCHED_PARAMS = {
    "secondary_n": ("secondary", {"n": 1, "coords": SQUARE_COORDS}),
    # n = 3 weights hold every weight an n = 2 build reads
    "minkowski_n": (
        "minkowski",
        {"n": 3, "a": {f"{i},{j}": "1" for i in range(1, 5) for j in range(i, 5)}},
    ),
    # n agrees, but 4 points are not an (n+3)-gon for n = 2
    "secondary_point_count": ("secondary", {"n": 2, "coords": SQUARE_COORDS}),
    # a value for a root or an interval that n = 2 does not have
    "cluster_extra_root": (
        "cluster",
        {"n": 2, "h": {**{root_key(r): "5" for r in all_roots(2)}, "a1..9": "1"}},
    ),
    "minkowski_extra_interval": (
        "minkowski",
        {"n": 2, "a": {**{f"{i},{j}": "1" for i, j in all_summands(2)}, "0,9": "1"}},
    ),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_PARAMS))
def test_build_params_for_other_n_exit_2(tmp_path, capsys, case):
    construction, doc = MISMATCHED_PARAMS[case]
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    code, _, err = run(
        ["build", "--construction", construction, "--n", "2",
         "--params", str(params), "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 2
    assert "invalid parameters" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("value", [True, 1.0])
def test_build_params_n_not_int_exit_2(tmp_path, capsys, value):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": value, "a": {"1,1": "1", "1,2": "1", "2,2": "1"}}))
    out = tmp_path / "x.json"
    code, _, err = run(
        ["build", "--construction", "minkowski", "--n", "1", "--params", str(params),
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "invalid parameters" in err
    assert not out.exists()


def _valid_params(construction):
    """An n = 2 params document that builds."""
    if construction == "secondary":
        coords = [["0", "0"], ["2", "0"], ["3", "2"], ["1", "3"], ["-1", "1"]]
        return {"n": 2, "coords": coords}
    if construction == "cluster":
        h = default_support_values(2)
        return {"n": 2, "h": {root_key(r): rat_str(v) for r, v in h.items()}}
    return {"n": 2, "a": {f"{i},{j}": "1" for i, j in all_summands(2)}}


@pytest.mark.parametrize("value", [None, "1/0", 0.1, True])
@pytest.mark.parametrize("construction", ["secondary", "cluster", "minkowski"])
def test_build_params_not_rational_exit_2(tmp_path, capsys, construction, value):
    doc = _valid_params(construction)
    if value is not None:
        if construction == "secondary":
            doc["coords"][1][0] = value
        else:
            key = "h" if construction == "cluster" else "a"
            doc[key][next(iter(doc[key]))] = value
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    code, _, err = run(
        ["build", "--construction", construction, "--n", "2",
         "--params", str(params), "--out", str(out)],
        capsys,
    )
    if value is None:  # the unmodified document builds
        assert code == 0 and out.exists()
        return
    assert code == 2
    assert "invalid parameters" in err
    assert not out.exists()


# a parameter of the wrong JSON shape: an object's items given as a list,
# and coordinates given as an object whose keys' characters would unpack as
# the parabola's points
WRONG_SHAPE = {
    "secondary": lambda coords: {"00": 0, "11": 0, "24": 0, "39": 0},
    "cluster": lambda h: [[k, v] for k, v in h.items()],
    "minkowski": lambda a: [[k, v] for k, v in a.items()],
}


def _wrong_shape(construction, params):
    key = CONSTRUCTIONS[construction].key
    return {**params, key: WRONG_SHAPE[construction](params[key])}


@pytest.mark.parametrize("construction", sorted(WRONG_SHAPE))
def test_build_params_of_wrong_shape_exit_2(tmp_path, capsys, construction):
    n = 1 if construction == "secondary" else 2
    params = tmp_path / "params.json"
    doc = _valid_params(construction) if n == 2 else {"n": 1, "coords": []}
    params.write_text(json.dumps(_wrong_shape(construction, doc)))
    out = tmp_path / "x.json"
    code, _, err = run(
        ["build", "--construction", construction, "--n", str(n),
         "--params", str(params), "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "invalid parameters" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
@pytest.mark.parametrize("construction", sorted(WRONG_SHAPE))
def test_file_with_params_of_wrong_shape_exit_2(tmp_path, capsys, construction, command):
    good = _built(tmp_path, capsys, construction, 1)
    doc = json.loads(good.read_text())
    doc["params"] = _wrong_shape(construction, doc["params"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "analyze": ["analyze", str(bad)],
        "compare": ["compare", str(bad), str(good)],
        "export": ["export", str(bad), "--format", "json"],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "malformed polytope file" in err


@pytest.mark.parametrize("command", ["build", "analyze", "compare", "export"])
def test_a_missing_key_is_named(tmp_path, capsys, command):
    # a params file without the construction's key, and a cluster file
    # relabelled as Minkowski, whose params then lack the key "a"
    if command == "build":
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n": 2}))
        argv = ["build", "--construction", "cluster", "--n", "2",
                "--params", str(params), "--out", str(tmp_path / "x.json")]
        want = "error: invalid parameters: missing key 'h'"
    else:
        good = _built(tmp_path, capsys, "cluster", 2)
        doc = json.loads(good.read_text())
        doc["construction"] = "minkowski"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = {
            "analyze": ["analyze", str(bad)],
            "compare": ["compare", str(bad), str(good)],
            "export": ["export", str(bad), "--format", "json"],
        }[command]
        want = "error: malformed polytope file: missing key 'a'"
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == want + "\n"


# vertex coordinates of the wrong JSON shape, whose characters or keys
# would read as the Minkowski n = 1 vertices (2, 1) and (1, 2)
WRONG_SHAPE_COORDS = {
    "string": lambda coords: "".join(coords),
    "object": lambda coords: dict.fromkeys(coords, "0"),
}


@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
@pytest.mark.parametrize("shape", sorted(WRONG_SHAPE_COORDS))
def test_file_with_coords_of_wrong_shape_exit_2(tmp_path, capsys, shape, command):
    good = _built(tmp_path, capsys, "minkowski", 1)
    doc = json.loads(good.read_text())
    for v in doc["vertices"]:
        v["coords"] = WRONG_SHAPE_COORDS[shape](v["coords"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "analyze": ["analyze", str(bad)],
        "compare": ["compare", str(bad), str(good)],
        "export": ["export", str(bad), "--format", "csv"],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "malformed polytope file" in err and "coords" in err


def test_build_cluster_wall_check_names_roots_and_deficit(tmp_path, capsys):
    # an empty segment: the one wall's relation lhs > rhs fails by 4
    params = tmp_path / "h.json"
    params.write_text(json.dumps({"n": 1, "h": {"a1": "1", "-a1": "-5"}}))
    out = tmp_path / "x.json"
    code, _, err = run(
        ["build", "--construction", "cluster", "--n", "1", "--params", str(params),
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err == (
        "error: invalid parameters: support values fail the wall check: "
        "wall exchanging a1 and -a1: deficit 4\n"
    )
    assert not out.exists()


def test_export_off_swapped_labels_exit_4(tmp_path, capsys):
    swapped = _swapped_labels(tmp_path, capsys)
    code, out, err = run(["export", str(swapped), "--format", "off"], capsys)
    assert code == 4
    assert out == ""
    assert "hyperplane is not supporting" in err


@pytest.mark.parametrize("swapped_first", [True, False])
def test_compare_swapped_labels_exit_4(tmp_path, capsys, swapped_first):
    swapped = str(_swapped_labels(tmp_path, capsys))
    mink = str(tmp_path / "minkowski2.json")
    pair = [swapped, mink] if swapped_first else [mink, swapped]
    code, out, err = run(["compare", *pair], capsys)
    assert code == 4
    assert out == ""
    assert "facet certification failed" in err


def test_build_cap_ignores_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ASSOC_MAX_N", "20")
    code, _, err = run(
        ["build", "--construction", "minkowski", "--n", str(practical_bound() + 1),
         "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 3
    assert f"out of range 1..{practical_bound()}" in err
    assert not (tmp_path / "x.json").exists()


# keys that parse to a parameter a canonical key names ("a1", "1,1"); a file
# must use the canonical key, so that no two keys name one parameter
NON_CANONICAL_KEYS = {
    "cluster": {"a1": ["a1..", "a01", "a 1", "a1..1", "a+1"], "-a1": ["-a01", "-a 1"]},
    "minkowski": {"1,1": ["01,1", " 1,1", "1, 1", "1,1 ", "+1,1"], "1,2": ["1,0_2"]},
}
NON_CANONICAL_CASES = [
    (construction, canonical, key)
    for construction, by_key in NON_CANONICAL_KEYS.items()
    for canonical, keys in by_key.items()
    for key in keys
]


def _rekeyed(params, canonical, key, keep):
    """`params` with `key` holding a new value, beside `canonical` or in its place."""
    params = dict(params)
    if not keep:
        del params[canonical]
    params[key] = "7"
    return params


@pytest.mark.parametrize("keep", [True, False], ids=["duplicated", "renamed"])
@pytest.mark.parametrize("construction, canonical, key", NON_CANONICAL_CASES)
def test_build_non_canonical_key_exit_2(tmp_path, capsys, construction, canonical, key, keep):
    doc = _valid_params(construction)
    param = "h" if construction == "cluster" else "a"
    doc[param] = _rekeyed(doc[param], canonical, key, keep)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    code, _, err = run(
        ["build", "--construction", construction, "--n", "2",
         "--params", str(params), "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "invalid parameters" in err and "canonical" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
@pytest.mark.parametrize("construction", sorted(NON_CANONICAL_KEYS))
def test_file_with_non_canonical_key_exit_2(tmp_path, capsys, construction, command):
    good = _built(tmp_path, capsys, construction, 2)
    doc = json.loads(good.read_text())
    param = "h" if construction == "cluster" else "a"
    canonical, keys = next(iter(NON_CANONICAL_KEYS[construction].items()))
    doc["params"][param] = _rekeyed(doc["params"][param], canonical, keys[0], keep=False)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "analyze": ["analyze", str(bad)],
        "compare": ["compare", str(bad), str(good)],
        "export": ["export", str(bad), "--format", "json"],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "malformed polytope file" in err and "canonical" in err


@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
def test_file_with_params_for_other_n_exit_2(tmp_path, capsys, command):
    good = _built(tmp_path, capsys, "minkowski", 2)
    doc = json.loads(good.read_text())
    doc["params"] = json.loads(_built(tmp_path, capsys, "minkowski", 3).read_text())["params"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "analyze": ["analyze", str(bad)],
        "compare": ["compare", str(bad), str(good)],
        "export": ["export", str(bad), "--format", "json"],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "malformed polytope file" in err and "n=3" in err


@pytest.mark.parametrize("command", ["build", "export"])
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    target = str(tmp_path / "no" / "such" / "dir" / "x.out")
    argv = {
        "build": ["build", "--construction", "minkowski", "--n", "2", "--out", target],
        "export": ["export", str(_built(tmp_path, capsys, "minkowski", 2)),
                   "--format", "csv", "--out", target],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output")


def test_build_too_large_to_write_exit_2_and_out_untouched(tmp_path, capsys):
    # the four corners scaled by 10**3000: the GKZ coordinates have about
    # 6000 digits, past Python's int-to-str limit (4300 by default)
    big = "1" + "0" * 3000
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 1, "coords": [["0", "0"], [big, "0"], [big, big], ["0", big]]}))
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, stdout, err = run(
            ["build", "--construction", "secondary", "--n", "1",
             "--params", str(params), "--out", str(out)],
            capsys,
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: cannot write output")
    assert out.read_text() == "kept\n"


@pytest.fixture
def digit_limit():
    """Python's default int-str limit of 4300 digits, restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def _weights_params(tmp_path, weight):
    params = tmp_path / "params.json"
    a = {key: weight for key in ("1,1", "1,2", "2,2")}
    params.write_text(json.dumps({"n": 1, "a": a}))
    return params


def test_analyze_names_the_digits_of_a_coordinate_past_the_limit(tmp_path, capsys, digit_limit):
    path = _built(tmp_path, capsys, "minkowski", 1)
    doc = json.loads(path.read_text())
    doc["vertices"][1]["coords"][0] = "1" * 5001
    path.write_text(json.dumps(doc))
    code, out, err = run(["analyze", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: malformed polytope file: a number of 5001 digits is past the 4300-digit limit\n"
    )


def test_build_names_the_digits_of_a_weight_past_the_limit(tmp_path, capsys, digit_limit):
    params = _weights_params(tmp_path, "7" * 4301)
    out = tmp_path / "out.json"
    code, stdout, err = run(
        ["build", "--construction", "minkowski", "--n", "1",
         "--params", str(params), "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == "error: invalid parameters: a number of 4301 digits is past the 4300-digit limit\n"
    assert not out.exists()


def test_build_names_the_digits_of_a_sum_too_long_to_write(tmp_path, capsys, digit_limit):
    # every weight has 4300 digits, which read, but a vertex coordinate sums
    # two of them into 4301 digits, which do not write
    params = _weights_params(tmp_path, "9" * 4300)
    out = tmp_path / "out.json"
    code, stdout, err = run(
        ["build", "--construction", "minkowski", "--n", "1",
         "--params", str(params), "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == "error: cannot write output: a number of 4301 digits is past the 4300-digit limit\n"
    assert not out.exists()


def test_compare_names_the_digits_of_a_witness_too_long_to_write(tmp_path, capsys, digit_limit):
    # two n = 1 segments, one 10**4500 times the other: equivalent, and the
    # witness matrix holds 10**-4500, whose denominator has 4501 digits (the
    # small one's denominator, 10**300, is within the lcm budget)
    big = "1" + "0" * 4200
    paths = []
    for name, x in (("large", big), ("small", "1/1" + "0" * 300)):
        path = tmp_path / f"{name}.json"
        vertices = [
            {"coords": [x, "0"], "triangulation": [[0, 2]]},
            {"coords": ["0", x], "triangulation": [[1, 3]]},
        ]
        path.write_text(json.dumps(
            {"construction": "minkowski", "n": 1, "params": {}, "vertices": vertices}
        ))
        paths.append(str(path))
    code, out, err = run(["compare", *paths], capsys)
    assert (code, out) == (2, "")
    assert err == "error: cannot write witness: a number of 4501 digits is past the 4300-digit limit\n"


NOT_INT_N_OR_NOT_OBJECT_PARAMS = {
    # true == 1 and 1.0 == 1, so a range check alone lets both through
    "n_true": (1, lambda doc: {**doc, "n": True}),
    "n_float": (1, lambda doc: {**doc, "n": 1.0}),
    "params_n_true": (1, lambda doc: {**doc, "params": {**doc["params"], "n": True}}),
    "params_n_float": (1, lambda doc: {**doc, "params": {**doc["params"], "n": 1.0}}),
    # falsy, so a truth test alone reads them as "no parameters"
    "params_list": (2, lambda doc: {**doc, "params": []}),
    "params_zero": (2, lambda doc: {**doc, "params": 0}),
}


@pytest.mark.parametrize("case", sorted(NOT_INT_N_OR_NOT_OBJECT_PARAMS))
@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
def test_file_with_non_int_n_or_non_object_params_exit_2(tmp_path, capsys, command, case):
    n, mutate = NOT_INT_N_OR_NOT_OBJECT_PARAMS[case]
    good = _built(tmp_path, capsys, "minkowski", n)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.loads(good.read_text()))))
    argv = {
        "analyze": ["analyze", str(bad)],
        "compare": ["compare", str(bad), str(good)],
        "export": ["export", str(bad), "--format", "json"],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "malformed polytope file" in err


OFF_THE_DOMAIN = {
    # (construction, the n = 2 parameter changed, the reason `build` gives)
    "cluster_missing_root": ("cluster", lambda h: dict(sorted(h.items())[1:]), "exactly the 5 roots"),
    "minkowski_missing_summand": (
        "minkowski", lambda a: dict(sorted(a.items())[1:]), "exactly the 6 summands"
    ),
    "minkowski_zero_weight": ("minkowski", lambda a: {**a, "1,2": "0"}, "must be positive"),
    "secondary_not_convex": (
        "secondary", lambda coords: [coords[1], coords[0], *coords[2:]], "invalid polygon geometry"
    ),
    "secondary_too_few_points": ("secondary", lambda coords: coords[:-1], "need n + 3 = 5 points"),
}


@pytest.mark.parametrize("command", ["build", "analyze", "compare", "export"])
@pytest.mark.parametrize("case", sorted(OFF_THE_DOMAIN))
def test_params_off_the_domain_exit_2(tmp_path, capsys, case, command):
    # a file's params pass the checks its builder makes, or the file is
    # malformed: before, `analyze` read a cluster file missing a root and
    # `export` wrote it back
    construction, change, reason = OFF_THE_DOMAIN[case]
    good = _built(tmp_path, capsys, construction, 2)
    doc = json.loads(good.read_text())
    key = CONSTRUCTIONS[construction].key
    doc["params"][key] = change(doc["params"][key])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc["params"] if command == "build" else doc))
    argv = {
        "build": ["build", "--construction", construction, "--n", "2",
                  "--params", str(bad), "--out", str(tmp_path / "x.json")],
        "analyze": ["analyze", str(bad)],
        "compare": ["compare", str(bad), str(good)],
        "export": ["export", str(bad), "--format", "json"],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    message = "invalid parameters" if command == "build" else "malformed polytope file"
    assert err.startswith(f"error: {message}: ") and reason in err
    assert not (tmp_path / "x.json").exists()


# -- the exit-code contract: every documented refusal of every command,
# through `main`, with its exact code and error line and nothing on stdout


def test_the_contract_states_the_caps_in_force():
    # the numbers `cli`'s docstring writes out are the code's: raising the
    # build cap or the byte cap without the contract fails here
    doc = " ".join(cli.__doc__.split())
    assert f"n_max out of range 1..{practical_bound()}," in doc
    assert f"2 KiB per vertex at n = {practical_bound()}: {serialize.max_file_bytes()} bytes" in doc

WEIGHTS_1 = {"1,1": "1", "1,2": "1", "2,2": "1"}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _minkowski_doc(n):
    return serialize.polytope_to_json(build_minkowski(ones_weights(n), n))


def _good(tmp_path, n=1):
    return _write(tmp_path, f"good{n}.json", _minkowski_doc(n))


def _with_labels_swapped(n, i, j):
    doc = _minkowski_doc(n)
    vs = doc["vertices"]
    vs[i]["triangulation"], vs[j]["triangulation"] = vs[j]["triangulation"], vs[i]["triangulation"]
    return doc


def _over_denominators(qs):
    """The Minkowski n = 1 file with its coordinates (2, 1) and (1, 2)
    written as x / q, q cycling through the odd `qs`: the lcm of its
    denominators is the lcm of `qs`."""
    doc = _minkowski_doc(1)
    k = 0
    for v in doc["vertices"]:
        row = []
        for x in v["coords"]:
            row.append(f"{x}/{qs[k % len(qs)]}")
            k += 1
        v["coords"] = row
    return doc


def _widened(doc, extra):
    """`doc` with the coordinate strings `extra` appended to every row."""
    for v in doc["vertices"]:
        v["coords"] = v["coords"] + extra
    return doc


def _padded_params():
    """A Minkowski n = 1 params document of 1.49 MB, under the byte cap:
    the three weights, a 2 * 10**5-entry `pad` list and a `typo_key`."""
    return {"n": 1, "a": WEIGHTS_1, "pad": list(range(200_000)), "typo_key": 1}


def _build_argv(tmp_path, params=None, n=1, out=None):
    argv = ["build", "--construction", "minkowski", "--n", str(n),
            "--out", out or str(tmp_path / "out.json")]
    if params is not None:
        argv += ["--params", _write(tmp_path, "params.json", params)]
    return argv


# each file case: (the document, the error line every reader gives for it)
NOT_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
BAD_FILES = {
    "not_json": ("{not json", f"malformed polytope file: {NOT_JSON}"),
    "unknown_params_key": (
        lambda: {**_minkowski_doc(1), "params": {"n": 1, "a": WEIGHTS_1, "junk": 1}},
        "malformed polytope file: unknown key 'junk' in the minkowski params",
    ),
    "params_without_n": (
        lambda: {**_minkowski_doc(1), "params": {"a": WEIGHTS_1}},
        "malformed polytope file: missing key 'n'",
    ),
    # a third coordinate at n = 1, where Minkowski rows have n + 1 = 2
    "wide_rows": (
        lambda: _widened(_minkowski_doc(1), ["0"]),
        "malformed polytope file: vertex 0 has 3 coordinates, but a minkowski polytope "
        "at n=1 has 2",
    ),
    "lcm_over_budget": (
        lambda: _over_denominators([2**600 + 1, 2**600 + 3]),
        "malformed polytope file: the lcm of the denominators has 1201 bits, "
        "over the 1024-bit budget",
    ),
    # at n = 3, swapping the labels of vertices 1 and 7 leaves vertex 0 and
    # its flips on a plane of the 3-dimensional hull
    "frame_not_spanning": (
        lambda: _with_labels_swapped(3, 1, 7),
        "malformed polytope file: vertex 0 and its flips (5, 2, 1) do not span "
        "the affine hull",
    ),
}
CERTIFICATION_FAILURE = "facet certification failed: diagonal (0, 3): hyperplane is not supporting"


def _bad_file(tmp_path, case):
    doc, _ = BAD_FILES[case]
    return _write(tmp_path, f"{case}.json", doc() if callable(doc) else doc)


def _contract_cases():
    """(id, make, rc, error line): make(tmp_path, monkeypatch) -> argv."""
    cases = [
        ("build-n-out-of-range", lambda t, m: _build_argv(t, n=0), 3,
         f"n=0 out of range 1..{practical_bound()}"),
        ("build-params-not-json", lambda t, m: _build_argv(t, "{not json"), 2,
         f"invalid parameters: {NOT_JSON}"),
        ("build-params-missing-key", lambda t, m: _build_argv(t, {"n": 1}), 2,
         "invalid parameters: missing key 'a'"),
        ("build-params-for-other-n", lambda t, m: _build_argv(t, {"n": 2, "a": WEIGHTS_1}), 2,
         "invalid parameters: params are for n=2, not n=1"),
        ("build-params-unknown-key",
         lambda t, m: _build_argv(t, {"n": 1, "a": WEIGHTS_1, "typo_key": 1}), 2,
         "invalid parameters: unknown key 'typo_key' in the minkowski params"),
        ("build-params-padded", lambda t, m: _build_argv(t, _padded_params()), 2,
         "invalid parameters: unknown key 'pad' in the minkowski params"),
        ("build-unwritable-out", lambda t, m: _build_argv(t, out=str(t / "no" / "x.json")), 2,
         None),
        ("compare-different-n", lambda t, m: ["compare", _good(t, 1), _good(t, 2)], 2,
         "polytopes have different n"),
        ("compare-certification",
         lambda t, m: ["compare", _good(t, 2),
                       _write(t, "swapped.json", _with_labels_swapped(2, 0, 1))], 4,
         CERTIFICATION_FAILURE),
        ("analyze-certification",
         lambda t, m: ["analyze", _write(t, "swapped.json", _with_labels_swapped(2, 0, 1))], 4,
         CERTIFICATION_FAILURE),
        ("export-off-certification",
         lambda t, m: ["export", _write(t, "swapped.json", _with_labels_swapped(2, 0, 1)),
                       "--format", "off"], 4,
         CERTIFICATION_FAILURE),
        ("export-unknown-format", lambda t, m: ["export", _good(t), "--format", "xml"], 2,
         "unknown format 'xml'"),
        ("export-unwritable-out",
         lambda t, m: ["export", _good(t), "--format", "csv", "--out", str(t / "no" / "x")], 2,
         None),
        ("verify-n-max-out-of-range",
         lambda t, m: ["verify", "--n-max", str(practical_bound() + 1)], 3,
         f"n_max={practical_bound() + 1} out of range 1..{practical_bound()}"),
        ("verify-certification", _verify_with_failing_certificate, 4,
         "facet certification failed: patched in"),
    ]
    for case, (_, line) in BAD_FILES.items():
        cases.append((f"analyze-{case}", lambda t, m, c=case: ["analyze", _bad_file(t, c)], 2, line))
        cases.append((f"compare-{case}",
                      lambda t, m, c=case: ["compare", _good(t), _bad_file(t, c)], 2, line))
        for fmt in ("json", "csv", "off"):
            cases.append((f"export-{fmt}-{case}",
                          lambda t, m, c=case, f=fmt: ["export", _bad_file(t, c), "--format", f],
                          2, line))
    return cases


def _verify_with_failing_certificate(tmp_path, monkeypatch):
    def fail(p, kernels=False):
        raise analysis.CertificationError("patched in")

    monkeypatch.setattr(analysis, "_certify_facets", fail)
    return ["verify", "--n-max", "1"]


CONTRACT = _contract_cases()


@pytest.mark.parametrize("make, rc, line", [c[1:] for c in CONTRACT], ids=[c[0] for c in CONTRACT])
def test_every_refusal_honours_the_exit_code_contract(tmp_path, capsys, monkeypatch, make, rc, line):
    argv = make(tmp_path, monkeypatch)
    code, out, err = run(argv, capsys)
    assert (code, out) == (rc, "")
    if line is None:
        # an OS error: its text is the system's, so only its start is pinned
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    else:
        assert err == f"error: {line}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
def test_a_file_at_the_lcm_budget_loads_and_one_bit_over_is_refused(
    tmp_path, capsys, monkeypatch, command
):
    # one odd denominator of exactly LCM_BITS bits loads; one bit more is
    # refused, naming both bit lengths, before any polytope is made
    bits = serialize.LCM_BITS
    made = []
    make = serialize.make_polytope
    monkeypatch.setattr(serialize, "make_polytope", lambda *a, **k: made.append(1) or make(*a, **k))
    for q, want in ((2 ** (bits - 1) + 1, {"analyze": 0, "compare": 1, "export": 0}[command]),
                    (2**bits + 1, 2)):
        path = _write(tmp_path, f"{q.bit_length()}.json", _over_denominators([q]))
        argv = {
            "analyze": ["analyze", path],
            "compare": ["compare", path, path],
            "export": ["export", path, "--format", "json"],
        }[command]
        made.clear()
        code, out, err = run(argv, capsys)
        assert code == want
        if want == 2:
            assert (out, made) == ("", [])
            assert err == (
                f"error: malformed polytope file: the lcm of the denominators has {bits + 1} "
                f"bits, over the {bits}-bit budget\n"
            )
        else:
            assert err == "" and made


@pytest.mark.parametrize("command", ["analyze", "compare", "export"])
def test_a_wide_file_is_refused_before_any_coordinate_is_parsed(
    tmp_path, capsys, monkeypatch, command
):
    # an n = 1 Minkowski file of 2 vertices by 256 columns of 14000-bit
    # integers, 2.16 MB and under the byte cap: compare once ran 193 s on
    # it; its rows are not the construction's width, so no entry is parsed
    rng = random.Random(1)
    doc = {"construction": "minkowski", "n": 1, "params": {}, "vertices": [
        {"coords": [str(rng.getrandbits(14000) | 1 << 13999) for _ in range(256)],
         "triangulation": label}
        for label in ([[0, 2]], [[1, 3]])
    ]}
    path = _write(tmp_path, "wide.json", doc)
    assert 2_150_000 < Path(path).stat().st_size < serialize.max_file_bytes()
    parsed = []
    parse = serialize.parse_ratio
    monkeypatch.setattr(serialize, "parse_ratio", lambda x: parsed.append(x) or parse(x))
    argv = {
        "analyze": ["analyze", path],
        "compare": ["compare", path, path],
        "export": ["export", path, "--format", "json"],
    }[command]
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, parsed) == (2, "", [])
    assert err == (
        "error: malformed polytope file: vertex 0 has 256 coordinates, "
        "but a minkowski polytope at n=1 has 2\n"
    )


def test_a_small_file_of_long_denominators_is_refused_at_once(tmp_path, capsys):
    # the 14 vertices of n = 3, each of the construction's 4 coordinates
    # 1/q, each q odd with 1400 digits: 79 KB, whose lcm passes the budget
    # at its second denominator, before any row is scaled (2 vertices of
    # 40 such coordinates at 1000 digits, whose lcm once took analyze
    # 13.8 s to scale, are now refused for their width first)
    rng = random.Random(0)
    doc = _minkowski_doc(3)
    doc["params"] = {}
    for v in doc["vertices"]:
        v["coords"] = [f"1/{rng.randrange(10**1399, 10**1400) | 1}" for _ in v["coords"]]
    path = _write(tmp_path, "long.json", doc)
    assert 79_000 < Path(path).stat().st_size < 81_000
    start = time.perf_counter()
    code, out, err = run(["analyze", path], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed polytope file: the lcm of the denominators has ")
