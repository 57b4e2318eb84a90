import json
import time
from fractions import Fraction

import pytest

from associahedra import serialize, verification
from associahedra.cli import _rat_decimal, main
from associahedra.constructions import CONSTRUCTIONS, practical_bound
from associahedra.cluster import all_roots, default_support_values, parse_root_key, root_key
from associahedra.exactlin import parse_rat, rat_str
from associahedra.minkowski import all_summands, build_minkowski, ones_weights

F = Fraction


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


def test_verify_out_of_range(capsys):
    for n_max in (0, practical_bound() + 1):
        code, _, err = run(["verify", "--n-max", str(n_max)], capsys)
        assert code == 3
        assert "out of range 1..7" in err


def test_verify_accepts_the_build_cap(capsys, monkeypatch):
    # the n_max = 7 manifest takes about 15 s; the range check is what is tested
    calls = []

    def fake_manifest(n_max, seed):
        calls.append((n_max, seed))
        return [("vertex_counts_catalan", True, {"expected": [2, 5]})]

    monkeypatch.setattr(verification, "run_manifest", fake_manifest)
    code, out, _ = run(["verify", "--n-max", str(practical_bound()), "--seed", "7"], capsys)
    assert code == 0 and "PASS" in out
    assert calls == [(7, 7)]


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
    "extra_coordinate_vertex0": _extra_coordinate_on(0),
    "extra_coordinate_vertex2": _extra_coordinate_on(2),
    # would enumerate the triangulations of a 21-gon if not rejected first
    "n_18": lambda doc: {**doc, "n": 18},
    "unknown_construction": lambda doc: {**doc, "construction": "bogus"},
    "top_level_list": lambda doc: [],
    "number_coords": _number_coords,
    "bool_endpoint": _endpoint_1_as(True),
    "float_endpoint": _endpoint_1_as(1.0),
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
        ["build", "--construction", "minkowski", "--n", "8",
         "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 3
    assert "out of range 1..7" in err
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
