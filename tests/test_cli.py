import json
from fractions import Fraction

import pytest

from associahedra import serialize
from associahedra.cli import main
from associahedra.cluster import all_roots
from associahedra.minkowski import build_minkowski, ones_weights

F = Fraction


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rational_strings():
    assert serialize.rat_str(F(3, 4)) == "3/4"
    assert serialize.rat_str(F(5)) == "5"
    assert serialize.parse_rat("-7/2") == F(-7, 2)


def test_root_keys_roundtrip():
    for r in all_roots(4):
        assert serialize.parse_root_key(serialize.root_key(r)) == r
    assert serialize.root_key(("+", 2, 2)) == "a2"
    assert serialize.root_key(("+", 1, 3)) == "a1..3"
    assert serialize.root_key(("-", 1)) == "-a1"


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
        v["coords"] = [serialize.rat_str(serialize.parse_rat(c) + 1) for c in v["coords"]]
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
    code, _, _ = run(["verify", "--n-max", "7"], capsys)
    assert code == 3


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


def _extra_coordinate_on(k):
    def mutate(doc):
        doc["vertices"][k]["coords"].append("0")

    return mutate


MALFORMED = {
    "empty_vertices": _empty_vertices,
    "extra_coordinate_vertex0": _extra_coordinate_on(0),
    "extra_coordinate_vertex2": _extra_coordinate_on(2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_malformed_vertices_exit_2(tmp_path, capsys, command, case):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    doc = json.loads(mink.read_text())
    MALFORMED[case](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(bad)] + ([str(mink)] if command == "compare" else [])
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "malformed polytope file" in err


def test_analyze_swapped_labels_exit_4(tmp_path, capsys):
    mink = _built(tmp_path, capsys, "minkowski", 2)
    doc = json.loads(mink.read_text())
    vs = doc["vertices"]
    vs[0]["triangulation"], vs[1]["triangulation"] = vs[1]["triangulation"], vs[0]["triangulation"]
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(doc))
    code, _, err = run(["analyze", str(swapped)], capsys)
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
