import random

import pytest

from associahedra import cluster, minkowski, sampling, secondary, serialize, verification
from associahedra.analysis import extract_facets
from associahedra.constructions import CONSTRUCTIONS, practical_bound

# per construction: the module functions its record's default, draw, build
# and normals call
CALLED = {
    "secondary": [
        (secondary, "parabola_geometry"),
        (sampling, "random_convex_geometry"),
        (secondary, "build_secondary"),
        (secondary, "fold_normals"),
    ],
    "cluster": [
        (cluster, "default_support_values"),
        (sampling, "perturbed_support_values"),
        (cluster, "build_cluster_polytope"),
        (cluster, "ray_normals"),
    ],
    "minkowski": [
        (minkowski, "ones_weights"),
        (sampling, "random_weights"),
        (minkowski, "build_minkowski"),
        (minkowski, "interval_normals"),
    ],
}


def test_registry_order_and_keys():
    # the seeded draws consume a shared rng in this order
    assert list(CONSTRUCTIONS) == ["secondary", "cluster", "minkowski"]
    assert [c.key for c in CONSTRUCTIONS.values()] == ["coords", "h", "a"]


@pytest.mark.parametrize("name", sorted(CALLED))
def test_records_call_functions_patched_on_their_modules(monkeypatch, name):
    c = CONSTRUCTIONS[name]
    # one build first fills the per-n caches: a cluster build's table of
    # spanning trees reads ray_normals once per n, whichever test builds first
    c.build(c.default(2), 2)
    calls = []
    for module, attr in CALLED[name]:
        original = getattr(module, attr)

        def spy(*args, _attr=attr, _original=original, **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    default, draw, build, normals = (attr for _, attr in CALLED[name])
    p = c.build(c.default(2), 2)
    assert calls == [default, build]
    # certifying the facets reads the normals off the record; a cluster
    # build carries the normals its lane pass certified and reads none
    extract_facets(p)
    assert calls == [default, build] + ([] if name == "cluster" else [normals])
    # a polytope loaded from a file certifies from scratch, off the record
    calls.clear()
    extract_facets(serialize.polytope_from_json(serialize.polytope_to_json(p)))
    assert calls == [normals]
    calls.clear()
    c.build(c.draw(2, random.Random(5)), 2)
    # a draw may start from the default (the cluster draw perturbs it)
    assert calls[0] == draw and calls[-1] == build


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_builds_have_the_record_width(name):
    # the width a file's rows are checked against is the width built
    c = CONSTRUCTIONS[name]
    for n in range(1, practical_bound() + 1):
        assert c.ambient_dim(n) == n + (3 if name == "secondary" else 1)
        assert verification.build_all_defaults(n)[name].ambient_dim == c.ambient_dim(n)


@pytest.mark.parametrize("drawn", [False, True], ids=["default", "drawn"])
@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_params_roundtrip(tmp_path, name, drawn):
    c = CONSTRUCTIONS[name]
    n = 3
    value = c.draw(n, random.Random(11)) if drawn else c.default(n)
    p = c.build(value, n)
    q = serialize.polytope_from_json(serialize.polytope_to_json(p))
    assert q == p
    assert q.params == {c.key: value}
    serialize.save_polytope(p, tmp_path / "p.json")
    serialize.save_polytope(q, tmp_path / "q.json")
    assert (tmp_path / "p.json").read_bytes() == (tmp_path / "q.json").read_bytes()


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_manifest_reuses_cached_default(name):
    c = CONSTRUCTIONS[name]
    got = verification._default_and_draws(name, 3, random.Random(2))
    assert got[0] is verification.build_all_defaults(3)[name]
    # defaults draw nothing: the draws see the rng stream from its start
    rng = random.Random(2)
    assert got[1:] == [c.build(c.draw(3, rng), 3) for _ in range(3)]
