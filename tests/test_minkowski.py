import itertools
import random
from fractions import Fraction

import pytest

from associahedra import polygon
from associahedra.minkowski import (
    all_summands,
    build_minkowski,
    functional_for_subdivision,
    ones_weights,
    subdivision_from_functional,
    verify_correspondence,
)
from associahedra.sampling import random_weights

F = Fraction


def test_subdivision_constant_functional_is_trivial():
    assert subdivision_from_functional((F(1), F(1), F(1)), 2) == ()


def test_subdivision_decreasing_functional():
    assert subdivision_from_functional((F(3), F(2), F(1)), 2) == ((1, 4), (2, 4))


def test_subdivision_peak_functional():
    assert subdivision_from_functional((F(1), F(2), F(1)), 2) == ((0, 2), (2, 4))


def test_subdivision_shift_and_scale_invariant():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        w = tuple(F(rng.randint(-5, 5)) for _ in range(n + 1))
        base = subdivision_from_functional(w, n)
        shifted = tuple(x + F(7, 3) for x in w)
        scaled = tuple(F(5, 2) * x for x in w)
        assert subdivision_from_functional(shifted, n) == base
        assert subdivision_from_functional(scaled, n) == base


def test_generic_functional_gives_triangulation():
    for n in (1, 2, 3):
        for perm in itertools.permutations(range(1, n + 2)):
            w = tuple(F(p) for p in perm)
            s = subdivision_from_functional(w, n)
            assert s in polygon.all_triangulations(n)


def scan_vertices(a, n):
    """Reference construction: every strict coordinate ordering w maximizes
    one vertex of each summand conv{e_i..e_j}; their sum is the vertex of
    the triangulation that w induces."""
    by_vertex = {}
    for perm in itertools.permutations(range(1, n + 2)):
        w = tuple(F(p) for p in perm)
        v = [F(0)] * (n + 1)
        for i, j in all_summands(n):
            v[max(range(i, j + 1), key=lambda k: w[k - 1]) - 1] += a[(i, j)]
        label = subdivision_from_functional(w, n)
        assert len(label) == n
        assert by_vertex.setdefault(tuple(v), label) == label
    return sorted(by_vertex.items(), key=lambda pair: pair[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_loday_formula_matches_scan(n):
    rng = random.Random(100 + n)
    for a in [ones_weights(n)] + [random_weights(n, rng) for _ in range(3)]:
        assert list(build_minkowski(a, n).vertices) == scan_vertices(a, n)


def reference_loday_vertex(a, t, n):
    """Loday's vertex with each interval sum taken on Fractions."""
    v = [F(0)] * (n + 1)
    for lo, k, hi in polygon.triangles(t, n):
        v[k - 1] = sum((a[(i, j)] for i in range(lo + 1, k + 1) for j in range(k, hi)), F(0))
    return tuple(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_integer_builder_matches_fraction_reference(n):
    rng = random.Random(300 + n)
    for a in [ones_weights(n)] + [random_weights(n, rng) for _ in range(3)]:
        want = [(reference_loday_vertex(a, t, n), t) for t in polygon.all_triangulations(n)]
        assert list(build_minkowski(a, n).vertices) == want


def test_loday_segment():
    p = build_minkowski(ones_weights(1), 1)
    assert {c for c, _ in p.vertices} == {(F(2), F(1)), (F(1), F(2))}


def test_loday_pentagon():
    p = build_minkowski(ones_weights(2), 2)
    want = {(3, 2, 1), (3, 1, 2), (2, 1, 3), (1, 2, 3), (1, 4, 1)}
    assert {tuple(int(x) for x in c) for c, _ in p.vertices} == want


def test_doubling_weights_doubles_vertices():
    n = 2
    a = ones_weights(n)
    doubled = {s: 2 * v for s, v in a.items()}
    p1 = build_minkowski(a, n)
    p2 = build_minkowski(doubled, n)
    m1 = {label: c for c, label in p1.vertices}
    m2 = {label: c for c, label in p2.vertices}
    for label, c in m1.items():
        assert m2[label] == tuple(2 * x for x in c)


def test_rejects_nonpositive_weight():
    a = ones_weights(2)
    a[(1, 1)] = F(-1)
    with pytest.raises(ValueError):
        build_minkowski(a, 2)


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_rejects_weights_for_other_summands(change):
    a = ones_weights(2)
    if change == "extra":
        a[(0, 9)] = F(1)
    else:
        del a[(1, 3)]
    with pytest.raises(ValueError):
        build_minkowski(a, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vertex_count_and_sum_random_weights(n):
    rng = random.Random(n)
    draws = [ones_weights(n)] + [random_weights(n, rng) for _ in range(3)]
    for a in draws:
        p = build_minkowski(a, n)
        assert len(p.vertices) == len(polygon.all_triangulations(n))
        total = sum(a.values())
        for c, _ in p.vertices:
            assert sum(c) == total


def test_functional_for_subdivision_roundtrip():
    for n in (2, 3):
        for s in polygon.all_subdivisions(n):
            w = functional_for_subdivision(s, n)
            assert subdivision_from_functional(w, n) == tuple(sorted(s))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_correspondence(n):
    p = build_minkowski(ones_weights(n), n)
    report = verify_correspondence(p, n)
    assert report["ok"], report["problems"]
    sizes = polygon.subdivision_sizes(n)
    assert report["f_vector"] == (
        sizes.get(n, 0),
        sizes.get(n - 1, 0),
        sizes.get(1, 0),
    )


def test_f_vector_n3():
    p = build_minkowski(ones_weights(3), 3)
    assert verify_correspondence(p, 3)["f_vector"] == (14, 21, 9)

