import itertools
import operator
import random
from fractions import Fraction
from math import comb

import pytest

from associahedra import polygon
from associahedra.analysis import face_lattice
from associahedra.minkowski import (
    all_summands,
    build_minkowski,
    ones_weights,
    verify_correspondence,
)
from associahedra.sampling import random_weights

F = Fraction


# -- oracle: the functional side of the Minkowski normal fan


def subdivision_from_functional(w, n):
    """Common refinement of the subdivisions induced by the sub-polygons
    of labels with value >= w_k; labels 0 and n+2 always belong (they count
    as +infinity)."""
    diagonals = set()
    for k in range(1, n + 2):
        members = [0] + [i for i in range(1, n + 2) if w[i - 1] >= w[k - 1]] + [n + 2]
        if len(members) <= 2:
            continue
        cyc = members + [members[0]]
        for a, b in zip(cyc, cyc[1:]):
            d = (a, b) if a < b else (b, a)
            if d[1] - d[0] != 1 and d != (0, n + 2):
                diagonals.add(d)
    out = tuple(sorted(diagonals))
    for d1, d2 in itertools.combinations(out, 2):
        assert not polygon.crossing(d1, d2), "induced diagonals cross"
    return out


def cut_depths(s, n):
    """For each label 1..n+1, how many diagonals of s separate it from the
    polygon edge {0, n+2}."""
    return [sum(1 for (a, b) in s if a < i < b) for i in range(1, n + 2)]


def functional_for_subdivision(s, n):
    """A functional whose induced subdivision is s; certified by replay."""
    w = tuple(F(-d) for d in cut_depths(s, n))
    assert subdivision_from_functional(w, n) == tuple(sorted(s))
    return w


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
        for s in polygon.noncrossing_sets(n):
            w = functional_for_subdivision(s, n)
            assert subdivision_from_functional(w, n) == tuple(sorted(s))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_face_lattice_edges_match_the_functional_oracle(n):
    """Each flip pair is the argmax set of the functional of the shared
    diagonals (an edge, certified without the face lattice), and the flip
    pairs are the edges `face_lattice` counts."""
    rng = random.Random(500 + n)
    labels = polygon.all_triangulations(n)
    for a in (ones_weights(n), random_weights(n, rng)):
        p = build_minkowski(a, n)
        pairs = {
            tuple(sorted((v, w)))
            for v, flips in enumerate(polygon.flip_table(n))
            for w in flips
        }
        for v, w in pairs:
            shared = tuple(sorted(set(labels[v]) & set(labels[w])))
            functional = functional_for_subdivision(shared, n)
            values = [sum(map(operator.mul, functional, c)) for c, _ in p.vertices]
            best = max(values)
            assert {k for k, x in enumerate(values) if x == best} == {v, w}
        report = face_lattice(p)
        assert report["ok"] and report["f_vector"][1] == len(pairs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_correspondence(n):
    p = build_minkowski(ones_weights(n), n)
    report = verify_correspondence(p, n)
    assert report["ok"], report["problems"]
    vertices = comb(2 * n + 2, n + 1) // (n + 2)  # Catalan(n+1)
    assert report["f_vector"] == (vertices, n * vertices // 2, n * (n + 3) // 2)


def test_f_vector_n3():
    p = build_minkowski(ones_weights(3), 3)
    assert verify_correspondence(p, 3)["f_vector"] == (14, 21, 9)

