import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from associahedra import cluster, polygon
from associahedra.analysis import make_polytope
from associahedra.cluster import (
    _sorted_roots,
    all_clusters,
    all_roots,
    build_cluster_polytope,
    cluster_of,
    compatible,
    default_support_values,
    neg,
    polytopality_check,
    pos,
    root_coordinates,
    root_to_diagonal,
    snake_diagonal,
    verify_fan,
    wall_relation,
    walls,
)
from associahedra.exactlin import UNDERDETERMINED, ZERO, dot, solve_linear
from associahedra.sampling import perturbed_support_values

F = Fraction


@lru_cache(maxsize=None)
def reference_walls(n):
    """The flip loop the ridge-incidence `walls` replaced, kept verbatim."""
    seen = set()
    out = []
    for t in polygon.all_triangulations(n):
        c1 = cluster_of(t, n)
        for d in t:
            c2 = cluster_of(polygon.flip(t, d, n), n)
            key = frozenset((c1, c2))
            if key not in seen:
                seen.add(key)
                out.append((c1, c2))
    return tuple(out)


def reference_wall_relation(c1, c2, n):
    """The Fraction solve the integer `wall_relation` replaced, kept verbatim."""
    out = c1 - c2
    inc = c2 - c1
    if len(out) != 1 or len(inc) != 1:
        raise ValueError("clusters are not adjacent")
    beta = next(iter(out))
    beta_p = next(iter(inc))
    shared = _sorted_roots(c1 & c2)
    # unknowns: lam, then one coefficient per shared root
    cols = [root_coordinates(beta_p, n)] + [
        tuple(-x for x in root_coordinates(g, n)) for g in shared
    ]
    system = [tuple(col[row] for col in cols) for row in range(n + 1)]
    rhs = tuple(-x for x in root_coordinates(beta, n))
    sol = solve_linear(system, rhs)
    if sol is None or sol is UNDERDETERMINED:
        raise ValueError("wall relation is not uniquely determined")
    lam = sol[0]
    if lam <= 0:
        raise ValueError("exchanged roots lie on the same side of the wall")
    coeffs = dict(zip(shared, sol[1:]))
    return Fraction(1), lam, coeffs


@lru_cache(maxsize=None)
def reference_wall_relations(n):
    out = []
    for c1, c2 in reference_walls(n):
        beta = next(iter(c1 - c2))
        beta_p = next(iter(c2 - c1))
        _, lam, coeffs = reference_wall_relation(c1, c2, n)
        out.append((beta, beta_p, lam, tuple(coeffs.items())))
    return tuple(out)


def reference_polytopality_check(h, n):
    """The Fraction wall check the integer one replaced, kept verbatim."""
    violations = []
    for beta, beta_p, lam, coeffs in reference_wall_relations(n):
        lhs = h[beta] + lam * h[beta_p]
        rhs = sum((c * h[g] for g, c in coeffs), ZERO)
        if lhs <= rhs:
            violations.append((beta, beta_p, rhs - lhs))
    return (not violations), violations


def reference_build(h, n):
    """The Fraction vertex solve and dot checks the integer build replaced."""
    ok, violations = reference_polytopality_check(h, n)
    if not ok:
        raise ValueError(f"support values fail the wall check: {violations[:3]}")
    roots = all_roots(n)
    coords_of = {r: root_coordinates(r, n) for r in roots}
    pairs = []
    for t in polygon.all_triangulations(n):
        cluster_roots = _sorted_roots(cluster_of(t, n))
        rows = [root_coordinates(r, n) for r in cluster_roots]
        rows.append(tuple(Fraction(1) for _ in range(n + 1)))
        x = solve_linear(rows, [h[r] for r in cluster_roots] + [ZERO])
        if x is None or x is UNDERDETERMINED:
            raise AssertionError(f"cluster system degenerate for {t}")
        for r in roots:
            if r not in cluster_roots and dot(coords_of[r], x) >= h[r]:
                raise AssertionError(f"vertex of {t} violates inequality of root {r}")
        pairs.append((x, t))
    return make_polytope("cluster", n, n + 1, pairs, params={"h": dict(h)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fan_matches_fraction_reference(n):
    assert walls(n) == reference_walls(n)
    for (c1, c2), (beta, beta_p, a, b, cs), (ref_beta, ref_beta_p, lam, coeffs) in zip(
        walls(n), cluster._fan(n).relations, reference_wall_relations(n)
    ):
        coeffs = dict(coeffs)
        assert wall_relation(c1, c2, n) == (1, lam, coeffs)
        # the integer relation the wall check runs on is a positive multiple
        assert (beta, beta_p) == (ref_beta, ref_beta_p)
        assert a > 0 and F(b, a) == lam and {g: F(c, a) for g, c in cs} == coeffs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_build_matches_fraction_reference(n):
    rng = random.Random(100 + n)
    hs = [default_support_values(n)] + [perturbed_support_values(n, rng) for _ in range(3)]
    for h in hs:
        assert polytopality_check(h, n) == reference_polytopality_check(h, n)
        p, q = build_cluster_polytope(h, n), reference_build(h, n)
        assert p.vertices == q.vertices and p.params == q.params


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_non_polytopal_h_matches_reference_and_raises(n):
    h = {r: F(1) for r in all_roots(n)}
    ok, violations = polytopality_check(h, n)
    assert not ok and (ok, violations) == reference_polytopality_check(h, n)
    with pytest.raises(ValueError):
        build_cluster_polytope(h, n)


def test_root_coordinates_examples():
    assert root_coordinates(pos(1, 1), 2) == (1, -1, 0)
    assert root_coordinates(pos(1, 2), 2) == (1, 0, -1)
    assert root_coordinates(neg(2), 2) == (0, -1, 1)


def test_root_coordinates_sum_zero():
    for n in range(1, 6):
        for r in all_roots(n):
            assert sum(root_coordinates(r, n)) == 0


def test_root_count():
    for n in range(1, 7):
        assert len(all_roots(n)) == n * (n + 3) // 2


def test_snake_examples():
    assert snake_diagonal(1, 2) == (1, 4)
    assert snake_diagonal(2, 2) == (1, 3)
    assert [snake_diagonal(i, 3) for i in (1, 2, 3)] == [(1, 5), (1, 4), (2, 4)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_snake_is_a_triangulation(n):
    t = tuple(sorted(snake_diagonal(i, n) for i in range(1, n + 1)))
    assert t in polygon.all_triangulations(n)


def test_root_to_diagonal_pentagon():
    assert root_to_diagonal(pos(1, 1), 2) == (0, 3)
    assert root_to_diagonal(pos(2, 2), 2) == (2, 4)
    assert root_to_diagonal(pos(1, 2), 2) == (0, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_root_to_diagonal_bijection(n):
    images = [root_to_diagonal(r, n) for r in all_roots(n)]
    assert len(set(images)) == len(images) == len(polygon.all_diagonals(n))


def test_compatible_examples():
    assert compatible(neg(1), neg(2), 2)
    assert not compatible(pos(1, 1), pos(2, 2), 2)
    for r in all_roots(2):
        assert compatible(r, r, 2)


def test_clusters_pentagon():
    got = {frozenset(c) for c in all_clusters(2)}
    want = {
        frozenset({pos(1, 1), pos(1, 2)}),
        frozenset({pos(2, 2), pos(1, 2)}),
        frozenset({neg(1), pos(2, 2)}),
        frozenset({neg(1), neg(2)}),
        frozenset({neg(2), pos(1, 1)}),
    }
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clusters_are_compatibility_cliques(n):
    # independent oracle: maximal cliques by brute force
    roots = all_roots(n)
    cliques = {
        frozenset(c)
        for c in itertools.combinations(roots, n)
        if all(compatible(a, b, n) for a, b in itertools.combinations(c, 2))
    }
    assert cliques == {frozenset(c) for c in all_clusters(n)}


@pytest.mark.parametrize("n", [2, 3])
def test_clusters_biject_with_triangulations(n):
    assert len(all_clusters(n)) == len(polygon.all_triangulations(n))
    for c, t in zip(all_clusters(n), polygon.all_triangulations(n)):
        assert {root_to_diagonal(r, n) for r in c} == set(t)


def test_wall_relation_opposite_rays():
    c1 = frozenset({neg(1), neg(2)})
    c2 = frozenset({neg(1), pos(2, 2)})
    lam0, lam, coeffs = wall_relation(c1, c2, 2)
    assert (lam0, lam) == (1, 1)
    assert all(c == 0 for c in coeffs.values())


def test_wall_relation_pentagon_sum():
    c1 = frozenset({pos(1, 1), pos(1, 2)})
    c2 = frozenset({pos(2, 2), pos(1, 2)})
    _, lam, coeffs = wall_relation(c1, c2, 2)
    assert lam == 1
    assert coeffs == {pos(1, 2): 1}


def test_wall_relation_rejects_non_adjacent():
    c1 = frozenset({pos(1, 1), pos(1, 2)})
    c2 = frozenset({neg(1), neg(2)})
    with pytest.raises(ValueError):
        wall_relation(c1, c2, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wall_relation_positive_rational(n):
    for c1, c2 in walls(n):
        _, lam, coeffs = wall_relation(c1, c2, n)
        assert lam > 0
        assert all(isinstance(c, Fraction) for c in coeffs.values())


def test_polytopality_ones_pentagon():
    ok, violations = polytopality_check({r: F(1) for r in all_roots(2)}, 2)
    assert ok and not violations


def test_polytopality_violation():
    h = {r: F(1) for r in all_roots(2)}
    h[pos(1, 2)] = F(3)
    ok, violations = polytopality_check(h, 2)
    assert not ok
    assert any(set(v[:2]) == {pos(1, 1), pos(2, 2)} for v in violations)


def test_polytopality_scale_invariant():
    h = default_support_values(3)
    scaled = {r: F(7, 3) * v for r, v in h.items()}
    assert polytopality_check(scaled, 3)[0]


def test_build_pentagon_vertices():
    p = build_cluster_polytope({r: F(1) for r in all_roots(2)}, 2)
    got = {c for c, _ in p.vertices}
    want = {
        (F(2, 3), F(-1, 3), F(-1, 3)),
        (F(1, 3), F(1, 3), F(-2, 3)),
        (F(-1, 3), F(2, 3), F(-1, 3)),
        (F(-1), F(0), F(1)),
        (F(1, 3), F(-2, 3), F(1, 3)),
    }
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_vertices_sum_zero(n):
    p = build_cluster_polytope(default_support_values(n), n)
    for c, _ in p.vertices:
        assert sum(c) == 0


def test_default_support_values_contract():
    for n in range(1, 7):
        h = default_support_values(n)
        for r in all_roots(n):
            a, b = root_to_diagonal(r, n)
            assert h[r] == (b - a) * (n + 3 - (b - a))
        assert polytopality_check(h, n)[0]
    # the all-ones candidate itself only passes for small n
    assert polytopality_check({r: F(1) for r in all_roots(2)}, 2)[0]
    assert not polytopality_check({r: F(1) for r in all_roots(3)}, 3)[0]


@pytest.mark.parametrize("seed", [8, 42])
def test_perturbed_support_values_n6_build(seed):
    h = perturbed_support_values(6, random.Random(seed))
    p = build_cluster_polytope(h, 6)
    assert len(p.vertices) == len(polygon.all_triangulations(6))


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_build_rejects_h_for_other_roots(change):
    h = default_support_values(2)
    if change == "extra":
        h[pos(1, 9)] = F(1)
    else:
        del h[neg(1)]
    with pytest.raises(ValueError):
        build_cluster_polytope(h, 2)


def test_build_rejects_non_polytopal_h():
    h = {r: F(1) for r in all_roots(2)}
    h[pos(1, 2)] = F(3)
    with pytest.raises(ValueError):
        build_cluster_polytope(h, 2)


def test_verify_fan_line():
    report = verify_fan(1)
    assert report["ok"] and report["cones"] == 2 and report["walls"] == 1


def test_verify_fan_pentagon():
    report = verify_fan(2)
    assert report["ok"] and report["cones"] == 5 and report["walls"] == 5


def test_verify_fan_n3():
    report = verify_fan(3)
    assert report["ok"] and report["cones"] == 14 and report["walls"] == 21


@pytest.mark.parametrize("n", [4, 5])
def test_verify_fan_counts(n):
    catalan = len(polygon.all_triangulations(n))
    report = verify_fan(n)
    assert report["ok"], report["problems"]
    assert report["cones"] == catalan
    assert report["walls"] == catalan * n // 2


@pytest.mark.parametrize("index", [0, -1])
def test_verify_fan_rejects_missing_cluster(monkeypatch, index):
    clusters = list(all_clusters(3))
    del clusters[index]
    monkeypatch.setattr(cluster, "all_clusters", lambda n: tuple(clusters))
    assert not verify_fan(3)["ok"]


@pytest.mark.parametrize("index", [0, -1])
def test_verify_fan_rejects_duplicate_cluster(monkeypatch, index):
    clusters = list(all_clusters(3))
    clusters.append(clusters[index])
    monkeypatch.setattr(cluster, "all_clusters", lambda n: tuple(clusters))
    assert not verify_fan(3)["ok"]
