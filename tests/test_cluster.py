import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from associahedra import cluster, polygon
from associahedra.analysis import make_polytope
from associahedra.cluster import (
    all_roots,
    build_cluster_polytope,
    default_support_values,
    diagonal_to_root,
    neg,
    polytopality_check,
    pos,
    root_coordinates,
    root_to_diagonal,
    snake_diagonal,
    verify_fan,
)
from associahedra.exactlin import UNDERDETERMINED, ZERO, dot, solve_linear
from associahedra.fan import make_fan, tight_vertices, wall_slacks
from associahedra.sampling import perturbed_support_values

F = Fraction


def _sorted_roots(roots):
    return sorted(roots, key=lambda r: (r[0] == "+",) + r[1:])


def cluster_of(t, n):
    return frozenset(diagonal_to_root(d, n) for d in t)


def all_clusters(n):
    """Clusters in the order of the triangulation enumeration."""
    return tuple(cluster_of(t, n) for t in polygon.all_triangulations(n))


def compatible(r1, r2, n):
    return not polygon.crossing(root_to_diagonal(r1, n), root_to_diagonal(r2, n))


@lru_cache(maxsize=None)
def fan_walls(n):
    """The fan's walls as pairs of clusters, in wall order, to their index."""
    clusters = all_clusters(n)
    return {(clusters[i], clusters[j]): k for k, (i, j) in enumerate(cluster._fan(n).walls)}


def wall_relation(c1, c2, n):
    """The fan's relation across the wall from c1 to c2, as roots and
    Fractions: beta + lam*beta' = sum coeffs[g]*g over the shared roots."""
    if (c1, c2) not in fan_walls(n):
        raise ValueError("clusters do not meet in a wall of the fan")
    _, _, a, b, cs = cluster._fan(n).relations[fan_walls(n)[c1, c2]]
    return F(1), F(b, a), {diagonal_to_root(g, n): F(c, a) for g, c in cs}


@lru_cache(maxsize=None)
def reference_walls(n):
    """The flip loop that the walls by ridge incidence replaced, kept verbatim."""
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
    assert tuple(fan_walls(n)) == reference_walls(n)
    for (c1, c2), (beta, beta_p, a, b, cs), (ref_beta, ref_beta_p, lam, coeffs) in zip(
        fan_walls(n), cluster._fan(n).relations, reference_wall_relations(n)
    ):
        coeffs = dict(coeffs)
        assert wall_relation(c1, c2, n) == (1, lam, coeffs)
        # the integer relation the wall check runs on is a positive multiple
        assert (diagonal_to_root(beta, n), diagonal_to_root(beta_p, n)) == (ref_beta, ref_beta_p)
        assert a > 0 and F(b, a) == lam
        assert {diagonal_to_root(g, n): F(c, a) for g, c in cs} == coeffs


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wall_check_signs_are_the_wall_slacks(n):
    # the violations read off the int numerators are the non-positive
    # `wall_slacks`, negated: on jitters in sevenths and on a tie
    rng = random.Random(40 + n)
    fan, h = cluster._fan(n), default_support_values(n)
    cases = [{r: v + F(rng.randint(-7 * size, 7 * size), 7) for r, v in h.items()} for size in (2, 4, 8)]
    beta = diagonal_to_root(fan.relations[0][0], n)
    cases.append({**h, beta: h[beta] - wall_slacks(fan, cluster._by_diagonal(h, n))[0]})
    deficits = []
    for g in cases:
        ok, violations = polytopality_check(g, n)
        slacks = wall_slacks(fan, cluster._by_diagonal(g, n))
        want = [
            (diagonal_to_root(b, n), diagonal_to_root(b_p, n), -slack)
            for (b, b_p, *_), slack in zip(fan.relations, slacks)
            if slack <= 0
        ]
        assert (ok, violations) == (not want, want) == reference_polytopality_check(g, n)
        deficits += [deficit for *_, deficit in violations]
    assert 0 in deficits and max(deficits) > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_snake_fan_bounds_the_jitter(n):
    """What `sampling.perturbed_support_values` relies on: every wall
    relation has lam = 1 and at most two shared coefficients that are not
    0, each 1, and the default h has wall slack at least 2 (6 at n = 2,
    8 at n = 1)."""
    fan = cluster._fan(n)
    for _, _, a, b, cs in fan.relations:
        assert a == b
        shared = [F(c, a) for _, c in cs if c]
        assert len(shared) <= 2 and all(c == 1 for c in shared)
    h = {root_to_diagonal(r, n): v for r, v in default_support_values(n).items()}
    assert min(wall_slacks(fan, h)) == {1: 8, 2: 6}.get(n, 2)


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
    # every wall joins two cones that share all but one diagonal
    ts = polygon.all_triangulations(4)
    assert all(len(set(ts[i]) & set(ts[j])) == 3 for i, j in cluster._fan(4).walls)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wall_relation_positive_rational(n):
    for c1, c2 in fan_walls(n):
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
@pytest.mark.parametrize("case", ["missing", "duplicate"])
def test_make_fan_refuses_broken_ridge_incidence(monkeypatch, case, index):
    # with a triangulation dropped, each of its ridges lies in one other
    # triangulation only; with one repeated, in three: `flip_table` refuses
    # either before the walk
    ts = list(polygon.all_triangulations(3))
    if case == "missing":
        del ts[index]
    else:
        ts.append(ts[index])
    rays = cluster._fan(3).rays
    monkeypatch.setattr(polygon, "all_triangulations", lambda m: tuple(ts))
    monkeypatch.setattr(polygon, "flip_table", polygon.flip_table.__wrapped__)
    count = 1 if case == "missing" else 3
    with pytest.raises(AssertionError, match=f"lies in {count} triangulations, not 2"):
        make_fan(rays, 3)


def test_verify_fan_rejects_dependent_cluster():
    rays = dict(cluster._fan(2).rays)
    rays[(0, 3)] = tuple(2 * x for x in rays[(0, 2)])
    fan = make_fan(rays, 2)
    assert ("dependent_cone", ((0, 2), (0, 3))) in fan.problems
    with pytest.raises(ValueError):
        tight_vertices(fan, {d: F(1) for d in rays})
