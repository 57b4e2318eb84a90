import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from associahedra import analysis, cluster, cli, exactlin, polygon, serialize, verification
from associahedra.analysis import extract_facets, make_polytope
from associahedra.cluster import (
    all_roots,
    build_cluster_polytope,
    default_support_values,
    neg,
    polytopality_check,
    pos,
    root_coordinates,
    root_key,
    root_to_diagonal,
    snake_diagonal,
    verify_fan,
)
from associahedra.constructions import practical_bound
from associahedra.exactlin import UNDERDETERMINED, ZERO, dot, rat_str, solve_linear
from associahedra.sampling import perturbed_support_values

from oracles import (
    by_diagonal,
    cluster_fan,
    cluster_of,
    cone_vertices,
    lane_pass_vertices,
    make_fan,
    projected_normals,
    reference_polytopality_check,
    reference_wall_relation,
    reference_wall_relations,
    reference_wall_slacks,
    reference_walls,
    report,
    sorted_roots,
)

F = Fraction


def all_clusters(n):
    """Clusters in the order of the triangulation enumeration."""
    return tuple(cluster_of(t, n) for t in polygon.all_triangulations(n))


def compatible(r1, r2, n):
    return not polygon.crossing(root_to_diagonal(r1, n), root_to_diagonal(r2, n))


def reference_build(h, n):
    """The Fraction vertex solve and dot checks the integer build replaced."""
    ok, violations = reference_polytopality_check(h, n)
    if not ok:
        raise ValueError(f"support values fail the wall check: {violations[:3]}")
    roots = all_roots(n)
    coords_of = {r: root_coordinates(r, n) for r in roots}
    pairs = []
    for t in polygon.all_triangulations(n):
        cluster_roots = sorted_roots(cluster_of(t, n))
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
    # the walls as the certificate and `polytopality_check` read them, in
    # flip order (`cluster._exchanges`), are the flip loop's, as many as
    # `verify_fan` counts, with the same exchanged roots, and every
    # relation has lam = 1, the form `polytopality_check` reads its slacks in
    clusters, trees, flips = all_clusters(n), cluster._spanning_trees(n), polygon.flip_table(n)
    roots, tight = trees.roots, trees.tight
    walls = [
        (i, f, g) for i in range(len(clusters)) for _, f, g in cluster._exchanges(flips, tight, i)
    ]
    assert len(walls) == verify_fan(n)["walls"]
    assert [
        (clusters[i], clusters[i] - {roots[f]} | {roots[g]}) for i, f, g in walls
    ] == list(reference_walls(n))
    relations = reference_wall_relations(n)
    assert [(roots[f], roots[g]) for _, f, g in walls] == [r[:2] for r in relations]
    assert all(lam == 1 for _, _, lam, _ in relations)


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


@pytest.mark.parametrize("n", range(1, practical_bound() + 1))
def test_wall_check_signs_are_the_wall_slacks(n):
    # the violations read off the tree potentials are the Fraction
    # reference's non-positive wall slacks, negated: on the default, a
    # draw, jitters in sevenths and a tie at wall 0
    rng = random.Random(40 + n)
    h = default_support_values(n)
    cases = [h, perturbed_support_values(n, rng)]
    cases += [{r: v + F(rng.randint(-7 * size, 7 * size), 7) for r, v in h.items()}
              for size in (2, 4, 8, 30)]
    cases.append(_tie_at_wall_0(h, n))
    deficits = []
    for g in cases:
        ok, violations = polytopality_check(g, n)
        assert (ok, violations) == reference_polytopality_check(g, n)
        deficits += [deficit for *_, deficit in violations]
    assert 0 in deficits and max(deficits) > 0


def reference_slacks_at_vertices(h, n):
    """lam (h(beta') - beta' . x) per wall from cluster c1 to c2 with
    relation (beta, beta', lam, ...), for x cluster c1's vertex by the
    Fraction solve `reference_build` runs."""
    vertices = {}
    ones = tuple(F(1) for _ in range(n + 1))
    slacks = []
    for (c1, _), (_, beta_p, lam, _) in zip(reference_walls(n), reference_wall_relations(n)):
        if c1 not in vertices:
            roots = sorted_roots(c1)
            rows = [root_coordinates(r, n) for r in roots] + [ones]
            vertices[c1] = solve_linear(rows, [h[r] for r in roots] + [ZERO])
        slacks.append(lam * (h[beta_p] - dot(root_coordinates(beta_p, n), vertices[c1])))
    return slacks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_wall_slack_is_a_slack_of_the_lane_pass(n):
    # the identity in `polytopality_check`'s docstring that lets it read a
    # wall's slack at one vertex and lets a build skip the wall check,
    # wall by wall, against vertices solved apart from the trees: on the
    # default h, jitters in sevenths and a tie at wall 0
    rng = random.Random(60 + n)
    h = default_support_values(n)
    cases = [h] + [{r: v + F(rng.randint(-7 * size, 7 * size), 7) for r, v in h.items()}
                   for size in (1, 3, 10)]
    beta = reference_wall_relations(n)[0][0]
    cases.append({**h, beta: h[beta] - reference_slacks_at_vertices(h, n)[0]})
    for g in cases:
        want = reference_slacks_at_vertices(g, n)
        assert reference_wall_slacks(g, n) == want
    assert want[0] == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_snake_fan_bounds_the_jitter(n):
    """What `sampling.perturbed_support_values` relies on: every wall
    relation has lam = 1 and at most two shared coefficients that are not
    0, each 1, and the default h has wall slack at least 2 (6 at n = 2,
    8 at n = 1)."""
    for _, _, lam, coeffs in reference_wall_relations(n):
        assert lam == 1
        shared = [c for _, c in coeffs if c]
        assert len(shared) <= 2 and all(c == 1 for c in shared)
    assert min(reference_wall_slacks(default_support_values(n), n)) == {1: 8, 2: 6}.get(n, 2)


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
    lam0, lam, coeffs = reference_wall_relation(c1, c2, 2)
    assert (lam0, lam) == (1, 1)
    assert all(c == 0 for c in coeffs.values())


def test_wall_relation_pentagon_sum():
    c1 = frozenset({pos(1, 1), pos(1, 2)})
    c2 = frozenset({pos(2, 2), pos(1, 2)})
    _, lam, coeffs = reference_wall_relation(c1, c2, 2)
    assert lam == 1
    assert coeffs == {pos(1, 2): 1}


def test_wall_relation_rejects_non_adjacent():
    c1 = frozenset({pos(1, 1), pos(1, 2)})
    c2 = frozenset({neg(1), neg(2)})
    with pytest.raises(ValueError):
        reference_wall_relation(c1, c2, 2)
    # every wall joins two clusters that share all but one root
    assert all(len(c1 & c2) == 3 for c1, c2 in reference_walls(4))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wall_relation_positive_rational(n):
    for c1, c2 in reference_walls(n):
        _, lam, coeffs = reference_wall_relation(c1, c2, n)
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


@pytest.fixture
def fresh_trees():
    """`cluster._spanning_trees` with an empty cache, emptied again
    afterwards, so that trees and fan certificates made under a patch are
    not kept."""
    cluster._spanning_trees.cache_clear()
    yield
    cluster._spanning_trees.cache_clear()


def cluster_rays(n):
    """{diagonal: ray}: each diagonal's root coordinates."""
    return dict(zip(polygon.all_diagonals(n), cluster.ray_normals(n)))


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("case", ["missing", "duplicate"])
def test_make_fan_refuses_broken_ridge_incidence(monkeypatch, fresh_trees, case, index):
    # with a triangulation dropped, each of its ridges lies in one other
    # triangulation only; with one repeated, in three: `flip_table` refuses
    # either before the reference fan's walk or the tree certificate's
    ts = list(polygon.all_triangulations(3))
    if case == "missing":
        del ts[index]
    else:
        ts.append(ts[index])
    rays = cluster_rays(3)
    monkeypatch.setattr(polygon, "all_triangulations", lambda m: tuple(ts))
    monkeypatch.setattr(polygon, "flip_table", polygon.flip_table.__wrapped__)
    count = 1 if case == "missing" else 3
    for certify in (lambda: make_fan(rays, 3), lambda: verify_fan(3)):
        with pytest.raises(AssertionError, match=f"lies in {count} triangulations, not 2"):
            certify()


@pytest.mark.parametrize("n", range(1, practical_bound() + 1))
def test_verify_fan_matches_the_reference_fan(n):
    # counts, problems and their order against the per-cone inverses
    assert verify_fan(n) == report(cluster_fan(n))


def broken_tables(n, rng):
    """Ten seeded ray tables with one ray repeated, ten with two swapped."""
    rays = cluster_rays(n)
    tables = []
    for repeat in (True, False) * 10:
        d, e = rng.sample(sorted(rays), 2)
        table = dict(rays)
        table[d], table[e] = (rays[e], rays[e]) if repeat else (rays[e], rays[d])
        tables.append(table)
    return tables


def test_verify_fan_matches_the_reference_fan_off_a_fan(monkeypatch, fresh_trees):
    # every problem kind, in the reference's order, on repeated and swapped
    # rays at n = 2..5
    cases = [(n, table) for n in (2, 3, 4, 5) for table in broken_tables(n, random.Random(70 + n))]
    kinds = []
    for n, table in cases:
        cluster._spanning_trees.cache_clear()
        monkeypatch.setattr(cluster, "ray_normals", lambda m: list(table.values()))
        got = verify_fan(n)
        assert got == report(make_fan(table, n))
        kinds += [problem[0] for problem in got["problems"]]
    assert set(kinds) == {"dependent_cone", "wall_not_separating", "point_covered_by"}


def test_verify_fan_inverts_no_matrix(monkeypatch, fresh_trees):
    calls = []
    eliminate = exactlin._eliminate
    monkeypatch.setattr(exactlin, "_eliminate", lambda m: calls.append(1) or eliminate(m))
    assert verify_fan(6)["ok"] and calls == []


def test_verify_fan_rejects_dependent_cluster(monkeypatch, fresh_trees):
    rays = cluster_rays(2)
    rays[(0, 3)] = tuple(2 * x for x in rays[(0, 2)])
    fan = make_fan(rays, 2)
    assert ("dependent_cone", ((0, 2), (0, 3))) in fan.problems
    with pytest.raises(ValueError):
        cone_vertices(fan, {d: F(1) for d in rays})
    # the trees, with the ray repeated: the certificate reports the
    # cluster as the reference does, and a build raises naming it, with
    # nothing built
    normals = cluster.ray_normals(2)
    normals[polygon.all_diagonals(2).index((0, 3))] = rays[(0, 2)]
    monkeypatch.setattr(cluster, "ray_normals", lambda n: normals)
    want = report(make_fan(dict(zip(polygon.all_diagonals(2), normals)), 2))
    assert verify_fan(2) == want and ("dependent_cone", ((0, 2), (0, 3))) in want["problems"]
    made = []
    monkeypatch.setattr(cluster, "make_polytope", _counting(make_polytope, made))
    with pytest.raises(AssertionError, match=r"rays of \(\(0, 2\), \(0, 3\)\) are not a spanning tree"):
        build_cluster_polytope(default_support_values(2), 2)
    assert made == []


def test_a_dependent_cluster_is_a_fail_row(monkeypatch, fresh_trees, capsys):
    # the manifest's fan row at n_max = 2 with a ray repeated at n = 2:
    # FAIL with the dependent cluster first, and `assoc verify` exits 1
    normals = cluster.ray_normals(2)
    normals[polygon.all_diagonals(2).index((0, 3))] = normals[polygon.all_diagonals(2).index((0, 2))]
    ray_normals = cluster.ray_normals
    monkeypatch.setattr(cluster, "ray_normals", lambda n: normals if n == 2 else ray_normals(n))
    ok, detail = verification.check_cluster_fan(2, 0)
    assert not ok and [n for n, _ in detail["bad"]] == [2]
    assert detail["bad"][0][1][0] == ("dependent_cone", ((0, 2), (0, 3)))
    row = [("cluster_fan_certificate", verification.check_cluster_fan)]
    monkeypatch.setattr(verification, "MANIFEST", row)
    assert cli.main(["verify", "--n-max", "2"]) == 1
    assert capsys.readouterr().out.startswith("cluster_fan_certificate  FAIL\n")



def test_a_row_that_raises_is_a_fail_row(monkeypatch, fresh_trees, capsys):
    # the whole manifest at n_max = 2 with a ray repeated at n = 2: each
    # row that builds the n = 2 cluster polytope raises, and reads FAIL
    # with the exception as its counterexample; `assoc verify` exits 1
    # with no traceback and no error line
    normals = cluster.ray_normals(2)
    normals[polygon.all_diagonals(2).index((0, 3))] = normals[polygon.all_diagonals(2).index((0, 2))]
    ray_normals = cluster.ray_normals
    monkeypatch.setattr(cluster, "ray_normals", lambda n: normals if n == 2 else ray_normals(n))
    fresh = functools.lru_cache(maxsize=None)(verification.build_all_defaults.__wrapped__)
    monkeypatch.setattr(verification, "build_all_defaults", fresh)
    raised = "raised AssertionError: rays of ((0, 2), (0, 3)) are not a spanning tree"
    rows = verification.run_manifest(2, 0)
    assert [name for name, _, _ in rows] == [name for name, _ in verification.MANIFEST]
    failed = {name: detail["bad"] for name, ok, detail in rows if not ok}
    assert failed["vertex_counts_catalan"] == [raised]
    assert failed["cluster_fan_certificate"][0][0] == 2
    assert all(bad == [raised] for name, bad in failed.items() if name != "cluster_fan_certificate")
    assert cli.main(["verify", "--n-max", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    width = max(len(name) for name, _ in verification.MANIFEST)
    lines = out.splitlines()
    row = lines.index(f"{'vertex_counts_catalan'.ljust(width)}  FAIL")
    assert lines[row + 1] == f"  first counterexample: {json.dumps(repr([raised]))}"
    assert sum(line.endswith("FAIL") for line in lines) == len(failed)

# sha256 of repr([ray_normals(n) for n in 1..7]) as the snake check made
# them when it looked the snake up among all triangulations
RAY_NORMALS_DIGEST = "e5cdc657d68c7573dfb343949a7191403ca5420369cbc7ad9dd5187204f2f3bd"


@pytest.fixture
def fresh_root_maps():
    """`cluster._root_diagonal_maps` with an empty cache, emptied again
    afterwards, so that maps made under a patch are not kept."""
    cluster._root_diagonal_maps.cache_clear()
    yield
    cluster._root_diagonal_maps.cache_clear()


def test_ray_normals_are_unchanged(fresh_root_maps):
    normals = [cluster.ray_normals(n) for n in range(1, 8)]
    assert hashlib.sha256(repr(normals).encode()).hexdigest() == RAY_NORMALS_DIGEST


def test_snake_check_enumerates_no_triangulation(monkeypatch, fresh_root_maps):
    # the snake is checked pairwise: n = 12, with its 742900 triangulations,
    # needs none of them
    def refuse(n):
        raise AssertionError("all_triangulations called")

    monkeypatch.setattr(polygon, "all_triangulations", refuse)
    normals = cluster.ray_normals(12)
    assert len(normals) == 12 * 15 // 2 and len(set(normals)) == len(normals)


@pytest.mark.parametrize(
    "snakes", [[(0, 2), (1, 3)], [(1, 4), (1, 4)]], ids=["crossing", "repeated"]
)
def test_a_snake_that_is_no_triangulation_raises(monkeypatch, fresh_root_maps, snakes):
    monkeypatch.setattr(cluster, "snake_diagonal", lambda i, n: snakes[i - 1])
    with pytest.raises(AssertionError, match="snake diagonals are not a triangulation"):
        cluster.ray_normals(2)


def reference_wall_error(h, n):
    """The ValueError text of a build that fails a wall, from the Fraction
    wall check."""
    _, violations = reference_polytopality_check(h, n)
    walls = "; ".join(
        f"wall exchanging {root_key(beta)} and {root_key(beta_p)}: deficit {rat_str(deficit)}"
        for beta, beta_p, deficit in violations[:3]
    )
    return f"support values fail the wall check: {walls}"


def _lane_pass_fails(h, n):
    """Whether the lane pass the walls replaced fails on h
    (`oracles.lane_pass_vertices`)."""
    try:
        lane_pass_vertices(h, n)
    except AssertionError:
        return True
    return False


def _counting(f, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    return counted


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_lane_pass_fails_iff_a_wall_fails(monkeypatch, n):
    # the default h, jitters in sevenths that break convexity at some
    # walls, often several, and leave it at others, and a tie at wall 0:
    # the lane pass fails iff a wall does, iff the build raises the
    # Fraction wall check's error; every build reads the walls once
    rng = random.Random(90 + n)
    h = default_support_values(n)
    cases = [{r: v + F(rng.randint(-7 * size, 7 * size), 7) for r, v in h.items()}
             for size in (0, 1, 1, 3, 3, 10, 10, 30, 30)]
    cases.append(_tie_at_wall_0(h, n))
    walls = []
    monkeypatch.setattr(cluster, "polytopality_check", _counting(polytopality_check, walls))
    outcomes = []
    for g in cases:
        failed = _lane_pass_fails(g, n)
        assert failed == (not polytopality_check(g, n)[0])
        walls.clear()
        if failed:
            with pytest.raises(ValueError) as err:
                build_cluster_polytope(g, n)
            assert str(err.value) == reference_wall_error(g, n)
        else:
            build_cluster_polytope(g, n)
        assert len(walls) == 1
        outcomes.append(failed)
    assert any(outcomes) and not all(outcomes)


def test_a_build_refuses_a_fan_that_fails_its_certificate(monkeypatch, fresh_trees):
    # on repeated and swapped rays at n = 2..4, a build of a fan that
    # fails its certificate raises AssertionError before any wall or
    # vertex is read, and makes no polytope: naming the first dependent
    # cluster if there is one, else the certificate's first problems
    made, walls = [], []
    monkeypatch.setattr(cluster, "make_polytope", _counting(make_polytope, made))
    monkeypatch.setattr(cluster, "polytopality_check", _counting(polytopality_check, walls))
    cases = [(n, table) for n in (2, 3, 4) for table in broken_tables(n, random.Random(80 + n))]
    kinds = set()
    for n, table in cases:
        cluster._spanning_trees.cache_clear()
        monkeypatch.setattr(cluster, "ray_normals", lambda m: list(table.values()))
        problems = verify_fan(n)["problems"]
        if not problems:
            continue
        kind, t, *_ = problems[0]
        if kind == "dependent_cone":
            want = f"rays of {t} are not a spanning tree"
        else:
            want = f"the clusters are not a complete simplicial fan: {tuple(problems[:3])}"
        with pytest.raises(AssertionError) as err:
            build_cluster_polytope(default_support_values(n), n)
        assert str(err.value) == want
        kinds.add(kind)
    assert made == [] and walls == []
    assert kinds == {"dependent_cone", "wall_not_separating"}


@pytest.mark.parametrize("n", range(1, practical_bound() + 1))
def test_a_build_carries_the_certified_facets(monkeypatch, tmp_path, n):
    rng = random.Random(110 + n)
    lanes = []
    monkeypatch.setattr(analysis, "lane_failures", _counting(analysis.lane_failures, lanes))
    for h in [default_support_values(n)] + [perturbed_support_values(n, rng) for _ in range(2)]:
        p = build_cluster_polytope(h, n)
        want = tuple(analysis._certify_facets(p))
        assert p.carried_normals is not None
        lanes.clear()
        # extract_facets certifies nothing again
        assert extract_facets(p) == list(want) and lanes == []
        # equality, hash, repr and files do not see them: a loaded copy
        # certifies from scratch, to the same facets
        serialize.save_polytope(p, tmp_path / "p.json")
        q = serialize.load_polytope(tmp_path / "p.json")
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert q.carried_normals is None
        assert extract_facets(q) == list(want) and len(lanes) == 1


def _tie_at_wall_0(h, n):
    """h lowered on wall 0's exchanged root until that wall is flat."""
    beta = reference_wall_relations(n)[0][0]
    return {**h, beta: h[beta] - reference_wall_slacks(h, n)[0]}


@pytest.mark.parametrize("n", range(1, practical_bound() + 1))
def test_closed_form_matches_the_per_cone_solve(n):
    # each cluster's vertex as its spanning tree's potential against the
    # reference fan's per-cone inverse product (`oracles.cone_vertices`),
    # and the walls' certificate against the lane pass's
    # (`oracles.lane_pass_vertices`): the hull after `make_polytope` and the
    # carried normals on the default h and two draws; on a tie, the lane
    # pass names the per-cone solve's first failing cluster and ray, and
    # the build fails the Fraction wall check's walls
    rng = random.Random(120 + n)
    fan, ts = cluster_fan(n), polygon.all_triangulations(n)
    h = default_support_values(n)
    for g in [h] + [perturbed_support_values(n, rng) for _ in range(2)]:
        p = build_cluster_polytope(g, n)
        for rows, scale in (cone_vertices(fan, by_diagonal(g, n)), lane_pass_vertices(g, n)):
            q = make_polytope("cluster", n, n + 1, zip(rows, ts), scale=scale)
            assert (p.hull.rows, p.hull.scale) == (q.hull.rows, q.hull.scale)
        assert p.carried_normals == projected_normals(fan)
    tie = _tie_at_wall_0(h, n)
    with pytest.raises(AssertionError) as want:
        cone_vertices(fan, by_diagonal(tie, n))
    with pytest.raises(AssertionError) as got:
        lane_pass_vertices(tie, n)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as err:
        build_cluster_polytope(tie, n)
    assert str(err.value) == reference_wall_error(tie, n)


@pytest.mark.parametrize("n", range(1, practical_bound() + 1))
def test_a_build_walks_no_fan(n):
    # the fan's certificate is made with the trees, once per n: once they
    # are made, the default and two draws build with no tree walked and no
    # fan certified again
    cluster._spanning_trees(n)
    made = cluster._spanning_trees.cache_info().misses
    rng = random.Random(130 + n)
    for h in [default_support_values(n)] + [perturbed_support_values(n, rng) for _ in range(2)]:
        assert len(build_cluster_polytope(h, n).labels) == len(polygon.all_triangulations(n))
    assert cluster._spanning_trees.cache_info().misses == made


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_fan_is_built_by_verify_fan_and_a_failed_build(fresh_trees, n):
    # with the trees uncached, whichever of `verify_fan` and a failed build
    # comes first makes the fan's certificate, once, and the other reads it;
    # the build names the failing walls of the Fraction wall check
    tie = _tie_at_wall_0(default_support_values(n), n)
    for first in ("verify_fan", "build"):
        cluster._spanning_trees.cache_clear()
        for step in (first, {"verify_fan": "build", "build": "verify_fan"}[first]):
            if step == "verify_fan":
                assert verify_fan(n) == report(cluster_fan(n))
            else:
                with pytest.raises(ValueError) as err:
                    build_cluster_polytope(tie, n)
                assert str(err.value) == reference_wall_error(tie, n)
            assert cluster._spanning_trees.cache_info().misses == 1
