import itertools
from collections import Counter

import pytest

from associahedra import polygon
from associahedra.constructions import practical_bound
from associahedra.polygon import (
    all_diagonals,
    all_triangulations,
    crossing,
    flip,
    flip_table,
    triangles,
)

from oracles import (
    noncrossing_sets,
    reference_diagonal_indices,
    reference_flip_table,
    reference_triangles_by_triangulation,
)


def catalan(k):
    # independent oracle: the convolution recurrence
    c = [1]
    for m in range(1, k + 1):
        c.append(sum(c[i] * c[m - 1 - i] for i in range(m)))
    return c[k]


def cells(subdivision, n):
    """The reference for `triangles`: the cells of a subdivision, each as a
    sorted tuple of vertex labels, split off one diagonal at a time."""

    def rec(cycle, diags):
        if not diags:
            return [tuple(cycle)]
        (a, b), rest = diags[0], diags[1:]
        ia, ib = sorted((cycle.index(a), cycle.index(b)))
        side1 = cycle[ia : ib + 1]
        side2 = cycle[ib:] + cycle[: ia + 1]
        in1 = [d for d in rest if d[0] in side1 and d[1] in side1]
        in2 = [d for d in rest if d not in in1]
        return rec(side1, in1) + rec(side2, in2)

    result = rec(list(range(n + 3)), sorted(subdivision))
    return sorted(tuple(sorted(c)) for c in result)


def brute_force_triangulations(n):
    # independent oracle: filter all diagonal subsets of size n by crossing
    diags = all_diagonals(n)
    out = []
    for subset in itertools.combinations(diags, n):
        if all(not crossing(d, e) for d, e in itertools.combinations(subset, 2)):
            out.append(tuple(sorted(subset)))
    return out


def test_crossing_examples():
    assert crossing((0, 2), (1, 3))
    assert not crossing((0, 2), (2, 4))
    assert crossing((0, 3), (1, 5))  # hexagon: endpoints interleave 0<1<3<5
    assert not crossing((1, 3), (3, 5))
    assert not crossing((0, 2), (3, 5))


def test_crossing_symmetric_and_irreflexive():
    for d1, d2 in itertools.combinations(all_diagonals(3), 2):
        assert crossing(d1, d2) == crossing(d2, d1)
    for d in all_diagonals(3):
        assert not crossing(d, d)


def test_all_diagonals_counts():
    assert all_diagonals(1) == ((0, 2), (1, 3))
    assert len(all_diagonals(2)) == 5
    assert len(all_diagonals(4)) == 14
    for n in range(1, 8):
        assert len(all_diagonals(n)) == n * (n + 3) // 2


@pytest.mark.parametrize("n", range(8))
def test_all_triangulations_are_the_faces_with_n_diagonals(n):
    # the recursion gives the search's triangulations in the search's order
    assert all_triangulations(n) == tuple(s for s in noncrossing_sets(n) if len(s) == n)


def test_no_triangulations_below_n_zero():
    assert all_triangulations(-1) == tuple(s for s in noncrossing_sets(-1) if len(s) == -1) == ()


@pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 5), (3, 14), (4, 42), (5, 132)])
def test_triangulation_counts(n, count):
    ts = all_triangulations(n)
    assert len(ts) == count == catalan(n + 1)
    assert len(set(ts)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_triangulations_match_brute_force(n):
    assert sorted(all_triangulations(n)) == sorted(brute_force_triangulations(n))


def test_flip_square():
    assert flip(((0, 2),), (0, 2), 1) == ((1, 3),)


def test_flip_pentagon():
    assert flip(((0, 2), (0, 3)), (0, 3), 2) == ((0, 2), (2, 4))


def test_flip_missing_diagonal():
    with pytest.raises(ValueError):
        flip(((0, 2),), (1, 3), 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flip_is_involution_and_changes_one_diagonal(n):
    for t in all_triangulations(n):
        for d in t:
            t2 = flip(t, d, n)
            assert len(set(t) & set(t2)) == n - 1
            d2 = next(iter(set(t2) - set(t)))
            assert flip(t2, d2, n) == t


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_flip_graph_connected_and_n_regular(n):
    ts = all_triangulations(n)
    index = {t: i for i, t in enumerate(ts)}
    adj = {i: set() for i in range(len(ts))}
    for t in ts:
        for d in t:
            adj[index[t]].add(index[flip(t, d, n)])
    assert all(len(neigh) == n for neigh in adj.values())
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == len(ts)


def test_subdivision_counts_pentagon():
    assert Counter(map(len, noncrossing_sets(2))) == {0: 1, 1: 5, 2: 5}
    assert len(noncrossing_sets(2)) == 11


def test_subdivision_counts_hexagon():
    assert Counter(map(len, noncrossing_sets(3))) == {0: 1, 1: 9, 2: 21, 3: 14}
    assert len(noncrossing_sets(3)) == 45


def test_subdivision_count_square():
    assert len(noncrossing_sets(1)) == 3


def test_pentagon_crossing_pair_count():
    pairs = [
        (d, e)
        for d, e in itertools.combinations(all_diagonals(2), 2)
        if crossing(d, e)
    ]
    assert len(pairs) == 5


def test_refines():
    # a triangulation refines exactly the subdivisions made of its diagonals
    subs = noncrossing_sets(2)
    for t in all_triangulations(2):
        coarser = [s for s in subs if set(s) <= set(t)]
        assert sorted(coarser) == sorted(
            c for k in range(3) for c in itertools.combinations(t, k)
        )
    assert ((0, 2), (1, 3)) not in subs


def test_refines_maximal_elements_are_triangulations(n=3):
    subs = noncrossing_sets(n)
    maximal = [
        s
        for s in subs
        if not any(set(s) < set(s2) for s2 in subs)
    ]
    assert sorted(maximal) == sorted(all_triangulations(n))


def test_cells_partition_triangles():
    for t in all_triangulations(3):
        tri = cells(t, 3)
        assert len(tri) == 4
        assert all(len(c) == 3 for c in tri)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_triangles_match_the_cells_reference(n):
    # the triangles the enumeration records are the cells of each triangulation
    for t in all_triangulations(n):
        assert triangles(t, n) == tuple(cells(t, n))
        assert triangles(tuple(reversed(t)), n) == triangles(t, n)


@pytest.mark.parametrize(
    "t, n",
    [
        (((0, 2),), 2),  # a subdivision, not a triangulation
        (((0, 2), (1, 3)), 2),  # crossing diagonals
        (((0, 2), (0, 2)), 2),  # a repeated diagonal
        (((0, 2), (0, 3)), 3),  # a triangulation of the pentagon, not the hexagon
        ((), -1),
    ],
)
def test_triangles_rejects_a_non_triangulation(t, n):
    with pytest.raises(ValueError, match="not a triangulation"):
        triangles(t, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_catalan_matches_the_recurrence_and_the_triangulations(n):
    assert polygon.catalan(n + 1) == catalan(n + 1) == len(all_triangulations(n))


def test_verification_catalan_covers_every_buildable_n():
    from associahedra.verification import CATALAN

    assert CATALAN == [catalan(m) for m in range(practical_bound() + 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("index", [0, -1])
def test_flip_table_refuses_a_ridge_in_one_triangulation(monkeypatch, n, index):
    # with one triangulation dropped, each of its n ridges lies in one
    # other triangulation only, and the flip pair across it is gone
    ts = list(all_triangulations(n))
    del ts[index]
    monkeypatch.setattr(polygon, "all_triangulations", lambda m: tuple(ts))
    with pytest.raises(AssertionError, match="triangulations, not 2"):
        flip_table.__wrapped__(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_flip_table_matches_flip(n):
    ts = all_triangulations(n)
    table = flip_table(n)
    assert len(table) == len(ts)
    for t, flips in zip(ts, table):
        assert [ts[j] for j in flips] == [flip(t, d, n) for d in t]


@pytest.mark.parametrize("n", range(9))
def test_tables_match_the_tuple_recursion_and_ridge_pass(n):
    # labels in order, their triangles and diagonal positions, and the
    # flips, against the tuple recursion and ridge pass the masks replaced
    reference = reference_triangles_by_triangulation(n)
    assert all_triangulations(n) == tuple(reference)
    assert polygon.label_triangles(n) == tuple(reference.values())
    assert [triangles(t, n) for t in reference] == list(reference.values())
    assert polygon.diagonal_indices(n) == reference_diagonal_indices(n)
    assert flip_table(n) == reference_flip_table(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_reverse_flips_lead_back(n):
    table, backs = flip_table(n), polygon.reverse_flips(n)
    assert [[table[j][back] for j, back in zip(row, rows)] for row, rows in zip(table, backs)] == [
        [i] * n for i in range(len(table))
    ]
