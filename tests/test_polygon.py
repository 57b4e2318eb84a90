import itertools
from collections import Counter

import pytest

from associahedra.polygon import (
    all_diagonals,
    all_triangulations,
    cells,
    crossing,
    flip,
    flip_table,
    noncrossing_sets,
)


def catalan(k):
    # independent oracle: the convolution recurrence
    c = [1]
    for m in range(1, k + 1):
        c.append(sum(c[i] * c[m - 1 - i] for i in range(m)))
    return c[k]


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_flip_table_matches_flip(n):
    ts = all_triangulations(n)
    table = flip_table(n)
    assert len(table) == len(ts)
    for t, flips in zip(ts, table):
        assert [ts[j] for j in flips] == [flip(t, d, n) for d in t]
