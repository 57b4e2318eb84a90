"""The packed-lane certificate `exactlin.lane_failures` against the scalar
loop it replaced: one dot product per functional and row."""

from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from associahedra.exactlin import lane_failures


def reference_lane_failures(functionals, rows, tight):
    """For each row in order, the functionals that fail there: a tight one
    that does not vanish, or another one that is not positive."""
    failures = []
    for i, (x, t) in enumerate(zip(rows, tight)):
        values = [sum(map(mul, a, x)) - b for a, b in functionals]
        failed = [f for f, v in enumerate(values) if (v != 0 if f in t else v <= 0)]
        if failed:
            failures.append((i, failed))
    return failures


def lane_width(functionals, rows):
    """The lane width W of `lane_failures`: one bit over the slot bound."""
    top = max((abs(v) for x in rows for v in x), default=0)
    return max(sum(map(abs, a)) * top + abs(b) + 1 for a, b in functionals).bit_length() + 1


def extreme(dim, top, bits):
    """Two functionals (a, b) and (a, -b) and a row x, with max |x| = top,
    whose slot bound m = |a|_1 top + |b| + 1 is 2^bits - 1, so that
    m = 2^(W-1) - 1 exactly.  At x, (a, b) is -m + 1: its slot is -m off
    the tight set.  At -x, (a, -b) is m - 1, the largest slot there is.
    Needs |a|_1 top <= 2^bits - 2, for b >= 0."""
    a = tuple((-1) ** k * (k + 1) for k in range(dim))
    norm = sum(map(abs, a)) * top
    b = (1 << bits) - 2 - norm
    x = tuple(-top if c > 0 else top for c in a)
    return [(a, b), (a, -b)], x


big = st.integers(-(1 << 300), 1 << 300)
small = st.integers(-3, 3)


@st.composite
def cases(draw):
    """Functionals, rows and tight sets whose values often sit exactly at
    0, +-1 or the lane bound, next to entries of 256 bits and more."""
    dim = draw(st.integers(0, 4))
    count = draw(st.integers(1, 6))
    entries = st.one_of(big, small)
    rows = [tuple(draw(entries) for _ in range(dim)) for _ in range(draw(st.integers(1, 5)))]
    functionals = []
    for _ in range(count):
        a = tuple(draw(entries) for _ in range(dim))
        x = rows[draw(st.integers(0, len(rows) - 1))]
        # b puts the value at x on a chosen target: 0, +-1, or anything
        target = draw(st.one_of(st.sampled_from([-1, 0, 1]), big))
        functionals.append((a, sum(map(mul, a, x)) - target))
    if draw(st.booleans()):
        # a functional at the lane bound: its slot is -(2^(W-1) - 1) at an
        # added row, or 2^(W-1) - 2 at the negated row
        top = max((abs(v) for x in rows for v in x), default=0) + draw(st.integers(1, 1 << 260))
        bits = (sum(range(1, dim + 1)) * top + 2).bit_length() + draw(st.integers(0, 3))
        pair, x = extreme(dim, top, bits)
        functionals += pair
        rows += [x, tuple(-v for v in x)]
    tight = [
        draw(st.lists(st.integers(0, len(functionals) - 1), unique=True, max_size=3))
        for _ in rows
    ]
    return functionals, rows, tight


@settings(deadline=None, max_examples=400)
@given(cases())
def test_lane_failures_match_the_scalar_reference(case):
    functionals, rows, tight = case
    assert lane_failures(functionals, rows, tight) == reference_lane_failures(
        functionals, rows, tight
    )


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("bits", [5, 64, 257, 300])
def test_slots_exactly_at_the_lane_bound(dim, bits):
    # |a|_1 top at most half the bound, so b >= 0
    top = ((1 << bits) - 2) // (2 * sum(range(1, dim + 1)))
    (low, high), x = extreme(dim, top, bits)
    neg = tuple(-v for v in x)
    half = 1 << (lane_width([low, high], [x]) - 1)
    assert sum(map(abs, low[0])) * top + abs(low[1]) + 1 == half - 1
    assert sum(map(mul, low[0], x)) - low[1] - 1 == -(half - 1)
    assert sum(map(mul, high[0], neg)) - high[1] == half - 2
    # a passing functional in the lanes below and above, so that a misread
    # lane or a borrow across lanes shows
    one = ((0,) * dim, -1)
    functionals = [one, low, high, one]
    for rows, tight in [
        ([x], [[]]), ([x], [[1]]), ([neg], [[]]), ([neg], [[2]]), ([x, neg], [[2], [1]])
    ]:
        assert lane_failures(functionals, rows, tight) == reference_lane_failures(
            functionals, rows, tight
        )
    assert lane_failures([one, low, one], [x], [[]]) == [(0, [1])]
    assert lane_failures([one, low, one], [x], [[1]]) == [(0, [1])]
    assert lane_failures([one, high, one], [neg], [[]]) == []
    assert lane_failures([one, high, one], [neg], [[1]]) == [(0, [1])]


def test_a_tight_functional_must_vanish():
    functionals = [((1, 0), 0), ((0, 1), 0)]
    assert lane_failures(functionals, [(0, 5)], [[0]]) == []
    # positive on the tight set fails though it passes off it
    assert lane_failures(functionals, [(1, 5)], [[0]]) == [(0, [0])]
    assert lane_failures(functionals, [(-1, 5)], [[0]]) == [(0, [0])]


def test_a_loose_functional_must_be_positive():
    functionals = [((1, 0), 0), ((0, 1), 0)]
    assert lane_failures(functionals, [(1, 1)], [[]]) == []
    # zero off the tight set fails: the inequality is strict
    assert lane_failures(functionals, [(1, 0)], [[]]) == [(0, [1])]
    assert lane_failures(functionals, [(0, 0), (2, 3), (-1, -1)], [[], [], [1]]) == [
        (0, [0, 1]),
        (2, [0, 1]),
    ]


def test_no_functionals_or_no_rows():
    assert lane_failures([], [(1, 2)], [[]]) == []
    assert lane_failures([((1,), 0)], [], []) == []
    # an empty row: only the offsets count
    assert lane_failures([((), -1), ((), 0), ((), 0)], [()], [[2]]) == [(0, [1])]
