import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from associahedra import polygon
from associahedra.sampling import random_convex_geometry
from associahedra.secondary import (
    area_table,
    build_secondary,
    geometry_problem,
    parabola_geometry,
    polygon_area,
    signed_area2,
)

from oracles import gkz_vector

F = Fraction

SQUARE = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))


def reference_gkz_vector(coords, t, n):
    """The area vector summed triangle by triangle on Fractions."""
    v = [Fraction(0)] * (n + 3)
    for a, b, c in polygon.triangles(t, n):
        area = abs(signed_area2(coords[a], coords[b], coords[c])) / 2
        for label in (a, b, c):
            v[label] += area
    return tuple(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_integer_builder_matches_fraction_reference(n):
    rng = random.Random(200 + n)
    for coords in [parabola_geometry(n)] + [random_convex_geometry(n, rng) for _ in range(3)]:
        want = [(reference_gkz_vector(coords, t, n), t) for t in polygon.all_triangulations(n)]
        assert list(build_secondary(coords=coords, n=n).vertices) == want



@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_area_table_is_each_area_in_lowest_terms(n):
    # each entry over the one denominator is the Fraction area of its
    # triangle, and entries and denominator share no factor
    rng = random.Random(400 + n)
    for coords in [parabola_geometry(n)] + [random_convex_geometry(n, rng) for _ in range(3)]:
        table, denominator = area_table(coords)
        assert sorted(table) == list(combinations(range(n + 3), 3))
        for (a, b, c), entry in table.items():
            area = abs(signed_area2(coords[a], coords[b], coords[c])) / 2
            assert Fraction(entry, denominator) == area
        assert denominator > 0 and gcd(denominator, *table.values()) == 1

def reference_geometry_problem(coords):
    """`geometry_problem` on the Fraction points themselves."""
    m = len(coords)
    if len(set(coords)) != m:
        return "duplicate points"
    for i in range(m):
        if signed_area2(coords[i], coords[(i + 1) % m], coords[(i + 2) % m]) <= 0:
            return f"non-positive turn at vertex {(i + 1) % m}"
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_integer_geometry_check_matches_fraction_reference(n):
    rng = random.Random(300 + n)
    problems = set()
    for _ in range(10):
        coords = random_convex_geometry(n, rng)
        shuffled = list(coords)
        rng.shuffle(shuffled)
        repeated = list(coords)
        repeated[rng.randrange(n + 3)] = rng.choice(coords)
        for case in (coords, coords[::-1], shuffled, repeated):
            want = reference_geometry_problem(tuple(case))
            assert geometry_problem(tuple(case)) == want
            problems.add(want if want is None else want.split(" at ")[0])
    assert problems == {None, "non-positive turn", "duplicate points"}


def test_validate_square():
    assert geometry_problem(SQUARE) is None


def test_validate_parabola():
    assert geometry_problem(tuple((F(k), F(k * k)) for k in range(1, 7))) is None


def test_validate_clockwise_rejected():
    assert geometry_problem(tuple(reversed(SQUARE))) == "non-positive turn at vertex 1"


def test_validate_duplicate_rejected():
    coords = SQUARE[:3] + (SQUARE[0],)
    assert geometry_problem(coords) == "duplicate points"


def test_gkz_square():
    # star areas: the diagonal endpoints touch both triangles of area 1/2
    assert gkz_vector(SQUARE, ((0, 2),), 1) == (F(1), F(1, 2), F(1), F(1, 2))
    assert gkz_vector(SQUARE, ((1, 3),), 1) == (F(1, 2), F(1), F(1, 2), F(1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gkz_sum_is_three_times_area(n):
    coords = parabola_geometry(n)
    target = 3 * polygon_area(coords)
    for t in polygon.all_triangulations(n):
        assert sum(gkz_vector(coords, t, n)) == target


def test_build_secondary_point():
    p = build_secondary(n=0)
    assert len(p.vertices) == 1


def test_build_secondary_square_segment():
    p = build_secondary(coords=SQUARE, n=1)
    assert list(p.vertices) == [
        ((F(1), F(1, 2), F(1), F(1, 2)), ((0, 2),)),
        ((F(1, 2), F(1), F(1, 2), F(1)), ((1, 3),)),
    ]
    # the square scaled to ints by 3: areas over the denominator 2 * 3^2
    third = tuple((x / 3, y / 3) for x, y in SQUARE)
    assert [c for c, _ in build_secondary(coords=third, n=1).vertices] == [
        tuple(x / 9 for x in c) for c, _ in p.vertices
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_build_secondary_dimension_and_distinctness(n):
    p = build_secondary(n=n)
    # make_polytope has already rejected repeated coordinates and a hull of
    # the wrong dimension
    assert len(p.vertices) == len(polygon.all_triangulations(n))


def test_build_rejects_bad_geometry():
    with pytest.raises(ValueError):
        build_secondary(coords=tuple(reversed(SQUARE)), n=1)


def test_build_rejects_wrong_point_count():
    with pytest.raises(ValueError, match="need n \\+ 3 = 5 points, got 4"):
        build_secondary(coords=SQUARE, n=2)


def test_gkz_translation_invariance():
    n = 2
    coords = parabola_geometry(n)
    shifted = tuple((x + 7, y - F(3, 2)) for x, y in coords)
    for t in polygon.all_triangulations(n):
        assert gkz_vector(coords, t, n) == gkz_vector(shifted, t, n)


def test_gkz_scaling_quadratic():
    n = 2
    lam = F(3, 2)
    coords = parabola_geometry(n)
    scaled = tuple((lam * x, lam * y) for x, y in coords)
    for t in polygon.all_triangulations(n):
        base = gkz_vector(coords, t, n)
        assert gkz_vector(scaled, t, n) == tuple(lam * lam * c for c in base)


def test_random_geometries_are_valid():
    rng = random.Random(5)
    for n in range(2, 5):
        for _ in range(3):
            assert geometry_problem(random_convex_geometry(n, rng)) is None


def _image(coords, matrix, shift):
    (a, b), (c, d) = matrix
    return tuple((a * x + b * y + shift[0], c * x + d * y + shift[1]) for x, y in coords)


@pytest.mark.parametrize(
    "matrix, shift",
    [
        (((1, 0), (0, 1)), (F(7), F(-3, 2))),  # translation: areas unchanged
        (((1, F(2, 3)), (0, 1)), (F(1, 5), F(0))),  # shear, determinant 1
        (((F(3, 2), 0), (0, F(3, 2))), (F(0), F(0))),  # scaling: areas times 9/4
        (((2, 1), (F(1, 3), 4)), (F(-1), F(5))),  # determinant 23/3
    ],
)
def test_build_affine_image_scales_areas_by_determinant(matrix, shift):
    n = 3
    coords = random_convex_geometry(n, random.Random(9))
    (a, b), (c, d) = matrix
    det = F(a) * d - F(b) * c
    base = {label: x for x, label in build_secondary(coords=coords, n=n).vertices}
    image = build_secondary(coords=_image(coords, matrix, shift), n=n)
    assert {label: x for x, label in image.vertices} == {
        label: tuple(det * y for y in x) for label, x in base.items()
    }
