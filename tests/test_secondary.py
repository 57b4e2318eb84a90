import random
from fractions import Fraction

import pytest

from associahedra import polygon
from associahedra.sampling import random_convex_geometry
from associahedra.secondary import (
    build_secondary,
    geometry_problem,
    gkz_vector,
    parabola_geometry,
    polygon_area,
    validate_geometry,
)

F = Fraction

SQUARE = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))


def test_validate_square():
    assert validate_geometry(SQUARE)


def test_validate_parabola():
    assert validate_geometry(tuple((F(k), F(k * k)) for k in range(1, 7)))


def test_validate_clockwise_rejected():
    assert not validate_geometry(tuple(reversed(SQUARE)))


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
    coords = sorted(c for c, _ in p.vertices)
    assert coords == sorted(
        [(F(1), F(1, 2), F(1), F(1, 2)), (F(1, 2), F(1), F(1, 2), F(1))]
    )


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
            assert validate_geometry(random_convex_geometry(n, rng))
