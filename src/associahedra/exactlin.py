"""Exact rational linear algebra on tuples of fractions.Fraction.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
predicates (rank, parallelism, subspace equality) are exact; there is no
floating point anywhere.  Eliminations run fraction-free on Python ints
(rows or point sets scaled once by the lcm of their denominators); every
value handed back is a Fraction in canonical form.  Rationals are written
and read as "p/q" strings; `ratio_str` and `parse_ratio` code them straight
to and from int pairs, and `rat_str` and `parse_rat` wrap them for Fractions.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


class Underdetermined:
    """Sentinel returned by solve_linear for consistent non-unique systems."""

    def __repr__(self):
        return "UNDERDETERMINED"


UNDERDETERMINED = Underdetermined()


def ratio_str(a, b):
    """The rational a/b of ints (b > 0) as "p/q" in lowest terms, or "p"
    when it is an integer."""
    g = gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


def rat_str(x):
    """A rational as "p/q", or "p" when it is an integer."""
    x = Fraction(x)
    return ratio_str(x.numerator, x.denominator)


_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(s):
    """(p, q) in lowest terms with q > 0 for a "p" or "p/q" string (q > 0);
    else ValueError."""
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    q = int(m[2] or 1) if m else 0
    if q == 0:
        raise ValueError(f"not a rational 'p' or 'p/q': {s!r}")
    p = int(m[1])
    g = gcd(p, q)
    return p // g, q // g


def parse_rat(s):
    """The rational of a "p" or "p/q" string (q > 0); else ValueError."""
    return Fraction(*parse_ratio(s))


def vec(*entries):
    return tuple(Fraction(e) for e in entries)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def unit(i, dim):
    return tuple(ONE if k == i else ZERO for k in range(dim))


def _primitive(row):
    """The row divided by the gcd of its entries (a zero row is kept)."""
    g = gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def integer_scaling(points):
    """(rows, scale): the points times `scale`, the lcm of all their
    denominators, as int tuples.

    One positive scale for the whole set keeps affine dependence and the
    sign of every affine functional.
    """
    scale = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points], scale


def integer_points(points):
    """The rows of `integer_scaling`, without the scale."""
    return integer_scaling(points)[0]


def primitive_rows(rows):
    """Each row times its own positive factor, as a primitive int row; an
    int row needs no scaling and goes straight to `_primitive`."""
    return [
        _primitive(row if all(type(a) is int for a in row) else integer_points([row])[0])
        for row in rows
    ]


def _eliminate(m):
    """Fraction-free Gauss-Jordan on primitive int rows, in place: a pivot
    clears its column from every other row by cross-multiplication, each new
    row divided by its content.  Returns the pivot columns (row i, pivot i)."""
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([prow[c] * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_nonzero_rows, pivot_columns), pivots normalized to 1.
    `_eliminate` runs on the rows scaled to primitive int rows, and pivot rows
    are divided by their pivots at the end; the reduced echelon form of a row
    space is unique, so this is exactly Gaussian elimination over Fraction.
    """
    m = primitive_rows(rows)
    pivots = _eliminate(m)
    reduced = tuple(
        tuple(Fraction(a, row[c]) if a else ZERO for a in row)
        for row, c in zip(m, pivots)
    )
    return reduced, tuple(pivots)


def rank(rows):
    """The rank of Fraction or int rows, by `_eliminate` on primitive rows."""
    return len(_eliminate(primitive_rows(rows)))


def lane_failures(functionals, rows, tight):
    """Where affine functionals fail at int rows, all F of them checked at a
    row at once in the lanes of one Python int: [(i, [f, ...]), ...] for
    each failing row i in order, with the functionals f that fail there in
    order; empty iff every row passes.

    `functionals` are F pairs (a_f, b_f) of an int row and an int, `rows`
    int rows of the same length D, and `tight[i]` the indices of the
    functionals that must vanish at rows[i]; every other one must be
    positive there.  Slot f of row x is s_f = a_f . x - b_f - [f not tight
    at x], held in lane f, bits W f to W f + W - 1 of
    sum_f s_f 2^(W f) = sum_k x_k C_k - B - 1_F + sum_{f tight} 2^(W f),
    where C_k packs column k of the a_f, B packs the b_f and 1_F puts 1 in
    every lane: D multiply-adds of packed columns per row.  The lane width
    W is one more than the bit length of max_f(|a_f|_1 max|x| + |b_f| + 1),
    a bound on every |s_f|, so |s_f| < 2^(W-1).  A row passes iff every
    s_f >= 0 and every tight s_f = 0.  If no slot is negative the lanes
    hold the slots exactly, top bits clear; otherwise the lowest negative
    slot borrows 2^W from the lane above and reads 2^W + s_f >= 2^(W-1) in
    its own lane, top bit set.  So a row passes iff its int has no lane
    top bit set and nothing in a tight lane.  Only a failing row's slots
    are unpacked, to name the functionals that fail.
    """
    if not functionals:
        return []
    top = max(map(abs, chain.from_iterable(rows)), default=0)
    width = max(sum(map(abs, a)) * top + abs(b) + 1 for a, b in functionals).bit_length() + 1
    shifts = [width * f for f in range(len(functionals))]
    columns = [
        sum(a << s for a, s in zip(column, shifts))
        for column in zip(*(a for a, _ in functionals))
    ]
    ones = sum(1 << s for s in shifts)
    base = sum(b << s for (_, b), s in zip(functionals, shifts)) + ones
    signs = ones << (width - 1)
    failures = []
    for i, (x, t) in enumerate(zip(rows, tight)):
        low = sum(1 << shifts[f] for f in t)
        packed = sum(map(mul, x, columns)) - base + low
        if packed & (signs | (low << width) - low):
            slots = _unpack(packed, width, len(shifts))
            failures.append((i, [f for f, s in enumerate(slots) if (s != 0 if f in t else s < 0)]))
    return failures


def _unpack(packed, width, count):
    """The `count` signed slots, each of absolute value below 2^(width-1),
    packed as sum_f s_f 2^(width f) (see `lane_failures`)."""
    lane, half = (1 << width) - 1, 1 << (width - 1)
    slots = []
    for _ in range(count):
        s = packed & lane
        if s >= half:
            s -= 1 << width
        slots.append(s)
        packed = (packed - s) >> width
    return slots


def transpose(rows):
    return tuple(zip(*rows))


def mat_vec(rows, x):
    return tuple(dot(row, x) for row in rows)


def solve_linear(a, b):
    """Solve a·x = b exactly.

    Returns the unique solution vector, None if the system is inconsistent,
    or UNDERDETERMINED if consistent but not unique.
    """
    if len(a) != len(b):
        raise ValueError("row count of a must equal dim of b")
    ncols = len(a[0])
    aug = [tuple(row) + (bi,) for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        return UNDERDETERMINED
    x = [ZERO] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return tuple(x)


def nullspace(rows, ncols=None):
    """Basis of {x : rows·x = 0}, one vector per free column."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows) if rows else ((), ())
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for row, c in zip(red, pivots):
            x[c] = -row[f]
        basis.append(tuple(x))
    return tuple(basis)


def integer_inverse(rows):
    """(M, d) with M an int matrix, d > 0 and M/d the inverse of the square
    int matrix `rows`, by `_eliminate` on [rows | I]; raises on singular input."""
    k = len(rows)
    m = [_primitive(list(row) + [int(i == j) for j in range(k)]) for i, row in enumerate(rows)]
    if any(len(row) != 2 * k for row in m) or _eliminate(m) != list(range(k)):
        raise ValueError("matrix is singular")
    d = lcm(*(row[i] for i, row in enumerate(m)))
    return tuple(tuple(a * (d // row[i]) for a in row[k:]) for i, row in enumerate(m)), d


def invert(rows):
    """Exact inverse of a square matrix; raises on singular input.  With row i
    scaled to ints by s_i, column i of the integer inverse is scaled back."""
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    m, d = integer_inverse([[int(x * s) for x in row] for row, s in zip(rows, scales)])
    return tuple(tuple(Fraction(a * s, d) for a, s in zip(row, scales)) for row in m)


def affinely_independent(points, count):
    """Indices of the first `count` affinely independent points, taken
    greedily in order starting with index 0.

    The points are int tuples (see `integer_points`).  One `_eliminate` on
    the differences p_i - p_0 taken as columns: a column is a pivot exactly
    when it is independent of the earlier ones, so point i is picked iff
    column i-1 is a pivot.  Returns fewer than `count` indices when the
    points span less.
    """
    p0 = points[0]
    columns = [_primitive([p[k] - a for p in points[1:]]) for k, a in enumerate(p0)]
    return ([0] + [c + 1 for c in _eliminate(columns)])[:count]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace in canonical reduced-echelon form.

    Two equal subspaces have identical representations, so equality of
    direction spaces (facet parallelism) is a syntactic comparison.
    """

    basis: tuple
    ambient_dim: int

    @property
    def dim(self):
        return len(self.basis)


def span(vectors, ambient_dim):
    red, _ = rref(vectors) if vectors else ((), ())
    return Subspace(basis=red, ambient_dim=ambient_dim)


def affine_frame(rows):
    """(chosen, space) for a non-empty list of int rows: the indices
    `affinely_independent` picks from all of them (count = ambient dim + 1,
    so none is skipped unless the span is already the whole space), and
    the canonical span of their differences from rows[0], which is the
    direction space of the rows' affine hull."""
    chosen = affinely_independent(rows, len(rows[0]) + 1)
    return chosen, span([vsub(rows[i], rows[0]) for i in chosen[1:]], len(rows[0]))


def subspace_from_differences(points):
    """Canonical span of {p_i - p_0}; zero subspace if all points equal.
    A positive scale of the points keeps the span, so it is taken on ints."""
    if len(points) < 1:
        raise ValueError("need at least one point")
    return affine_frame(integer_points(points))[1]


@dataclass(frozen=True)
class Hyperplane:
    """Points x with <normal, x> = offset; first nonzero normal entry is +1."""

    normal: tuple
    offset: Fraction

    def value(self, x):
        return dot(self.normal, x) - self.offset


def make_hyperplane(normal, offset):
    lead = next((c for c in normal if c != 0), None)
    if lead is None:
        raise ValueError("hyperplane normal must be nonzero")
    return Hyperplane(normal=vscale(ONE / lead, normal), offset=Fraction(offset) / lead)


def integer_normal(points, basis):
    """Normal, inside the span of the int rows `basis`, of the hyperplane
    through the int `points`, as a primitive int row; None unless the points
    affinely span a codimension-1 flat of that span.

    The normal is sum_k c_k basis_k with normal . (p - p0) = 0 for every
    point p: one `_eliminate` of those constraints on c, whose kernel must
    be a line, read off the reduced rows over the lcm of their pivots.
    """
    if not points or not basis:
        return None
    p0, *rest = points
    diffs = [vsub(p, p0) for p in rest]
    m = [_primitive([sum(map(mul, b, d)) for b in basis]) for d in diffs]
    pivots = _eliminate(m)
    free = [k for k in range(len(basis)) if k not in pivots]
    if len(free) != 1:
        return None
    scale = lcm(*(row[k] for row, k in zip(m, pivots)))
    c = [0] * len(basis)
    c[free[0]] = scale
    for row, k in zip(m, pivots):
        c[k] = -row[free[0]] * (scale // row[k])
    return _primitive([sum(map(mul, c, col)) for col in zip(*basis)])


def hyperplane_through(points, ambient):
    """Hyperplane (within `ambient`) through the given points.

    Returns None unless the points affinely span a codimension-1 flat of
    `ambient`.  `integer_normal` solves on the points and basis rows scaled
    to ints, which `make_hyperplane` normalizes away.
    """
    normal = integer_normal(integer_points(points), primitive_rows(ambient.basis))
    return None if normal is None else make_hyperplane(normal, dot(normal, points[0]))


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix·x + translation."""

    matrix: tuple
    translation: tuple

    def apply(self, x):
        return vadd(mat_vec(self.matrix, x), self.translation)
