"""Exact rational linear algebra on tuples of fractions.Fraction.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
predicates are exact; there is no floating point anywhere.  Eliminations
run fraction-free on Python ints (rows or point sets scaled once by the
lcm of their denominators), each read off one `echelon_basis`, and hand
back ints or canonical Fractions.  Rationals are written and read as
"p/q" strings; `ratio_str` and `parse_ratio` code them straight to and
from int pairs, and `rat_str` and `parse_rat` wrap them for Fractions.
"""

import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul, sub

ZERO = Fraction(0)
ONE = Fraction(1)


class Underdetermined:
    """Sentinel returned by solve_linear for consistent non-unique systems."""

    def __repr__(self):
        return "UNDERDETERMINED"


UNDERDETERMINED = Underdetermined()


def _digit_limit(digits):
    """A number's digits past `sys.get_int_max_str_digits()`, as an error."""
    limit = sys.get_int_max_str_digits()
    return ValueError(f"a number of {digits} digits is past the {limit}-digit limit")


def ratio_str(a, b):
    """The rational a/b of ints (b > 0) as "p/q" in lowest terms, or "p"
    when it is an integer; ValueError if a part has too many digits."""
    g = gcd(a, b)
    try:
        return str(a // g) if b == g else f"{a // g}/{b // g}"
    except ValueError:
        # Decimal takes an int of any length exactly
        raise _digit_limit(Decimal(max(abs(a), b) // g).adjusted() + 1) from None


def rat_str(x):
    """A rational as "p/q", or "p" when it is an integer."""
    x = Fraction(x)
    return ratio_str(x.numerator, x.denominator)


_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(s):
    """(p, q) in lowest terms with q > 0 for a "p" or "p/q" string (q > 0);
    else ValueError, also if a part has too many digits."""
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    q = _int(m[2] or "1") if m else 0
    if q == 0:
        raise ValueError(f"not a rational 'p' or 'p/q': {s!r}")
    p = _int(m[1])
    g = gcd(p, q)
    return p // g, q // g


def _int(digits):
    """int(digits), or ValueError naming their count past the limit."""
    try:
        return int(digits)
    except ValueError:
        raise _digit_limit(len(digits.lstrip("+-"))) from None


def parse_rat(s):
    """The rational of a "p" or "p/q" string (q > 0); else ValueError."""
    return Fraction(*parse_ratio(s))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vscale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


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


def primitive_rows(rows):
    """Each row times its own positive factor, as a primitive int row; an
    int row needs no scaling and goes straight to `_primitive`."""
    return [
        _primitive(row if all(type(a) is int for a in row) else integer_scaling([row])[0][0])
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

    Returns (reduced_nonzero_rows, pivot_columns), pivots normalized to 1:
    the `echelon_basis` of the rows scaled to primitive int rows, each row
    divided by its pivot entry L.  The reduced echelon form of a row space
    is unique, so this is exactly Gaussian elimination over Fraction.
    """
    basis, pivots = echelon_basis(primitive_rows(rows))
    reduced = tuple(
        tuple(Fraction(a, row[c]) if a else ZERO for a in row)
        for row, c in zip(basis, pivots)
    )
    return reduced, pivots


def echelon_basis(vectors):
    """(basis, pivots): the int `vectors`' reduced echelon rows over one
    pivot entry L, and their pivot columns, by one `_eliminate` on the rows
    made primitive: a primitive pivot row over its pivot p has denominator
    |p|, so it is scaled by L / p, L the lcm of the pivots (1 if there are
    none).  `rref`, `integer_inverse` and `integer_kernel` read theirs off it."""
    m = [_primitive(v) for v in vectors]
    pivots = tuple(_eliminate(m))
    lead = lcm(*(row[c] for row, c in zip(m, pivots)))
    return tuple(tuple(a * (lead // row[c]) for a in row) for row, c in zip(m, pivots)), pivots


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
    bits = [1 << s for s in shifts]
    ones = sum(bits)
    base = sum(b << s for (_, b), s in zip(functionals, shifts)) + ones
    signs = ones << (width - 1)
    failures = []
    for i, (x, t) in enumerate(zip(rows, tight)):
        low = sum(map(bits.__getitem__, t))
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
    int matrix `rows`: the right half of `echelon_basis([rows | I])`, whose
    left half is d I for d its pivot entry; raises on singular input."""
    k = len(rows)
    m = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    basis, pivots = echelon_basis(m) if all(len(row) == 2 * k for row in m) else ((), ())
    if pivots != tuple(range(k)):
        raise ValueError("matrix is singular")
    return tuple(row[k:] for row in basis), basis[0][0] if k else 1


def invert(rows):
    """Exact inverse of a square matrix; raises on singular input.  With row i
    scaled to ints by s_i, column i of the integer inverse is scaled back."""
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    m, d = integer_inverse([[int(x * s) for x in row] for row, s in zip(rows, scales)])
    return tuple(tuple(Fraction(a * s, d) for a, s in zip(row, scales)) for row in m)


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


def integer_kernel(rows, ncols):
    """The kernel of the int `rows`, each of length `ncols`, as a primitive
    int row if it is a line; else None.  It is read off their
    `echelon_basis`, whose rows have the entry L at their pivots: the line
    has L at the one free column f and -row[f] at each row's pivot."""
    basis, pivots = echelon_basis(rows)
    free = [k for k in range(ncols) if k not in pivots]
    if len(free) != 1:
        return None
    (f,) = free
    c = [0] * ncols
    c[f] = basis[0][pivots[0]] if basis else 1
    for row, k in zip(basis, pivots):
        c[k] = -row[f]
    return _primitive(c)


def integer_normal(points, basis):
    """Normal, inside the span of the int rows `basis`, of the hyperplane
    through the int `points`, as a primitive int row; None unless the points
    affinely span a codimension-1 flat of that span.

    The normal is sum_k c_k basis_k with normal . (p - p0) = 0 for every
    point p: c is the `integer_kernel` of those constraints, which must be
    a line.
    """
    if not points or not basis:
        return None
    p0, *rest = points
    diffs = [vsub(p, p0) for p in rest]
    c = integer_kernel([[sum(map(mul, b, d)) for b in basis] for d in diffs], len(basis))
    return None if c is None else _primitive([sum(map(mul, c, col)) for col in zip(*basis)])


def hyperplane_through(points, ambient):
    """Hyperplane (within `ambient`) through the given points.

    Returns None unless the points affinely span a codimension-1 flat of
    `ambient`.  `integer_normal` solves on the points and basis rows scaled
    to ints, which `make_hyperplane` normalizes away.
    """
    normal = integer_normal(integer_scaling(points)[0], primitive_rows(ambient.basis))
    return None if normal is None else make_hyperplane(normal, dot(normal, points[0]))


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix·x + translation."""

    matrix: tuple
    translation: tuple

    def apply(self, x):
        return vadd(mat_vec(self.matrix, x), self.translation)
