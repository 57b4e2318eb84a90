"""Exact rational linear algebra on tuples of fractions.Fraction.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  All
predicates (rank, parallelism, subspace equality) are exact; there is no
floating point anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Underdetermined:
    """Sentinel returned by solve_linear for consistent non-unique systems."""

    def __repr__(self):
        return "UNDERDETERMINED"


UNDERDETERMINED = Underdetermined()


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


def is_zero_vec(u):
    return all(a == 0 for a in u)


def unit(i, dim):
    return tuple(ONE if k == i else ZERO for k in range(dim))


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_nonzero_rows, pivot_columns).  Exact Gaussian
    elimination over Fraction; pivots normalized to 1.
    """
    m = [list(Fraction(x) for x in row) for row in rows]
    if not m:
        return (), ()
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def rank(rows):
    _, pivots = rref(rows)
    return len(pivots)


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


def invert(rows):
    """Exact inverse of a square matrix; raises on singular input."""
    nrows = len(rows)
    aug = [tuple(row) + unit(i, nrows) for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if list(pivots) != list(range(nrows)):
        raise ValueError("matrix is singular")
    return tuple(row[nrows:] for row in red)


def affinely_independent(points, count):
    """Indices of the first `count` affinely independent points, taken
    greedily in order starting with index 0.

    One incremental elimination: each candidate's difference from points[0]
    is reduced against the rows kept so far (each normalized at its pivot
    and zero at every earlier pivot) and kept if anything is left.  Returns
    fewer than `count` indices when the points span less.
    """
    chosen = [0]
    kept = []  # (pivot column, row)
    for i in range(1, len(points)):
        if len(chosen) >= count:
            break
        v = vsub(points[i], points[0])
        for pivot, row in kept:
            f = v[pivot]
            if f != 0:
                v = tuple(a - f * b for a, b in zip(v, row))
        pivot = next((c for c, a in enumerate(v) if a != 0), None)
        if pivot is not None:
            kept.append((pivot, vscale(1 / v[pivot], v)))
            chosen.append(i)
    return chosen[:count]


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

    def contains(self, v):
        if not self.basis:
            return is_zero_vec(v)
        stacked = self.basis + (tuple(v),)
        return rank(stacked) == self.dim


def span(vectors, ambient_dim):
    red, _ = rref(vectors) if vectors else ((), ())
    return Subspace(basis=red, ambient_dim=ambient_dim)


def subspace_from_differences(points):
    """Canonical span of {p_i - p_0}; zero subspace if all points equal."""
    if len(points) < 1:
        raise ValueError("need at least one point")
    p0 = points[0]
    diffs = [vsub(p, p0) for p in points[1:]]
    return span(diffs, len(p0))


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
    return Hyperplane(normal=vscale(1 / lead, normal), offset=Fraction(offset) / lead)


def hyperplane_through(points, ambient):
    """Hyperplane (within `ambient`) through the given points.

    Returns None unless the points affinely span a codimension-1 flat of
    `ambient`; the normal is taken inside `ambient`.
    """
    if not points:
        return None
    p0 = points[0]
    diffs = [vsub(p, p0) for p in points[1:]]
    basis = ambient.basis
    if not basis:
        return None
    # normal = sum_k c_k basis_k with normal . diff = 0 for every diff
    constraint_rows = [tuple(dot(b, d) for b in basis) for d in diffs]
    kernel = nullspace(constraint_rows, ncols=len(basis))
    if len(kernel) != 1:
        return None
    c = kernel[0]
    normal = tuple(
        sum((c[k] * basis[k][j] for k in range(len(basis))), ZERO)
        for j in range(ambient.ambient_dim)
    )
    return make_hyperplane(normal, dot(normal, p0))


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix·x + translation."""

    matrix: tuple
    translation: tuple

    def apply(self, x):
        return vadd(mat_vec(self.matrix, x), self.translation)
