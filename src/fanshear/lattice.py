"""Exact integer linear algebra over the lattice Z^d.

Vectors are plain tuples of Python ints, matrices are tuples of row tuples,
and every routine here is exact: no floats anywhere.  The module supplies
the primitives the rest of the package is built on: primitivity and
basis-extension tests, deterministic integer row reduction, integral linear
solving, unimodular maps, the shear matrices used to deform fans, and a
Fourier-Motzkin feasibility test for strict/weak homogeneous inequalities.
_echelon, which builds no transform, is the one elimination behind cone
inverses, basis extension, class groups and integral solving: row_echelon
runs it on rows augmented by the identity, solve_integer on [coeffs | rhs]
alone.  det keeps Bareiss elimination for the signed value, and
linear_feasible keeps Fourier-Motzkin.
unimodular_inverse decides unimodularity and inverts in one row reduction;
a fan runs it once per facet-connected set of cones and pivots from there
to the rest.  matrix_inverse, which change_of_basis and
UnimodularMap.inverse use, is a thin wrapper over it that raises on a
matrix that is not unimodular.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import index, mul
from typing import Iterable, Optional, Sequence

from ._record import frozen
from .errors import DimensionMismatch

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


class NoIntegerSolution(Exception):
    """The linear system has no integral solution."""


class UnderdeterminedSystem(Exception):
    """The linear system does not pin the unknowns uniquely."""


def gcd_all(values: Iterable[int]) -> int:
    return reduce(math.gcd, values, 0)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def is_primitive(v: Sequence[int]) -> bool:
    """Whether v generates the semigroup of lattice points on its ray.

    >>> is_primitive((1, 0, 0))
    True
    >>> is_primitive((2, 0))
    False
    >>> is_primitive((2, 0, -1))
    True
    """
    if len(v) == 0:
        raise ValueError("empty vector has no primitivity")
    return gcd_all(abs(a) for a in v) == 1


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def row_echelon(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Reduce to echelon form by unimodular row operations.

    Returns (transform, echelon, pivot_columns) with transform @ matrix ==
    echelon and det(transform) = +-1: the rows carry the identity as m
    extra columns, which _echelon turns into the transform.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [[*r, *[1 if i == j else 0 for j in range(m)]] for i, r in enumerate(matrix)]
    pivots = _echelon(rows, n)
    return [row[n:] for row in rows], [row[:n] for row in rows], pivots


def _echelon(rows: list[list[int]], n: int) -> list[int]:
    """Reduce rows in place by unimodular row operations; return the pivot columns.

    Only the first n columns are pivoted on, each from its own entries:
    among the active rows, the smallest nonzero absolute value, ties to the
    lowest row index.  The pivot is made positive and the entries above it
    are reduced into [0, pivot).  Columns past n are carried along.
    """
    m = len(rows)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            candidates = [(abs(rows[i][c]), i) for i in range(r, m) if rows[i][c]]
            if not candidates:
                break
            _, p = min(candidates)
            if p != r:
                rows[r], rows[p] = rows[p], rows[r]
            cleared = True
            for i in range(r + 1, m):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                if rows[i][c]:
                    cleared = False
            if cleared:
                break
        if rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
    return pivots


def _unit_pivots(echelon: Sequence[Sequence[int]], pivots: Sequence[int], rank: int) -> bool:
    """Whether an elimination found exactly rank pivots, each equal to 1."""
    return len(pivots) == rank and all(echelon[i][c] == 1 for i, c in enumerate(pivots))


def solve_integer(
    coeffs: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Solve coeffs @ X == rhs over the integers, X of shape (n, k).

    Raises NoIntegerSolution when no rational or no integral solution
    exists, UnderdeterminedSystem when the solution is not unique.

    One _echelon of [coeffs | rhs]: its first n columns reduce as coeffs
    alone would, and a pivot beyond them is a nonzero right-hand side
    against a zero row, so the system is inconsistent.
    """
    m = len(coeffs)
    n = len(coeffs[0]) if m else 0
    k = len(rhs[0]) if rhs else 0
    if len(rhs) != m:
        raise ValueError("rhs row count mismatch")
    echelon = [[*a, *b] for a, b in zip(coeffs, rhs)]
    pivots = _echelon(echelon, n + k)
    if pivots and pivots[-1] >= n:
        raise NoIntegerSolution("inconsistent linear system")
    if len(pivots) < n:
        raise UnderdeterminedSystem("solution space is positive-dimensional")
    # rank == n, so the pivot columns are 0..n-1 in order.
    solution = [[0] * k for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = echelon[i]
        for j in range(k):
            acc = row[n + j] - sum(row[t] * solution[t][j] for t in range(i + 1, n))
            if acc % row[i]:
                raise NoIntegerSolution("no integral solution")
            solution[i][j] = acc // row[i]
    return solution


def elementary_divisors_all_one(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the row span is a rank-len(vectors) direct summand of Z^d.

    One _echelon of the d x m matrix whose columns are the vectors.  Its
    row operations are unimodular, so the elementary divisors are those of
    the triangular top block, and that block's diagonal holds the pivots:
    they are all one exactly when there are m pivots, each equal to 1.
    """
    echelon = [list(row) for row in zip(*vectors)]
    return _unit_pivots(echelon, _echelon(echelon, len(vectors)), len(vectors))


def extends_to_basis(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the vectors are part of some Z-basis of Z^d.

    >>> extends_to_basis([(1, 0, 0), (0, 1, 0)])
    True
    >>> extends_to_basis([(2, 0), (0, 1)])
    False
    """
    vectors = [tuple(map(index, v)) for v in vectors]
    if not vectors:
        return True
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise DimensionMismatch("vectors of mixed lengths")
    if len(vectors) > dim:
        return False
    return elementary_divisors_all_one(vectors)


@frozen
class UnimodularMap:
    """An invertible integer matrix acting on column vectors from the left."""

    matrix: Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(tuple(map(index, row)) for row in self.matrix))
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square")
        if abs(det(self.matrix)) != 1:
            raise ValueError("matrix is not unimodular")

    @classmethod
    def identity(cls, dim: int) -> "UnimodularMap":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "UnimodularMap":
        return cls(tuple(zip(*[tuple(c) for c in columns])))

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.dimension:
            raise DimensionMismatch("vector length does not match map dimension")
        return tuple(dot(row, v) for row in self.matrix)

    def compose(self, other: "UnimodularMap") -> "UnimodularMap":
        """self after other, as matrices: self.matrix @ other.matrix."""
        cols = tuple(self.apply(col) for col in zip(*other.matrix))
        return UnimodularMap.from_columns(cols)

    def inverse(self) -> "UnimodularMap":
        return UnimodularMap(matrix_inverse(tuple(zip(*self.matrix))))


def shear_map(q: Sequence[int]) -> UnimodularMap:
    """Identity except the last column is (q_1, ..., q_{d-1}, 1).

    Applied to a column vector it adds q times the last coordinate to the
    others and fixes the last coordinate, so the hyperplane of vectors with
    last coordinate 0 is fixed pointwise.

    >>> shear_map((2, -1)).apply((2, 0, -1))
    (0, 1, -1)
    """
    q = tuple(q)
    d = len(q) + 1
    rows = []
    for i in range(d - 1):
        row = [1 if j == i else 0 for j in range(d - 1)] + [q[i]]
        rows.append(tuple(row))
    rows.append(tuple([0] * (d - 1) + [1]))
    return UnimodularMap(tuple(rows))


def unimodular_inverse(columns: Sequence[Sequence[int]]) -> Optional[Matrix]:
    """Rows of the inverse of the matrix with the given columns, or None if it is not unimodular.

    One row_echelon of the square matrix A.  Its transform T is unimodular,
    so |det A| is the product of the positive pivots: A is unimodular
    exactly when the rank is full and every pivot is 1.  The echelon form
    is then upper triangular with unit diagonal and the entries above each
    pivot reduced into [0, 1), so T @ A = I and T is the inverse.

    >>> unimodular_inverse([(1, 0), (1, 1)])
    ((1, -1), (0, 1))
    >>> unimodular_inverse([(1, 1), (1, -1)]) is None
    True
    """
    n = len(columns)
    if any(len(c) != n for c in columns):
        raise ValueError("matrix must be square")
    transform, echelon, pivots = row_echelon(list(zip(*columns)))
    if not _unit_pivots(echelon, pivots, n):
        return None
    return tuple(map(tuple, transform))


def matrix_inverse(columns: Sequence[Sequence[int]]) -> Matrix:
    """Rows of the inverse of the unimodular matrix with the given columns."""
    inverse = unimodular_inverse(columns)
    if inverse is None:
        raise ValueError("matrix is not unimodular")
    return inverse


def change_of_basis(
    src_columns: Sequence[Sequence[int]], dst_columns: Sequence[Sequence[int]]
) -> UnimodularMap:
    """The unique map sending the i-th source column to the i-th destination column."""
    inv = matrix_inverse(src_columns)
    d = len(inv)
    rows = tuple(
        tuple(
            sum(dst_columns[t][i] * inv[t][j] for t in range(d)) for j in range(d)
        )
        for i in range(d)
    )
    return UnimodularMap(rows)


def _normalize_row(row: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd_all(abs(a) for a in row)
    return row if g <= 1 else tuple(a // g for a in row)


def linear_feasible(
    strict: Sequence[Sequence[int]], weak: Sequence[Sequence[int]]
) -> bool:
    """Is there x with r . x > 0 for r in strict and r . x >= 0 for r in weak?

    Homogeneous Fourier-Motzkin elimination; exact over the integers.
    """
    rows: dict[tuple[int, ...], bool] = {}

    def add(vec: tuple[int, ...], is_strict: bool) -> bool:
        if all(a == 0 for a in vec):
            return not is_strict  # 0 > 0 is infeasible, 0 >= 0 is vacuous
        vec = _normalize_row(vec)
        rows[vec] = rows.get(vec, False) or is_strict
        return True

    for r in strict:
        if not add(tuple(r), True):
            return False
    for r in weak:
        add(tuple(r), False)  # a weak row is never infeasible
    if not rows:
        return True
    n = len(next(iter(rows)))
    current = list(rows.items())
    for j in range(n):
        positive = [(v, s) for v, s in current if v[j] > 0]
        negative = [(v, s) for v, s in current if v[j] < 0]
        passthrough = [(v, s) for v, s in current if v[j] == 0]
        rows = {}
        ok = True
        for v, s in passthrough:
            ok = ok and add(v, s)
        for p, ps in positive:
            for m, ms in negative:
                combo = tuple(p[j] * m[i] - m[j] * p[i] for i in range(n))
                ok = ok and add(combo, ps or ms)
        if not ok:
            return False
        current = list(rows.items())
    return True
