"""Exact rational linear algebra.

``RationalMatrix`` entries are ``fractions.Fraction``.  ``rank``,
``kernel_basis`` and ``solve`` also take a ``RowMatrix``, a list of rows such
as the integer blocks of ``ChevalleyAlgebra.ad_block``.  Elimination is fraction-free
(Bareiss): rows are cleared to integers first, so intermediate entries stay
integral and coefficient growth stays polynomial; a row that is already all
Python ints is used as it is, with no denominator clearing.  This matters for
the adjoint matrices of the larger exceptional algebras, where naive rational
pivoting blows up.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Vector = Tuple[Q, ...]


def vec(values: Sequence) -> Vector:
    return tuple(Q(v) for v in values)


class RationalMatrix:
    """Immutable dense matrix over the rationals, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(Q(x) for x in entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [Q(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [Q(0)] * (rows * cols))

    def __getitem__(self, ij: Tuple[int, int]) -> Q:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        entries = []
        for i in range(self.rows):
            for j in range(other.cols):
                entries.append(
                    sum((self[i, k] * other[k, j] for k in range(self.cols)), Q(0))
                )
        return RationalMatrix(self.rows, other.cols, entries)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum((self[i, j] * Q(v[j]) for j in range(self.cols)), Q(0))
            for i in range(self.rows)
        )


class RowMatrix(list):
    """A matrix as a list of mutable rows whose entries are Python ints or Fractions.

    ``rows``, ``cols`` and ``row`` read it as they read a RationalMatrix.
    Elimination uses a row of Python ints as it is, with no denominator
    clearing; this is the form of ``ChevalleyAlgebra.ad_block``.
    """

    def __init__(self, rows: Iterable[Sequence] = (), cols: Optional[int] = None):
        super().__init__(rows)
        self.cols = cols if cols is not None else (len(self[0]) if self else 0)

    @property
    def rows(self) -> int:
        return len(self)

    def row(self, i: int) -> Sequence:
        return self[i]

    def matmul(self, other: "RowMatrix") -> "RowMatrix":
        """Product, skipping zero entries; int entries stay ints."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = RowMatrix(cols=other.cols)
        for row in self:
            acc = [0] * other.cols
            for x, other_row in zip(row, other):
                if x:
                    for j, y in enumerate(other_row):
                        if y:
                            acc[j] += x * y
            out.append(acc)
        return out


Matrix = Union[RationalMatrix, RowMatrix]


def _integer_rows(m: Matrix) -> List[List[int]]:
    """Integer rows with the row space of m (see ``_clear_row``)."""
    return [_clear_row(m.row(i)) for i in range(m.rows)]


def _bareiss_echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free row echelon form.

    Returns the reduced rows and the list of pivot columns.  All divisions are
    exact (Bareiss one-step division by the previous pivot).
    """
    if not rows:
        return [], []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        pivot = pivot_row[c]
        for i in range(r + 1, n_rows):
            row = rows[i]
            if not any(row):
                continue
            factor = row[c]
            rows[i] = [(x * pivot - factor * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows[:r], pivots


def rank(m: Matrix) -> int:
    """Rank over the rationals."""
    _, pivots = _bareiss_echelon(_integer_rows(m))
    return len(pivots)


def _back_substitute(
    echelon: List[List[int]], pivots: List[int], rhs: List[Q], free_values: dict
) -> List[Q]:
    """Solve the echelon system with the given values on free columns."""
    n_cols = len(echelon[0]) if echelon else len(free_values)
    x: List[Optional[Q]] = [None] * n_cols
    for c, v in free_values.items():
        x[c] = v
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        s = rhs[r]
        for j in range(c + 1, n_cols):
            if echelon[r][j] != 0:
                s -= echelon[r][j] * x[j]
        x[c] = s / echelon[r][c]
    return [v if v is not None else Q(0) for v in x]


def kernel_basis(m: Matrix) -> List[Vector]:
    """Basis of the right null space, one vector per free column."""
    echelon, pivots = _bareiss_echelon(_integer_rows(m))
    free_cols = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free_cols:
        free_values = {c: Q(int(c == f)) for c in free_cols}
        x = _back_substitute(echelon, pivots, [Q(0)] * len(pivots), free_values)
        basis.append(tuple(x))
    return basis


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    """Some exact solution of Mx = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    echelon, pivots = _bareiss_echelon(
        [_clear_row(list(m.row(i)) + [b[i]]) for i in range(m.rows)]
    )
    if m.cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    free_values = {c: Q(0) for c in range(m.cols) if c not in pivots}
    rhs = [Q(echelon[r][m.cols]) for r in range(len(pivots))]
    trimmed = [row[: m.cols] for row in echelon]
    x = _back_substitute(trimmed, pivots, rhs, free_values)
    return tuple(x)


def independent_subset(vectors: Sequence[Sequence[Q]]) -> List[int]:
    """Indices of a maximal linearly independent subset, greedily from the front."""
    chosen: List[int] = []
    rows: List[List[int]] = []
    current_rank = 0
    for idx, v in enumerate(vectors):
        candidate = rows + [_clear_row(v)]
        echelon, pivots = _bareiss_echelon([r[:] for r in candidate])
        if len(pivots) > current_rank:
            rows = candidate
            current_rank = len(pivots)
            chosen.append(idx)
    return chosen


def _clear_row(v: Sequence) -> List[int]:
    """The row scaled by the lcm of its denominators; scaling keeps the row space.

    A row of Python ints is copied as it is.
    """
    if all(type(x) is int for x in v):
        return list(v)
    qs = [x if isinstance(x, (int, Q)) else Q(x) for x in v]
    scale = 1
    for x in qs:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    return [x.numerator * (scale // x.denominator) for x in qs]
