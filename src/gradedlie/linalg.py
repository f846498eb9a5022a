"""Exact rational linear algebra.

``RationalMatrix`` is a list of rows whose entries are Python ints or
Fractions, such as the integer blocks of ``ChevalleyAlgebra.ad_block``.
Elimination is fraction-free (Bareiss): rows are cleared to integers first, so
intermediate entries stay integral and coefficient growth stays polynomial; a
row that is already all Python ints is used as it is, with no denominator
clearing.  This matters for the adjoint matrices of the larger exceptional
algebras, where naive rational pivoting blows up.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[Q, ...]


def vec(values: Sequence) -> Vector:
    return tuple(Q(v) for v in values)


class RationalMatrix(list):
    """A matrix as a list of rows whose entries are Python ints or Fractions.

    ``cols`` is read from the first row, or given for a matrix with no rows;
    every row must have that length.
    """

    def __init__(self, rows: Iterable[Sequence] = (), cols: Optional[int] = None):
        super().__init__(rows)
        self.cols = cols if cols is not None else (len(self[0]) if self else 0)
        if any(len(row) != self.cols for row in self):
            raise ValueError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self)

    def row(self, i: int) -> Sequence:
        return self[i]

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """Product, skipping zero entries; int entries stay ints."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = RationalMatrix(cols=other.cols)
        for row in self:
            acc = [0] * other.cols
            for x, other_row in zip(row, other):
                if x:
                    for j, y in enumerate(other_row):
                        if y:
                            acc[j] += x * y
            out.append(acc)
        return out


def _integer_rows(m: RationalMatrix) -> List[List[int]]:
    """Integer rows with the row space of m (see ``_clear_row``)."""
    return [_clear_row(row) for row in m]


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


def rank(m: RationalMatrix) -> int:
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


def kernel_basis(m: RationalMatrix) -> List[Vector]:
    """Basis of the right null space, one vector per free column."""
    echelon, pivots = _bareiss_echelon(_integer_rows(m))
    free_cols = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free_cols:
        free_values = {c: Q(int(c == f)) for c in free_cols}
        x = _back_substitute(echelon, pivots, [Q(0)] * len(pivots), free_values)
        basis.append(tuple(x))
    return basis


def solve(m: RationalMatrix, b: Sequence) -> Optional[Vector]:
    """Some exact solution of Mx = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    echelon, pivots = _bareiss_echelon([_clear_row(list(row) + [x]) for row, x in zip(m, b)])
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
