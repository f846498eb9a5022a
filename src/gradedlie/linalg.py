"""Exact linear algebra over the rationals, on matrices of Python ints.

``RationalMatrix`` is a list of rows of Python ints, such as the blocks of
``ChevalleyAlgebra.ad_block``; a vector is a sequence of ints.  Callers scale
rational data to integers (a row's scale changes no rank or kernel; a system's
goes into its solution's denominator).  The name stays because
``bench/tracer.py`` binds ``RationalMatrix.matmul``.  Elimination copies its
rows through one gate, which raises TypeError on an entry that is not a Python
int, then reduces them by primitive-row elimination: a row with a zero in the
pivot column is left untouched, and every updated row is divided by the gcd
of its entries.  A solution is a ``Solution``: Python-int numerators over one
positive int denominator, in lowest terms, as ``chevalley.Element`` stores
coordinates; no Fraction is built.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

# integer numerators, one per column, over a positive denominator, in lowest terms
Solution = Tuple[List[int], int]


class RationalMatrix(list):
    """A matrix as a list of rows of Python ints.

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

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """Product, skipping zero entries."""
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


def _int_rows(rows: Iterable[Sequence]) -> List[List[int]]:
    """Copies of the rows for elimination; the gate for entries that are not Python ints."""
    out = [list(row) for row in rows]
    for row in out:
        if not set(map(type, row)) <= {int}:
            raise TypeError("linalg entries must be Python ints")
    return out


def _echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Row echelon form over the integers, and the list of pivot columns.

    Primitive-row elimination: a row with a zero in the pivot column is left as
    it is; any other row becomes (p/g) row - (f/g) pivot_row, with p the pivot,
    f the row's entry and g = gcd(p, f), and is then divided by the gcd of its
    entries.  The pivot columns are the greedy column basis of the matrix.
    The rows are reduced in place.
    """
    if not rows:
        return [], []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # rows r.. are zero left of c, so only the part right of c changes
        pivot = rows[r][c]
        tail = rows[r][c + 1 :]
        for i in range(r + 1, n_rows):
            row = rows[i]
            factor = row[c]
            if factor:
                g = gcd(pivot, factor)
                a, b = pivot // g, factor // g
                new = [a * x - b * y for x, y in zip(islice(row, c + 1, None), tail)]
                content = gcd(*new)
                row[c] = 0
                row[c + 1 :] = [x // content for x in new] if content > 1 else new
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows[:r], pivots


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals."""
    return len(_echelon(_int_rows(m))[1])


def _back_substitute(
    echelon: List[List[int]], pivots: List[int], n_cols: int, rhs: List[int], free: dict
) -> Solution:
    """Solve the echelon system, with the given integer values on free columns.

    Integer numerators over the lcm of the denominators found so far; each
    coordinate's own denominator is in lowest terms, so their lcm is too.
    """
    num, den = [0] * n_cols, 1
    for c, v in free.items():
        num[c] = v
    for r in range(len(pivots) - 1, -1, -1):
        c, row = pivots[r], echelon[r]
        s = rhs[r] * den - sum(map(mul, islice(row, c + 1, n_cols), num[c + 1 :]))
        # x_c = s / (den * row[c]), in lowest terms n / d
        d = den * row[c]
        g = gcd(s, d) if d > 0 else -gcd(s, d)
        n, d = s // g, d // g
        scale = d // gcd(den, d)  # the new common denominator is den * scale
        if scale != 1:
            num = [x * scale for x in num]
            den *= scale
        num[c] = n * (den // d)
    return num, den


def kernel_basis(m: RationalMatrix) -> List[Solution]:
    """Basis of the right null space, one vector per free column."""
    echelon, pivots = _echelon(_int_rows(m))
    free_cols = [c for c in range(m.cols) if c not in pivots]
    return [_back_substitute(echelon, pivots, m.cols, [0] * len(pivots), {f: 1}) for f in free_cols]


def solve(m: RationalMatrix, b: Sequence) -> Optional[Solution]:
    """Some exact solution of Mx = b, or None when the system is inconsistent.

    Free columns are set to zero, so the solution returned is unique.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    echelon, pivots = _echelon(_int_rows([*row, y] for row, y in zip(m, b)))
    if m.cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    rhs = [row[m.cols] for row in echelon]
    return _back_substitute(echelon, pivots, m.cols, rhs, {})


def independent_subset(vectors: Sequence[Sequence]) -> List[int]:
    """Indices of a maximal linearly independent subset, greedily from the front:
    the pivot columns of the matrix with the vectors as its columns."""
    return _echelon(_int_rows(zip(*vectors)))[1]

