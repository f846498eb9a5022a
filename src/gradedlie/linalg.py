"""Exact rational linear algebra.

``RationalMatrix`` is a list of rows whose entries are Python ints or
Fractions, such as the integer blocks of ``ChevalleyAlgebra.ad_block``; a
vector is a sequence of the same.  Elements of a Lie algebra are not vectors
here: they are sparse ``chevalley.Element``s, and enter a matrix as blocks or
as their dense coordinates.
Elimination runs in Python ints: each row is cleared of denominators (a row
that is already all ints is used as it is), then reduced by primitive-row
elimination, which leaves a row with a zero in the pivot column untouched and
divides every updated row by the gcd of its entries, so coefficients stay
small.  A solution is a ``Solution``: Python-int numerators over one positive
int denominator, in lowest terms, which is how ``chevalley.Element`` stores
coordinates; no Fraction is built.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

# integer numerators, one per column, over a positive denominator, in lowest terms
Solution = Tuple[List[int], int]


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
    return len(_echelon([integer_form(row)[0] for row in m])[1])


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
    echelon, pivots = _echelon([integer_form(row)[0] for row in m])
    free_cols = [c for c in range(m.cols) if c not in pivots]
    return [_back_substitute(echelon, pivots, m.cols, [0] * len(pivots), {f: 1}) for f in free_cols]


def solve(m: RationalMatrix, b: Sequence) -> Optional[Solution]:
    """Some exact solution of Mx = b, or None when the system is inconsistent.

    Free columns are set to zero, so the solution returned is unique.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    # the augmented row (nums / d | y / b_den), scaled by d * b_den to integers
    b_num, b_den = integer_form(b)
    rows = [[x * b_den for x in nums] + [y * d] for (nums, d), y in zip(map(integer_form, m), b_num)]
    echelon, pivots = _echelon(rows)
    if m.cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    rhs = [row[m.cols] for row in echelon]
    return _back_substitute(echelon, pivots, m.cols, rhs, {})


def independent_subset(vectors: Sequence[Sequence]) -> List[int]:
    """Indices of a maximal linearly independent subset, greedily from the front:
    the pivot columns of the matrix with the vectors as its columns."""
    columns = [integer_form(v)[0] for v in vectors]
    return _echelon([list(row) for row in zip(*columns)])[1]


def integer_form(v: Sequence) -> Tuple[List[int], int]:
    """v as integer numerators over one denominator, the lcm of its denominators.

    A row of Python ints is copied as it is, over 1.
    """
    if all(type(x) is int for x in v):
        return list(v), 1
    den = lcm(*[x.denominator for x in v if type(x) is not int])
    return [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in v], den
