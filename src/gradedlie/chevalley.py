"""Chevalley-basis realization of a simple Lie algebra.

Basis: the simple coroots h_1..h_r, then one root vector e_alpha per root, in
the root-system enumeration order.  Structure constants N_{alpha,beta} are
fixed by the extraspecial-pair convention: positive roots are ordered by
(height, coordinates), the extraspecial pair of a sum gamma is the one with
smallest first member, and its constant is +(p+1) where p is the length of the
descending alpha-string through beta.  Every other constant follows from the
Jacobi identity and the sign rules N_{beta,alpha} = -N_{alpha,beta},
N_{-alpha,-beta} = -N_{alpha,beta}.

The build verifies |N| = p+1 on every special pair and the Jacobi identity on
basis triples (all triples through dimension 80, a seeded sample above that)
before returning.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import RationalMatrix, Vector, kernel_basis, vec
from .rootsystem import LieType, Root, RootSystem, build_root_system

Sparse = Dict[int, Q]

_JACOBI_FULL_LIMIT = 80
_JACOBI_SAMPLES = 4000


def _is_positive(alpha: Root) -> bool:
    return sum(alpha) > 0


def _neg(alpha: Root) -> Root:
    return tuple(-x for x in alpha)


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


class StructureConstants:
    """N_{alpha,beta} for all root pairs with alpha+beta a root."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._root_set = set(rs.roots)
        # position of each positive root in the (height, coords) order
        self._pos_order = {a: i for i, a in enumerate(rs.positive_roots)}
        self._table: Dict[Tuple[Root, Root], Q] = {}
        self._fill()

    def _string_down(self, alpha: Root, beta: Root) -> int:
        """p = max k with beta - k*alpha a root."""
        p = 0
        cur = _sub(beta, alpha)
        while cur in self._root_set:
            p += 1
            cur = _sub(cur, alpha)
        return p

    def _fill(self):
        rs = self.rs
        for gamma in rs.positive_roots:
            if sum(gamma) < 2:
                continue
            pairs = [
                (a, _sub(gamma, a))
                for a in rs.positive_roots
                if self._pos_order[a] < self._pos_order.get(_sub(gamma, a), -1)
            ]
            if not pairs:
                raise AssertionError(f"no special pair for {gamma}")
            pairs.sort(key=lambda ab: self._pos_order[ab[0]])
            a1, b1 = pairs[0]  # extraspecial
            self._table[(a1, b1)] = Q(self._string_down(a1, b1) + 1)
            # N(-a1, gamma): mixed pair reduced by the norm-weighted cycle rule
            n_neg = rs.norm(b1) / rs.norm(gamma) * self._table[(a1, b1)]
            for a, b in pairs[1:]:
                # Jacobi on (e_{-a1}, e_a, e_b), coefficient of e_{b1}
                t1 = self.value(b, _neg(a1)) * self.value(a, _sub(b, a1))
                t2 = self.value(_neg(a1), a) * self.value(b, _sub(a, a1))
                self._table[(a, b)] = -(t1 + t2) / n_neg

    def value(self, a: Root, b: Root) -> Q:
        """N_{a,b}; zero when a+b is not a root."""
        s = _add(a, b)
        if a not in self._root_set or b not in self._root_set or s not in self._root_set:
            return Q(0)
        if _is_positive(a) and _is_positive(b):
            if (a, b) in self._table:
                return self._table[(a, b)]
            return -self._table[(b, a)]
        if not _is_positive(a) and not _is_positive(b):
            return -self.value(_neg(a), _neg(b))
        if not _is_positive(a):
            return -self.value(b, a)
        # a > 0, b < 0
        if _is_positive(s):
            return self.rs.norm(s) / self.rs.norm(a) * (-self.value(_neg(b), s))
        return self.value(_neg(b), _neg(a))

    def verify_string_lengths(self):
        """|N_{alpha,beta}| = p+1 (an integer) on every positive special pair."""
        for (a, b), n in self._table.items():
            p = self._string_down(a, b)
            if n.denominator != 1 or abs(n) != p + 1:
                raise AssertionError(f"bad constant N({a},{b}) = {n}, p = {p}")


class ChevalleyAlgebra:
    """Simple Lie algebra with exact rational structure constants.

    Elements are coordinate vectors of length ``dim`` in the basis
    (h_1..h_r, e_alpha for alpha in root order).
    """

    def __init__(self, rs: RootSystem, check: bool = True, seed: int = 0):
        self.rs = rs
        self.rank = rs.rank
        self.dim = rs.dim_algebra
        self.root_index = {a: self.rank + i for i, a in enumerate(rs.roots)}
        self.constants = StructureConstants(rs)
        self._brackets: Dict[Tuple[int, int], Sparse] = {}
        self._build_table()
        self._killing_gram: Optional[RationalMatrix] = None
        if check:
            self.constants.verify_string_lengths()
            self._verify_jacobi(seed)

    # -- basis bookkeeping ------------------------------------------------

    def basis_root(self, index: int) -> Optional[Root]:
        """Root of basis vector ``index``, or None for a Cartan generator."""
        if index < self.rank:
            return None
        return self.rs.roots[index - self.rank]

    def zero(self) -> Vector:
        return (Q(0),) * self.dim

    def from_sparse(self, coords: Sparse) -> Vector:
        return tuple(coords.get(i, Q(0)) for i in range(self.dim))

    def cartan_element(self, coroot_coeffs: Sequence) -> Vector:
        return self.from_sparse({i: Q(c) for i, c in enumerate(coroot_coeffs)})

    def root_vector(self, alpha: Root) -> Vector:
        return self.from_sparse({self.root_index[alpha]: Q(1)})

    def coroot(self, alpha: Root) -> Vector:
        """h_alpha = alpha^vee expressed in the basis."""
        return self.cartan_element(self.rs.coroot_coefficients(alpha))

    # -- bracket ----------------------------------------------------------

    def _build_table(self):
        rs = self.rs
        r = self.rank
        for j, alpha in enumerate(rs.roots):
            col = r + j
            for i in range(r):
                c = rs.pairing(alpha, i)
                if c:
                    self._brackets[(i, col)] = {col: Q(c)}
        for i, alpha in enumerate(rs.roots):
            for j, beta in enumerate(rs.roots):
                if j <= i:
                    continue
                s = _add(alpha, beta)
                if all(x == 0 for x in s):
                    cr = rs.coroot_coefficients(alpha)
                    self._brackets[(r + i, r + j)] = {
                        k: c for k, c in enumerate(cr) if c
                    }
                else:
                    n = self.constants.value(alpha, beta)
                    if n:
                        self._brackets[(r + i, r + j)] = {self.root_index[s]: n}

    def basis_bracket(self, i: int, j: int) -> Sparse:
        if i == j:
            return {}
        if i < j:
            return self._brackets.get((i, j), {})
        flipped = self._brackets.get((j, i), {})
        return {k: -c for k, c in flipped.items()}

    def bracket(self, a: Sequence, b: Sequence) -> Vector:
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError("element dimension mismatch")
        out: Sparse = {}
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, c in self.basis_bracket(i, j).items():
                    out[k] = out.get(k, Q(0)) + Q(ai) * Q(bj) * c
        return self.from_sparse(out)

    def ad_matrix(self, a: Sequence) -> RationalMatrix:
        """Matrix of x -> [a, x] on the full basis."""
        cols = []
        for j in range(self.dim):
            col: Sparse = {}
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for k, c in self.basis_bracket(i, j).items():
                    col[k] = col.get(k, Q(0)) + Q(ai) * c
            cols.append(col)
        entries = [cols[j].get(i, Q(0)) for i in range(self.dim) for j in range(self.dim)]
        return RationalMatrix(self.dim, self.dim, entries)

    # -- Killing form -----------------------------------------------------
    # tr(ad a ad b) over the basis, O(dim^3).  Production code uses the
    # closed form vinberg.normalized_form; this is its independent test oracle.

    def killing_gram(self) -> RationalMatrix:
        if self._killing_gram is None:
            n = self.dim
            entries = [Q(0)] * (n * n)
            for i in range(n):
                for j in range(i, n):
                    # tr(ad b_i ad b_j) over the basis
                    t = Q(0)
                    for k in range(n):
                        inner = self.basis_bracket(j, k)
                        for l, c in inner.items():
                            t += c * self.basis_bracket(i, l).get(k, Q(0))
                    entries[i * n + j] = t
                    entries[j * n + i] = t
            self._killing_gram = RationalMatrix(n, n, entries)
        return self._killing_gram

    def killing_form(self, a: Sequence, b: Sequence) -> Q:
        g = self.killing_gram()
        gb = g.apply(vec(b))
        return sum((Q(x) * y for x, y in zip(a, gb)), Q(0))

    # -- centralizers -----------------------------------------------------

    def centralizer(self, elements: Sequence[Sequence], subspace: Sequence[Sequence]) -> List[Vector]:
        """Basis of {u in span(subspace) : [u, s] = 0 for every s}."""
        if not subspace:
            return []
        rows: List[List[Q]] = []
        for s in elements:
            images = [self.bracket(u, s) for u in subspace]
            for coord in range(self.dim):
                rows.append([im[coord] for im in images])
        if not rows:
            return [vec(u) for u in subspace]
        coeff_kernel = kernel_basis(RationalMatrix.from_rows(rows))
        out = []
        for coeffs in coeff_kernel:
            v: Sparse = {}
            for c, u in zip(coeffs, subspace):
                if c:
                    for i, ui in enumerate(u):
                        if ui:
                            v[i] = v.get(i, Q(0)) + c * Q(ui)
            out.append(self.from_sparse(v))
        return out

    # -- build-time verification ------------------------------------------

    def _jacobi_holds(self, i: int, j: int, k: int) -> bool:
        acc: Sparse = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = self.basis_bracket(b, c)
            for l, cl in inner.items():
                for m, cm in self.basis_bracket(a, l).items():
                    acc[m] = acc.get(m, Q(0)) + cl * cm
        return all(v == 0 for v in acc.values())

    def _verify_jacobi(self, seed: int):
        n = self.dim
        if n <= _JACOBI_FULL_LIMIT:
            triples = (
                (i, j, k)
                for i in range(n)
                for j in range(i + 1, n)
                for k in range(j + 1, n)
            )
        else:
            rng = random.Random(seed)
            triples = (
                tuple(sorted(rng.sample(range(n), 3)))
                for _ in range(_JACOBI_SAMPLES)
            )
        for i, j, k in triples:
            if not self._jacobi_holds(i, j, k):
                raise AssertionError(f"Jacobi identity fails on basis triple ({i},{j},{k})")


@lru_cache(maxsize=None)
def build_algebra(t: LieType) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(build_root_system(t))
