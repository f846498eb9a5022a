"""Centralizer and transported-subspace data for JM-regular gradings.

For a depth-m grading whose degree-1 pair ``vinberg.VinbergPair(zg)`` is JM-regular,
the triple (h, e, f) is ``complete_triple`` at h = 2*zeta for the open-orbit e.  The data
of interest is the centralizer c of the triple inside g_0 and the subspace
V = ad(e)^{m-1}(g_{1-m}) of g_0.  Since every ad(h)-eigenvalue lies in
[2(1-m), 2(m-1)], each vector of g_{1-m} is a lowest-weight vector of a
(2m-1)-dimensional irreducible sl2-module, so V is exactly the degree-0 slice
of the span of those modules and ad(e)^{m-1} is injective on g_{1-m}.  Each
basis vector b of g_{1-m} starts one chain b, [e, b], [e, [e, b]], ... of
exactly 2m - 1 ``bracket`` calls: a nonzero ad(e)^{2m-1} b breaks the module
bound, and ad(e)^{m-1} b is b's vector of V.  ``cayley_pair`` raises unless
those vectors have rank dim g_{1-m}, so every ``CayleyData`` maps g_{1-m} onto
V invertibly.  ``CayleyData.chi_vanishes`` says whether chi_T vanishes on c.
It cannot be False on a correct build, as h = 2*zeta and B(h, x) =
B(e, [f, x]) = 0 for x in c; it stays as a certificate of the code.

The projection test decomposes [v, v'] for v, v' in V along
c + V + (orthogonal complement in g_0), and returns the first projection
that is not inside c; the pair (c, V) is a theta-pair candidate when there
is none.  Orthogonality and the projection do not change when the invariant
form is rescaled, so both use the integer sums of ``vinberg.form_numerator``.

c, V, the triple and each projection's parts are ``chevalley.Element``s: the
parts are sums of scaled basis numerators, and the remainder is the bracket
minus both, all in integer numerators over one denominator.  Rank checks read
an element's numerators (``dense_num``), and so do reports (``cli.element_strs``).
"""

from __future__ import annotations

from operator import mul
from typing import List, Optional

from .chevalley import ChevalleyAlgebra, Element
from .grading import RootGrading
from .linalg import RationalMatrix, independent_subset, rank, solve
from .vinberg import Sl2Triple, VinbergPair, complete_triple, form_numerator, generic_element


class CayleyData:
    """The pair, its triple at h = 2*zeta, and bases of c and V."""

    __slots__ = ("pair", "triple", "c_basis", "v_basis")

    def __init__(self, pair: VinbergPair, triple: Sl2Triple, c_basis: List[Element], v_basis: List[Element]):
        self.pair, self.triple = pair, triple
        self.c_basis = c_basis
        self.v_basis = v_basis  # images ad(e)^{m-1} of the g_{1-m} basis

    @property
    def algebra(self) -> ChevalleyAlgebra:
        return self.pair.algebra

    @property
    def dim_c(self) -> int:
        return len(self.c_basis)

    @property
    def dim_v(self) -> int:
        return len(self.v_basis)

    @property
    def chi_vanishes(self) -> bool:
        """chi_T(c) = 0 on the centralizer, read off B(zeta, c)."""
        return all(form_numerator(self.algebra.rs, self.pair.zeta, c) == 0 for c in self.c_basis)


def cayley_pair(zg: RootGrading, seed: int = 0) -> CayleyData:
    pair = VinbergPair(zg)
    alg = pair.algebra
    triple = complete_triple(pair, generic_element(pair, seed), 2 * zg.zeta)
    if triple is None:
        raise ValueError("degree-1 pair is not JM-regular; no Cayley data")
    m = zg.depth
    c_basis = alg.centralizer([triple.h, triple.e, triple.f], zg.piece(0))
    v_basis: List[Element] = []
    for b in zg.piece(1 - m):
        chain = [Element({b: 1})]
        for _ in range(2 * m - 1):  # bounded, so a faulty table cannot make it run forever
            chain.append(alg.bracket(triple.e, chain[-1]))
        if chain[-1]:  # module-dimension bound: ad(e)^{2m-1} kills the lowest piece
            raise AssertionError("sl2-module longer than 2m-1 detected")
        v_basis.append(chain[m - 1])
    if rank(RationalMatrix([v.dense_num(alg.dim) for v in v_basis], alg.dim)) != len(v_basis):
        raise AssertionError("transport map is not injective on the lowest piece")
    return CayleyData(pair=pair, triple=triple, c_basis=c_basis, v_basis=v_basis)


class BracketProjection:
    """[v_i, v_j] split into its parts along c, along V and in the orthogonal complement."""

    __slots__ = ("v_index", "v_prime_index", "c_part", "v_part", "rest_part")

    def __init__(self, v_index: int, v_prime_index: int, c_part: Element, v_part: Element, rest_part: Element):
        self.v_index, self.v_prime_index = v_index, v_prime_index
        self.c_part, self.v_part, self.rest_part = c_part, v_part, rest_part


def bracket_projection_test(cd: CayleyData) -> Optional[BracketProjection]:
    """Decompose each [v, v'] in turn over c + V + orthogonal complement in g_0; the first
    projection that is not inside c, or None when (c, V) is a theta-pair candidate.
    The decomposition is unique only where the form is nondegenerate on c + V, so a
    singular Gram raises AssertionError before any bracket is taken."""
    alg = cd.algebra
    basis = cd.c_basis + cd.v_basis
    if basis and len(independent_subset([b.dense_num(alg.dim) for b in basis])) != len(basis):
        raise AssertionError("c and V overlap")
    gram = RationalMatrix([[form_numerator(alg.rs, a, b) for b in basis] for a in basis])
    if rank(gram) != len(basis):
        raise AssertionError("invariant form degenerate on c + V")
    numerators = [Element(b.num) for b in basis]
    for i in range(len(cd.v_basis)):
        for j in range(i + 1, len(cd.v_basis)):
            x = alg.bracket(cd.v_basis[i], cd.v_basis[j])
            # one solution, as the Gram is nonsingular; the part along b is y_b b.num / x.den
            num, den = solve(gram, [form_numerator(alg.rs, u, x) for u in basis])
            c_sum = sum(map(mul, num[: cd.dim_c], numerators[: cd.dim_c]), Element())
            v_sum = sum(map(mul, num[cd.dim_c :], numerators[cd.dim_c :]), Element())
            c_part, v_part = Element(c_sum.num, den * x.den), Element(v_sum.num, den * x.den)
            proj = BracketProjection(i, j, c_part, v_part, x - c_part - v_part)
            if proj.v_part or proj.rest_part:
                return proj
    return None
