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
bound, and ad(e)^{m-1} b is b's vector of V.  c is the kernel of ad e on g_0: h = 2*zeta
is 0 on g_0, so a vector there killed by e is a highest-weight vector of weight 0, which
f kills too.

One certificate covers c + V: the Gram of the invariant form on their bases is
nonsingular (``cayley_pair``), in the sums of ``vinberg.form_numerator``, as a rescaled
form changes no rank or split.  So every ``CayleyData`` maps g_{1-m} onto V invertibly
and splits g_0 in one way along c + V + (orthogonal complement).  The theta-pair test
takes two brackets, x = [v, v'] and [e, x], per pair of V: (c, V) is a candidate when
every [e, x] is 0, else the first x outside c, split by one solve of that Gram, is the
witness.  ``CayleyData.chi_vanishes`` says whether chi_T vanishes on c.  It cannot be
False on a correct build, as h = 2*zeta and B(h, x) = B(e, [f, x]) = 0 for x in c; it
stays as a certificate of the code.

c, V, the triple and each projection's parts are ``chevalley.Element``s: the
parts are sums of scaled basis numerators, and the remainder is the bracket
minus both, all in integer numerators over one denominator.  The Gram reads an
element's numerators, and so do reports (``cli.element_strs``).
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import List, Optional

from .chevalley import ChevalleyAlgebra, Element
from .grading import RootGrading
from .linalg import RationalMatrix, rank, solve
from .vinberg import Sl2Triple, VinbergPair, complete_triple, form_numerator, generic_element


class CayleyData:
    """The pair, its triple at h = 2*zeta, bases of c and V, and the certified Gram of c + V."""

    __slots__ = ("pair", "triple", "c_basis", "v_basis", "gram")

    def __init__(self, pair: VinbergPair, triple: Sl2Triple, c_basis: List[Element], v_basis: List[Element],
                 gram: RationalMatrix):
        self.pair, self.triple, self.gram = pair, triple, gram  # gram: form_numerator on c + V, nonsingular
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
    """The Cayley data, certified by one rank: a relation among the bases of c and V is a
    kernel vector of their Gram, so a transport of rank below dim g_{1-m}, a vector shared by
    c and V and a form degenerate on c + V each raise the one message."""
    pair = VinbergPair(zg)
    alg = pair.algebra
    triple = complete_triple(pair, generic_element(pair, seed), 2 * zg.zeta)
    if triple is None:
        raise ValueError("degree-1 pair is not JM-regular; no Cayley data")
    m = zg.depth
    c_basis = alg.centralizer([triple.e], zg.piece(0))
    v_basis: List[Element] = []
    for b in zg.piece(1 - m):
        chain = [Element({b: 1})]
        for _ in range(2 * m - 1):  # bounded, so a faulty table cannot make it run forever
            chain.append(alg.bracket(triple.e, chain[-1]))
        if chain[-1]:  # module-dimension bound: ad(e)^{2m-1} kills the lowest piece
            raise AssertionError("sl2-module longer than 2m-1 detected")
        v_basis.append(chain[m - 1])
    basis = c_basis + v_basis
    gram = RationalMatrix([[form_numerator(alg.rs, a, b) for b in basis] for a in basis])
    if rank(gram) != len(basis):
        raise AssertionError("invariant form degenerate on c + V")
    return CayleyData(pair=pair, triple=triple, c_basis=c_basis, v_basis=v_basis, gram=gram)


class BracketProjection:
    """[v_i, v_j] split into its parts along c, along V and in the orthogonal complement."""

    __slots__ = ("v_index", "v_prime_index", "c_part", "v_part", "rest_part")

    def __init__(self, v_index: int, v_prime_index: int, c_part: Element, v_part: Element, rest_part: Element):
        self.v_index, self.v_prime_index = v_index, v_prime_index
        self.c_part, self.v_part, self.rest_part = c_part, v_part, rest_part


def bracket_projection_test(cd: CayleyData) -> Optional[BracketProjection]:
    """The split over c + V + orthogonal complement in g_0 of the first [v, v'] outside c,
    that is with [e, [v, v']] != 0, or None when (c, V) is a theta-pair candidate.  The
    split is one solve of ``cd.gram``, which ``cayley_pair`` certified nonsingular, so it is
    unique and its V-part or remainder is nonzero."""
    alg = cd.algebra
    for i, j in combinations(range(cd.dim_v), 2):
        x = alg.bracket(cd.v_basis[i], cd.v_basis[j])
        if alg.bracket(cd.triple.e, x):
            # one solution, as the Gram is nonsingular; the part along b is y_b b.num / x.den
            num, den = solve(cd.gram, [form_numerator(alg.rs, u, x) for u in cd.c_basis + cd.v_basis])
            c_sum = sum(map(mul, num[: cd.dim_c], [Element(b.num) for b in cd.c_basis]), Element())
            v_sum = sum(map(mul, num[cd.dim_c :], [Element(b.num) for b in cd.v_basis]), Element())
            c_part, v_part = Element(c_sum.num, den * x.den), Element(v_sum.num, den * x.den)
            return BracketProjection(i, j, c_part, v_part, x - c_part - v_part)
    return None
