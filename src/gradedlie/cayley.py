"""Centralizer and transported-subspace data for JM-regular gradings.

For a depth-m grading whose degree-1 pair is JM-regular, fix a triple
(h, e, f) with h = 2*zeta and e in the open orbit.  The data of interest is
the centralizer c of the triple inside g_0 and the subspace
V = ad(e)^{m-1}(g_{1-m}) of g_0.  Since every ad(h)-eigenvalue lies in
[2(1-m), 2(m-1)], each vector of g_{1-m} is a lowest-weight vector of a
(2m-1)-dimensional irreducible sl2-module, so V is exactly the degree-0 slice
of the span of those modules and ad(e)^{m-1} is injective on g_{1-m}.

The projection test decomposes [v, v'] for v, v' in V along
c + V + (orthogonal complement in g_0); the pair (c, V) is a theta-pair
candidate when every such bracket falls inside c.  Orthogonality and the
projection do not change when the invariant form is rescaled, so both use
the closed-form ``normalized_form``.

c, V, the triple and each projection's parts are ``chevalley.Element``s: the
parts are sums of scaled basis elements, and the remainder is the bracket
minus both, all in integer numerators over one denominator.  Rank checks read
an element's dense coordinates; reports read them through ``dense``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .chevalley import ChevalleyAlgebra, Element
from .grading import ZGrading
from .linalg import RationalMatrix, independent_subset, rank, solve
from .vinberg import Sl2Triple, VinbergPair, jm_regular, normalized_form, vinberg_pair


@dataclass
class CayleyData:
    pair: VinbergPair
    triple: Sl2Triple  # h = 2*zeta
    c_basis: List[Element]
    v_basis: List[Element]  # images ad(e)^{m-1} of the g_{1-m} basis
    depth: int

    @property
    def algebra(self) -> ChevalleyAlgebra:
        return self.pair.algebra

    @property
    def dim_c(self) -> int:
        return len(self.c_basis)

    @property
    def dim_v(self) -> int:
        return len(self.v_basis)


def cayley_pair(zg: ZGrading, seed: int = 0) -> CayleyData:
    alg = zg.algebra
    pair = vinberg_pair(zg)
    cert = jm_regular(pair, seed)
    if not cert.regular:
        raise ValueError("degree-1 pair is not JM-regular; no Cayley data")
    triple = Sl2Triple(h=2 * zg.zeta, e=cert.e, f=cert.f)
    triple.verify(alg)
    m = zg.depth
    c_basis = alg.centralizer([triple.h, triple.e, triple.f], zg.piece(0))
    low = zg.piece(1 - m)
    support, transport = _ad_power(alg, triple.e, low, m - 1)
    if rank(transport) != len(low):
        raise AssertionError("transport map is not injective on the lowest piece")
    v_basis = [alg.from_sparse({k: row[j] for k, row in zip(support, transport)}) for j in range(len(low))]
    # module-dimension bound: ad(e)^{2m-1} kills the lowest piece
    if _ad_power(alg, triple.e, low, 2 * m - 1)[0]:
        raise AssertionError("sl2-module longer than 2m-1 detected")
    return CayleyData(pair=pair, triple=triple, c_basis=c_basis, v_basis=v_basis, depth=m)


def _ad_power(
    alg: ChevalleyAlgebra, e: Element, domain: Sequence[int], n: int
) -> Tuple[List[int], RationalMatrix]:
    """ad(e)^n on span(domain), over all of g: (support, rows).

    Row r is the coordinate of b_{support[r]}; basis vectors outside the
    support have zero coordinates in every image, and the support is empty
    when ad(e)^n kills the domain.
    """
    support = list(domain)
    power = RationalMatrix([int(i == j) for j in range(len(domain))] for i in range(len(domain)))
    for _ in range(n):
        power = alg.ad_block(e, support, range(alg.dim)).matmul(power)
        support = [k for k, row in enumerate(power) if any(row)]
        power = RationalMatrix((power[k] for k in support), len(domain))
    return support, power


@dataclass
class IsoCharacterReport:
    iso_full: bool
    chi_vanishes: bool


def verify_iso_and_character(cd: CayleyData) -> IsoCharacterReport:
    """Transport-map invertibility and chi_T(c) = 0 on c."""
    low_dim = len(cd.pair.grading.piece(1 - cd.depth))
    dim = cd.algebra.dim
    r = rank(RationalMatrix((v.dense(dim) for v in cd.v_basis), dim))
    return IsoCharacterReport(
        iso_full=(r == low_dim == len(cd.v_basis)),
        chi_vanishes=all(cd.pair.chi_t(c) == 0 for c in cd.c_basis),
    )


@dataclass
class BracketProjection:
    v_index: int
    v_prime_index: int
    c_part: Element
    v_part: Element
    rest_part: Element

    @property
    def in_c(self) -> bool:
        return not self.v_part and not self.rest_part


@dataclass
class ThetaVerdict:
    candidate: bool
    witness: Optional[BracketProjection]


def bracket_projection_test(cd: CayleyData) -> ThetaVerdict:
    """Decompose every [v, v'] over c + V + orthogonal complement in g_0."""
    alg = cd.algebra
    basis = cd.c_basis + cd.v_basis
    if basis and len(independent_subset([b.dense(alg.dim) for b in basis])) != len(basis):
        raise AssertionError("c and V overlap")
    gram = RationalMatrix([[normalized_form(alg, a, b) for b in basis] for a in basis])
    witness = None
    for i in range(len(cd.v_basis)):
        for j in range(i + 1, len(cd.v_basis)):
            x = alg.bracket(cd.v_basis[i], cd.v_basis[j])
            coeffs = solve(gram, [normalized_form(alg, u, x) for u in basis]) if basis else ()
            if coeffs is None:
                raise AssertionError("invariant form degenerate on c + V")
            c_part = sum(map(mul, coeffs[: cd.dim_c], cd.c_basis), Element())
            v_part = sum(map(mul, coeffs[cd.dim_c :], cd.v_basis), Element())
            proj = BracketProjection(i, j, c_part, v_part, x - c_part - v_part)
            if witness is None and not proj.in_c:
                witness = proj
    return ThetaVerdict(candidate=witness is None, witness=witness)
