"""Test-only helpers and oracles that no command of the package calls."""

from fractions import Fraction as Q
from itertools import product
from operator import mul
from math import gcd, lcm
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from gradedlie.cayley import BracketProjection, CayleyData
from gradedlie.chevalley import ChevalleyAlgebra, Element, Rational, StructureConstants, Terms
from gradedlie.grading import RootGrading, root_grading
from gradedlie.linalg import RationalMatrix, Solution, rank, solve
from gradedlie.quiver import (
    Multiplicities,
    QuiverDims,
    QuiverElement,
    RankTuple,
    _check_shapes,
    maximal_rank_tuple,
    quiver_jm_regular,
    rank_pairs,
    rank_tuple,
)
from gradedlie.rootsystem import LieType, Root, RootSystem, affine_cartan_matrix
from gradedlie.vinberg import Sl2Triple, VinbergPair, form_numerator, jm_triple, killing_dual_norm, normalized_form

Vector = Tuple[Q, ...]


def vec(values: Sequence) -> Vector:
    return tuple(Q(v) for v in values)


def fractions_of(solution: Optional[Solution]) -> Optional[Vector]:
    """A ``linalg`` solution, integer numerators over one denominator, as Fractions;
    None (an inconsistent system) stays None."""
    if solution is None:
        return None
    num, den = solution
    return tuple(Q(n, den) for n in num)


# -- elements by their coordinates ---------------------------------------------


def from_sparse(alg: ChevalleyAlgebra, coords: Mapping[int, Rational]) -> Element:
    """The element of ``alg`` with the given coordinates (ints or Fractions) on basis
    indices, over the lcm of their denominators."""
    if any(not 0 <= i < alg.dim for i in coords):
        raise ValueError("basis index out of range")
    den = lcm(*(x.denominator for x in coords.values() if x))
    return Element({i: x.numerator * (den // x.denominator) for i, x in coords.items() if x}, den)


def cartan_element(alg: ChevalleyAlgebra, coroot_coeffs: Sequence[Rational]) -> Element:
    """The Cartan element with these simple-coroot coordinates."""
    return from_sparse(alg, dict(enumerate(coroot_coeffs)))


def coordinate(e: Element, i: int) -> Rational:
    """Coordinate i of e: an int when the denominator is 1, else a Fraction."""
    n = e.num.get(i, 0)
    return n if e.den == 1 else Q(n, e.den)


def dense(e: Element, dim: int) -> Tuple[Rational, ...]:
    """All ``dim`` coordinates of e."""
    return tuple(coordinate(e, i) for i in range(dim))


def dense_num(e: Element, dim: int) -> List[int]:
    """All ``dim`` integer numerators of e over ``e.den``, for rank checks."""
    return [e.num.get(i, 0) for i in range(dim)]


def triple_parts(triple: Sl2Triple) -> Tuple[Element, Element, Element]:
    """(h, e, f): two triples are equal when these are."""
    return triple.h, triple.e, triple.f


# -- the quiver side by definition ---------------------------------------------


def quiver_alpha(dims: QuiverDims) -> Q:
    """alpha = sum_j j d_j / n, so zeta|_{V_j} = (j - alpha) Id."""
    return Q(dims.moment, dims.n)


def interval_toledo_rank(dims: QuiverDims, mult: Multiplicities) -> Q:
    """rank_T of an orbit by definition: tr(zeta h) summed over its strings, where a string
    [a, b] has zeta = k - alpha and h = 2k - a - b at vertex k; the shift alpha is kept."""
    n, shift = dims.n, dims.moment
    total = sum(c * sum((n * k - shift) * (2 * k - a - b) for k in range(a, b + 1)) for (a, b), c in mult.items())
    return Q(total, n)


def pointwise_maximality(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> bool:
    """Open-orbit membership test; only meaningful in the JM-regular case."""
    if not quiver_jm_regular(dims):
        raise ValueError("dimension vector is not JM-regular")
    return rank_tuple(dims, elem) == maximal_rank_tuple(dims)


def dims_for_labels(labels: Sequence[int]) -> QuiverDims:
    """Block sizes cut out by 0/1 simple-root labels of sl_n."""
    if any(x not in (0, 1) for x in labels) or not any(labels):
        raise ValueError("labels must be 0/1 and not all zero")
    blocks = []
    size = 1
    for x in labels:
        if x:
            blocks.append(size)
            size = 1
        else:
            size += 1
    blocks.append(size)
    return QuiverDims(tuple(blocks))


# -- the Jordan-string route to quiver JM-regularity --------------------------


def string_representative(dims: QuiverDims, mult: Multiplicities) -> QuiverElement:
    """Direct sum of strings: m_ij chains of 1-entries from V_i to V_j."""
    maps = tuple(
        RationalMatrix([0] * dims.dims[k] for _ in range(dims.dims[k + 1]))
        for k in range(dims.m - 1)
    )
    used = [0] * dims.m
    for (i, j), c in sorted(mult.items()):
        for _ in range(c):
            for k in range(i, j):
                maps[k][used[k + 1]][used[k]] = 1
                used[k] += 1
            used[j] += 1
    return maps


def interval_end_dimension(mult: Multiplicities) -> int:
    """dim End(M) of M = sum m_I I over interval modules: sum m_I m_J over the pairs with
    Hom(I, J) != 0, each such Hom one-dimensional.  With the arrows V_k -> V_{k+1}, the
    submodules of [a, b] are the [e, b] and its quotients the [a, e], so a map
    [a, b] -> [c, d] is nonzero iff c <= a <= d <= b."""
    return sum(x * y for (a, b), x in mult.items() for (c, d), y in mult.items() if c <= a <= d <= b)


def quiver_end_dimension(dims: QuiverDims, elem: QuiverElement) -> int:
    """dim End(M) of the representation elem, densely: the kernel dimension of
    (phi_k) -> (phi_{k+1} f_k - f_k phi_k) on the block tuples phi_k in gl(d_k)."""
    d = dims.dims
    offset = [sum(x * x for x in d[:k]) for k in range(dims.m + 1)]
    rows = []
    for k, f in enumerate(elem):
        for a in range(d[k + 1]):
            for c in range(d[k]):
                row = [0] * offset[-1]
                for b in range(d[k + 1]):  # (phi_{k+1} f_k)[a][c]
                    row[offset[k + 1] + a * d[k + 1] + b] += f[b][c]
                for b in range(d[k]):  # -(f_k phi_k)[a][c]
                    row[offset[k] + b * d[k] + c] -= f[a][b]
                rows.append(row)
    return offset[-1] - rank(RationalMatrix(rows, offset[-1]))


def canonical_open_element(dims: QuiverDims) -> QuiverElement:
    """Identity-block maps; realizes the maximal rank tuple."""
    return tuple(
        RationalMatrix([int(a == b) for b in range(dims.dims[j])] for a in range(dims.dims[j + 1]))
        for j in range(dims.m - 1)
    )


def _total_matrix(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> List[List[Q]]:
    n = dims.n
    total = [[Q(0)] * n for _ in range(n)]
    for j, f in enumerate(elem):
        r0 = dims.block_start(j + 1)
        c0 = dims.block_start(j)
        for a in range(f.rows):
            for b in range(f.cols):
                total[r0 + a][c0 + b] = f[a][b]
    return total


def jordan_strings(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> List[List[int]]:
    """Jordan strings of a basis-adapted element, as index chains.

    Requires every map entry in {0,1} with at most one 1 per row and column
    of the total matrix (the canonical representatives have this form).
    """
    _check_shapes(dims, elem)
    total = _total_matrix(dims, elem)
    n = dims.n
    succ = [None] * n
    hit_rows = set()
    for b in range(n):
        targets = [a for a in range(n) if total[a][b] != 0]
        if len(targets) > 1 or any(total[a][b] != 1 for a in targets):
            raise ValueError("element is not basis-adapted")
        if targets:
            a = targets[0]
            if a in hit_rows:
                raise ValueError("element is not basis-adapted")
            hit_rows.add(a)
            succ[b] = a
    starts = [b for b in range(n) if b not in hit_rows]
    strings = []
    for b in starts:
        chain = [b]
        while succ[chain[-1]] is not None:
            chain.append(succ[chain[-1]])
        strings.append(chain)
    return strings


def jordan_h(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> Tuple[Q, ...]:
    """Diagonal of h with [h, e] = 2e: on a length-s string, h(u_t) = -(s-1-2t) u_t."""
    diag = [Q(0)] * dims.n
    for chain in jordan_strings(dims, elem):
        s = len(chain)
        for t, idx in enumerate(chain):
            diag[idx] = Q(-(s - 1 - 2 * t))
    return tuple(diag)


def zeta_matrix(dims: QuiverDims) -> Tuple[Q, ...]:
    """Diagonal of zeta: (j - alpha) on the block V_j."""
    return tuple(Q(j) - quiver_alpha(dims) for j, d in enumerate(dims.dims) for _ in range(d))


def jordan_jm_regular(dims: QuiverDims) -> bool:
    """True when the canonical element's h, read off its Jordan strings, equals 2*zeta."""
    h = jordan_h(dims, canonical_open_element(dims))
    return all(x == 2 * z for x, z in zip(h, zeta_matrix(dims)))


def orbit_toledo_rank(dims: QuiverDims, rt: RankTuple) -> Q:
    """rank_T of an orbit from its rank tuple alone.

    The string multiplicities are m_ij = r_ij - r_{i-1,j} - r_{i,j+1} +
    r_{i-1,j+1} (with r_ii = d_i and out-of-range ranks 0).
    """
    r = dict(zip(rank_pairs(dims), rt))

    def rr(i: int, j: int) -> int:
        if i < 0 or j >= dims.m:
            return 0
        if i == j:
            return dims.dims[i]
        return r[(i, j)]

    mult = {
        (i, j): rr(i, j) - rr(i - 1, j) - rr(i, j + 1) + rr(i - 1, j + 1)
        for i in range(dims.m)
        for j in range(i, dims.m)
    }
    return interval_toledo_rank(dims, mult)


# -- Fraction oracle for the Chevalley structure constants -------------------


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Root) -> Root:
    return tuple(-x for x in a)


def _is_positive(a: Root) -> bool:
    return sum(a) > 0


class FractionConstants:
    """N_{alpha,beta} in Fraction arithmetic with Fraction root norms.

    The pairs of each positive root gamma are found by a scan over every
    positive root a with gamma - a a later positive root; the extraspecial
    pair is the one with the smallest first member, with constant +(p+1).
    The other constants follow from the Jacobi identity on (e_{-a1}, e_a, e_b).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._root_set = set(rs.roots)
        self._pos_order = {a: i for i, a in enumerate(rs.positive_roots)}
        self._table: Dict[Tuple[Root, Root], Q] = {}
        for gamma in rs.positive_roots:
            if sum(gamma) < 2:
                continue
            pairs = [
                (a, _sub(gamma, a))
                for a in rs.positive_roots
                if self._pos_order[a] < self._pos_order.get(_sub(gamma, a), -1)
            ]
            pairs.sort(key=lambda ab: self._pos_order[ab[0]])
            a1, b1 = pairs[0]
            self._table[(a1, b1)] = Q(self._string_down(a1, b1) + 1)
            n_neg = rs.norm(b1) / rs.norm(gamma) * self._table[(a1, b1)]
            for a, b in pairs[1:]:
                t1 = self.value(b, _neg(a1)) * self.value(a, _sub(b, a1))
                t2 = self.value(_neg(a1), a) * self.value(b, _sub(a, a1))
                self._table[(a, b)] = -(t1 + t2) / n_neg

    def _string_down(self, alpha: Root, beta: Root) -> int:
        p, cur = 0, _sub(beta, alpha)
        while cur in self._root_set:
            p, cur = p + 1, _sub(cur, alpha)
        return p

    def value(self, a: Root, b: Root) -> Q:
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
        if _is_positive(s):
            return self.rs.norm(s) / self.rs.norm(a) * (-self.value(_neg(b), s))
        return self.value(_neg(b), _neg(a))


def fraction_coroot(rs: RootSystem, alpha: Root) -> Tuple[Q, ...]:
    """alpha^vee = sum_i a_i |alpha_i|^2 / |alpha|^2 alpha_i^vee, in Fractions of form values."""
    simple = [tuple(int(i == j) for i in range(rs.rank)) for j in range(rs.rank)]
    norm = rs.form_value(alpha, alpha)
    return tuple(a * rs.form_value(s, s) / norm for s, a in zip(simple, alpha))


# -- the Frenkel-Kac cocycle: a second route to the simply-laced tables -------


def cocycle_signs(
    rs: RootSystem, rows: Optional[List[Dict[int, Terms]]] = None, bonds: Optional[Sequence[Tuple[int, int]]] = None
) -> Optional[Dict[Root, int]]:
    """Signs s_alpha = +-1 with N_{alpha,beta} = eps(alpha, beta) s_alpha s_beta s_{alpha+beta} on every
    ordered pair of roots with a root sum, and s_alpha s_{-alpha} = eps(alpha, -alpha); None when
    there are none.  For a simply-laced type they exist iff the bracket ``rows`` (default: those
    of ``StructureConstants(rs)``) are the Frenkel-Kac table [E_a, E_b] = eps(a, b) E_{a+b} up to
    the basis change e_a = s_a E_a (Frenkel-Kac, Invent. Math. 62 (1980); Kac,
    *Infinite-dimensional Lie algebras*, 7.8).

    eps is bimultiplicative on the root lattice with eps(alpha_i, alpha_j) = -1 iff i = j, or
    i < j and (i, j) is in ``bonds`` (default: the joined nodes), so it is (-1)^(a M b) over F_2
    with M upper triangular.  With s_alpha = (-1)^x_alpha each condition is one equation over F_2,
    an int bit mask with its right-hand side in bit 0 and x_alpha in bit 1 + alpha's position.
    Elimination keeps one row per leading bit; free unknowns are 0.
    """
    r, roots = rs.rank, rs.roots
    position = {alpha: p for p, alpha in enumerate(roots)}
    if rows is None:
        rows = StructureConstants(rs).rows
    if bonds is None:
        bonds = [(i, j) for i in range(r) for j in range(i + 1, r) if rs.cartan[i][j]]
    upper = [1 << i for i in range(r)]  # row i of M
    for i, j in bonds:
        upper[i] |= 1 << j
    odd = [sum(1 << k for k, a in enumerate(alpha) if a % 2) for alpha in roots]  # alpha mod 2
    m_odd = [sum(1 << i for i in range(r) if bin(upper[i] & b).count("1") % 2) for b in odd]  # M beta mod 2

    def eps_bit(p: int, q: int) -> int:
        return bin(odd[p] & m_odd[q]).count("1") % 2

    equations = []
    for p, alpha in enumerate(roots):
        minus = position[tuple(-a for a in alpha)]
        equations.append((1 << 1 + p) ^ (1 << 1 + minus) ^ eps_bit(p, minus))
        for col, ((k, c), *_) in rows[r + p].items():
            if col >= r and k >= r:  # [e_alpha, e_beta] = c e_{alpha+beta}
                q = col - r
                equations.append((1 << 1 + p) ^ (1 << 1 + q) ^ (1 << 1 + k - r) ^ (c < 0) ^ eps_bit(p, q))
    pivots: Dict[int, int] = {}
    for eq in equations:
        while eq > 1:
            lead = eq.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = eq
                break
            eq ^= pivots[lead]
        else:
            if eq:  # 0 = 1
                return None
    x = 0
    for lead in sorted(pivots):  # every other unknown of a row is lower: solved, or free
        row = pivots[lead]
        if (bin(row & x).count("1") + row) % 2:
            x |= 1 << lead
    return {alpha: -1 if x >> 1 + p & 1 else 1 for p, alpha in enumerate(roots)}


# -- the trace-of-ad Killing form route to chi_T ------------------------------


def chi_t_killing(pair: VinbergPair, x: Element) -> Q:
    """chi_T evaluated with the raw Killing form and its own dual norm."""
    alg = pair.algebra
    return alg.killing_form(pair.zeta, x) * killing_dual_norm(alg, pair.gamma)


# -- the Toledo rank of any degree-1 element ----------------------------------


def toledo_rank(pair: VinbergPair, e: Element) -> Q:
    """rank_T(e) = chi_T(h)/2 for the triple through any nonzero degree-1 e."""
    return pair.chi_t(jm_triple(pair, e).h) / 2


# -- the Toledo gap in closed form (ROADMAP item 38) ------------------------------


def zero_one_gradings(rs: RootSystem) -> Iterator[RootGrading]:
    """The root-level grading of every nonzero {0,1}-labelling of the simple roots."""
    return (root_grading(rs, labels) for labels in product((0, 1), repeat=rs.rank) if any(labels))


def zeta_prime_norm(pair: VinbergPair, h: Element, norm: Q) -> Q:
    """norm B(zeta', zeta') with zeta' = zeta - h/2 and zeta the pair's grading element: the
    Toledo gap, zeta-pairing - rank_T, when h is the pair's triple's and norm is B*(gamma, gamma)."""
    zeta_prime = pair.zeta - Q(1, 2) * h
    return norm * normalized_form(pair.grading.rs, zeta_prime, zeta_prime)


# -- even nilpotent orbits from partitions (ROADMAP item 38) -------------------------------
# Collingwood-McGovern, *Nilpotent Orbits in Semisimple Lie Algebras* (1993), ch. 5: the
# nilpotent orbits of a classical algebra on C^N are the partitions of N under the family's
# multiplicity rule, and an orbit's weighted Dynkin diagram is read off the sorted eigenvalues
# of h, k - 1, k - 3, ..., 1 - k on each part k.


def partitions(n: int, largest: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """The partitions of n, parts non-increasing and at most ``largest``."""
    if n == 0:
        yield ()
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def multiplicity_rule(family: str, parts: Tuple[int, ...]) -> bool:
    """In so_N (B, D) each even part, in sp_N (C) each odd part, has even multiplicity; A has no rule."""
    parity = {"B": 0, "D": 0, "C": 1}.get(family)
    return parity is None or all(parts.count(k) % 2 == 0 for k in set(parts) if k % 2 == parity)


def very_even(family: str, parts: Tuple[int, ...]) -> bool:
    """A D partition with every part even: two orbits, swapped by the diagram symmetry alpha_{r-1} <-> alpha_r."""
    return family == "D" and all(k % 2 == 0 for k in parts)


def even_diagrams(t: LieType) -> set:
    """The nonzero even weighted Dynkin diagrams of a type in A-D, as Bourbaki labels: with
    h_1 >= h_2 >= ... the sorted eigenvalues of h, alpha_i = h_i - h_{i+1}, and the last label
    is h_r in B, 2 h_r in C and h_{r-1} + h_r in D (h_{r-1} - h_r on a very even partition's
    second orbit)."""
    r, family = t.rank, t.family
    size = {"A": r + 1, "B": 2 * r + 1, "C": 2 * r, "D": 2 * r}[family]
    found = set()
    for parts in partitions(size):
        if not multiplicity_rule(family, parts):
            continue
        h = sorted((k - 1 - 2 * j for k in parts for j in range(k)), reverse=True)
        steps = [a - b for a, b in zip(h, h[1:])]
        if family == "A":
            diagrams = [steps]
        elif family == "B":
            diagrams = [steps[: r - 1] + [h[r - 1]]]
        elif family == "C":
            diagrams = [steps[: r - 1] + [2 * h[r - 1]]]
        else:
            diagrams = [steps[: r - 1] + [h[r - 2] + h[r - 1]]]
            if very_even(family, parts):
                diagrams.append(steps[: r - 2] + [h[r - 2] + h[r - 1], steps[r - 2]])
        found.update(tuple(d) for d in diagrams if any(d) and all(x % 2 == 0 for x in d))
    return found


# -- the block-solve route to JM-regularity --------------------------------------


def block_jm_regular(pair: VinbergPair, e: Element) -> Tuple[bool, Optional[Element]]:
    """(regular, f) from the block solve [e, f] = 2 zeta alone, f in g_{-1}, with
    e an open-orbit element of the pair and f checked on that one relation."""
    alg = pair.algebra
    neg = pair.piece(-1)
    target = 2 * pair.zeta
    g0 = pair.piece(0)
    # solve for f target.den / e.den in the integer block
    c = solve(alg.ad_block(e, neg, g0), [target.num.get(k, 0) for k in g0])
    if c is None:
        return False, None
    num, den = c
    f = Element({k: n * e.den for k, n in zip(neg, num)}, den * target.den)
    if alg.bracket(e, f) != target:
        return False, None
    return True, f


# -- closed-form quaternionic bounds --------------------------------------------


def quaternionic_bounds(genus: int, lam: Q, rank_plus: Q, rank_minus: Q, kappa: int) -> Tuple[Q, Q]:
    """(-tau_L, tau_U) for the five-piece grading, with pairing 2*kappa, written out."""
    g2 = 2 * genus - 2
    tau_l = rank_plus * g2 + lam * (2 * kappa - rank_plus)
    tau_u = kappa * rank_minus * g2 + lam * (2 * kappa - kappa * rank_minus)
    return -tau_l, tau_u


# -- Form-value routes to the affine Cartan matrix and the quaternionic labels --


def form_affine_cartan_matrix(rs: RootSystem) -> List[List[int]]:
    """Cartan matrix on nodes 0..r with alpha_0 = -highest root, from Fraction form values."""
    r = rs.rank
    alpha0 = tuple(-x for x in rs.highest_root)
    nodes = [alpha0] + [tuple(int(i == j) for i in range(r)) for j in range(r)]
    # <a, b^vee> = 2 B*(a,b) / B*(b,b)
    return [[int(2 * rs.form_value(a, b) / rs.norm(b)) for b in nodes] for a in nodes]


def form_quaternionic_labels(rs: RootSystem) -> Tuple[int, ...]:
    """Degree labels <alpha_k, beta^vee> = 2 B*(alpha_k, beta) / B*(beta, beta), beta the highest root."""
    beta = rs.highest_root
    simple = [tuple(int(i == k) for i in range(rs.rank)) for k in range(rs.rank)]
    return tuple(int(2 * rs.form_value(a, beta) / rs.norm(beta)) for a in simple)


# -- diagram symmetries by full enumeration ----------------------------------


def affine_automorphisms(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """All permutations of the affine nodes preserving the affine Cartan matrix, in the
    backtracking order of ``grading._affine_automorphisms``, enumerated to the end."""
    affine = affine_cartan_matrix(rs)
    n = len(affine)
    results: List[Tuple[int, ...]] = []
    perm: List[int] = []
    used = [False] * n

    def compatible(candidate: int) -> bool:
        k = len(perm)
        if affine[candidate][candidate] != affine[k][k]:
            return False
        for i, pi in enumerate(perm):
            if affine[pi][candidate] != affine[i][k]:
                return False
            if affine[candidate][pi] != affine[k][i]:
                return False
        return True

    def backtrack():
        if len(perm) == n:
            results.append(tuple(perm))
            return
        for c in range(n):
            if not used[c] and compatible(c):
                used[c] = True
                perm.append(c)
                backtrack()
                perm.pop()
                used[c] = False

    backtrack()
    return tuple(results)


def enumerated_lift(
    automorphisms: Sequence[Tuple[int, ...]], marks: Sequence[int], labels: Sequence[int]
) -> Tuple[str, Optional[Tuple[int, ...]]]:
    """The lift verdict (mode, witness) read off the full list of ``affine_automorphisms``:
    node 0 positive, else the first symmetry moving a positive mark-1 label onto node 0."""
    if labels[0] > 0:
        return "directly", None
    for sigma in automorphisms:
        source = sigma.index(0)
        if labels[source] > 0 and marks[source] == 1:
            q = [0] * len(labels)
            for i, target in enumerate(sigma):
                q[target] = labels[i]
            return "after automorphism", tuple(q)
    return "none", None


# -- Bareiss elimination with a Fraction back-substitution -------------------


def _bareiss_echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free row echelon form and the pivot columns.

    Every lower row is rebuilt at every pivot step; all divisions are exact
    (Bareiss one-step division by the previous pivot).  The int rows are read as
    they are: the list is reordered and refilled, and no row list is changed.
    """
    if not rows:
        return [], []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
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


def _back_substitute(
    echelon: List[List[int]], pivots: List[int], rhs: List[Q], free_values: dict
) -> List[Q]:
    """Solve the echelon system in Fractions with the given values on free columns."""
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


def bareiss_rank(m: RationalMatrix) -> int:
    return len(_bareiss_echelon(list(m))[1])


def bareiss_kernel_basis(m: RationalMatrix) -> List[Vector]:
    echelon, pivots = _bareiss_echelon(list(m))
    free_cols = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free_cols:
        free_values = {c: Q(int(c == f)) for c in free_cols}
        basis.append(tuple(_back_substitute(echelon, pivots, [Q(0)] * len(pivots), free_values)))
    return basis


def bareiss_solve(m: RationalMatrix, b: Sequence) -> Optional[Vector]:
    echelon, pivots = _bareiss_echelon([[*row, x] for row, x in zip(m, b)])
    if m.cols in pivots:
        return None
    free_values = {c: Q(0) for c in range(m.cols) if c not in pivots}
    rhs = [Q(echelon[r][m.cols]) for r in range(len(pivots))]
    trimmed = [row[: m.cols] for row in echelon]
    return tuple(_back_substitute(trimmed, pivots, rhs, free_values))


# -- dense Fraction bracket and form, projections, basis vectors, root counts --


def basis_bracket(alg: ChevalleyAlgebra, i: int, j: int) -> Dict[int, int]:
    """[b_i, b_j] as basis index -> coefficient, read straight off the bracket table."""
    return dict(alg._rows[i].get(j, ()))


def fraction_bracket(alg: ChevalleyAlgebra, a: Sequence, b: Sequence) -> Vector:
    """[a, b] accumulated coordinate by coordinate in Fractions."""
    if len(a) != alg.dim or len(b) != alg.dim:
        raise ValueError("element dimension mismatch")
    b_support = [(j, Q(bj)) for j, bj in enumerate(b) if bj]
    out: Dict[int, Q] = {}
    for i, ai in enumerate(a):
        if not ai:
            continue
        ai = Q(ai)
        for j, bj in b_support:
            for k, c in basis_bracket(alg, i, j).items():
                out[k] = out.get(k, Q(0)) + ai * bj * c
    return tuple(out.get(i, Q(0)) for i in range(alg.dim))


def is_normalised(x: Element) -> bool:
    """Integer numerators, none zero, over a positive denominator, in lowest terms."""
    return (
        type(x.den) is int and x.den > 0
        and all(type(n) is int and n for n in x.num.values())
        and gcd(x.den, *x.num.values()) == 1
    )


def fraction_normalized_form(alg: ChevalleyAlgebra, a: Sequence, b: Sequence) -> Q:
    """The highest-root-normalised form on dense coordinates, summed in Fractions of form values.

    B(h_i, h_j) = 4 (alpha_i, alpha_j) / (|alpha_i|^2 |alpha_j|^2) on simple
    coroots, B(e_alpha, e_{-alpha}) = 2/|alpha|^2, and every other pair of basis
    vectors is orthogonal.
    """
    rs = alg.rs
    r = alg.rank
    simple = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    total = Q(0)
    for i in range(r):
        for j in range(r):
            if a[i] and b[j]:
                s, t = simple[i], simple[j]
                total += 4 * Q(a[i]) * b[j] * rs.form_value(s, t) / (rs.form_value(s, s) * rs.form_value(t, t))
    for i in range(r, alg.dim):
        if a[i]:
            alpha = rs.roots[i - r]
            y = b[basis_index(alg.rs, tuple(-x for x in alpha))]
            if y:
                total += 2 * Q(a[i]) * y / rs.form_value(alpha, alpha)
    return total


def project(zg: RootGrading, v: Element, j: int) -> Element:
    """The coordinates of v in the degree-j piece; zero elsewhere."""
    keep = set(zg.piece(j))
    return Element({i: n for i, n in v.num.items() if i in keep}, v.den)


def root_vector(alg: ChevalleyAlgebra, alpha: Root) -> Element:
    """The basis vector e_alpha."""
    return from_sparse(alg, {basis_index(alg.rs, alpha): Q(1)})


def basis_root(rs: RootSystem, index: int) -> Root:
    """The root of basis vector ``index`` (h_1..h_r come first)."""
    return rs.roots[index - rs.rank]


# The maps a RootSystem builds on first read; a root-level grading or kac job builds none.
PER_ROOT_MAPS = ("basis_codes", "basis_roots", "basis_index", "codes", "lengths")


def basis_index(rs: RootSystem, alpha: Root) -> int:
    """The basis index of e_alpha, the inverse of ``basis_root``: its position in ``rs.roots``
    after h_1..h_r."""
    return rs.rank + rs.roots.index(alpha)


def coroot(rs: RootSystem, alpha: Root) -> Element:
    """h_alpha = alpha^vee in the basis: its integer simple-coroot coordinates."""
    return Element(dict(enumerate(rs.coroot(alpha))))


ROOT_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
    "F": lambda r: 48,
    "G": lambda r: 12,
}


def classical_root_count(t: LieType) -> int:
    return ROOT_COUNTS[t.family](t.rank)


# -- dense reflection closure -------------------------------------------------


def dense_reflection_closure(cartan: List[List[int]], r: int) -> Tuple[List[Root], Dict[Root, int]]:
    """All roots, sorted, and the simple root each reflection chain starts from.

    The pairing <alpha, alpha_j^vee> is the full sum over i for every root and j.
    """
    simple = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    origin = {alpha: j for j, alpha in enumerate(simple)}
    frontier = list(simple)
    while frontier:
        new = []
        for alpha in frontier:
            for j in range(r):
                p = sum(alpha[i] * cartan[i][j] for i in range(r))
                if p == 0:
                    continue
                refl = alpha[:j] + (alpha[j] - p,) + alpha[j + 1 :]
                if refl not in origin:
                    origin[refl] = origin[alpha]
                    new.append(refl)
        frontier = new
    return sorted(origin), origin


# -- Z/mZ collapse of a Z-grading, Cayley-side oracles -------------------------


class CollapsedGrading(NamedTuple):
    """A Z-grading's degrees mod m: residue -> basis indices."""

    m: int
    pieces: Dict[int, Tuple[int, ...]]

    def dims(self) -> Dict[int, int]:
        return {j: len(idx) for j, idx in sorted(self.pieces.items())}


def bar_pieces(zg: RootGrading) -> CollapsedGrading:
    """Collapse a Z-grading of depth m to its Z/mZ-grading.

    The residue-j piece is g_j + g_{j-m} for 1 <= j <= m-1, and g_0 stays.
    """
    m = zg.depth
    pieces: Dict[int, List[int]] = {}
    for j, idx in zg.pieces.items():
        pieces.setdefault(j % m, []).extend(idx)
    return CollapsedGrading(m=m, pieces={j: tuple(sorted(idx)) for j, idx in pieces.items()})


def iso_character_all_pass(cd: CayleyData) -> bool:
    """Transport map invertible, chi_T(c) = 0 and B(c, h) = 0 for every c in the centralizer."""
    low = cd.pair.piece(1 - cd.pair.grading.depth)
    return rank([dense_num(v, cd.algebra.dim) for v in cd.v_basis]) == len(low) and cd.chi_vanishes and all(
        normalized_form(cd.algebra.rs, c, cd.triple.h) == 0 for c in cd.c_basis
    )


def verify_intertwining(cd: CayleyData) -> bool:
    """ad(e)^{m-1}([c, x]) = [c, ad(e)^{m-1}(x)] for all c and lowest-piece x."""
    alg = cd.algebra
    zg = cd.pair.grading
    low = [from_sparse(alg, {i: Q(1)}) for i in zg.piece(1 - zg.depth)]

    def transport(x):
        v = x
        for _ in range(zg.depth - 1):
            v = alg.bracket(cd.triple.e, v)
        return v

    for c in cd.c_basis:
        for x in low:
            if transport(alg.bracket(c, x)) != alg.bracket(c, transport(x)):
                return False
    return True


def per_pair_projection_test(cd: CayleyData) -> Optional[BracketProjection]:
    """The theta-pair test by a fresh solve per pair: each [v, v'] in turn is split over
    c + V + orthogonal complement in g_0 by the Gram system of c + V, and the first split
    with a nonzero V-part or remainder is returned; None when every bracket lies in c.
    ``cayley.bracket_projection_test`` decides membership in c by [e, [v, v']] = 0 and
    solves only for the witness.  The Gram must be nonsingular (``cayley_pair``'s certificate)."""
    alg = cd.algebra
    basis = cd.c_basis + cd.v_basis
    gram = RationalMatrix([[form_numerator(alg.rs, a, b) for b in basis] for a in basis])
    numerators = [Element(b.num) for b in basis]
    for i in range(cd.dim_v):
        for j in range(i + 1, cd.dim_v):
            x = alg.bracket(cd.v_basis[i], cd.v_basis[j])
            num, den = solve(gram, [form_numerator(alg.rs, u, x) for u in basis])
            c_sum = sum(map(mul, num[: cd.dim_c], numerators[: cd.dim_c]), Element())
            v_sum = sum(map(mul, num[cd.dim_c :], numerators[cd.dim_c :]), Element())
            c_part, v_part = Element(c_sum.num, den * x.den), Element(v_sum.num, den * x.den)
            if v_part or x - c_part - v_part:
                return BracketProjection(i, j, c_part, v_part, x - c_part - v_part)
    return None
