"""Chevalley-basis realization of a simple Lie algebra.

Basis: the simple coroots h_1..h_r, then one root vector e_alpha per root, in
the root-system enumeration order.  Structure constants N_{alpha,beta} are
fixed by the extraspecial-pair convention: positive roots are ordered by
(height, coordinates), the extraspecial pair of a sum gamma is the one with
smallest first member, and its constant is +(p+1) where p is the length of the
descending alpha-string through beta.  The other positive-pair constants follow
from the Jacobi identity in height order, and ``StructureConstants._set`` writes
each into the bracket table once, with the eleven constants its sign rules fix;
the rows are the constants' only record.  ``StructureConstants``, the table's one
writer, adds the Cartan action from the root pass's pairing vectors and the
coroots [e_alpha, e_-alpha] = h_alpha, so the table's layout lives here.

Roots enter as their integer codes (``RootSystem.codes``), so the constants,
the table and its certificate add, negate and compare ints, not root tuples.
Constants, norm ratios (of the root system's length classes) and coroots are
Python ints by Chevalley's theorem; a division with a remainder raises
AssertionError.  The bracket table stores [b_i, b_j] for both orientations of
every pair with a nonzero bracket, as (target, coefficient) pairs of Python
ints; each constant is checked to be an int as it goes in.

An element of g is an ``Element``: a map from basis index to a nonzero
integer numerator over one positive denominator, in lowest terms, so equal
elements have equal fields.  ``bracket`` walks the two supports and sums in
Python ints over the product of the denominators; linear systems in ad_x
restricted to graded pieces read the table directly through
``ChevalleyAlgebra.ad_block``, which walks x's support only and returns the
int rows of ``x.den * x``'s block, a ``linalg.RationalMatrix``; callers scale.
This follows the sparse structure-constant computations of de Graaf, *Lie
Algebras: Theory and Algorithms* (2000).  ``bracket`` is the oracle for
``ad_block``; the Killing Gram matrix, a test oracle, has int rows too.

The build certifies the table before returning, at every dimension: |N| = p+1 on
every special pair of the rows; the Jacobi identity, as ad_g is a derivation for each
generator g in {e_1, ..., e_r, f_theta} and iterated brackets of those generators reach
every basis vector (``ChevalleyAlgebra._verify_jacobi``); then the Cartan action, row h_i
against column i of the Cartan matrix, not the writer's pass (``_verify_cartan_action``),
here once per algebra, so a grading on the algebra reads nothing of its table.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .linalg import RationalMatrix, kernel_basis
from .rootsystem import LieType, Root, RootSystem, build_root_system, exact_div

Rational = Union[int, Q]
# [b_i, b_j] as (k, c) pairs: sum of c * b_k, integer c, nonzero terms only
Terms = Tuple[Tuple[int, int], ...]


class Element:
    """An element of g: basis index -> nonzero integer numerator, over one
    positive denominator, kept in lowest terms, so ``==`` compares structure.

    No method changes ``num`` or ``den`` after construction.  Coordinates read
    back as ints when the denominator is 1 and as Fractions otherwise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Optional[Mapping[int, int]] = None, den: int = 1):
        """From integer numerators over a positive integer denominator."""
        num = {i: n for i, n in num.items() if n} if num else {}
        g = gcd(den, *num.values())
        if g > 1:
            num, den = {i: n // g for i, n in num.items()}, den // g
        self.num, self.den = num, den

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __repr__(self) -> str:
        return f"Element({self.num}, {self.den})"

    __iter__ = None  # indexing reads one coordinate; there is no end to iterate to

    def __getitem__(self, i: int) -> Rational:
        n = self.num.get(i, 0)
        return n if self.den == 1 else Q(n, self.den)

    def dense(self, dim: int) -> Tuple[Rational, ...]:
        """All ``dim`` coordinates, for reports."""
        return tuple(self[i] for i in range(dim))

    def dense_num(self, dim: int) -> List[int]:
        """``dense`` times ``den``: all ``dim`` integer numerators, for rank checks."""
        return [self.num.get(i, 0) for i in range(dim)]

    def __mul__(self, c: Rational) -> "Element":
        if not isinstance(c, (int, Q)):
            return NotImplemented
        p = c.numerator
        return Element({i: n * p for i, n in self.num.items()}, self.den * c.denominator)

    __rmul__ = __mul__

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        acc = {i: n * a for i, n in self.num.items()}
        for i, n in other.num.items():
            acc[i] = acc.get(i, 0) + n * b
        return Element(acc, den)

    def __sub__(self, other: "Element") -> "Element":
        return self + -1 * other if isinstance(other, Element) else NotImplemented

    @classmethod
    def of(cls, coords: Mapping[int, Rational]) -> "Element":
        """The element with the given coordinates (ints or Fractions), over the lcm of
        their denominators."""
        den = lcm(*(x.denominator for x in coords.values() if x))
        return cls({i: x.numerator * (den // x.denominator) for i, x in coords.items() if x}, den)


class StructureConstants:
    """The bracket table ``rows``, rows[i][j] = [b_i, b_j] on basis indices (absent when zero),
    the one record of each N_{alpha,beta}; ``_value`` reads one back on root codes."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._ell = rs.lengths  # root code -> length class, and the set of root codes
        self.index = {c: i for i, c in enumerate(rs.codes.values(), rs.rank)}  # root code -> basis index
        self.rows: List[Dict[int, Terms]] = [{} for _ in range(rs.dim_algebra)]
        self._shared: Dict[Terms, Tuple[Terms, Terms]] = {}  # equal brackets share one tuple
        self._fill()
        self._fill_cartan()
        self._shared.clear()  # the table is complete

    def _string_down(self, a: int, b: int) -> int:
        """p = max k with b - k*a a root, on codes."""
        p, cur = 0, b - a
        while cur in self._ell:
            p, cur = p + 1, cur - a
        return p

    def _fill(self):
        value = self._value
        pos = [self.rs.codes[a] for a in self.rs.positive_roots]
        # Pairs a + b = gamma, a before b, come in the order of a: extraspecial first.
        pairs: Dict[int, List[Tuple[int, int]]] = {}
        pos_set = set(pos)
        for i, a in enumerate(pos):
            for gamma in pos_set.intersection(map(a.__add__, pos[i + 1 :])):
                pairs.setdefault(gamma, []).append((a, gamma - a))
        # In height order, every constant read below sums to a lower root: it is written.
        for gamma in pos[self.rs.rank :]:  # past the simple roots
            if gamma not in pairs:
                raise AssertionError(f"no special pair for {self._root(gamma)}")
            (a1, b1), *rest = pairs[gamma]
            self._set(a1, b1, self._string_down(a1, b1) + 1)
            n_neg = value(-a1, gamma)  # written with the extraspecial pair
            for a, b in rest:
                # Jacobi on (e_{-a1}, e_a, e_b), coefficient of e_{b1}
                t1 = value(b, -a1) * value(a, b - a1)
                t2 = value(-a1, a) * value(b, a - a1)
                self._set(a, b, exact_div(-(t1 + t2), n_neg))

    def _fill_cartan(self):
        """Write [h_i, e_alpha] = <alpha, alpha_i^vee> e_alpha in root order, from the root pass's
        pairing vectors (negated for a negative root), and [e_alpha, e_-alpha] = h_alpha."""
        rs, index, put = self.rs, self.index, self._put
        pos = [pairing for _, _, pairing in rs.root_data]
        for col, (sign, pairing) in enumerate([(-1, p) for p in reversed(pos)] + [(1, p) for p in pos], rs.rank):
            for i, c in enumerate(pairing):
                if c:
                    put(i, col, ((col, sign * c),))
        for alpha in rs.positive_roots:
            coroot = tuple((k, c) for k, c in enumerate(rs.coroots[alpha]) if c)
            put(index[rs.codes[alpha]], index[-rs.codes[alpha]], coroot)

    def _set(self, a: int, b: int, n: int):
        """Write N_{a,b} = n of a positive pair and the eleven constants it fixes (Carter
        1972, 4.1): N_{x,y} / |z|^2 is one value on the rotations (x, y, z) of the
        zero-sum triple (a, b, -a-b), N_{y,x} = -N_{x,y} and N_{-x,-y} = -N_{x,y}."""
        ell, index, put = self._ell, self.index, self._put
        c = -a - b
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            n_xy = exact_div(n * ell[z], ell[c])
            put(index[x], index[y], ((index[-z], n_xy),))
            put(index[-x], index[-y], ((index[z], -n_xy),))

    def _put(self, i: int, j: int, terms: Terms):
        """Store [b_i, b_j] = sum c b_k and [b_j, b_i] = -sum c b_k."""
        for k, c in terms:
            if type(c) is not int:
                raise AssertionError(f"structure constant {c} of [{i},{j}] is not an integer")
        shared, rows = self._shared, self.rows
        pair = shared.get(terms)
        if pair is None:
            neg = tuple((k, -c) for k, c in terms)
            pair = shared[terms] = (terms, neg)
            shared[neg] = (neg, terms)
        rows[i][j], rows[j][i] = pair

    def _value(self, a: int, b: int) -> int:
        """N_{a,b} on root codes, read from the rows; zero when a+b is not a root."""
        ell = self._ell
        if a not in ell or b not in ell or a + b not in ell:
            return 0
        terms = self.rows[self.index[a]].get(self.index[b])
        if terms is None:
            raise AssertionError(f"N({self._root(a)},{self._root(b)}) is read before it is written")
        return terms[0][1]

    def _root(self, code: int) -> Root:
        return next(a for a, c in self.rs.codes.items() if c == code)

    def verify_string_lengths(self):
        """|N_{alpha,beta}| = p+1 on each entry [e_alpha, e_beta] = N e_{alpha+beta} of the rows with
        0 < alpha before beta in basis order: once per positive special pair (p is symmetric)."""
        code = dict(zip(self.index.values(), self.index))  # basis index -> root code
        for y, a in code.items():
            for z, terms in self.rows[y].items() if a > 0 else ():
                if z > y:
                    n, p = terms[0][1], self._string_down(a, code[z])
                    if abs(n) != p + 1:
                        raise AssertionError(f"bad constant N({self._root(a)},{self._root(code[z])}) = {n}, p = {p}")


class ChevalleyAlgebra:
    """Simple Lie algebra with exact rational structure constants.

    Elements are ``Element``s on the basis indices 0..dim-1 of
    (h_1..h_r, e_alpha for alpha in root order).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        self.dim = rs.dim_algebra
        self.root_index = {a: self.rank + i for i, a in enumerate(rs.roots)}
        self.constants = StructureConstants(rs)
        # _rows[i][j] = [b_i, b_j]; absent when the bracket is zero
        self._rows = self.constants.rows
        self._killing_gram: Optional[RationalMatrix] = None
        self.constants.verify_string_lengths()
        self._verify_jacobi()
        self._verify_cartan_action()

    # -- basis bookkeeping ------------------------------------------------

    def basis_root(self, index: int) -> Optional[Root]:
        """Root of basis vector ``index``, or None for a Cartan generator."""
        if index < self.rank:
            return None
        return self.rs.roots[index - self.rank]

    def from_sparse(self, coords: Mapping[int, Rational]) -> Element:
        """``Element.of`` the coordinates, whose indices must be basis indices."""
        if any(not 0 <= i < self.dim for i in coords):
            raise ValueError("basis index out of range")
        return Element.of(coords)

    def cartan_element(self, coroot_coeffs: Sequence[Rational]) -> Element:
        return self.from_sparse(dict(enumerate(coroot_coeffs)))

    def coroot(self, alpha: Root) -> Element:
        """h_alpha = alpha^vee expressed in the basis."""
        return self.cartan_element(self.rs.coroots[alpha])

    # -- bracket ----------------------------------------------------------

    def bracket(self, a: Element, b: Element) -> Element:
        """[a, b], summed in Python ints over the product of the denominators."""
        acc: Dict[int, int] = {}
        b_support = b.num.items()
        for i, ai in a.num.items():
            row = self._rows[i]
            for j, bj in b_support:
                terms = row.get(j)
                if terms:
                    x = ai * bj
                    for k, c in terms:
                        acc[k] = acc.get(k, 0) + x * c
        return Element(acc, a.den * b.den)

    def ad_block(
        self, x: Element, domain: Sequence[int], codomain: Sequence[int]
    ) -> RationalMatrix:
        """Integer matrix of b -> [x.den * x, b] from span(domain) to the codomain
        coordinates: row r, column c is the coefficient of b_{codomain[r]} in
        [x.den * x, b_{domain[c]}], read from the table rows of x's support."""
        support = x.num.items()
        row_of = {k: r for r, k in enumerate(codomain)}
        out = RationalMatrix(([0] * len(domain) for _ in codomain), len(domain))
        for col, d in enumerate(domain):
            for i, xi in support:
                for k, c in self._rows[i].get(d, ()):
                    r = row_of.get(k)
                    if r is not None:
                        out[r][col] += xi * c
        return out

    # -- invariant forms --------------------------------------------------

    @cached_property
    def form_table(self) -> List[Terms]:
        """Rows of the form B with B*(highest root, highest root) = 2, in Python ints:
        rows[i] lists (j, B(b_i, b_j)) over the j with B(b_i, b_j) != 0.

        With ell the root length classes and L that of the long roots,
        B(h_i, h_j) = L c_ij / ell(alpha_i) on simple coroots, B(e_alpha, e_{-alpha})
        = L / ell(alpha), and every other pair of basis vectors is orthogonal; each
        value is certified an integer.
        """
        rs, index = self.rs, self.constants.index
        L, ell = rs.long_class, rs.lengths
        rows = [
            tuple((j, exact_div(L * c, ell_i)) for j, c in enumerate(row) if c)
            for row, ell_i in zip(rs.cartan, rs.simple_classes)
        ]
        return rows + [((index[-c], exact_div(L, ell[c])),) for c in rs.codes.values()]

    # The Killing form tr(ad a ad b) over the basis, O(dim^3).  Production code
    # uses the closed form above; this is its independent test oracle.

    def killing_gram(self) -> RationalMatrix:
        if self._killing_gram is None:
            n = self.dim
            gram = [[0] * n for _ in range(n)]
            rows = self._rows
            for i in range(n):
                for j in range(i, n):
                    # tr(ad b_i ad b_j): coefficient of b_k in [b_i, [b_j, b_k]]
                    t = 0
                    for k, inner in rows[j].items():
                        for l, c in inner:
                            for m, d in rows[i].get(l, ()):
                                if m == k:
                                    t += c * d
                    gram[i][j] = gram[j][i] = t
            self._killing_gram = RationalMatrix(gram)
        return self._killing_gram

    def killing_form(self, a: Element, b: Element) -> Q:
        g = self.killing_gram()
        total = sum(ai * g[i][j] * bj for i, ai in a.num.items() for j, bj in b.num.items())
        return Q(total, a.den * b.den)

    # -- centralizers -----------------------------------------------------

    def centralizer(self, elements: Sequence[Element], domain: Sequence[int]) -> List[Element]:
        """Basis of {u in span(b_i : i in domain) : [u, s] = 0 for every s}.

        The kernel of the stacked blocks of s.den ad_s on span(domain); [u, s] =
        -[s, u], and neither signs, nonzero scales nor zero rows change a kernel.
        """
        rows = RationalMatrix(
            (row for s in elements for row in self.ad_block(s, domain, range(self.dim)) if any(row)),
            len(domain),
        )
        return [Element(dict(zip(domain, num)), den) for num, den in kernel_basis(rows)]

    # -- build-time verification ------------------------------------------

    def _verify_jacobi(self):
        """Certify the Jacobi identity on every basis triple, without sampling.

        Proof.  The table is alternating (checked first), so the bracket is
        an alternating bilinear map.  If ad_x is a derivation, the Jacobi
        identity J(x, y, z) = 0 reads [[x, y], z] = [x, [y, z]] - [y, [x, z]],
        that is ad_[x,y] = [ad_x, ad_y]; when ad_y is a derivation too, this
        commutator is one.  So {x : ad_x is a derivation} is a subspace closed
        under bracket, a subalgebra.  It contains the generators G = {e_1, ...,
        e_r, f_theta}; once G is shown to generate g it is all of g, which is
        the Jacobi identity everywhere.

        Part 1 checks J(g, y, z) = [g, [y, z]] + [y, [z, g]] + [z, [g, y]] = 0
        in integer arithmetic for g in G and basis y < z (J is alternating in
        y, z).  With N(x) the basis vectors whose bracket with x is nonzero,
        all J(g, y, z) of one g are summed together, each term from the rows
        where it is nonzero: [g, [y, z]] over the pairs y < z whose bracket has
        a term c b_k with k in N(g) (the table indexed by bracket terms once);
        [y, [z, g]] = sum c [b_k, b_y] over z in N(g), c b_k in [g, z] and
        y < z in N(k), as [b_y, b_k] = -[b_k, b_y] on the alternating table;
        and [z, [g, y]] = -sum c [b_k, b_z] over y in N(g), c b_k in [g, y]
        and z > y in N(k).  A triple none of them reaches has three zero terms.

        Part 2 is a breadth-first closure from G: whenever [g, x] for g in G
        and a reached x is a nonzero multiple of one basis vector b_k, b_k is
        in the generated subalgebra and is reached (h_i as [e_i, f_i] once f_i
        is).  All ``dim`` basis vectors must be reached.
        """
        rows = self._rows
        r, n = self.rank, self.dim
        gens = [self.root_index[tuple(int(k == i) for k in range(r))] for i in range(r)]
        gens.append(self.root_index[tuple(-x for x in self.rs.highest_root)])
        negated: Dict[Terms, Terms] = {}  # each shared term tuple negated once
        # through[k]: ((y * n + z) * n, c) for y < z with c b_k a term of [b_y, b_z]
        through: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for y, row in enumerate(rows):
            for z, terms in row.items():
                neg = negated.get(terms)
                if neg is None:
                    neg = negated[terms] = tuple((k, -c) for k, c in terms)
                if rows[z].get(y) != neg:
                    raise AssertionError(f"bracket table is not alternating at ({y},{z})")
                for k, c in terms if z > y else ():
                    through[k].append(((y * n + z) * n, c))
        for g in gens:
            acc: Dict[int, int] = defaultdict(int)  # (y * n + z) * n + m -> b_m in J(g, y, z)
            for k, terms in rows[g].items():  # [g, [y, z]]
                for key, c in through[k]:
                    for m, d in terms:
                        acc[key + m] += c * d
            for x, inner in rows[g].items():
                for k, c in inner:
                    for y, terms in rows[k].items():
                        if y < x:  # [y, [z, g]] = c [b_k, b_y] with z = x
                            key, f = (y * n + x) * n, c
                        elif y > x:  # [z, [g, y]] = -c [b_k, b_z] with (y, z) = (x, y)
                            key, f = (x * n + y) * n, -c
                        else:
                            continue
                        for m, d in terms:
                            acc[key + m] += f * d
            if any(acc.values()):
                key = min(key for key, v in acc.items() if v)
                raise AssertionError(
                    f"Jacobi identity fails on basis triple ({g},{key // n // n},{key // n % n})"
                )
        reached = list(gens)
        seen = set(gens)
        for x in reached:
            for g in gens:
                terms = rows[g].get(x, ())
                if len(terms) == 1 and terms[0][1] and terms[0][0] not in seen:
                    seen.add(terms[0][0])
                    reached.append(terms[0][0])
        if len(reached) != self.dim:
            raise AssertionError(
                f"the generators reach only {len(reached)} of {self.dim} basis vectors"
            )

    def _verify_cartan_action(self):
        """Row h_i is {e_alpha: <alpha, alpha_i^vee> e_alpha} over the nonzero pairings, with
        no Cartan key, each pairing read off column i of the Cartan matrix (the writer reads
        the root pass's pairing vectors).  On the alternating table this fixes ad h for h in the Cartan.
        Each pairing sums only the column's nonzero entries c_ki, at most four: c_ki times
        coordinate k, added over all roots at once."""
        roots, r = self.rs.roots, self.rank
        coords = list(zip(*roots))  # coords[k]: coordinate k of every root
        for i, column in enumerate(zip(*self.rs.cartan)):
            pairings = [0] * len(roots)
            for k, c in enumerate(column):
                if c:
                    pairings = list(map(add, pairings, map(mul, coords[k], repeat(c))))
            if self._rows[i] != {col: ((col, c),) for col, c in enumerate(pairings, r) if c}:
                raise AssertionError(f"the Cartan action on h_{i} differs from the Cartan matrix")


@lru_cache(maxsize=None)
def build_algebra(t: LieType) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(build_root_system(t))
