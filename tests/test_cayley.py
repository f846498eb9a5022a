import fractions
import sys
from fractions import Fraction as Q

import pytest

from conftest import quiver_grading
from oracles import coordinate, dense, iso_character_all_pass, verify_intertwining, zero_one_gradings

from gradedlie import cayley
from gradedlie.cayley import bracket_projection_test, cayley_pair
from gradedlie.chevalley import ChevalleyAlgebra, Element, build_algebra
from gradedlie.grading import z_grading_from_labels
from gradedlie.linalg import RationalMatrix, independent_subset, rank
from gradedlie.quiver import QuiverDims
from gradedlie.rootsystem import LieType, build_root_system
from gradedlie.vinberg import VinbergPair, jm_regular


def _cayley(dims):
    return cayley_pair(quiver_grading(QuiverDims(dims)))


def test_chain_111():
    cd = _cayley((1, 1, 1))
    assert cd.dim_c == 0
    assert cd.dim_v == 1
    assert iso_character_all_pass(cd)
    assert bracket_projection_test(cd) is None


def test_chain_111_v_spans_expected_line(sl3):
    # V is spanned by a Cartan direction proportional to diag(1, -2, 1)
    cd = _cayley((1, 1, 1))
    (v,) = cd.v_basis
    assert all(x == 0 for x in dense(v, sl3.dim)[2:])
    # diag(t, -2t, t) in simple-coroot coordinates is (t, -t)
    assert coordinate(v, 0) == -coordinate(v, 1) != 0


def test_chain_222():
    cd = _cayley((2, 2, 2))
    assert cd.dim_c == 3
    assert cd.dim_v == 4
    assert iso_character_all_pass(cd)
    w = bracket_projection_test(cd)
    assert w is not None
    assert w.c_part and w.v_part


def test_hermitian_sl2():
    alg = build_algebra(LieType.parse("A1"))
    cd = cayley_pair(z_grading_from_labels(alg, [1]))
    assert cd.pair.grading.depth == 2
    assert cd.dim_c == 0
    assert cd.dim_v == 1
    assert bracket_projection_test(cd) is None


def test_quaternionic_a2_candidate(sl3):
    cd = cayley_pair(z_grading_from_labels(sl3, [1, 1]))
    assert cd.dim_v == 1
    assert bracket_projection_test(cd) is None
    assert iso_character_all_pass(cd)


def test_refuses_non_regular():
    with pytest.raises(ValueError):
        _cayley((2, 1))


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1), (2, 2, 2), (1, 2, 1), (1, 3, 1)])
def test_dim_v_equals_lowest_piece(dims):
    cd = _cayley(dims)
    assert cd.dim_v == len(cd.pair.piece(1 - cd.pair.grading.depth))


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1), (2, 2, 2), (1, 2, 1), (1, 3, 1)])
def test_ad_powers_chain_spans_the_modules(dims):
    """Each lowest-piece vector b starts a (2m-1)-dimensional module: its chain b, [e, b], ...
    is nonzero up to ad(e)^{2m-2} b and zero at ad(e)^{2m-1} b, each power is injective on
    the lowest piece, and V's vector for b is ad(e)^{m-1} b."""
    cd = _cayley(dims)
    alg, e, m = cd.algebra, cd.triple.e, cd.pair.grading.depth
    chains = []
    for b in cd.pair.piece(1 - m):
        chain = [Element({b: 1})]
        for _ in range(2 * m - 1):
            chain.append(alg.bracket(e, chain[-1]))
        chains.append(chain)
    assert all(all(chain[:-1]) and not chain[-1] for chain in chains)
    for n in range(2 * m - 1):
        assert rank(RationalMatrix([chain[n].dense_num(alg.dim) for chain in chains])) == len(chains)
    assert cd.v_basis == [chain[m - 1] for chain in chains]


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (1, 2, 1)])
def test_c_orthogonal_to_h_and_disjoint_from_v(dims):
    cd = _cayley(dims)
    alg = cd.algebra
    for c in cd.c_basis:
        assert alg.killing_form(c, cd.triple.h) == 0
    basis = cd.c_basis + cd.v_basis
    assert len(independent_subset([b.dense_num(alg.dim) for b in basis])) == len(basis)


def test_checks_build_no_fraction(monkeypatch):
    """The injectivity, character, overlap and projection checks run on integer
    numerators: not one Fraction is built, counted at Fraction.__new__."""
    cd = _cayley((2, 2, 2))
    callers = []
    new = Q.__new__

    def counting_new(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == fractions.__file__:
            frame = frame.f_back
        callers.append(f"{frame.f_code.co_filename}:{frame.f_lineno} {frame.f_code.co_name}")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    injective = rank([v.dense_num(cd.algebra.dim) for v in cd.v_basis]) == cd.dim_v
    chi_vanishes = cd.chi_vanishes
    witness = bracket_projection_test(cd)
    assert callers == []
    assert injective and chi_vanishes and witness is not None
    Q(1, 2)
    assert len(callers) == 1  # the counter sees a Fraction built here


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (1, 2, 1)])
def test_intertwining(dims):
    assert verify_intertwining(_cayley(dims))


def test_centralizer_commutes_with_triple():
    cd = _cayley((2, 2, 2))
    alg = cd.algebra
    for c in cd.c_basis:
        for s in (cd.triple.h, cd.triple.e, cd.triple.f):
            assert not alg.bracket(c, s)


def test_triple_uses_twice_zeta():
    cd = _cayley((1, 1, 1))
    assert cd.triple.h == 2 * cd.pair.zeta


# Each certificate in ``cayley``, provoked by a wrong input: each test fails once
# the raise it provokes is removed.


def fault_after_triple(monkeypatch, fault):
    """Once ``cayley_pair`` has its triple, ``bracket`` returns ``fault([a, b], b)``; only the
    ad(e) chains bracket after that, as the centralizer solves on ``ad_block``."""
    complete, bracket = cayley.complete_triple, ChevalleyAlgebra.bracket

    def complete_then_fault(*args):
        triple = complete(*args)
        monkeypatch.setattr(ChevalleyAlgebra, "bracket", lambda alg, a, b: fault(bracket(alg, a, b), b))
        return triple

    monkeypatch.setattr(cayley, "complete_triple", complete_then_fault)


def test_module_longer_than_2m_minus_1_fails_the_bound(monkeypatch):
    """A table on which ad(e) kills nothing: a zero bracket [e, x] comes back as x, so
    ad(e)^{2m-1} of a lowest-piece vector is not zero."""
    fault_after_triple(monkeypatch, lambda x, b: x or b)
    with pytest.raises(AssertionError, match="^sl2-module longer than 2m-1 detected$"):
        _cayley((1, 1, 1))


@pytest.mark.parametrize("fault", ["rank one short", "chain stops before ad(e)^(m-1)"])
def test_transport_that_is_not_injective_is_refused(monkeypatch, fault):
    """The check behind the report's ``iso_invertible``: a transport of rank below
    dim g_{1-m}, or a chain that dies after one bracket at m = 3, raises."""
    if fault == "rank one short":
        monkeypatch.setattr(cayley, "rank", lambda rows: rank(rows) - 1)
    else:
        low = set(quiver_grading(QuiverDims((2, 2, 2))).piece(-2))
        fault_after_triple(monkeypatch, lambda x, b: x if b.num.keys() <= low else Element())
    with pytest.raises(AssertionError, match="^transport map is not injective on the lowest piece$"):
        _cayley((2, 2, 2))


def test_c_sharing_a_vector_with_v_is_refused():
    cd = _cayley((2, 2, 2))
    cd.c_basis = cd.c_basis + cd.v_basis[:1]
    with pytest.raises(AssertionError, match="^c and V overlap$"):
        bracket_projection_test(cd)


def test_degenerate_form_on_c_plus_v_is_refused():
    """A singular Gram on c + V whose every right side is consistent: e lies in degree 1,
    so it is orthogonal to itself and to V in degree 0, and no bracket [v, v'] can see it."""
    cd = _cayley((2, 2, 2))
    cd.c_basis = [cd.triple.e]
    with pytest.raises(AssertionError, match="^invariant form degenerate on c \\+ V$"):
        bracket_projection_test(cd)


def test_cayley_dimensions_on_the_jm_regular_zero_one_gradings():
    """On each JM-regular {0,1}-grading, dim c = dim g_0 - dim g_1, dim V = dim g_{1-m} and chi_T
    vanishes on c (ROADMAP item 25): ad h = 2 ad zeta is 0 on g_0, so c is the kernel of ad e on g_0,
    whose image is g_1 as the orbit is open; ad(e)^{m-1} is injective on g_{1-m}; and
    B(h, x) = B(e, [f, x]) = 0 for x in c."""
    regular = 0
    for name in ["A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]:
        for zg in zero_one_gradings(build_root_system(LieType.parse(name))):
            if jm_regular(VinbergPair(zg)):
                cd, dims = cayley_pair(zg), zg.dims()
                assert (cd.dim_c, cd.dim_v) == (dims[0] - dims[1], dims[1 - zg.depth]), (name, dims)
                assert cd.chi_vanishes, (name, dims)
                regular += 1
    assert regular == 27
