import fractions
import sys
from fractions import Fraction as Q

import pytest

from conftest import quiver_grading
from oracles import iso_character_all_pass, verify_intertwining

from gradedlie.cayley import bracket_projection_test, cayley_pair, verify_iso_and_character
from gradedlie.chevalley import build_algebra
from gradedlie.grading import z_grading_from_labels
from gradedlie.linalg import independent_subset
from gradedlie.quiver import QuiverDims
from gradedlie.rootsystem import LieType


def _cayley(dims):
    return cayley_pair(quiver_grading(QuiverDims(dims)))


def test_chain_111():
    cd = _cayley((1, 1, 1))
    assert cd.dim_c == 0
    assert cd.dim_v == 1
    assert iso_character_all_pass(cd)
    verdict = bracket_projection_test(cd)
    assert verdict.candidate and verdict.witness is None


def test_chain_111_v_spans_expected_line(sl3):
    # V is spanned by a Cartan direction proportional to diag(1, -2, 1)
    cd = _cayley((1, 1, 1))
    (v,) = cd.v_basis
    assert all(x == 0 for x in v.dense(sl3.dim)[2:])
    # diag(t, -2t, t) in simple-coroot coordinates is (t, -t)
    assert v[0] == -v[1] != 0


def test_chain_222():
    cd = _cayley((2, 2, 2))
    assert cd.dim_c == 3
    assert cd.dim_v == 4
    assert iso_character_all_pass(cd)
    verdict = bracket_projection_test(cd)
    assert not verdict.candidate
    w = verdict.witness
    assert w.c_part and w.v_part


def test_hermitian_sl2():
    alg = build_algebra(LieType.parse("A1"))
    cd = cayley_pair(z_grading_from_labels(alg, [1]))
    assert cd.depth == 2
    assert cd.dim_c == 0
    assert cd.dim_v == 1
    assert bracket_projection_test(cd).candidate


def test_quaternionic_a2_candidate(sl3):
    cd = cayley_pair(z_grading_from_labels(sl3, [1, 1]))
    assert cd.dim_v == 1
    assert bracket_projection_test(cd).candidate
    assert iso_character_all_pass(cd)


def test_refuses_non_regular():
    with pytest.raises(ValueError):
        _cayley((2, 1))


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1), (2, 2, 2), (1, 2, 1), (1, 3, 1)])
def test_dim_v_equals_lowest_piece(dims):
    cd = _cayley(dims)
    assert cd.dim_v == len(cd.pair.grading.piece(1 - cd.depth))


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
    iso = verify_iso_and_character(cd)
    verdict = bracket_projection_test(cd)
    assert callers == []
    assert iso.iso_full and iso.chi_vanishes and not verdict.candidate
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
    assert cd.triple.h == 2 * cd.pair.grading.zeta
