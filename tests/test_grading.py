from fractions import Fraction as Q

import pytest

from gradedlie.chevalley import build_algebra
from gradedlie.grading import (
    _verify_grading_element,
    bar_pieces,
    kac_labels,
    kac_lift_check,
    z_grading_from_labels,
    zm_from_kac,
)
from gradedlie.rootsystem import LieType


def test_a2_balanced_labels(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    assert zg.dims() == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
    assert zg.depth == 3


def test_a1_labels(sl2):
    zg = z_grading_from_labels(sl2, [1])
    assert zg.dims() == {-1: 1, 0: 1, 1: 1}
    assert zg.zeta == sl2.cartan_element([Q(1, 2)])


def test_a2_parabolic_labels(sl3):
    zg = z_grading_from_labels(sl3, [1, 0])
    assert zg.dims() == {-1: 2, 0: 4, 1: 2}
    assert zg.depth == 2


def test_label_validation(sl3):
    for bad in ([0, 0], [1], [-1, 2]):
        with pytest.raises(ValueError):
            z_grading_from_labels(sl3, bad)


@pytest.mark.parametrize(
    "name,labels",
    [("A2", [1, 1]), ("A3", [1, 0, 1]), ("B2", [0, 1]), ("G2", [0, 1]), ("C3", [1, 0, 0])],
)
def test_grading_closure(name, labels):
    alg = build_algebra(LieType.parse(name))
    zg = z_grading_from_labels(alg, labels)
    degree = {}
    for j, idx in zg.pieces.items():
        for i in idx:
            degree[i] = j
    assert len(degree) == alg.dim
    for j, idx in zg.pieces.items():
        for k, idy in zg.pieces.items():
            for i in idx:
                for l in idy:
                    for target, c in alg.basis_bracket(i, l).items():
                        if c:
                            assert degree[target] == j + k


@pytest.mark.parametrize("name,labels", [("A2", [1, 1]), ("C2", [1, 0]), ("G2", [0, 1])])
def test_zeta_eigenvalues(name, labels):
    alg = build_algebra(LieType.parse(name))
    zg = z_grading_from_labels(alg, labels)
    for j, idx in zg.pieces.items():
        for i in idx:
            v = alg.from_sparse({i: Q(1)})
            assert alg.bracket(zg.zeta, v) == tuple(Q(j) * x for x in v)


@pytest.mark.parametrize(
    "name,labels,other", [("A2", [1, 0], [0, 1]), ("G2", [0, 1], [1, 1]), ("A3", [1, 0, 1], [1, 1, 1])]
)
def test_grading_element_check_rejects_other_zeta(name, labels, other):
    alg = build_algebra(LieType.parse(name))
    zg = z_grading_from_labels(alg, labels)
    zg.zeta = z_grading_from_labels(alg, other).zeta
    with pytest.raises(AssertionError):
        _verify_grading_element(zg)


def test_zm_a1(sl2):
    zm = zm_from_kac(sl2, kac_labels(sl2, [1, 1]))
    assert zm.m == 2
    assert zm.dims() == {0: 1, 1: 2}


def test_zm_trivial(sl3):
    kac = kac_labels(sl3, [3, 0, 0])
    zm = zm_from_kac(sl3, kac)
    assert zm.dims() == {0: sl3.dim}
    assert kac.reduced_order == 1
    assert kac.order_warning is not None


def test_zm_a2_three_pieces(sl3):
    zm = zm_from_kac(sl3, kac_labels(sl3, [1, 1, 1]))
    assert zm.m == 3
    assert zm.dims() == {0: 2, 1: 3, 2: 3}


def test_lift_direct(sl3):
    assert kac_lift_check(sl3, kac_labels(sl3, [1, 1, 1])).mode == "directly"


def test_lift_after_automorphism(sl3):
    verdict = kac_lift_check(sl3, kac_labels(sl3, [0, 1, 1]))
    assert verdict.lifts and verdict.mode == "after automorphism"
    assert verdict.witness[0] > 0
    assert sorted(verdict.witness) == [0, 1, 1]


def test_no_lift_g2():
    g2 = build_algebra(LieType.parse("G2"))
    verdict = kac_lift_check(g2, kac_labels(g2, [0, 1, 0]))
    assert not verdict.lifts


def test_bar_pieces_a2(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    zm = bar_pieces(zg)
    assert zm.m == 3
    assert zm.dims() == {0: 2, 1: 3, 2: 3}
    # residue 1 is the old degree 1 plus the old degree 1-m
    assert set(zm.pieces[1]) == set(zg.piece(1)) | set(zg.piece(-2))


def test_bar_pieces_a1(sl2):
    zg = z_grading_from_labels(sl2, [1])
    zm = bar_pieces(zg)
    assert zm.dims() == {0: 1, 1: 2}


@pytest.mark.parametrize(
    "name,labels",
    [("A2", [1, 1]), ("A3", [0, 1, 0]), ("B2", [1, 0]), ("G2", [1, 0]), ("C3", [0, 1, 0])],
)
def test_bar_pieces_partition(name, labels):
    alg = build_algebra(LieType.parse(name))
    zm = bar_pieces(z_grading_from_labels(alg, labels))
    assert sum(len(v) for v in zm.pieces.values()) == alg.dim


@pytest.mark.parametrize(
    "name,labels", [("A2", [1, 1]), ("A3", [1, 0, 1]), ("B3", [0, 1, 0]), ("G2", [0, 1])]
)
def test_round_trip_with_kac(name, labels):
    alg = build_algebra(LieType.parse(name))
    zg = z_grading_from_labels(alg, labels)
    m = zg.depth
    marks = alg.rs.affine_marks
    p0 = m - sum(n * p for n, p in zip(marks[1:], labels))
    assert p0 >= 1
    zm = zm_from_kac(alg, kac_labels(alg, [p0] + list(labels)))
    assert bar_pieces(zg).pieces == zm.pieces


def test_lift_witness_reproduces_dimensions(sl3):
    kac = kac_labels(sl3, [0, 1, 1])
    verdict = kac_lift_check(sl3, kac)
    witness_labels = list(verdict.witness[1:])
    zg = z_grading_from_labels(sl3, witness_labels)
    assert zg.depth <= kac.order
    assert sorted(bar_pieces(zg).dims().values()) == sorted(
        zm_from_kac(sl3, kac).dims().values()
    )
