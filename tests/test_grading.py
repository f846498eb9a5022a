import copy
from fractions import Fraction as Q
from itertools import product

import pytest

from gradedlie.chevalley import Element, build_algebra
from gradedlie.linalg import RationalMatrix, solve
from conftest import DIAGRAM_AUTOMORPHISMS, moved_labels, run_python
from oracles import (
    affine_automorphisms, bar_pieces, basis_bracket, basis_index, cartan_element, coordinate, dense, enumerated_lift,
    fractions_of, from_sparse,
)

from gradedlie.grading import (
    ZmGrading,
    _affine_automorphisms,
    _verify_root_grading,
    kac_lift_check,
    root_grading,
    z_grading_from_labels,
)
from gradedlie.rootsystem import LieType, build_root_system


def test_a2_balanced_labels(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    assert zg.dims() == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
    assert zg.depth == 3


def test_a1_labels(sl2):
    zg = z_grading_from_labels(sl2, [1])
    assert zg.dims() == {-1: 1, 0: 1, 1: 1}
    assert zg.zeta == cartan_element(sl2, [Q(1, 2)])


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
                    for target, c in basis_bracket(alg, i, l).items():
                        if c:
                            assert degree[target] == j + k


@pytest.mark.parametrize("name,labels", [("A2", [1, 1]), ("C2", [1, 0]), ("G2", [0, 1])])
def test_zeta_eigenvalues(name, labels):
    alg = build_algebra(LieType.parse(name))
    zg = z_grading_from_labels(alg, labels)
    for j, idx in zg.pieces.items():
        for i in idx:
            v = from_sparse(alg, {i: Q(1)})
            assert alg.bracket(zg.zeta, v) == j * v


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]
)
def test_root_level_grading_matches_the_bracket_table(name):
    """Second route on every 0/1 label vector: zeta solved from ad h_i on the simple
    root vectors, as the bracket table gives it, and the pieces read off as the
    eigenvalues of ad zeta on every basis vector, against ``root_grading``."""
    alg = build_algebra(LieType.parse(name))
    r = alg.rank
    simple = [basis_index(alg.rs, tuple(int(k == l) for l in range(r))) for k in range(r)]
    ad_simple = RationalMatrix([[basis_bracket(alg, i, e).get(e, 0) for i in range(r)] for e in simple])
    basis = [from_sparse(alg, {i: 1}) for i in range(alg.dim)]
    for labels in product((0, 1), repeat=r):
        if not any(labels):
            continue
        zeta = cartan_element(alg, fractions_of(solve(ad_simple, labels)))
        pieces = {}
        for i, b in enumerate(basis):
            image = alg.bracket(zeta, b)
            eigenvalue = coordinate(image, i)
            assert image == eigenvalue * b
            pieces.setdefault(eigenvalue, []).append(i)
        g = root_grading(alg.rs, labels)
        assert g.pieces == {j: tuple(idx) for j, idx in pieces.items()}, labels
        assert dense(g.zeta, alg.dim) == dense(zeta, alg.dim), labels
        zg = z_grading_from_labels(alg, labels)
        assert (zg.pieces, zg.zeta) == (g.pieces, g.zeta)


@pytest.mark.parametrize(
    "name,labels,other", [("A2", [1, 0], [0, 1]), ("G2", [0, 1], [1, 1]), ("A3", [1, 0, 1], [1, 1, 1])]
)
def test_root_grading_check_rejects_other_zeta(name, labels, other):
    rs = build_root_system(LieType.parse(name))
    g = root_grading(rs, labels)
    g.zeta = root_grading(rs, other).zeta
    with pytest.raises(AssertionError, match=r"^grading element eigenvalue check failed at degree -?\d+$"):
        _verify_root_grading(rs, g)


def test_root_grading_check_survives_python_dash_o():
    """Under ``python -O`` a zeta taken from other labels still raises AssertionError."""
    script = (
        "from gradedlie.grading import _verify_root_grading, root_grading\n"
        "from gradedlie.rootsystem import LieType, build_root_system\n"
        "rs = build_root_system(LieType.parse('A2'))\n"
        "g = root_grading(rs, [1, 0])\n"
        "g.zeta = root_grading(rs, [0, 1]).zeta\n"
        "try:\n"
        "    _verify_root_grading(rs, g)\n"
        "except AssertionError as exc:\n"
        "    print('AssertionError', exc)\n"
    )
    assert run_python("-O", "-c", script).stdout.startswith("AssertionError grading element eigenvalue check failed")


def test_root_grading_check_rejects_moved_or_missing_roots():
    rs = build_root_system(LieType.parse("B3"))
    g = root_grading(rs, [0, 1, 0])
    pieces = dict(g.pieces)
    g.pieces = {**pieces, 1: pieces[1][1:], 2: pieces[2] + pieces[1][:1]}  # a degree-1 root in degree 2
    with pytest.raises(AssertionError, match="^grading element eigenvalue check failed at degree 2$"):
        _verify_root_grading(rs, g)
    g.pieces = {**pieces, 1: pieces[1][1:]}  # a degree-1 root in no piece
    with pytest.raises(AssertionError, match="^the pieces do not hold each basis index once$"):
        _verify_root_grading(rs, g)


def test_singular_cartan_matrix_is_refused():
    """The affine A1 Cartan matrix has determinant 0: no grading element solves it."""
    rs = copy.copy(build_root_system(LieType.parse("A2")))
    rs.cartan = ((2, -2), (-2, 2))
    with pytest.raises(AssertionError, match="^the Cartan matrix is singular$"):
        root_grading(rs, [1, 0])


def test_grading_element_off_the_cartan_is_refused():
    rs = build_root_system(LieType.parse("A2"))
    g = root_grading(rs, [1, 0])
    g.zeta = Element({rs.rank: 1})  # a root vector
    with pytest.raises(AssertionError, match="^the grading element is not in the Cartan$"):
        _verify_root_grading(rs, g)


@pytest.mark.parametrize("name", sorted(DIAGRAM_AUTOMORPHISMS))
def test_labels_moved_by_a_diagram_automorphism(name):
    """Metamorphic: on labels in {0, 1, 2}, moving the labels by a diagram
    automorphism keeps the piece dims and moves zeta's coroot coefficients the
    same way."""
    rs = build_root_system(LieType.parse(name))
    sigma = DIAGRAM_AUTOMORPHISMS[name]
    r = rs.rank
    assert all(rs.cartan[sigma[i]][sigma[j]] == rs.cartan[i][j] for i in range(r) for j in range(r))
    for labels in product((0, 1, 2), repeat=r):
        if not any(labels):
            continue
        g, h = root_grading(rs, labels), root_grading(rs, moved_labels(sigma, labels))
        assert h.dims() == g.dims(), labels
        assert [coordinate(h.zeta, sigma[i]) for i in range(r)] == [coordinate(g.zeta, i) for i in range(r)], labels


def test_zm_a1(sl2):
    zm = ZmGrading(sl2.rs, [1, 1])
    assert zm.m == 2
    assert zm.dims() == {0: 1, 1: 2}


def test_zm_trivial(sl3):
    zm = ZmGrading(sl3.rs, [3, 0, 0])
    assert zm.dims() == {0: sl3.dim}
    assert zm.order_warning is not None
    assert zm.order_warning == "automorphism order is 1, a proper divisor of the declared m = 3"


def test_zm_a2_three_pieces(sl3):
    zm = ZmGrading(sl3.rs, [1, 1, 1])
    assert zm.m == 3
    assert zm.dims() == {0: 2, 1: 3, 2: 3}
    assert zm.labels == (1, 1, 1) and zm.order_warning is None


@pytest.mark.parametrize(
    "labels,message",
    [([1, 1], "label count must match node count"), ([1, -1, 1], "labels must be non-negative"),
     ([0, 0, 0], "labels must not all be zero")],
)
def test_zm_record_checks_the_label_rule(sl3, labels, message):
    with pytest.raises(ValueError, match=message):
        ZmGrading(sl3.rs, labels)


def test_lift_direct(sl3):
    assert kac_lift_check(sl3.rs, ZmGrading(sl3.rs, [1, 1, 1])).mode == "directly"


def test_lift_after_automorphism(sl3):
    verdict = kac_lift_check(sl3.rs, ZmGrading(sl3.rs, [0, 1, 1]))
    assert verdict.mode == "after automorphism"
    assert verdict.witness[0] > 0
    assert sorted(verdict.witness) == [0, 1, 1]


def test_no_lift_g2():
    g2 = build_root_system(LieType.parse("G2"))
    verdict = kac_lift_check(g2, ZmGrading(g2, [0, 1, 0]))
    assert verdict.mode == "none" and verdict.witness is None


LIFT_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", LIFT_TYPES)
def test_pruned_search_yields_the_full_enumeration(name):
    """The search, which lets a node take only nodes with its sorted affine-Cartan row, yields
    the unpruned enumeration element by element, and every symmetry it yields maps a mark-1
    node onto node 0 (a symmetry preserves marks, and n_0 = 1), so the lift check needs no
    mark test."""
    rs = build_root_system(LieType.parse(name))
    yielded, automorphisms = tuple(_affine_automorphisms(rs)), affine_automorphisms(rs)
    assert len(yielded) == len(automorphisms)
    for sigma, expected in zip(yielded, automorphisms):
        assert sigma == expected
        assert rs.affine_marks[sigma.index(0)] == 1, sigma


@pytest.mark.parametrize("name", LIFT_TYPES)
def test_first_witness_lift_matches_the_full_enumeration(name):
    """The lift check stops at the first symmetry that certifies a lift; on every 0/1/2 label
    vector up to rank 5 and every 0/1 vector above, its verdict and witness are those read off
    the full enumeration, which the generator yields in the same order."""
    rs = build_root_system(LieType.parse(name))
    automorphisms = affine_automorphisms(rs)
    digits = (0, 1, 2) if rs.rank <= 5 else (0, 1)
    for labels in product(digits, repeat=rs.rank + 1):
        if any(labels):
            verdict = kac_lift_check(rs, ZmGrading(rs, labels))
            expected = enumerated_lift(automorphisms, rs.affine_marks, labels)
            assert (verdict.mode, verdict.witness) == expected, labels


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
    "name,labels",
    [("A2", [1, 1]), ("A3", [1, 0, 1]), ("B3", [0, 1, 0]), ("G2", [0, 1])]
    + [pytest.param(name, None, id=f"{name}-all") for name in ("A2", "A3", "B3", "C3", "D4", "G2", "F4", "E6")],
)
def test_round_trip_with_kac(name, labels):
    """The Kac labels (p_0, p) of order m, the depth of the Z-grading p, give its
    degrees mod m; the residue-1 piece is the paper's g_1 + g_{1-m}.  Labels None
    take every p in {0,1,2}^r, each of which has p_0 = 1."""
    rs = build_root_system(LieType.parse(name))
    for p in [labels] if labels else [list(v) for v in product(range(3), repeat=rs.rank) if any(v)]:
        g = root_grading(rs, p)
        m = g.depth
        p0 = m - sum(n * x for n, x in zip(rs.affine_marks[1:], p))
        assert p0 >= 1
        zm = ZmGrading(rs, [p0] + p)
        assert bar_pieces(g).pieces == zm.pieces, p
        assert zm.pieces[1] == tuple(sorted(g.piece(1) + g.piece(1 - m))), p


def test_lift_witness_reproduces_dimensions(sl3):
    zm = ZmGrading(sl3.rs, [0, 1, 1])
    verdict = kac_lift_check(sl3.rs, zm)
    witness_labels = list(verdict.witness[1:])
    zg = z_grading_from_labels(sl3, witness_labels)
    assert zg.depth <= zm.m
    assert sorted(bar_pieces(zg).dims().values()) == sorted(zm.dims().values())
