from collections import Counter

import pytest

from conftest import assert_paper_check
from oracles import form_quaternionic_labels, orbit_toledo_rank

from gradedlie import vinberg
from gradedlie.checks import expected_ranks, q_list
from gradedlie.cli import main
from gradedlie.quaternionic import (
    build_quaternionic,
    kappa_rule,
    quaternionic_labels,
    quaternionic_ranks,
    verify_extreme_pieces,
)
from gradedlie.chevalley import build_algebra
from gradedlie.quiver import QuiverDims, maximal_rank_tuple, quiver_jm_regular
from gradedlie.rootsystem import LieType
from gradedlie.vinberg import jm_regular, normalized_form

TYPE_LIST = ["A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]


@pytest.mark.parametrize("name", TYPE_LIST)
def test_piece_structure(name):
    qd = build_quaternionic(LieType.parse(name))
    dims = qd.grading.dims()
    assert sorted(dims) == [-2, -1, 0, 1, 2]
    assert dims[2] == dims[-2] == 1
    assert dims[1] == dims[-1]
    assert sum(dims.values()) == qd.algebra.dim


def test_a2_piece_dims(sl3):
    assert build_quaternionic(LieType.parse("A2")).grading.dims() == {
        -2: 1, -1: 2, 0: 2, 1: 2, 2: 1
    }


def test_c2_piece_dims():
    qd = build_quaternionic(LieType.parse("C2"))
    assert list(qd.grading.dims()[j] for j in (-2, -1, 0, 1, 2)) == [1, 2, 4, 2, 1]


@pytest.mark.parametrize("name", TYPE_LIST)
def test_grading_element_is_highest_coroot(name):
    qd = build_quaternionic(LieType.parse(name))
    alg = qd.algebra
    assert qd.grading.zeta == alg.coroot(alg.rs.highest_root)


@pytest.mark.parametrize("name", TYPE_LIST)
def test_t_beta_norm(name):
    qd = build_quaternionic(LieType.parse(name))
    assert normalized_form(qd.algebra, qd.grading.zeta, qd.grading.zeta) == 2


@pytest.mark.parametrize(
    "name,expected", [("A2", 2), ("B2", 1), ("C2", 1), ("C3", 1), ("D4", 2), ("G2", 2), ("F4", 2), ("E6", 2)]
)
def test_kappa(name, expected):
    t = LieType.parse(name)
    assert build_quaternionic(t).kappa == expected == kappa_rule(t)


@pytest.mark.parametrize("name", TYPE_LIST)
def test_ranks(name):
    t = LieType.parse(name)
    assert q_list(quaternionic_ranks(build_quaternionic(t))) == expected_ranks(t)


@pytest.mark.parametrize("name", TYPE_LIST)
def test_extreme_pieces_jm_regular(name):
    qd = build_quaternionic(LieType.parse(name))
    report = verify_extreme_pieces(qd)
    assert report.both_regular
    assert report.plus.f is not None and report.minus.f is not None


@pytest.mark.parametrize("name", ["C2", "C3"])
def test_symplectic_degree_one_not_regular(name):
    qd = build_quaternionic(LieType.parse(name))
    assert not jm_regular(qd.pair(1)).regular


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "D4", "G2", "F4", "E6"])
def test_non_symplectic_degree_one_regular(name):
    qd = build_quaternionic(LieType.parse(name))
    assert jm_regular(qd.pair(1)).regular


def test_labels_are_adjacency_indicators(sl3):
    # only the simple roots not orthogonal to the highest root get label 1
    for name in TYPE_LIST:
        alg = build_algebra(LieType.parse(name))
        labels = quaternionic_labels(alg)
        beta = alg.rs.highest_root
        for k, p in enumerate(labels):
            simple = tuple(int(i == k) for i in range(alg.rank))
            assert (p != 0) == (alg.rs.form_value(simple, beta) != 0)


QUATERNIONIC_LABEL_TYPES = (
    [f"A{r}" for r in range(2, 13)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 11)]
    + [f"D{r}" for r in range(3, 11)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", QUATERNIONIC_LABEL_TYPES)
def test_labels_match_form_oracle(name):
    """<alpha_k, beta^vee> from the Cartan matrix and the coroot equals the form-value route."""
    alg = build_algebra(LieType.parse(name))
    labels = quaternionic_labels(alg)
    assert labels == form_quaternionic_labels(alg)
    assert all(type(p) is int for p in labels)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_family_a_matches_quiver(n):
    from conftest import quiver_grading

    qd = build_quaternionic(LieType.parse(f"A{n-1}"))
    dims = QuiverDims((1, n - 2, 1))
    assert quiver_jm_regular(dims)
    assert quiver_grading(dims).dims() == qd.grading.dims()
    assert [qd.grading.dims()[j] for j in (-1, 1)] == [2 * (n - 2)] * 2
    # Toledo ranks agree between the two constructions
    rank_plus, _ = quaternionic_ranks(qd)
    assert orbit_toledo_rank(dims, maximal_rank_tuple(dims)) == rank_plus


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_extended_types(name):
    assert_paper_check(f"quaternionic-ranks-{name}")
    assert_paper_check(f"extreme-pieces-regular-{name}")


@pytest.mark.parametrize("name", ["F4", "C3"])
def test_one_open_orbit_search_per_pair_and_seed(monkeypatch, capsys, name):
    searches = Counter()
    search = vinberg.generic_element

    def spy(pair, seed=0):
        searches[pair.grading.piece(1), seed] += 1
        return search(pair, seed)

    monkeypatch.setattr(vinberg, "generic_element", spy)
    build_quaternionic.cache_clear()  # a cached job would search nothing
    assert main(["quaternionic", "--type", name]) == 0
    # the pairs of g_1, g_2 and g_{-2}, each searched once
    assert sorted(searches.values()) == [1, 1, 1]
