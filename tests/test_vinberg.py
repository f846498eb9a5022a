import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from conftest import SMALL_DIMS, embed_quiver_element, quiver_grading
from oracles import (
    chi_t_killing,
    fraction_bracket,
    fraction_normalized_form,
    is_normalised,
    orbit_toledo_rank,
    project,
    root_vector,
    string_representative,
)

from gradedlie.chevalley import build_algebra
from gradedlie.grading import z_grading_from_labels
from gradedlie.quiver import (
    QuiverDims,
    enumerate_orbits,
    maximal_rank_tuple,
)
from gradedlie.rootsystem import LieType
from gradedlie.vinberg import (
    dual_toledo_factor,
    generic_element,
    jm_regular,
    jm_triple,
    killing_dual_norm,
    normalized_form,
    orbit_dimension,
    pair_rank,
    regrade,
    toledo_rank,
    vinberg_pair,
)


def _pair(name, labels):
    alg = build_algebra(LieType.parse(name))
    return vinberg_pair(z_grading_from_labels(alg, labels))


def test_regrade_identity(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    assert regrade(zg, 1).pieces == zg.pieces


def test_regrade_minus_two(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    rg = regrade(zg, -2)
    assert rg.dims() == {-1: 1, 0: 2, 1: 1}
    assert rg.depth == 2
    assert rg.piece(1) == zg.piece(-2)
    assert rg.zeta.dense(sl3.dim) == tuple(-x / 2 for x in zg.zeta.dense(sl3.dim))


def test_regrade_zero_rejected(sl3):
    with pytest.raises(ValueError):
        regrade(z_grading_from_labels(sl3, [1, 1]), 0)


def test_regrade_to_lowest_piece(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    rg = regrade(zg, 1 - zg.depth)
    assert rg.piece(1) == zg.piece(1 - zg.depth)


def test_orbit_dimension_zero(sl3):
    pair = _pair("A2", [1, 1])
    assert orbit_dimension(pair, pair.algebra.zero()) == 0


def test_orbit_dimension_open_and_degenerate(sl3):
    pair = _pair("A2", [1, 1])
    alg = pair.algebra
    e_open = root_vector(alg, (1, 0)) + root_vector(alg, (0, 1))
    assert orbit_dimension(pair, e_open) == 2 == pair.dim_piece
    assert orbit_dimension(pair, root_vector(alg, (1, 0))) == 1


def test_orbit_dimension_rejects_wrong_piece(sl3):
    pair = _pair("A2", [1, 1])
    with pytest.raises(ValueError):
        orbit_dimension(pair, root_vector(pair.algebra, (1, 1)))


def test_generic_element_certified_and_deterministic():
    pair = _pair("A2", [1, 1])
    e1 = generic_element(pair, 7)
    e2 = generic_element(pair, 7)
    assert e1 == e2
    assert orbit_dimension(pair, e1) == pair.dim_piece
    idx = pair.grading.piece(1)
    assert all(e1[i] != 0 for i in idx)


def test_jm_triple_sl2(sl2):
    pair = _pair("A1", [1])
    e = root_vector(sl2, (1,))
    triple = jm_triple(pair, e)
    assert triple.h == sl2.cartan_element([1])
    assert triple.f == root_vector(sl2, (-1,))
    assert triple.h == 2 * pair.grading.zeta


def test_jm_triple_relations_many():
    for name, labels in [("A2", [1, 1]), ("A3", [1, 0, 1]), ("B3", [0, 1, 0]), ("C3", [1, 0, 0]), ("G2", [0, 1])]:
        pair = _pair(name, labels)
        e = generic_element(pair, 0)
        triple = jm_triple(pair, e)
        triple.verify(pair.algebra)  # exact bracket relations
        # h in degree 0, f in degree -1
        assert project(pair.grading, triple.h, 0) == triple.h
        assert project(pair.grading, triple.f, -1) == triple.f
        # a non-integral e: the triple through c e is (h, c e, f / c) exactly
        for c in (Q(1, 2), Q(-3, 2), Q(2, 3)):
            scaled = jm_triple(pair, c * e)
            assert (scaled.h, scaled.e, scaled.f) == (triple.h, c * e, triple.f * (1 / c))


def test_jm_triple_rejects_zero(sl3):
    pair = _pair("A2", [1, 1])
    with pytest.raises(ValueError):
        jm_triple(pair, pair.algebra.zero())


def test_open_triple_has_h_twice_zeta():
    pair = _pair("A2", [1, 1])
    e = generic_element(pair, 0)
    triple = jm_triple(pair, e)
    assert triple.h == 2 * pair.grading.zeta


def test_chi_t_is_a_character():
    pair = _pair("A2", [1, 1])
    alg = pair.algebra
    rng = random.Random(4)
    g0 = pair.grading.piece(0)
    for _ in range(50):
        x = alg.from_sparse({i: Q(rng.randint(-3, 3)) for i in g0})
        y = alg.from_sparse({i: Q(rng.randint(-3, 3)) for i in g0})
        assert pair.chi_t(alg.bracket(x, y)) == 0


@pytest.mark.parametrize(
    "name,labels", [("A2", [1, 1]), ("B2", [0, 1]), ("C3", [1, 0, 0]), ("G2", [0, 1])]
)
def test_chi_t_form_independence(name, labels):
    pair = _pair(name, labels)
    alg = pair.algebra
    rng = random.Random(9)
    for _ in range(50):
        x = alg.from_sparse({i: rng.randint(-3, 3) for i in range(alg.dim)})
        assert pair.chi_t(x) == chi_t_killing(pair, x)


def test_normalized_form_highest_root():
    for name in ["A2", "C2", "G2", "B3"]:
        alg = build_algebra(LieType.parse(name))
        t = alg.coroot(alg.rs.highest_root)
        assert normalized_form(alg, t, t) == 2


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]
)
def test_normalized_form_matches_scaled_killing_gram(name):
    # closed form from root data against the trace-of-ad Gram matrix
    alg = build_algebra(LieType.parse(name))
    gram = alg.killing_gram()
    scale = killing_dual_norm(alg, alg.rs.highest_root) / 2
    basis = [alg.from_sparse({i: Q(1)}) for i in range(alg.dim)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert normalized_form(alg, a, b) == scale * gram[i][j]


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "C3", "D4", "F4"])
def test_form_and_bracket_match_fraction_oracles(name):
    """The integer-table form and the sparse bracket against the dense Fraction
    routes, on elements with negative and non-integral coordinates."""
    alg = build_algebra(LieType.parse(name))
    rng = random.Random(name)

    def draw():
        support = rng.sample(range(alg.dim), rng.randint(1, alg.dim // 2))
        return alg.from_sparse({i: Q(rng.randint(-6, 6), rng.randint(1, 6)) for i in support})

    for _ in range(40):
        a, b = draw(), draw()
        assert is_normalised(a) and is_normalised(b)
        dense_a, dense_b = a.dense(alg.dim), b.dense(alg.dim)
        assert normalized_form(alg, a, b) == fraction_normalized_form(alg, dense_a, dense_b)
        out = alg.bracket(a, b)
        assert is_normalised(out)
        assert out.dense(alg.dim) == fraction_bracket(alg, dense_a, dense_b)
        assert normalized_form(alg, out, a) == fraction_normalized_form(alg, out.dense(alg.dim), dense_a)


def test_sl2_certificate_survives_python_dash_o():
    """Under ``python -O`` a triple with one wrong f coordinate still raises AssertionError."""
    script = (
        "from gradedlie import LieType, build_algebra\n"
        "from gradedlie.vinberg import Sl2Triple\n"
        "alg = build_algebra(LieType.parse('A1'))\n"
        "e, f = (alg.from_sparse({alg.root_index[a]: c}) for a, c in (((1,), 1), ((-1,), 2)))\n"
        "try:\n"
        "    Sl2Triple(h=alg.coroot((1,)), e=e, f=f).verify(alg)\n"
        "except AssertionError as exc:\n"
        "    print('AssertionError', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "AssertionError sl2 relation [e, f] = h fails\n"


def test_killing_dual_norm_scaling(sl2):
    # dual norms under Killing scale to the normalised ones by a single factor
    alg = build_algebra(LieType.parse("C2"))
    beta = alg.rs.highest_root
    scale = killing_dual_norm(alg, beta) / 2
    for alpha in alg.rs.roots:
        assert killing_dual_norm(alg, alpha) == scale * alg.rs.norm(alpha)


def test_jm_regular_examples():
    assert jm_regular(_pair("A2", [1, 1])).regular
    assert not jm_regular(_pair("C2", [1, 0])).regular
    assert not jm_regular(_pair("C3", [1, 0, 0])).regular


def test_jm_regular_implies_rank_equals_pairing():
    for name, labels in [("A2", [1, 1]), ("A3", [1, 0, 1]), ("G2", [0, 1])]:
        pair = _pair(name, labels)
        cert = jm_regular(pair)
        assert cert.regular
        assert toledo_rank(pair, cert.e) == pair.zeta_pairing()


def test_jm_regular_scales_with_a_non_integral_open_element():
    """With c e as the open-orbit element, the certificate is f / c exactly."""
    for name, labels in [("A2", [1, 1]), ("A3", [1, 0, 1]), ("G2", [0, 1])]:
        cert = jm_regular(_pair(name, labels))
        for c in (Q(1, 2), Q(-3, 2), Q(2, 3)):
            pair = _pair(name, labels)
            pair._open[0] = c * cert.e  # the element that seed 0 would search for
            scaled = jm_regular(pair)
            assert scaled.regular and (scaled.e, scaled.f) == (c * cert.e, cert.f * (1 / c))


def test_dual_toledo_factor_values():
    # depth 2, both extreme roots long
    assert dual_toledo_factor(_pair("A2", [1, 0])) == -1
    # five-piece gradings: -1/2 generically, -1 for the symplectic case
    assert dual_toledo_factor(_pair("A2", [1, 1])) == Q(-1, 2)
    assert dual_toledo_factor(_pair("C2", [1, 0])) == -1


def test_gamma_choice_irrelevant():
    pair = _pair("A2", [1, 1])
    alg = pair.algebra
    norms = {alg.rs.norm(alg.basis_root(i)) for i in pair.grading.piece(1)}
    assert norms == {pair.gamma_norm}


@pytest.mark.parametrize("dims", SMALL_DIMS)
def test_rank_monotonicity_on_orbits(dims):
    # the quiver side (rank tuple -> strings -> trace) against the Chevalley
    # side (embedded element -> Toledo rank in the block grading of sl_n)
    qd = QuiverDims(dims)
    zg = quiver_grading(qd)
    pair = vinberg_pair(zg)
    open_rank = pair_rank(pair)
    maximal = maximal_rank_tuple(qd)
    for rt, mult in enumerate_orbits(qd):
        e = embed_quiver_element(zg, qd, string_representative(qd, mult))
        if not e:
            continue
        r = toledo_rank(pair, e)
        assert r == orbit_toledo_rank(qd, rt)
        assert 0 <= r <= open_rank
        is_open = orbit_dimension(pair, e) == pair.dim_piece
        assert (r == open_rank) == is_open
        assert is_open == (rt == maximal)
