import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from itertools import product
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DIAGRAM_AUTOMORPHISMS,
    SMALL_DIMS,
    TYPE_LIST,
    embed_quiver_element,
    moved_labels,
    quiver_grading,
)
from oracles import (
    block_jm_regular,
    chi_t_killing,
    fraction_bracket,
    fraction_normalized_form,
    interval_end_dimension,
    is_normalised,
    orbit_toledo_rank,
    project,
    quiver_end_dimension,
    root_vector,
    string_representative,
    toledo_rank,
)

from gradedlie import vinberg
from gradedlie.chevalley import ChevalleyAlgebra, Element, build_algebra
from gradedlie.grading import z_grading_from_labels
from gradedlie.linalg import RationalMatrix, rank, solve
from gradedlie.quaternionic import build_quaternionic
from gradedlie.quiver import (
    QuiverDims,
    enumerate_orbits,
    interval_toledo_rank,
    maximal_rank_tuple,
)
from gradedlie.rootsystem import LieType
from gradedlie.vinberg import (
    Sl2Triple,
    complete_triple,
    dual_toledo_factor,
    generic_element,
    jm_regular,
    jm_triple,
    killing_dual_norm,
    normalized_form,
    orbit_dimension,
    pair_rank,
    regrade,
    root_set_triple,
    set_triple,
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
    assert orbit_dimension(pair, Element()) == 0


def test_orbit_dimension_open_and_degenerate(sl3):
    pair = _pair("A2", [1, 1])
    alg = pair.algebra
    e_open = root_vector(alg, (1, 0)) + root_vector(alg, (0, 1))
    assert orbit_dimension(pair, e_open) == 2 == len(pair.grading.piece(1))
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
    assert orbit_dimension(pair, e1) == len(pair.grading.piece(1))
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
        jm_triple(pair, Element())


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
        "from gradedlie.chevalley import build_algebra\n"
        "from gradedlie.rootsystem import LieType\n"
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


@pytest.mark.parametrize("name,labels", [("C2", [1, 0]), ("C3", [1, 0, 0]), ("G2", [1, 0])])
def test_complete_triple_at_twice_zeta_inconsistent(name, labels):
    pair = _pair(name, labels)
    assert complete_triple(pair, generic_element(pair, 0), 2 * pair.grading.zeta) is None


@pytest.mark.parametrize("name,labels", [("A2", [1, 1]), ("A5", [0, 1, 0, 1, 0])])
def test_complete_triple_at_twice_zeta_verified(name, labels):
    pair = _pair(name, labels)
    e, two_zeta = generic_element(pair, 0), 2 * pair.grading.zeta
    triple = complete_triple(pair, e, two_zeta)
    assert (triple.h, triple.e) == (two_zeta, e)
    assert project(pair.grading, triple.f, -1) == triple.f
    triple.verify(pair.algebra)  # all three relations


def test_complete_triple_verifies_its_solution(monkeypatch):
    """A solution off by one coordinate raises AssertionError instead of returning."""
    real_solve = vinberg.solve

    def off_by_one(m, b):
        num, den = real_solve(m, b)
        return [num[0] + den] + num[1:], den

    monkeypatch.setattr(vinberg, "solve", off_by_one)
    pair = _pair("A2", [1, 1])
    with pytest.raises(AssertionError, match="sl2 relation"):
        complete_triple(pair, generic_element(pair, 0), 2 * pair.grading.zeta)


def test_complete_triple_picks_f_in_the_minus_two_eigenspace():
    """For this non-open e of B3 (0,1,0), [e, f] = h leaves a kernel in g_{-1}, and
    its solution with free coordinates zero fails [h, f] = -2f; the (ad_h + 2)
    rows of the stacked system pick the f of the triple."""
    pair = _pair("B3", [0, 1, 0])
    alg, zg = pair.algebra, pair.grading
    e = root_vector(alg, (0, 1, 1)) - 2 * root_vector(alg, (1, 1, 1)) - root_vector(alg, (1, 1, 2))
    assert orbit_dimension(pair, e) < len(zg.piece(1))
    triple = jm_triple(pair, e)
    neg, g0 = zg.piece(-1), zg.piece(0)
    num, den = solve(alg.ad_block(e, neg, g0), [triple.h.num.get(k, 0) for k in g0])
    f_plain = Element({k: n * e.den for k, n in zip(neg, num)}, den * triple.h.den)
    assert alg.bracket(e, f_plain) == triple.h
    assert alg.bracket(triple.h, f_plain) != -2 * f_plain
    assert complete_triple(pair, e, triple.h) == triple


def test_jm_triple_raises_when_completion_fails(monkeypatch):
    monkeypatch.setattr(vinberg, "complete_triple", lambda pair, e, h: None)
    pair = _pair("A2", [1, 1])
    with pytest.raises(RuntimeError, match="sl2 completion system is inconsistent"):
        jm_triple(pair, generic_element(pair, 0))


def test_jm_regular_examples():
    assert jm_regular(_pair("A2", [1, 1]))
    assert not jm_regular(_pair("C2", [1, 0]))
    assert not jm_regular(_pair("C3", [1, 0, 0]))


def test_jm_regular_implies_rank_equals_pairing():
    for name, labels in [("A2", [1, 1]), ("A3", [1, 0, 1]), ("G2", [0, 1])]:
        pair = _pair(name, labels)
        assert jm_regular(pair)
        assert toledo_rank(pair, pair.triple().e) == pair.zeta_pairing()


def test_jm_regular_scales_with_a_non_integral_open_element():
    """With c e as the open-orbit element, the completion at 2 zeta is f / c exactly."""
    for name, labels in [("A2", [1, 1]), ("A3", [1, 0, 1]), ("G2", [0, 1])]:
        pair = _pair(name, labels)
        t = pair.triple()
        for c in (Q(1, 2), Q(-3, 2), Q(2, 3)):
            scaled = complete_triple(pair, c * t.e, 2 * pair.grading.zeta)
            assert jm_regular(pair) and (scaled.e, scaled.f) == (c * t.e, t.f * (1 / c))


CENSUS = ["A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]


def census_pairs(name):
    """The degree-1 pairs of every grading of the type with labels in {0, 1, 2} and g_1 != 0."""
    alg = build_algebra(LieType.parse(name))
    for labels in product((0, 1, 2), repeat=alg.rank):
        if 1 in labels:  # a degree-1 root has one simple root of label 1
            yield labels, vinberg_pair(z_grading_from_labels(alg, list(labels)))


@pytest.mark.parametrize("name", CENSUS)
def test_jm_verdict_is_h_equal_to_twice_zeta(name):
    """Second route: triples through e with h in g_0 are conjugate under the
    centralizer of e in G_0, and zeta is central in g_0, so the pair is
    JM-regular iff the stage-1 triple already has h = 2 zeta.  Open-orbit
    elements are G_0-conjugate, so the dense e of every seed gives the verdict
    and the Toledo rank of the pair's one triple."""
    for labels, pair in census_pairs(name):
        for seed in (0, 1):
            h = jm_triple(pair, generic_element(pair, seed)).h
            assert (h == 2 * pair.grading.zeta) == jm_regular(pair), (labels, seed)
            assert pair.chi_t(h) / 2 == pair_rank(pair), (labels, seed)


@pytest.mark.parametrize("name", CENSUS + [f"quaternionic-{t}" for t in TYPE_LIST])
def test_jm_regular_matches_block_solve(name):
    """The pair's triple against the block solve of [e, f] = 2 zeta: same verdict, and the
    same f when regular.  A negative verdict's witness is the triple itself: it verifies,
    its e has an open orbit, and its h is not 2 zeta.  The block solve on the dense e of
    seeds 0 and 1 gives the same verdict."""
    if name.startswith("quaternionic-"):
        cases = build_quaternionic(LieType.parse(name.partition("-")[2])).items()
    else:
        cases = census_pairs(name)
    for key, pair in cases:
        t, regular = pair.triple(), jm_regular(pair)
        assert (regular, t.f if regular else None) == block_jm_regular(pair, t.e), key
        if not regular:
            assert t.verify(pair.algebra).h != 2 * pair.grading.zeta, key
            assert orbit_dimension(pair, t.e) == len(pair.grading.piece(1)), key
        for seed in (0, 1):
            assert block_jm_regular(pair, generic_element(pair, seed))[0] == regular, (key, seed)


@pytest.mark.parametrize("name", CENSUS)
def test_root_set_triple_is_explicit(name):
    """Wherever the search finds S, e is the unit sum over S, S is linearly independent
    and difference-free, e has an open orbit, and h and f carry one set of c_beta."""
    found = 0
    for labels, pair in census_pairs(name):
        triple = root_set_triple(pair)
        if triple is None:
            continue
        found += 1
        alg = pair.algebra
        roots = [alg.basis_root(i) for i in triple.e.num]
        assert set(triple.e.num.values()) == {1} and triple.e.den == 1, labels
        assert rank(RationalMatrix(roots)) == len(roots), labels
        assert not any(tuple(map(sub, a, b)) in alg.root_index for a in roots for b in roots), labels
        assert orbit_dimension(pair, triple.e) == len(pair.grading.piece(1)), labels
        c = {a: triple.f[alg.root_index[tuple(-x for x in a)]] for a in roots}
        assert len(triple.f.num) == len(roots), labels
        assert triple.h == sum((c[a] * alg.coroot(a) for a in roots), Element()), labels
        triple.verify(alg)
    assert found


@pytest.mark.parametrize("name", CENSUS)
def test_root_set_route_matches_the_dense_route(name):
    """Second route: wherever S exists, chi_T(h_S)/2 is the Toledo rank of the seed-0
    open-orbit element, and h_S = 2 zeta iff that element completes at 2 zeta."""
    for labels, pair in census_pairs(name):
        triple = root_set_triple(pair)
        if triple is None:
            continue
        e, two_zeta = generic_element(pair, 0), 2 * pair.grading.zeta
        assert pair_rank(pair) == pair.chi_t(triple.h) / 2 == toledo_rank(pair, e), labels
        dense_regular = complete_triple(pair, e, two_zeta) is not None
        assert jm_regular(pair) == (triple.h == two_zeta) == dense_regular, labels


def test_no_root_set_falls_back_to_the_dense_route():
    """D4 (1,0,1,1) has no open difference-free root set at any size, so the pair's
    triple completes the default dense e; the dense e of seeds 0 and 1 agree with it."""
    pair = _pair("D4", [1, 0, 1, 1])
    assert root_set_triple(pair) is None
    t, regular = pair.triple(), jm_regular(pair)
    assert t.e == generic_element(pair)
    assert (regular, t.f if regular else None) == block_jm_regular(pair, t.e)
    for seed in (0, 1):
        e = generic_element(pair, seed)
        assert block_jm_regular(pair, e)[0] == regular, seed
        assert pair_rank(pair) == toledo_rank(pair, e), seed


def _count_calls(monkeypatch, names):
    """Count the calls of the named ``vinberg`` functions, by name."""
    calls = Counter()
    for name in names:
        real = getattr(vinberg, name)

        def spy(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(vinberg, name, spy)
    return calls


def test_triple_searches_the_root_set_once_and_densely_once_per_seed(monkeypatch):
    """Ranks and verdicts, asked twice: D4 (1,0,1,1) has no root set, so the pair takes one
    dense search and one completion in all; A2 (1,1) has one and never searches densely."""
    calls = _count_calls(monkeypatch, ["root_set_triple", "generic_element", "jm_triple"])
    for name, labels, expected in [
        ("D4", [1, 0, 1, 1], {"root_set_triple": 1, "generic_element": 1, "jm_triple": 1}),
        ("A2", [1, 1], {"root_set_triple": 1}),
    ]:
        calls.clear()
        pair = _pair(name, labels)
        for _ in range(2):
            pair_rank(pair)
            jm_regular(pair)
        assert dict(calls) == expected, name


def test_generic_element_raises_when_no_sample_is_open(monkeypatch):
    pair = _pair("A2", [1, 1])
    monkeypatch.setattr(vinberg, "orbit_dimension", lambda pair, e: 0)
    with pytest.raises(RuntimeError, match="no open-orbit element found"):
        generic_element(pair, 0)


def test_jm_triple_raises_when_stage_one_is_inconsistent(monkeypatch):
    """The first solve, for f0 with [[e, f0], e] = 2e, finds no solution."""
    pair = _pair("A2", [1, 1])
    e = generic_element(pair, 0)
    real_solve, calls = vinberg.solve, []

    def first_fails(m, b):
        calls.append(m)
        return None if len(calls) == 1 else real_solve(m, b)

    monkeypatch.setattr(vinberg, "solve", first_fails)
    with pytest.raises(RuntimeError, match="sl2 completion system is inconsistent"):
        jm_triple(pair, e)
    assert len(calls) == 1


def test_killing_dual_norm_raises_on_a_degenerate_form(monkeypatch):
    alg = build_algebra(LieType.parse("A2"))
    monkeypatch.setattr(ChevalleyAlgebra, "killing_gram", lambda self: [[0] * self.dim for _ in range(self.dim)])
    with pytest.raises(AssertionError, match="degenerate on the Cartan"):
        killing_dual_norm(alg, alg.rs.highest_root)


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
    assert norms == {alg.rs.norm(pair.gamma)}


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
        is_open = orbit_dimension(pair, e) == len(pair.grading.piece(1))
        assert (r == open_rank) == is_open
        assert is_open == (rt == maximal)


# -- diagram automorphisms ---------------------------------------------------


def pair_verdicts(alg, labels):
    """(rank_T, JM verdict) of the grading's degree-1 pair; None when it has no degree-1 piece."""
    zg = z_grading_from_labels(alg, list(labels))
    if not zg.piece(1):
        return None
    pair = vinberg_pair(zg)
    return pair_rank(pair), jm_regular(pair)


@pytest.mark.parametrize("name", ["A2", "A3", "A4"])
def test_diagram_automorphism_keeps_rank_and_jm_verdict(name):
    """rank_T and the JM verdict on every label vector in {0, 1, 2} equal those of the
    labels reversed."""
    alg = build_algebra(LieType.parse(name))
    verdicts = {labels: pair_verdicts(alg, labels) for labels in product((0, 1, 2), repeat=alg.rank) if any(labels)}
    assert sum(v is not None for v in verdicts.values()) > len(verdicts) // 2
    for labels, verdict in verdicts.items():
        assert verdicts[tuple(moved_labels(DIAGRAM_AUTOMORPHISMS[name], labels))] == verdict, labels


@settings(max_examples=150)
@given(st.data())
def test_diagram_automorphism_keeps_rank_and_jm_verdict_drawn(data):
    """The same on drawn labels of A5 (reversal), D4 (triality) and E6 (1 <-> 6, 3 <-> 5)."""
    name = data.draw(st.sampled_from(["A5", "D4", "E6"]))
    alg = build_algebra(LieType.parse(name))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=alg.rank, max_size=alg.rank).filter(any))
    moved = moved_labels(DIAGRAM_AUTOMORPHISMS[name], labels)
    assert pair_verdicts(alg, moved) == pair_verdicts(alg, labels), (name, labels)


# -- every quiver orbit against the Chevalley side ---------------------------


@pytest.mark.parametrize("dims", SMALL_DIMS)
def test_hom_rule_matches_a_dense_centralizer(dims):
    """dim End(M) by the Hom rule on intervals equals the dense kernel of phi -> phi f - f phi
    on every orbit's string representative."""
    qd = QuiverDims(dims)
    for _, mult in enumerate_orbits(qd):
        assert interval_end_dimension(mult) == quiver_end_dimension(qd, string_representative(qd, mult)), mult


@pytest.mark.parametrize("dims", SMALL_DIMS + [(2, 2, 2), (2, 2, 3), (1, 2, 3, 2, 1)])
def test_every_quiver_orbit_on_its_root_set_triple(dims):
    """Each orbit's string representative, embedded in the block grading of sl_n, is the sum
    of e_beta over its support S, a partial permutation and so difference-free.  The explicit
    triple on S has chi_T(h)/2 = interval_toledo_rank, and the orbit dimension is
    sum d_j^2 - dim End(M)."""
    qd = QuiverDims(dims)
    pair = vinberg_pair(quiver_grading(qd))
    alg, rs = pair.algebra, pair.algebra.rs
    squares = sum(d * d for d in dims)
    for _, mult in enumerate_orbits(qd):
        e = embed_quiver_element(pair.grading, qd, string_representative(qd, mult))
        roots = [alg.basis_root(i) for i in e.num]
        assert all(rs.codes[a] - rs.codes[b] not in rs.lengths for a in roots for b in roots)
        triple = set_triple(alg, roots) if roots else Sl2Triple(e, e, e)  # the zero orbit: e = 0
        assert triple.e == e
        assert pair.chi_t(triple.h) / 2 == interval_toledo_rank(qd, mult), mult
        assert orbit_dimension(pair, e) == squares - interval_end_dimension(mult), mult
