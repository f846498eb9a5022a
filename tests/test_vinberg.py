import random
from collections import Counter
from fractions import Fraction as Q
from itertools import product
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CLI_TYPES,
    DIAGRAM_AUTOMORPHISMS,
    SMALL_DIMS,
    TYPE_LIST,
    dims_id,
    embed_quiver_element,
    moved_labels,
    quiver_grading,
    run_python,
)
import oracles
from oracles import (
    basis_index,
    basis_root,
    block_jm_regular,
    cartan_element,
    chi_t_killing,
    coordinate,
    coroot,
    dense,
    even_diagrams,
    fraction_bracket,
    fraction_normalized_form,
    from_sparse,
    interval_end_dimension,
    is_normalised,
    orbit_toledo_rank,
    project,
    quiver_end_dimension,
    root_vector,
    string_representative,
    toledo_rank,
    triple_parts,
    zero_one_gradings,
    zeta_prime_norm,
)

from gradedlie import quiver, vinberg
from gradedlie.chevalley import ChevalleyAlgebra, Element, build_algebra
from gradedlie.grading import root_grading, z_grading_from_labels
from gradedlie.linalg import RationalMatrix, rank, solve
from gradedlie.quaternionic import build_quaternionic, quaternionic_labels
from gradedlie.quiver import (
    QuiverDims,
    enumerate_orbits,
    maximal_rank_tuple,
)
from gradedlie.rootsystem import LieType, build_root_system
from gradedlie.vinberg import (
    GradedPair,
    Sl2Triple,
    VinbergPair,
    complete_triple,
    generic_element,
    jm_regular,
    jm_triple,
    killing_dual_norm,
    normalized_form,
    orbit_dimension,
    pair_rank,
    root_set_triple,
    set_triple,
)


def _pair(name, labels):
    alg = build_algebra(LieType.parse(name))
    return VinbergPair(z_grading_from_labels(alg, labels))


def test_pair_at_degree_one_is_the_grading(sl3):
    """The pair at degree 1 reads the grading as it is."""
    zg = z_grading_from_labels(sl3, [1, 1])
    pair = VinbergPair(zg)
    assert pair.grading is zg and pair.degree == 1 and pair.zeta == zg.zeta
    assert [pair.piece(j) for j in range(-2, 3)] == [zg.piece(j) for j in range(-2, 3)]


def test_pair_at_degree_minus_two_scales_pieces_and_zeta(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    pair = VinbergPair(zg, -2)
    assert [pair.piece(j) for j in (-1, 0, 1)] == [zg.piece(2), zg.piece(0), zg.piece(-2)]
    assert dense(pair.zeta, sl3.dim) == tuple(-x / 2 for x in dense(zg.zeta, sl3.dim))


def test_pair_at_degree_zero_is_refused(sl3):
    with pytest.raises(ValueError, match="^pair degree must be nonzero$"):
        VinbergPair(z_grading_from_labels(sl3, [1, 1]), 0)


def test_pair_at_degree_one_minus_m_reads_the_lowest_piece(sl3):
    zg = z_grading_from_labels(sl3, [1, 1])
    pair = VinbergPair(zg, 1 - zg.depth)
    assert pair.piece(1) == zg.piece(1 - zg.depth)


def test_orbit_dimension_zero(sl3):
    pair = _pair("A2", [1, 1])
    assert orbit_dimension(pair, Element()) == 0


def test_orbit_dimension_open_and_degenerate(sl3):
    pair = _pair("A2", [1, 1])
    alg = pair.algebra
    e_open = root_vector(alg, (1, 0)) + root_vector(alg, (0, 1))
    assert orbit_dimension(pair, e_open) == 2 == len(pair.piece(1))
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
    assert orbit_dimension(pair, e1) == len(pair.piece(1))
    idx = pair.piece(1)
    assert all(coordinate(e1, i) != 0 for i in idx)


def test_jm_triple_sl2(sl2):
    pair = _pair("A1", [1])
    e = root_vector(sl2, (1,))
    triple = jm_triple(pair, e)
    assert triple.h == cartan_element(sl2, [1])
    assert triple.f == root_vector(sl2, (-1,))
    assert triple.h == 2 * pair.zeta


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
    assert triple.h == 2 * pair.zeta


def test_chi_t_is_a_character():
    pair = _pair("A2", [1, 1])
    alg = pair.algebra
    rng = random.Random(4)
    g0 = pair.piece(0)
    for _ in range(50):
        x = from_sparse(alg, {i: Q(rng.randint(-3, 3)) for i in g0})
        y = from_sparse(alg, {i: Q(rng.randint(-3, 3)) for i in g0})
        assert pair.chi_t(alg.bracket(x, y)) == 0


@pytest.mark.parametrize(
    "name,labels", [("A2", [1, 1]), ("B2", [0, 1]), ("C3", [1, 0, 0]), ("G2", [0, 1])]
)
def test_chi_t_form_independence(name, labels):
    pair = _pair(name, labels)
    alg = pair.algebra
    rng = random.Random(9)
    for _ in range(50):
        x = from_sparse(alg, {i: rng.randint(-3, 3) for i in range(alg.dim)})
        assert pair.chi_t(x) == chi_t_killing(pair, x)


def test_normalized_form_highest_root():
    for name in ["A2", "C2", "G2", "B3"]:
        alg = build_algebra(LieType.parse(name))
        t = coroot(alg.rs, alg.rs.highest_root)
        assert normalized_form(alg.rs, t, t) == 2


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]
)
def test_normalized_form_matches_scaled_killing_gram(name):
    # closed form from root data against the trace-of-ad Gram matrix
    alg = build_algebra(LieType.parse(name))
    gram = alg.killing_gram()
    scale = killing_dual_norm(alg, alg.rs.highest_root) / 2
    basis = [from_sparse(alg, {i: Q(1)}) for i in range(alg.dim)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert normalized_form(alg.rs, a, b) == scale * gram[i][j]


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "C3", "D4", "F4"])
def test_form_and_bracket_match_fraction_oracles(name):
    """The integer-table form and the sparse bracket against the dense Fraction
    routes, on elements with negative and non-integral coordinates."""
    alg = build_algebra(LieType.parse(name))
    rng = random.Random(name)

    def draw():
        support = rng.sample(range(alg.dim), rng.randint(1, alg.dim // 2))
        return from_sparse(alg, {i: Q(rng.randint(-6, 6), rng.randint(1, 6)) for i in support})

    for _ in range(40):
        a, b = draw(), draw()
        assert is_normalised(a) and is_normalised(b)
        dense_a, dense_b = dense(a, alg.dim), dense(b, alg.dim)
        assert normalized_form(alg.rs, a, b) == fraction_normalized_form(alg, dense_a, dense_b)
        out = alg.bracket(a, b)
        assert is_normalised(out)
        assert dense(out, alg.dim) == fraction_bracket(alg, dense_a, dense_b)
        assert normalized_form(alg.rs, out, a) == fraction_normalized_form(alg, dense(out, alg.dim), dense_a)


def test_sl2_certificate_survives_python_dash_o():
    """Under ``python -O`` a triple with one wrong f coordinate still raises AssertionError."""
    script = (
        "from gradedlie.chevalley import Element, build_algebra\n"
        "from gradedlie.rootsystem import LieType\n"
        "from gradedlie.vinberg import Sl2Triple\n"
        "alg = build_algebra(LieType.parse('A1'))\n"
        "e, f = (Element({alg.rank + alg.rs.roots.index(a): c}) for a, c in (((1,), 1), ((-1,), 2)))\n"
        "try:\n"
        "    Sl2Triple(h=Element({0: 1}), e=e, f=f).verify(alg)\n"
        "except AssertionError as exc:\n"
        "    print('AssertionError', exc)\n"
    )
    assert run_python("-O", "-c", script).stdout == "AssertionError sl2 relation [e, f] = h fails\n"


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
    assert complete_triple(pair, generic_element(pair, 0), 2 * pair.zeta) is None


@pytest.mark.parametrize("name,labels", [("A2", [1, 1]), ("A5", [0, 1, 0, 1, 0])])
def test_complete_triple_at_twice_zeta_verified(name, labels):
    pair = _pair(name, labels)
    e, two_zeta = generic_element(pair, 0), 2 * pair.zeta
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
        complete_triple(pair, generic_element(pair, 0), 2 * pair.zeta)


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
    assert triple_parts(complete_triple(pair, e, triple.h)) == triple_parts(triple)


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
            scaled = complete_triple(pair, c * t.e, 2 * pair.zeta)
            assert jm_regular(pair) and (scaled.e, scaled.f) == (c * t.e, t.f * (1 / c))


CENSUS = ["A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]


def census_pairs(name):
    """The degree-1 pairs of every grading of the type with labels in {0, 1, 2} and g_1 != 0."""
    alg = build_algebra(LieType.parse(name))
    for labels in product((0, 1, 2), repeat=alg.rank):
        if 1 in labels:  # a degree-1 root has one simple root of label 1
            yield labels, VinbergPair(z_grading_from_labels(alg, list(labels)))


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
            assert (h == 2 * pair.zeta) == jm_regular(pair), (labels, seed)
            assert pair.chi_t(h) / 2 == pair_rank(pair), (labels, seed)


@pytest.mark.parametrize("name", CENSUS + [f"quaternionic-{t}" for t in TYPE_LIST])
def test_jm_regular_matches_block_solve(name):
    """The pair's triple against the block solve of [e, f] = 2 zeta: same verdict, and the
    same f when regular.  A negative verdict's witness is the triple itself: it verifies,
    its e has an open orbit, and its h is not 2 zeta.  The block solve on the dense e of
    seeds 0 and 1 gives the same verdict."""
    if name.startswith("quaternionic-"):
        graded = build_quaternionic(LieType.parse(name.partition("-")[2]))
        cases = [("one", graded.one), ("top", graded.top), ("low", graded.low)]
    else:
        cases = census_pairs(name)
    for key, pair in cases:
        t, regular = pair.triple(), jm_regular(pair)
        assert (regular, t.f if regular else None) == block_jm_regular(pair, t.e), key
        if not regular:
            assert t.verify(pair.algebra).h != 2 * pair.zeta, key
            assert orbit_dimension(pair, t.e) == len(pair.piece(1)), key
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
        roots = [basis_root(alg.rs, i) for i in triple.e.num]
        assert set(triple.e.num.values()) == {1} and triple.e.den == 1, labels
        assert rank(RationalMatrix(roots)) == len(roots), labels
        assert not any(tuple(map(sub, a, b)) in alg.rs.codes for a in roots for b in roots), labels
        assert orbit_dimension(pair, triple.e) == len(pair.piece(1)), labels
        c = {a: coordinate(triple.f, basis_index(alg.rs, tuple(-x for x in a))) for a in roots}
        assert len(triple.f.num) == len(roots), labels
        assert triple.h == sum((c[a] * coroot(alg.rs, a) for a in roots), Element()), labels
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
        e, two_zeta = generic_element(pair, 0), 2 * pair.zeta
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
    """Ranks and verdicts, asked twice: D4 (1,0,1,1) has no root set, so the pair builds its
    algebra and takes one dense search and one completion in all; A2 (1,1) has one, found at
    root level, and builds no algebra."""
    calls = _count_calls(monkeypatch, ["root_set_triple", "build_algebra", "generic_element", "jm_triple"])
    for name, labels, expected in [
        ("D4", [1, 0, 1, 1], ({"root_set_triple": 1, "generic_element": 1, "jm_triple": 1}, True)),
        ("A2", [1, 1], ({"root_set_triple": 1}, False)),
    ]:
        calls.clear()
        pair = VinbergPair(root_grading(build_root_system(LieType.parse(name)), labels))
        for _ in range(2):
            pair_rank(pair)
            jm_regular(pair)
        built = calls.pop("build_algebra", 0) > 0
        assert (dict(calls), built) == expected, name


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


def _graded(name, labels):
    return GradedPair(z_grading_from_labels(build_algebra(LieType.parse(name)), labels))


def test_graded_pair_dual_factor_values():
    # depth 2, both extreme roots long; the top pair is the degree-1 pair
    graded = _graded("A2", [1, 0])
    assert graded.dual_factor() == -1 and graded.top is graded.one
    # five-piece gradings: -1/2 generically, -1 for the symplectic case
    assert _graded("A2", [1, 1]).dual_factor() == Q(-1, 2)
    assert _graded("C2", [1, 0]).dual_factor() == -1


def test_graded_pair_beyond_the_highest_root_grading():
    """A3 (1,2,1) has depth 5.  Its record's interval at genus 2 and lambda -1/2 is empty:
    lambda lies outside the formula's range at r_+ = 2, -r_-/d = 4 and zeta-pairing 20."""
    graded = _graded("A3", [1, 2, 1])
    assert graded.one.grading.depth == 5
    assert [len(pair.piece(1)) for pair in (graded.one, graded.top, graded.low)] == [2, 1, 1]
    assert graded.ranks() == (2, 1)
    assert graded.one.zeta_pairing() == 20
    assert graded.dual_factor() == Q(-1, 4)
    assert graded.interval(2, Q(-1, 2)) == (5, 0)


@pytest.mark.parametrize(
    "name,labels", [("A2", "1,1"), ("A3", "1,2,1"), ("C3", "highest"), ("E6", "highest"), ("B3", "1,0,0")]
)
def test_graded_pair_reads_one_grading_at_each_degree(name, labels):
    """Each pair of the record is the one grading read at its degree k = 1, m-1, 1-m: its
    piece j is g_{jk}, its zeta is zeta/k, and gamma is a longest root of g_k.  "highest" is
    the highest-root grading; B3 (1,0,0) has depth 2, where ``top`` is ``one``."""
    alg = build_algebra(LieType.parse(name))
    p = quaternionic_labels(alg.rs) if labels == "highest" else map(int, labels.split(","))
    zg = z_grading_from_labels(alg, list(p))
    graded, m = GradedPair(zg), zg.depth
    assert [pair.degree for pair in (graded.one, graded.top, graded.low)] == [1, m - 1, 1 - m]
    for pair in (graded.one, graded.top, graded.low):
        assert pair.grading is zg
        assert all(pair.piece(j) == zg.piece(j * pair.degree) for j in range(-m, m + 1))
        assert pair.zeta * pair.degree == zg.zeta
        assert basis_index(alg.rs, pair.gamma) in pair.piece(1)
        assert all(alg.rs.length_class(basis_root(alg.rs, i)) <= alg.rs.length_class(pair.gamma) for i in pair.piece(1))


def test_vinberg_pair_at_a_degree_with_no_piece_is_refused(sl3):
    """A2 (1,1) has depth 3, and A2 (2,0) has no odd degree."""
    with pytest.raises(ValueError, match="^grading has no degree-3 piece$"):
        VinbergPair(z_grading_from_labels(sl3, [1, 1]), 3)
    with pytest.raises(ValueError, match="^grading has no degree-1 piece$"):
        VinbergPair(z_grading_from_labels(sl3, [2, 0]))


def test_gamma_choice_irrelevant():
    pair = _pair("A2", [1, 1])
    alg = pair.algebra
    norms = {alg.rs.norm(basis_root(alg.rs, i)) for i in pair.piece(1)}
    assert norms == {alg.rs.norm(pair.gamma)}


@pytest.mark.parametrize("dims", SMALL_DIMS, ids=dims_id)
def test_rank_monotonicity_on_orbits(dims):
    # the quiver side (rank tuple -> strings -> trace) against the Chevalley
    # side (embedded element -> Toledo rank in the block grading of sl_n)
    qd = QuiverDims(dims)
    zg = quiver_grading(qd)
    pair = VinbergPair(zg)
    open_rank = pair_rank(pair)
    maximal = maximal_rank_tuple(qd)
    for rt, mult in enumerate_orbits(qd):
        e = embed_quiver_element(zg, qd, string_representative(qd, mult))
        if not e:
            continue
        r = toledo_rank(pair, e)
        assert r == orbit_toledo_rank(qd, rt)
        assert 0 <= r <= open_rank
        is_open = orbit_dimension(pair, e) == len(pair.piece(1))
        assert (r == open_rank) == is_open
        assert is_open == (rt == maximal)


# -- diagram automorphisms ---------------------------------------------------


def pair_verdicts(alg, labels):
    """(rank_T, JM verdict) of the grading's degree-1 pair; None when it has no degree-1 piece."""
    zg = z_grading_from_labels(alg, list(labels))
    if not zg.piece(1):
        return None
    pair = VinbergPair(zg)
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


@pytest.mark.parametrize("dims", SMALL_DIMS, ids=dims_id)
def test_hom_rule_matches_a_dense_centralizer(dims):
    """dim End(M) by the Hom rule on intervals equals the dense kernel of phi -> phi f - f phi
    on every orbit's string representative."""
    qd = QuiverDims(dims)
    for _, mult in enumerate_orbits(qd):
        assert interval_end_dimension(mult) == quiver_end_dimension(qd, string_representative(qd, mult)), mult


@pytest.mark.parametrize("dims", SMALL_DIMS + [(2, 2, 2), (2, 2, 3), (1, 2, 3, 2, 1)], ids=dims_id)
def test_every_quiver_orbit_on_its_root_set_triple(dims):
    """Each orbit's string representative, embedded in the block grading of sl_n, is the sum
    of e_beta over its support S, a partial permutation and so difference-free.  The explicit
    triple on S has chi_T(h)/2 = the closed form ``quiver.toledo_rank``, and the orbit dimension is
    sum d_j^2 - dim End(M)."""
    qd = QuiverDims(dims)
    pair = VinbergPair(quiver_grading(qd))
    alg, rs = pair.algebra, pair.algebra.rs
    squares = sum(d * d for d in dims)
    for _, mult in enumerate_orbits(qd):
        e = embed_quiver_element(pair.grading, qd, string_representative(qd, mult))
        roots = [basis_root(rs, i) for i in e.num]
        assert all(rs.codes[a] - rs.codes[b] not in rs.lengths for a in roots for b in roots)
        triple = set_triple(rs, list(e.num)).verify(alg) if roots else Sl2Triple(e, e, e)  # the zero orbit: e = 0
        assert triple.e == e
        assert pair.chi_t(triple.h) / 2 == quiver.toledo_rank(mult), mult
        assert orbit_dimension(pair, e) == squares - interval_end_dimension(mult), mult


# -- the root-level route against the table route ------------------------------

ROOT_LEVEL_CENSUS = ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]


def graded_pairs(rs, labels):
    """The one, top and low pairs of a grading (top is one at depth 2), keyed by labels and name."""
    graded = GradedPair(root_grading(rs, list(labels)))
    return [((tuple(labels), key), getattr(graded, key)) for key in ("one", "top", "low")]


def census_01(name):
    """The pairs of every grading of the type with labels in {0, 1} and a degree-1 piece."""
    rs = build_root_system(LieType.parse(name))
    return [kp for labels in product((0, 1), repeat=rs.rank) if any(labels) for kp in graded_pairs(rs, labels)]


def root_level_answer(pair):
    """(triple, certified rank) of the root-level route on the pair, or None when it finds no root set."""
    triple = vinberg.root_set_triple(pair)
    return triple and (triple, vinberg.certified_rank(pair, list(triple.e.num)))


def table_agrees(pair, answer) -> bool:
    """The table route's view of a root-level answer: the triple verifies on the built table,
    its certified rank is at most ``orbit_dimension``, which is dim g_1, and rank_T and the JM
    verdict equal those of the dense route's triple."""
    if answer is None:
        return False
    triple, certified = answer
    alg = pair.algebra
    try:
        triple.verify(alg)
    except AssertionError:
        return False
    dense_h = jm_triple(pair, generic_element(pair)).h
    return (
        certified <= orbit_dimension(pair, triple.e) == len(pair.piece(1))
        and pair.chi_t(triple.h) == pair.chi_t(dense_h)
        and (triple.h == 2 * pair.zeta) == (dense_h == 2 * pair.zeta)
    )


def table_support(pair, S):
    """The nonzero pattern of the built table's ad e on the degree-0 root vectors, as ``ad_support``
    reads it: per degree-0 root, the codes of the degree-1 rows its column reaches."""
    alg = pair.algebra
    rs, g1, zero = alg.rs, pair.piece(1), pair.piece(0)[alg.rank:]
    block = alg.ad_block(Element(dict.fromkeys(S, 1)), zero, g1)
    return [{rs.codes[basis_root(rs, g1[k])] for k, row in enumerate(block) if row[c]} for c in range(len(zero))]


@pytest.mark.parametrize("name", ROOT_LEVEL_CENSUS + [f"quaternionic-{t}" for t in CLI_TYPES])
def test_root_level_route_matches_the_table_route(name):
    """Every pair of the census takes the root-level route, and the table agrees with it: see
    ``table_agrees``; its root set's ``ad_support`` is the table's nonzero pattern.  The one
    exception is D4 (1,0,1,1), which has no root set (the dense fallback)."""
    if name.startswith("quaternionic-"):
        rs = build_root_system(LieType.parse(name.partition("-")[2]))
        cases = graded_pairs(rs, quaternionic_labels(rs))
    else:
        cases = census_01(name)
    for key, pair in cases:
        answer = root_level_answer(pair)
        if name == "D4" and key == ((1, 0, 1, 1), "one"):
            assert answer is None
            continue
        assert table_agrees(pair, answer), key
        S = list(answer[0].e.num)
        assert vinberg.ad_support(pair, S) == table_support(pair, S), key


def test_uncertified_root_set_takes_the_fallback():
    """D5 (1,0,1,0,0) has an open root set that the sign-free certificate cannot confirm: the
    pair builds its algebra and completes the dense e, whose verdicts the block solve shares."""
    pair = VinbergPair(root_grading(build_root_system(LieType.parse("D5")), [1, 0, 1, 0, 0]))
    assert root_set_triple(pair) is None
    t, regular = pair.triple(), jm_regular(pair)
    assert t.e == generic_element(pair)
    assert (regular, t.f if regular else None) == block_jm_regular(pair, t.e)


MUTANT_CENSUS = ["A3", "B3", "C3", "G2"]


def mutant_is_rejected() -> bool:
    """Whether the census check refuses the root-level route, as it is now, on some pair of
    MUTANT_CENSUS: the route finds no root set, or the table disagrees with its answer."""
    return not all(table_agrees(pair, root_level_answer(pair)) for name in MUTANT_CENSUS for _, pair in census_01(name))


def test_mutant_reading_an_extra_entry_is_rejected(monkeypatch):
    """One extra entry read as nonzero: the first empty root column reaches the lowest row."""
    real = vinberg.ad_support

    def extra(pair, S):
        columns = real(pair, S)
        rs = pair.grading.rs
        empty = next((hit for hit in columns if not hit), None)
        if empty is not None:
            empty.add(min(rs.codes[basis_root(rs, i)] for i in pair.piece(1)))
        return columns

    assert not mutant_is_rejected()
    monkeypatch.setattr(vinberg, "ad_support", extra)
    assert mutant_is_rejected()


class _DifferencesHidden(dict):
    """Root codes -> length classes whose ``in`` is false on ``hidden``."""

    def __init__(self, lengths, hidden):
        super().__init__(lengths)
        self.hidden = hidden

    def __contains__(self, code):
        return code not in self.hidden and dict.__contains__(self, code)


def test_mutant_allowing_a_root_difference_in_s_is_rejected():
    """With the degree-0 roots hidden from the search's root test, S may hold a root difference.
    Adding e_{beta+alpha} to e_beta stays in its G_0-orbit, so the greedy seldom keeps one; on A6
    (0,1,0,1,0,1) it does, certifies the set, and the table refuses the triple ([e, f] != h)."""
    t, labels = LieType.parse("A6"), [0, 1, 0, 1, 0, 1]
    pair = VinbergPair(root_grading(build_root_system(t), labels))
    assert table_agrees(pair, root_level_answer(pair))
    rs = build_root_system.__wrapped__(t)  # a fresh root system, whose root test the mutant changes
    zg = root_grading(rs, labels)
    rs.lengths = _DifferencesHidden(rs.lengths, {rs.codes[basis_root(rs, i)] for i in zg.piece(0)[rs.rank:]})
    answer = root_level_answer(VinbergPair(zg))
    roots = [basis_root(rs, i) for i in answer[0].e.num]
    assert any(tuple(map(sub, a, b)) in rs.codes for a in roots for b in roots)
    assert not table_agrees(pair, answer)


def test_mutant_solving_h_without_one_row_is_rejected(monkeypatch):
    """set_triple's Cartan system with its last row dropped, so one c_beta is left free."""
    real = vinberg.solve

    def short(m, b):
        if m.rows == m.cols and list(b) == [2] * m.rows:  # set_triple's square system
            return real(RationalMatrix(list(m)[:-1], m.cols), list(b)[:-1])
        return real(m, b)

    monkeypatch.setattr(vinberg, "solve", short)
    assert mutant_is_rejected()


def test_mutant_skipping_the_cartan_block_is_rejected(monkeypatch):
    """certified_rank without the Cartan block's rank: A2 (1,1), whose g_0 is the Cartan alone,
    is certified no more, and the route pin of every such pair fails."""
    monkeypatch.setattr(vinberg, "rank", lambda m: 0)
    assert root_set_triple(VinbergPair(root_grading(build_root_system(LieType.parse("A2")), [1, 1]))) is None
    assert mutant_is_rejected()


GAP_TYPES = ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]


def test_toledo_gap_is_the_norm_of_zeta_prime():
    """On every one/top/low pair of the {0,1}-gradings, zeta-pairing - rank_T = B*(gamma, gamma)
    B(zeta', zeta') >= 0 with zeta' = zeta - h/2, and it is zero exactly on the JM-regular pairs
    (ROADMAP item 38).  B*(gamma, gamma) is held to the form on the piece's roots, and the identity
    must fail with gamma taken short and with h taken from the triple of another degree's pair."""
    pairs = regular = short_fails = swapped_fails = 0
    for name in GAP_TYPES:
        rs = build_root_system(LieType.parse(name))
        shortest = min(rs.norm(a) for a in rs.roots)
        for zg in zero_one_gradings(rs):
            graded = GradedPair(zg)
            degrees = [graded.one] + ([graded.top] if graded.top is not graded.one else []) + [graded.low]
            for pair, other in zip(degrees, degrees[1:] + degrees[:1]):
                at = (name, zg.dims(), pair.degree)
                assert pair.norm == max(rs.form_value(a, a) for a in (basis_root(rs, i) for i in pair.piece(1)))
                h, gap = pair.triple().h, pair.zeta_pairing() - pair_rank(pair)
                assert gap == zeta_prime_norm(pair, h, pair.norm) >= 0, at
                assert (gap == 0) == jm_regular(pair), at
                pairs, regular = pairs + 1, regular + (gap == 0)
                short_fails += gap != zeta_prime_norm(pair, h, shortest)
                swapped_fails += gap != zeta_prime_norm(pair, other.triple().h, pair.norm)
    assert (pairs, regular) == (342, 88)
    assert short_fails and swapped_fails


EVEN_TYPES = [f"A{r}" for r in range(1, 8)] + [f"{f}{r}" for f in "BC" for r in range(2, 6)] + ["D4", "D5", "D6"]


def jm_regular_zero_one_labels(name: str) -> set:
    """The nonzero {0,1}-labels whose degree-1 pair is JM-regular."""
    rs = build_root_system(LieType.parse(name))
    zero_one = (p for p in product((0, 1), repeat=rs.rank) if any(p))
    return {p for p in zero_one if jm_regular(VinbergPair(root_grading(rs, p)))}


def halved_even_diagrams(name: str) -> set:
    return {tuple(x // 2 for x in d) for d in even_diagrams(LieType.parse(name))}


def test_jm_regular_zero_one_gradings_are_the_halved_even_diagrams(monkeypatch):
    """The JM-regular {0,1}-gradings are exactly the halved nonzero even weighted Dynkin diagrams
    (ROADMAP item 38), counted from partitions by ``oracles.even_diagrams``; the counts are the
    ROADMAP's.  Without the very even doubling (D4, D6), or without the orthogonal (B, D)
    even-multiplicity rule (D4-D6), the partitions give another set.  On B that rule changes no
    even diagram: a partition of 2r + 1 it rejects has an odd part too, and so odd labels."""
    regular = {name: jm_regular_zero_one_labels(name) for name in EVEN_TYPES}
    for name in EVEN_TYPES:
        assert regular[name] == halved_even_diagrams(name), name
    counts = [len(regular[n]) for n in ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "C4", "D4", "D5"]]
    assert counts == [1, 3, 2, 6, 4, 2, 4, 7, 4, 6, 9, 9]
    with monkeypatch.context() as m:
        m.setattr(oracles, "very_even", lambda family, parts: False)
        assert any(regular[name] != halved_even_diagrams(name) for name in EVEN_TYPES)
    with monkeypatch.context() as m:
        rule = oracles.multiplicity_rule
        m.setattr(oracles, "multiplicity_rule", lambda family, parts: family in "BD" or rule(family, parts))
        assert any(regular[name] != halved_even_diagrams(name) for name in EVEN_TYPES)
