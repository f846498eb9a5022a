from collections import Counter
from fractions import Fraction as Q

import pytest

from conftest import CLI_TYPES, TYPE_LIST, assert_paper_check
from replay import EXAMPLES, GOLDEN, run, slug
from oracles import coroot, form_quaternionic_labels, orbit_toledo_rank, quaternionic_bounds

from gradedlie import cayley, checks, quaternionic, vinberg
from gradedlie.checks import QUATERNIONIC_TYPES, expected_ranks, kappa_rule
from gradedlie.cli import main, q_str
from gradedlie.quaternionic import build_quaternionic, quaternionic_labels
from gradedlie.chevalley import ChevalleyAlgebra, build_algebra
from gradedlie.grading import RootGrading
from gradedlie.quiver import QuiverDims, maximal_rank_tuple, quiver_jm_regular
from gradedlie.rootsystem import LieType, build_root_system
from gradedlie.vinberg import jm_regular, normalized_form


@pytest.mark.parametrize("name", TYPE_LIST)
def test_piece_structure(name):
    grading = build_quaternionic(LieType.parse(name)).one.grading
    dims = grading.dims()
    assert sorted(dims) == [-2, -1, 0, 1, 2]
    assert dims[2] == dims[-2] == 1
    assert dims[1] == dims[-1]
    assert sum(dims.values()) == grading.rs.dim_algebra


def test_a2_piece_dims(sl3):
    assert build_quaternionic(LieType.parse("A2")).one.grading.dims() == {
        -2: 1, -1: 2, 0: 2, 1: 2, 2: 1
    }


def test_c2_piece_dims():
    grading = build_quaternionic(LieType.parse("C2")).one.grading
    assert list(grading.dims()[j] for j in (-2, -1, 0, 1, 2)) == [1, 2, 4, 2, 1]


@pytest.mark.parametrize("name", TYPE_LIST)
def test_grading_element_is_highest_coroot(name):
    grading = build_quaternionic(LieType.parse(name)).one.grading
    assert grading.zeta == coroot(grading.rs, grading.rs.highest_root)


def test_non_integral_kappa_raises_where_it_arises(monkeypatch):
    """A short gamma of G2 has B*(gamma, gamma) = 2/3: the family-rule certificate refuses it,
    so a kappa that is no integer never reaches a report."""
    pair_of = vinberg.VinbergPair

    def short_gamma(zg, degree=1):
        pair = pair_of(zg, degree)
        rs = zg.rs
        pair.gamma = next(a for a in rs.roots if rs.length_class(a) == 1)
        pair.norm = rs.norm(pair.gamma)
        return pair

    monkeypatch.setattr(vinberg, "VinbergPair", short_gamma)
    with pytest.raises(AssertionError, match="^kappa = 2/3 contradicts the family rule for G2$"):
        build_quaternionic.__wrapped__(LieType.parse("G2"))


def test_grading_element_other_than_the_highest_coroot_is_refused(monkeypatch):
    """Labels (1, 1, 1) on A3, where the highest root gives (1, 0, 1)."""
    monkeypatch.setattr(quaternionic, "quaternionic_labels", lambda rs: (1, 1, 1))
    with pytest.raises(AssertionError, match="^grading element differs from the highest-root coroot$"):
        build_quaternionic.__wrapped__(LieType.parse("A3"))


def test_two_dimensional_extreme_piece_is_refused(monkeypatch):
    dims = RootGrading.dims
    monkeypatch.setattr(RootGrading, "dims", lambda self: {**dims(self), 2: 2})
    with pytest.raises(AssertionError, match=r"^unexpected piece structure \{.*2: 2.*\}$"):
        build_quaternionic.__wrapped__(LieType.parse("A3"))


def test_kappa_against_the_wrong_family_rule_is_refused(monkeypatch):
    monkeypatch.setattr(quaternionic, "kappa_rule", lambda t: 1)
    with pytest.raises(AssertionError, match="^kappa = 2 contradicts the family rule for A3$"):
        build_quaternionic.__wrapped__(LieType.parse("A3"))


@pytest.mark.parametrize("name", TYPE_LIST)
def test_pairs_built_with_the_grading(name):
    graded = build_quaternionic(LieType.parse(name))
    grading = graded.one.grading
    assert grading.depth == 3
    for j, pair in zip((1, 2, -2), (graded.one, graded.top, graded.low)):
        assert pair.grading is grading and pair.degree == j
        assert pair.piece(1) == grading.piece(j)
    assert [len(pair.piece(1)) for pair in (graded.top, graded.low)] == [1, 1]


@pytest.mark.parametrize("name", TYPE_LIST)
def test_t_beta_norm(name):
    grading = build_quaternionic(LieType.parse(name)).one.grading
    assert normalized_form(grading.rs, grading.zeta, grading.zeta) == 2


@pytest.mark.parametrize(
    "name,expected", [("A2", 2), ("B2", 1), ("C2", 1), ("C3", 1), ("D4", 2), ("G2", 2), ("F4", 2), ("E6", 2)]
)
def test_kappa(name, expected):
    t = LieType.parse(name)
    assert build_quaternionic(t).one.norm == expected == kappa_rule(t)


@pytest.mark.parametrize("name", TYPE_LIST)
def test_ranks(name):
    t = LieType.parse(name)
    assert [q_str(x) for x in build_quaternionic(t).ranks()] == expected_ranks(t)


IDENTITY_TYPES = (
    list(QUATERNIONIC_TYPES)
    + ["A4", "A6", "A7", "A8"]
    + [f"{family}{rank}" for family in "BC" for rank in range(5, 9)]
    + ["D6", "D7", "D8"]
)


@pytest.mark.parametrize("name", IDENTITY_TYPES)
def test_amw_interval_is_the_kappa_formula(name):
    """The interval from the computed pair equals the closed form at the computed kappa:
    zeta-pairing 2 kappa, dual factor -1/kappa, and the rank table's ranks."""
    t = LieType.parse(name)
    graded = build_quaternionic(t)
    k = graded.one.norm
    assert graded.one.zeta_pairing() == 2 * k
    assert graded.dual_factor() == Q(-1, k)
    ranks = graded.ranks()
    assert [q_str(x) for x in ranks] == expected_ranks(t)
    for genus in range(2, 6):
        for lam in (Q(0), Q(1, 2)):
            assert graded.interval(genus, lam) == quaternionic_bounds(genus, lam, *ranks, k), (genus, lam)


@pytest.mark.parametrize("name", TYPE_LIST)
def test_extreme_pieces_jm_regular(name):
    graded = build_quaternionic(LieType.parse(name))
    for pair in (graded.top, graded.low):
        assert jm_regular(pair)
        assert pair.triple().f is not None and pair.triple().h == 2 * pair.zeta


@pytest.mark.parametrize("name", ["C2", "C3"])
def test_symplectic_degree_one_not_regular(name):
    assert not jm_regular(build_quaternionic(LieType.parse(name)).one)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "D4", "G2", "F4", "E6"])
def test_non_symplectic_degree_one_regular(name):
    assert jm_regular(build_quaternionic(LieType.parse(name)).one)


def test_labels_are_adjacency_indicators(sl3):
    # only the simple roots not orthogonal to the highest root get label 1
    for name in TYPE_LIST:
        alg = build_algebra(LieType.parse(name))
        labels = quaternionic_labels(alg.rs)
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
    rs = build_root_system(LieType.parse(name))
    labels = quaternionic_labels(rs)
    assert labels == form_quaternionic_labels(rs)
    assert all(type(p) is int for p in labels)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_family_a_matches_quiver(n):
    from conftest import quiver_grading

    graded = build_quaternionic(LieType.parse(f"A{n-1}"))
    dims = QuiverDims((1, n - 2, 1))
    assert quiver_jm_regular(dims)
    assert quiver_grading(dims).dims() == graded.one.grading.dims()
    assert [graded.one.grading.dims()[j] for j in (-1, 1)] == [2 * (n - 2)] * 2
    # Toledo ranks agree between the two constructions
    rank_plus, _ = graded.ranks()
    assert orbit_toledo_rank(dims, maximal_rank_tuple(dims)) == rank_plus


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_extended_types(name):
    assert_paper_check(f"quaternionic-ranks-{name}")
    assert_paper_check(f"extreme-pieces-regular-{name}")


def _spy_searches(monkeypatch, key):
    """Count the open-orbit searches of both routes by ``key(pair)``: the root-set
    search under "root set", the dense one under its seed."""
    searches = Counter()
    root_set, dense = vinberg.root_set_triple, vinberg.generic_element

    def root_set_spy(pair):
        searches[key(pair), "root set"] += 1
        return root_set(pair)

    def dense_spy(pair, seed=0):
        searches[key(pair), seed] += 1
        return dense(pair, seed)

    monkeypatch.setattr(vinberg, "root_set_triple", root_set_spy)
    monkeypatch.setattr(vinberg, "generic_element", dense_spy)
    monkeypatch.setattr(cayley, "generic_element", dense_spy)  # the chain examples' dense e
    return searches


@pytest.mark.parametrize("name", ["F4", "C3"])
def test_one_open_orbit_search_per_pair_and_seed(monkeypatch, capsys, name):
    searches = _spy_searches(monkeypatch, lambda pair: pair.piece(1))
    build_quaternionic.cache_clear()  # a cached job would search nothing
    assert main(["quaternionic", "--type", name]) == 0
    # the pairs of g_1, g_2 and g_{-2}, each searched once
    assert sorted(searches.values()) == [1, 1, 1]
    assert len({piece for piece, _ in searches}) == 3


@pytest.mark.parametrize("name", CLI_TYPES)
def test_quaternionic_pairs_take_the_root_set_route(monkeypatch, name):
    """The record's pairs one, top and low (of degrees 1, 2 and -2) find a root set S, so the
    ranks and verdicts run no dense open-orbit search: the dense fallback of
    ``VinbergPair.triple`` serves only library gradings."""

    def dense_spy(pair, seed=0):
        raise AssertionError(f"dense open-orbit search on {name}")

    monkeypatch.setattr(vinberg, "generic_element", dense_spy)
    monkeypatch.setattr(vinberg, "build_algebra", _no_build)  # the root-level route reads no table
    graded = vinberg.GradedPair(build_quaternionic(LieType.parse(name)).one.grading)  # fresh pairs: nothing cached
    for key, pair in (("one", graded.one), ("top", graded.top), ("low", graded.low)):
        assert vinberg.root_set_triple(pair) is not None, key
        vinberg.pair_rank(pair)
        jm_regular(pair)
        assert pair.triple().e == vinberg.root_set_triple(pair).e, key


def _no_build(*args):
    raise AssertionError("a Chevalley algebra was built")


NO_TABLE_TYPES = ["A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]


def test_quaternionic_and_amw_build_no_table(monkeypatch):
    """With no algebra able to build and no cached record, ``quaternionic --type T`` and ``amw --type
    E6 --genus 3`` exit 0 with their reference reports: the README golden where there is one, else
    the report of the table route (every pair's triple completed densely on the built algebra)."""
    jobs = [["quaternionic", "--type", name] for name in NO_TABLE_TYPES] + [["amw", "--type", "E6", "--genus", "3"]]
    goldens = {slug(argv): argv for argv in EXAMPLES}
    reference = {}
    with monkeypatch.context() as table_route:
        table_route.setattr(vinberg, "root_set_triple", lambda pair: None)
        for argv in jobs:
            if slug(argv) not in goldens:
                build_quaternionic.cache_clear()
                reference[slug(argv)] = run(argv)
    for argv in jobs:
        if slug(argv) in goldens:
            reference[slug(argv)] = (0, (GOLDEN / f"{slug(argv)}.out").read_text())
    build_quaternionic.cache_clear()
    monkeypatch.setattr(ChevalleyAlgebra, "__init__", _no_build)
    monkeypatch.setattr(vinberg, "build_algebra", build_algebra.__wrapped__)  # a cached algebra would hide a build
    for argv in jobs:
        assert run(argv) == reference[slug(argv)], argv
    build_quaternionic.cache_clear()  # drop the records built here


@pytest.mark.parametrize("argv", [["verify-paper"], ["verify-paper", "--extended", "--seed", "3"]])
def test_verify_paper_searches_each_pair_once_per_seed(monkeypatch, capsys, argv):
    searched = []  # keeps every pair alive, so that no id is reused
    searches = _spy_searches(monkeypatch, lambda pair: searched.append(pair) or id(pair))
    build_quaternionic.cache_clear()  # cached pairs would search nothing; each run builds its chain examples afresh
    assert main(argv) == 0
    assert set(searches.values()) == {1}
    # three pairs per quaternionic type, one per chain example
    assert len({pair for pair, _ in searches}) == 3 * len(checks.quaternionic_types("--extended" in argv)) + 2


@pytest.mark.parametrize("argv", [["verify-paper"], ["verify-paper", "--extended"]])
def test_verify_paper_reads_each_pair_rank_off_its_triple(monkeypatch, capsys, argv):
    """Each rank is chi_T(h)/2 on the pair's one cached triple, evaluated once per command that
    reads it: ``quaternionic`` reads the pairs of g_1 and g_{-2} of every quaternionic type, and
    ``amw --type`` reads them again on E6 and C3 (in both runs); no rank is cached beside the triple."""
    evaluated = Counter()
    chi_t = vinberg.VinbergPair.chi_t

    def spy(pair, x):
        if pair._triple is not None and x == pair._triple.h:
            evaluated[pair] += 1  # the Counter keeps every pair alive, so none is confused with another
        return chi_t(pair, x)

    monkeypatch.setattr(vinberg.VinbergPair, "chi_t", spy)
    build_quaternionic.cache_clear()  # the run builds its pairs afresh
    assert main(argv) == 0
    # the pairs of g_1 and g_{-2} of every quaternionic type
    assert len(evaluated) == 2 * len(checks.quaternionic_types("--extended" in argv))
    assert sorted(str(pair.algebra.rs.lie_type) for pair, n in evaluated.items() if n > 1) == ["C3", "C3", "E6", "E6"]
    assert set(evaluated.values()) == {1, 2}
