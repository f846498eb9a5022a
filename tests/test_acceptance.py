"""End-to-end acceptance checks.

The paper's numeric claims are the rows of ``gradedlie.checks.paper_checks``,
the table ``verify-paper`` runs: ``test_paper_check[<id>]`` asserts each row
at seed 0, and ``test_1``, ``test_3``, ``test_4`` and ``test_6`` name the rows
of the rank table, the symplectic exception, the coarse bound interval and
the two chain examples.  The other tests check more than a row states:
certificates of the extreme pieces, the quiver Toledo formulas re-derived
over a wider range, the lift modes, the cross-cutting exactness properties,
and agreement between the quiver and Chevalley pipelines.
"""

import random
from fractions import Fraction as Q

import pytest

from conftest import PAPER_CHECKS, assert_paper_check, embed_quiver_element, quiver_grading
from oracles import chi_t_killing, dims_for_labels, orbit_toledo_rank, string_representative

from gradedlie.cayley import cayley_pair, verify_iso_and_character
from gradedlie.checks import paper_checks
from gradedlie.chevalley import build_algebra
from gradedlie.grading import kac_labels, kac_lift_check, z_grading_from_labels
from gradedlie.quaternionic import build_quaternionic, verify_extreme_pieces
from gradedlie.quiver import (
    QuiverDims,
    QuiverHiggsTopology,
    enumerate_orbits,
    maximal_rank_tuple,
    quiver_jm_regular,
    toledo_invariant,
)
from gradedlie.rootsystem import LieType, build_root_system
from gradedlie.vinberg import (
    generic_element,
    jm_regular,
    jm_triple,
    orbit_dimension,
    pair_rank,
    toledo_rank,
    vinberg_pair,
)

QUATERNIONIC_TYPES = ["A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]

# The ids verify-paper reported before the table existed, default and --extended.
PER_TYPE = ("quaternionic-ranks", "extreme-pieces-regular")
DEFAULT_IDS = {f"{kind}-{t}" for kind in PER_TYPE for t in QUATERNIONIC_TYPES} | {
    "sp-degree1-not-regular-C2",
    "sp-degree1-not-regular-C3",
    "coarse-bounds-kappa1",
    "coarse-bounds-kappa2",
    "quiver-toledo-two-vertex",
    "quiver-toledo-111",
    "cayley-111",
    "cayley-222",
    "kac-a2-all-lift",
    "kac-g2-no-lift",
}
EXTENDED_IDS = DEFAULT_IDS | {f"{kind}-{t}" for kind in PER_TYPE for t in ("E7", "E8")}


@pytest.mark.parametrize("check_id", list(PAPER_CHECKS))
def test_paper_check(check_id):
    assert_paper_check(check_id)


def test_paper_check_ids():
    default = [row.id for row in paper_checks(extended=False)]
    assert len(default) == len(set(default)) == 28
    assert set(default) == DEFAULT_IDS
    assert len(EXTENDED_IDS) == 32 and set(PAPER_CHECKS) >= EXTENDED_IDS


@pytest.mark.parametrize("name", QUATERNIONIC_TYPES)
def test_1_quaternionic_rank_table(name):
    assert_paper_check(f"quaternionic-ranks-{name}")


@pytest.mark.parametrize("name", QUATERNIONIC_TYPES)
def test_2_extreme_pieces_jm_regular_with_certificates(name):
    qd = build_quaternionic(LieType.parse(name))
    report = verify_extreme_pieces(qd)
    assert report.plus.regular and report.minus.regular
    alg = qd.algebra
    for cert, pair in ((report.plus, qd.pair(2)), (report.minus, qd.pair(-2))):
        two_zeta = tuple(2 * x for x in pair.grading.zeta)
        assert alg.bracket(cert.e, cert.f) == two_zeta


@pytest.mark.parametrize("name", ["C2", "C3"])
def test_3_symplectic_degree_one_not_jm_regular(name):
    assert_paper_check(f"sp-degree1-not-regular-{name}")


def test_4_coarse_bounds_at_genus_two():
    assert_paper_check("coarse-bounds-kappa2")
    assert_paper_check("coarse-bounds-kappa1")


def test_5_quiver_toledo_formulas():
    rng = random.Random(0)
    for _ in range(50):
        p, q, a = rng.randint(1, 7), rng.randint(1, 7), rng.randint(-6, 6)
        tau = toledo_invariant(QuiverHiggsTopology((p, q), (a, -a), 2))
        assert tau == 2 * Q(p * (-a) - q * a, p + q)
    # independent re-derivation of the three-block value
    ranks, degrees = (1, 1, 1), (1, 0, -1)
    alpha = Q(sum(j * d for j, d in enumerate(ranks)), sum(ranks))
    oracle = 2 * sum((Q(j) - alpha) * d for j, d in enumerate(degrees))
    tau = toledo_invariant(QuiverHiggsTopology(ranks, degrees, 2))
    assert tau == oracle == -4


def test_6_cayley_examples():
    assert_paper_check("cayley-111")
    assert_paper_check("cayley-222")


def test_7_kac_lifting():
    a2 = build_root_system(LieType.parse("A2"))
    seen_automorphism = False
    for p0 in range(4):
        for p1 in range(4 - p0):
            p2 = 3 - p0 - p1
            verdict = kac_lift_check(a2, kac_labels(a2, [p0, p1, p2]))
            assert verdict.lifts
            assert verdict.mode in ("directly", "after automorphism")
            seen_automorphism |= verdict.mode == "after automorphism"
    assert seen_automorphism
    g2 = build_root_system(LieType.parse("G2"))
    assert not kac_lift_check(g2, kac_labels(g2, [0, 1, 0])).lifts


def test_8_property_suites():
    # every build certifies the Jacobi identity on the whole table (generator certificate)
    for name in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]:
        build_algebra(LieType.parse(name))

    # grading closure and chi_T form-independence
    rng = random.Random(1)
    for name, labels in [("A2", [1, 1]), ("B3", [0, 1, 0]), ("C3", [1, 0, 0]), ("G2", [0, 1])]:
        alg = build_algebra(LieType.parse(name))
        zg = z_grading_from_labels(alg, labels)
        degree = {i: j for j, idx in zg.pieces.items() for i in idx}
        for i in range(alg.dim):
            for l in range(alg.dim):
                for target, c in alg.basis_bracket(i, l).items():
                    if c:
                        assert degree[target] == degree[i] + degree[l]
        pair = vinberg_pair(zg)
        for _ in range(50):
            x = tuple(Q(rng.randint(-3, 3)) for _ in range(alg.dim))
            assert pair.chi_t(x) == chi_t_killing(pair, x)
        # triple relations on the jm output
        triple = jm_triple(pair, generic_element(pair, 0))
        triple.verify(alg)

    # transported subspace has full dimension under JM-regularity
    for dims in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 2)]:
        cd = cayley_pair(quiver_grading(QuiverDims(dims)))
        assert cd.dim_v == len(cd.pair.grading.piece(1 - cd.depth))
        assert verify_iso_and_character(cd).iso_full

    # rank monotonicity with the open-orbit equality characterization
    for dims in [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1)]:
        qd = QuiverDims(dims)
        zg = quiver_grading(qd)
        pair = vinberg_pair(zg)
        top_rank = pair_rank(pair)
        for rt, mult in enumerate_orbits(qd):
            e = embed_quiver_element(zg, qd, string_representative(qd, mult))
            if all(x == 0 for x in e):
                continue
            r = toledo_rank(pair, e)
            assert 0 <= r <= top_rank
            assert (r == top_rank) == (orbit_dimension(pair, e) == pair.dim_piece)


def test_9_embedding_consistency():
    # every 0/1 label vector of the rank <= 3 chain algebras
    for rank in (1, 2, 3):
        for bits in range(1, 1 << rank):
            labels = tuple((bits >> k) & 1 for k in range(rank))
            dims = dims_for_labels(labels)
            alg = build_algebra(LieType.parse(f"A{rank}"))
            zg = z_grading_from_labels(alg, list(labels))
            pair = vinberg_pair(zg)
            assert quiver_jm_regular(dims) == jm_regular(pair).regular
            quiver_rank = orbit_toledo_rank(dims, maximal_rank_tuple(dims))
            assert quiver_rank == pair_rank(pair)
