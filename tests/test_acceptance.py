"""End-to-end acceptance checks.

The paper's numeric claims are the rows of ``gradedlie.checks.paper_checks``,
the table ``verify-paper`` runs: ``test_paper_check[<id>]`` asserts each row
at seed 0, ``test_row_argvs_reproduce_the_reported_value`` reruns each row's
CLI invocations, and ``test_1``, ``test_3``, ``test_4`` and ``test_6`` name the
rows of the rank table, the symplectic exception, the coarse bound interval
and the two chain examples.  The other tests check more than a row states:
certificates of the extreme pieces, the quiver Toledo formulas re-derived
over a wider range, the lift modes, the cross-cutting exactness properties,
and agreement between the quiver and Chevalley pipelines.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as Q
from functools import lru_cache

import pytest

from conftest import PAPER_CHECKS, assert_paper_check, embed_quiver_element, quiver_grading
from oracles import (
    basis_bracket,
    chi_t_killing,
    dense_num,
    dims_for_labels,
    from_sparse,
    orbit_toledo_rank,
    string_representative,
    toledo_rank,
)

from gradedlie.cayley import cayley_pair
from gradedlie.checks import paper_checks
from gradedlie.chevalley import build_algebra
from gradedlie.cli import main
from gradedlie.grading import ZmGrading, kac_lift_check, z_grading_from_labels
from gradedlie.linalg import independent_subset
from gradedlie.quaternionic import build_quaternionic
from gradedlie.quiver import (
    QuiverDims,
    enumerate_orbits,
    maximal_rank_tuple,
    quiver_jm_regular,
    toledo_invariant,
)
from gradedlie.rootsystem import LieType, build_root_system
from gradedlie.vinberg import (
    VinbergPair,
    generic_element,
    jm_regular,
    jm_triple,
    orbit_dimension,
    pair_rank,
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
    default = [row.id for row in paper_checks(extended=False, seed=0)]
    assert len(default) == len(set(default)) == 28
    assert set(default) == DEFAULT_IDS
    assert len(EXTENDED_IDS) == 32 and set(PAPER_CHECKS) >= EXTENDED_IDS


def test_two_block_row_is_its_whole_box():
    """The two-block Toledo row runs every (p, q, a) with p, q in 1..3 and a in -2..2 once,
    at every seed: a complete certificate, not a sample."""
    box = {(f"{p},{q}", f"--degrees={a},{-a}") for p in range(1, 4) for q in range(1, 4) for a in range(-2, 3)}
    for seed in (0, 5):
        row = next(row for row in paper_checks(extended=False, seed=seed) if row.id == "quiver-toledo-two-vertex")
        assert len(row.argvs) == len(box) == 45 and {argv[2:4] for argv in row.argvs} == box


def test_a2_lift_row_runs_every_labelling():
    """The A2 lift row runs each of the ten affine labellings (p0, p1, p2) >= 0 with sum 3 once."""
    labellings = [(p0, p1, p2) for p0 in range(4) for p1 in range(4) for p2 in range(4) if p0 + p1 + p2 == 3]
    row = PAPER_CHECKS["kac-a2-all-lift"]
    assert len(labellings) == 10
    assert sorted(row.argvs) == sorted(("kac", "--type", "A2", "--labels", ",".join(map(str, p))) for p in labellings)


def cli_results(argv):
    """The results block of ``gradedlie <argv>``, which must exit 0, read back from its JSON."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return json.loads(out.getvalue())["results"]


@lru_cache(maxsize=None)
def reported_actuals(seed: int):
    """Each row's value as ``verify-paper --seed <seed>`` prints it."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify-paper", "--seed", str(seed)]) == 0
    return {check["id"]: check["actual"] for check in json.loads(out.getvalue())["checks"]}


# every default row at seed 0, and the rows that read the seed at seed 3
ROW_RUNS = [(0, row) for row in paper_checks(extended=False, seed=0)] + [
    (3, row) for row in paper_checks(extended=False, seed=3) if row.id.startswith("cayley-")
]


@pytest.mark.parametrize("seed, row", ROW_RUNS, ids=[f"{row.id}-seed{seed}" for seed, row in ROW_RUNS])
def test_row_argvs_reproduce_the_reported_value(seed, row):
    """A user who reruns a row's argvs and applies its reader gets the value verify-paper reports."""
    assert row.read([cli_results(argv) for argv in row.argvs]) == reported_actuals(seed)[row.id]


@pytest.mark.parametrize("name", QUATERNIONIC_TYPES)
def test_1_quaternionic_rank_table(name):
    assert_paper_check(f"quaternionic-ranks-{name}")


@pytest.mark.parametrize("name", QUATERNIONIC_TYPES)
def test_2_extreme_pieces_jm_regular_with_certificates(name):
    graded = build_quaternionic(LieType.parse(name))
    alg = graded.one.algebra
    for pair in (graded.top, graded.low):
        assert jm_regular(pair)
        t = pair.triple()
        assert alg.bracket(t.e, t.f) == 2 * pair.zeta


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
        tau = toledo_invariant(QuiverDims((p, q)), (a, -a), 2)
        assert tau == 2 * Q(p * (-a) - q * a, p + q)
    # independent re-derivation of the three-block value
    ranks, degrees = (1, 1, 1), (1, 0, -1)
    alpha = Q(sum(j * d for j, d in enumerate(ranks)), sum(ranks))
    oracle = 2 * sum((Q(j) - alpha) * d for j, d in enumerate(degrees))
    tau = toledo_invariant(QuiverDims(ranks), degrees, 2)
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
            verdict = kac_lift_check(a2, ZmGrading(a2, [p0, p1, p2]))
            assert verdict.mode != "none"
            assert verdict.mode in ("directly", "after automorphism")
            seen_automorphism |= verdict.mode == "after automorphism"
    assert seen_automorphism
    g2 = build_root_system(LieType.parse("G2"))
    assert kac_lift_check(g2, ZmGrading(g2, [0, 1, 0])).mode == "none"


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
                for target, c in basis_bracket(alg, i, l).items():
                    if c:
                        assert degree[target] == degree[i] + degree[l]
        pair = VinbergPair(zg)
        for _ in range(50):
            x = from_sparse(alg, {i: rng.randint(-3, 3) for i in range(alg.dim)})
            assert pair.chi_t(x) == chi_t_killing(pair, x)
        # triple relations on the jm output
        triple = jm_triple(pair, generic_element(pair, 0))
        triple.verify(alg)

    # transported subspace has full dimension under JM-regularity
    for dims in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 2)]:
        cd = cayley_pair(quiver_grading(QuiverDims(dims)))
        assert cd.dim_v == len(cd.pair.piece(1 - cd.pair.grading.depth))
        assert len(independent_subset([dense_num(v, cd.algebra.dim) for v in cd.v_basis])) == cd.dim_v

    # rank monotonicity with the open-orbit equality characterization
    for dims in [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1)]:
        qd = QuiverDims(dims)
        zg = quiver_grading(qd)
        pair = VinbergPair(zg)
        top_rank = pair_rank(pair)
        for rt, mult in enumerate_orbits(qd):
            e = embed_quiver_element(zg, qd, string_representative(qd, mult))
            if not e:
                continue
            r = toledo_rank(pair, e)
            assert 0 <= r <= top_rank
            assert (r == top_rank) == (orbit_dimension(pair, e) == len(pair.piece(1)))


def test_9_embedding_consistency():
    # every 0/1 label vector of the rank <= 3 chain algebras
    for rank in (1, 2, 3):
        for bits in range(1, 1 << rank):
            labels = tuple((bits >> k) & 1 for k in range(rank))
            dims = dims_for_labels(labels)
            alg = build_algebra(LieType.parse(f"A{rank}"))
            zg = z_grading_from_labels(alg, list(labels))
            pair = VinbergPair(zg)
            assert quiver_jm_regular(dims) == jm_regular(pair)
            quiver_rank = orbit_toledo_rank(dims, maximal_rank_tuple(dims))
            assert quiver_rank == pair_rank(pair)


@pytest.mark.parametrize("rank", range(4, 9), ids="A{}".format)
def test_every_0_1_grading_of_sl_n_agrees_with_its_quiver(rank):
    # test_9's two routes on every 0/1 label vector of A4-A8
    alg = build_algebra(LieType("A", rank))
    for bits in range(1, 1 << rank):
        labels = tuple((bits >> k) & 1 for k in range(rank))
        dims = dims_for_labels(labels)
        pair = VinbergPair(z_grading_from_labels(alg, list(labels)))
        assert quiver_jm_regular(dims) == jm_regular(pair), labels
        assert orbit_toledo_rank(dims, maximal_rank_tuple(dims)) == pair_rank(pair), labels
