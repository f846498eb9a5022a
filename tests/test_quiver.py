import itertools
import json
import random
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_DIMS, dims_id
from oracles import (
    _total_matrix,
    canonical_open_element,
    dims_for_labels,
    interval_toledo_rank,
    jordan_h,
    jordan_jm_regular,
    jordan_strings,
    orbit_toledo_rank,
    pointwise_maximality,
    quiver_alpha,
    string_representative,
    zeta_matrix,
)

from gradedlie import quiver
from gradedlie.cli import main
from gradedlie.linalg import RationalMatrix
from gradedlie.quiver import (
    ORBIT_BOUND,
    QuiverDims,
    enumerate_orbits,
    labels_for_dims,
    maximal_rank_tuple,
    orbit_count,
    quiver_jm_regular,
    rank_pairs,
    rank_tuple,
    toledo_invariant,
    toledo_rank,
)


def by_pair(d, rt):
    """A rank tuple as (i, j) -> r_ij."""
    return dict(zip(rank_pairs(d), rt))


def test_dims_validation():
    with pytest.raises(ValueError):
        QuiverDims((1, 0, 1))
    with pytest.raises(ValueError):
        QuiverDims((1,))


def test_alpha():
    assert quiver_alpha(QuiverDims((1, 1, 1))) == 1
    assert quiver_alpha(QuiverDims((2, 1))) == Q(1, 3)


def test_rank_tuple_zero_element():
    d = QuiverDims((1, 1, 1))
    zero = tuple(RationalMatrix([[0]]) for _ in range(2))
    assert all(r == 0 for r in rank_tuple(d, zero))


def test_rank_tuple_canonical_is_maximal():
    for dims in [(1, 1), (2, 1), (1, 2, 1), (2, 2, 2), (3, 1, 2)]:
        d = QuiverDims(dims)
        assert rank_tuple(d, canonical_open_element(d)) == maximal_rank_tuple(d)


def test_rank_tuple_212():
    d = QuiverDims((2, 1, 2))
    f0 = RationalMatrix([[1, 0]])
    f1 = RationalMatrix([[1], [0]])
    assert by_pair(d, rank_tuple(d, (f0, f1))) == {(0, 1): 1, (1, 2): 1, (0, 2): 1}


def test_canonical_element_shapes():
    d = QuiverDims((1, 2, 1))
    f0, f1 = canonical_open_element(d)
    assert (f0.rows, f0.cols) == (2, 1) and tuple(row[0] for row in f0) == (Q(1), Q(0))
    assert (f1.rows, f1.cols) == (1, 2) and tuple(f1[0]) == (Q(1), Q(0))


def test_enumerate_orbits_11():
    d = QuiverDims((1, 1))
    assert [by_pair(d, rt)[(0, 1)] for rt, _ in enumerate_orbits(d)] == [0, 1]


def test_enumerate_orbits_21():
    d = QuiverDims((2, 1))
    assert [by_pair(d, rt)[(0, 1)] for rt, _ in enumerate_orbits(d)] == [0, 1]


def test_enumerate_orbits_111():
    # rank of a composition through a 1-dimensional middle space is forced,
    # so (r01, r12, r02) = (1, 1, 0) is infeasible: 4 orbits
    d = QuiverDims((1, 1, 1))
    orbits = {tuple(by_pair(d, rt)[k] for k in ((0, 1), (1, 2), (0, 2))) for rt, _ in enumerate_orbits(d)}
    assert orbits == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)}


def test_enumerate_orbits_certified_and_unique_maximum():
    for dims in [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1)]:
        d = QuiverDims(dims)
        orbits = enumerate_orbits(d)
        tuples = [rt for rt, _ in orbits]
        assert len(set(tuples)) == len(tuples)
        for rt, mult in orbits:
            assert rank_tuple(d, string_representative(d, mult)) == rt
        assert tuples.count(maximal_rank_tuple(d)) == 1


ORACLE_DIMS = SMALL_DIMS + [(2, 2, 2), (1, 2, 2, 1), (2, 2, 3)]


def _search_rank_tuples(d):
    """Rank tuples of every 0/1-entry element: 2^(map entries) candidates.

    Every orbit holds a string representative with partial-permutation maps,
    so this brute-force search is complete; it is the oracle for the
    interval-multiplicity enumeration.
    """
    shapes = [(d.dims[j + 1], d.dims[j]) for j in range(d.m - 1)]
    found = set()
    for bits in itertools.product((0, 1), repeat=sum(r * c for r, c in shapes)):
        maps, pos = [], 0
        for r, c in shapes:
            flat = bits[pos : pos + r * c]
            maps.append(RationalMatrix(flat[a * c : (a + 1) * c] for a in range(r)))
            pos += r * c
        found.add(rank_tuple(d, maps))
    return sorted(found)


def test_oracle_dims_stay_small():
    assert len(SMALL_DIMS) == 26
    for dims in ORACLE_DIMS:
        assert sum(a * b for a, b in zip(dims, dims[1:])) <= 10


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=dims_id)
def test_enumerate_orbits_matches_search(dims):
    d = QuiverDims(dims)
    assert [rt for rt, _ in enumerate_orbits(d)] == _search_rank_tuples(d)


@pytest.mark.parametrize("dims", ORACLE_DIMS + [(4, 4, 4), (1, 2, 3, 2, 1)], ids=dims_id)
def test_enumerate_orbits_representatives(dims):
    # the closed forms in the multiplicities against the maps that realize them:
    # rank tuples against composed-map ranks, Toledo ranks against tr(zeta h)
    d = QuiverDims(dims)
    zeta = zeta_matrix(d)
    for rt, mult in enumerate_orbits(d):
        rep = string_representative(d, mult)
        assert rank_tuple(d, rep) == rt
        strings = jordan_strings(d, rep)
        assert sorted(k for chain in strings for k in chain) == list(range(d.n))
        trace = sum((z * h for z, h in zip(zeta, jordan_h(d, rep))), Q(0))
        assert toledo_rank(mult) == trace
        assert orbit_toledo_rank(d, rt) == trace


def test_enumerate_orbits_444():
    assert len(enumerate_orbits(QuiverDims((4, 4, 4)))) == 35


def test_quiver_command_444(capsys):
    assert main(["quiver", "--dims", "4,4,4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["results"]["orbits"]) == 35


@pytest.mark.parametrize("dims", SMALL_DIMS + [(2, 2, 2), (3, 3, 3), (1, 2, 3, 2, 1)], ids=dims_id)
def test_orbit_count_matches_enumeration(dims):
    d = QuiverDims(dims)
    assert orbit_count(d) == len(enumerate_orbits(d))


@settings(derandomize=True)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(lambda dims: sum(dims) >= 2))
def test_orbit_count_matches_enumeration_on_drawn_vectors(dims):
    d = QuiverDims(tuple(dims))
    assert orbit_count(d) == len(enumerate_orbits(d))


def test_rank_tuples_that_collide_are_refused(monkeypatch):
    """Without r_01 a rank tuple of 1,1,1 cannot tell [0,1] + [2,2] from [0,0] + [1,1] + [2,2]."""
    ranks = quiver.interval_rank_tuple
    monkeypatch.setattr(quiver, "interval_rank_tuple", lambda dims, mult: ranks(dims, mult)[1:])
    with pytest.raises(AssertionError, match="^two interval multiplicity vectors share a rank tuple$"):
        enumerate_orbits(QuiverDims((1, 1, 1)))


# every vector of a golden report, the README, the benchmark pools and the ROADMAP's timings
LISTED_DIMS = [
    (2, 1, 1), (1, 2, 3, 2, 1), (2, 2), (2, 4), (4, 2), (2, 2, 2), (1, 2, 2, 1), (2, 2, 3), (3, 2, 2),
    (1, 1, 2, 2, 1, 1), (2, 3, 2), (4, 4, 4), (3, 4, 3), (2, 4, 4), (5, 5),
    (3, 4, 5, 4, 3), (1, 2, 3, 4, 3, 2, 1), (2, 3, 4, 5, 4, 3), (1, 2, 3, 4, 4, 3, 2, 1),
]


def test_orbit_bound_admits_every_listed_vector():
    counts = {dims: orbit_count(QuiverDims(dims)) for dims in LISTED_DIMS}
    assert counts[(1, 2, 3, 4, 4, 3, 2, 1)] == 41757
    assert max(counts.values()) <= ORBIT_BOUND < 2**16


def test_orbit_count_stops_past_the_bound():
    """Through vertex 15 of 17 or more ones the part counted is 2^16, so counting stops there;
    a vector of huge entries stops as soon as its partial count passes the bound."""
    assert orbit_count(QuiverDims((1,) * 17)) == orbit_count(QuiverDims((1,) * 46)) == 2**16
    assert ORBIT_BOUND < orbit_count(QuiverDims((10**9,) * 3)) <= 2 * ORBIT_BOUND


@pytest.mark.parametrize("ones", [40, 46])
def test_quiver_command_refuses_past_the_bound(capsys, ones):
    start = time.perf_counter()
    code = main(["quiver", "--dims", ",".join(["1"] * ones)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: the dimension vector has at least 65536 orbits; a report lists at most 50000\n"
    assert elapsed < 1


# every quiver vector of the benchmark pools, each of which has a reference report
POOL_DIMS = [
    tuple(map(int, job.split()[-1].split(",")))
    for job in json.loads((Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text())
    if job.startswith("quiver --dims ")
]


def test_toledo_weights_match_the_closed_form():
    """The closed form C(L + 1, 3) per string of L vertices against tr(zeta h) with the shift
    alpha kept (``interval_toledo_rank``), on every orbit of every small and pool vector and on
    each single string: h sums to zero on a string, so the shift drops out."""
    assert len(POOL_DIMS) == 12
    for dims in SMALL_DIMS + POOL_DIMS:
        d = QuiverDims(dims)
        for a in range(d.m):
            for b in range(a, d.m):
                assert toledo_rank({(a, b): 1}) == interval_toledo_rank(d, {(a, b): 1}), (dims, a, b)
        for _, mult in enumerate_orbits(d):
            assert toledo_rank(mult) == interval_toledo_rank(d, mult), (dims, mult)


def test_jordan_h_11():
    d = QuiverDims((1, 1))
    h = jordan_h(d, canonical_open_element(d))
    assert [h[i] for i in range(2)] == [-1, 1]


def test_jordan_h_111():
    d = QuiverDims((1, 1, 1))
    h = jordan_h(d, canonical_open_element(d))
    assert [h[i] for i in range(3)] == [-2, 0, 2]


def test_jordan_h_121():
    d = QuiverDims((1, 2, 1))
    h = jordan_h(d, canonical_open_element(d))
    assert [h[i] for i in range(4)] == [-2, 0, 0, 2]


def test_jordan_h_commutator():
    for dims in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 2)]:
        d = QuiverDims(dims)
        elem = canonical_open_element(d)
        h = jordan_h(d, elem)
        assert sum(h[i] for i in range(d.n)) == 0
        e = _total_matrix(d, elem)
        n = d.n
        for i in range(n):
            for j in range(n):
                comm = h[i] * e[i][j] - e[i][j] * h[j]
                assert comm == 2 * e[i][j]


def test_jordan_h_rejects_general_element():
    d = QuiverDims((1, 1))
    bad = (RationalMatrix([[Q(1, 2)]]),)
    with pytest.raises(ValueError):
        jordan_h(d, bad)


def test_jm_regular_cases():
    assert quiver_jm_regular(QuiverDims((1, 1, 1)))
    assert quiver_jm_regular(QuiverDims((1, 3, 1)))
    assert not quiver_jm_regular(QuiverDims((2, 1)))


def test_jm_regular_closed_form_matches_jordan_strings():
    # every dimension vector with at most 5 vertices and entries at most 4
    vectors = [
        QuiverDims(dims)
        for m in range(1, 6)
        for dims in itertools.product(range(1, 5), repeat=m)
        if sum(dims) >= 2
    ]
    assert len(vectors) == 1363
    verdicts = [quiver_jm_regular(d) for d in vectors]
    assert verdicts == [jordan_jm_regular(d) for d in vectors]
    assert sum(verdicts) == 47


def test_orbit_toledo_ranks():
    d = QuiverDims((1, 1, 1))
    assert orbit_toledo_rank(d, maximal_rank_tuple(d)) == 4
    d21 = QuiverDims((2, 1))
    assert orbit_toledo_rank(d21, maximal_rank_tuple(d21)) == 1


def test_pointwise_maximality():
    d = QuiverDims((1, 1, 1))
    assert pointwise_maximality(d, canonical_open_element(d))
    zero = tuple(RationalMatrix([[0]]) for _ in range(2))
    assert not pointwise_maximality(d, zero)
    f0 = (RationalMatrix([[1]]), RationalMatrix([[0]]))
    assert not pointwise_maximality(d, f0)
    with pytest.raises(ValueError):
        pointwise_maximality(QuiverDims((2, 1)), canonical_open_element(QuiverDims((2, 1))))


def test_toledo_invariant_zero_degrees():
    assert toledo_invariant(QuiverDims((2, 3)), (0, 0), 2) == 0


def test_toledo_invariant_two_blocks():
    rng = random.Random(21)
    for _ in range(50):
        p, q, a = rng.randint(1, 5), rng.randint(1, 5), rng.randint(-4, 4)
        tau = toledo_invariant(QuiverDims((p, q)), (a, -a), 2)
        assert tau == 2 * Q(p * (-a) - q * a, p + q)


def test_toledo_invariant_111():
    assert toledo_invariant(QuiverDims((1, 1, 1)), (1, 0, -1), 2) == -4


def test_toledo_invariant_degree_sum_enforced():
    with pytest.raises(ValueError, match="^degrees must sum to zero$"):
        toledo_invariant(QuiverDims((1, 1)), (1, 1), 2)


def test_toledo_reversal_symmetry():
    rng = random.Random(22)
    for _ in range(100):
        m = rng.randint(2, 4)
        ranks = tuple(rng.randint(1, 4) for _ in range(m))
        degs = [rng.randint(-3, 3) for _ in range(m - 1)]
        degs.append(-sum(degs))
        top = toledo_invariant(QuiverDims(ranks), tuple(degs), 2)
        rev = toledo_invariant(QuiverDims(ranks[::-1]), tuple(-d for d in degs[::-1]), 2)
        assert top == rev


def test_zeta_matrix_trace_free():
    for dims in [(1, 1), (2, 1), (1, 2, 1)]:
        z = zeta_matrix(QuiverDims(dims))
        assert sum(z[i] for i in range(sum(dims))) == 0


def test_labels_round_trip():
    for dims in [(1, 1), (2, 1), (1, 2, 1), (3, 1, 2)]:
        d = QuiverDims(dims)
        assert dims_for_labels(labels_for_dims(d)).dims == d.dims
    with pytest.raises(ValueError):
        dims_for_labels((0, 0))
    with pytest.raises(ValueError):
        dims_for_labels((2, 0))
