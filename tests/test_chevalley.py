import copy
import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from conftest import quiver_grading
from oracles import FractionConstants, fraction_coroot, root_vector

from gradedlie.cayley import cayley_pair
from gradedlie.chevalley import ChevalleyAlgebra, StructureConstants, build_algebra
from gradedlie.linalg import rank
from gradedlie.quiver import QuiverDims
from gradedlie.rootsystem import LieType, build_root_system

BUILT_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]


def test_sl2_relations(sl2):
    h = sl2.cartan_element([1])
    e = root_vector(sl2, (1,))
    f = root_vector(sl2, (-1,))
    assert sl2.bracket(h, e) == 2 * e
    assert sl2.bracket(h, f) == -2 * f
    assert sl2.bracket(e, f) == h


@pytest.mark.parametrize(
    "name,dim", [("A1", 3), ("A2", 8), ("G2", 14), ("D4", 28), ("F4", 52), ("E6", 78)]
)
def test_dimensions(name, dim):
    assert build_algebra(LieType.parse(name)).dim == dim


def test_bracket_antisymmetry(sl3):
    rng = random.Random(3)
    for _ in range(10):
        x = sl3.from_sparse({i: rng.randint(-3, 3) for i in range(sl3.dim)})
        assert all(v == 0 for v in sl3.bracket(x, x).dense(sl3.dim))


def test_simple_root_bracket_unit(sl3):
    out = sl3.bracket(root_vector(sl3, (1, 0)), root_vector(sl3, (0, 1))).dense(sl3.dim)
    idx = sl3.root_index[(1, 1)]
    assert out[idx] in (Q(1), Q(-1))
    assert all(v == 0 for i, v in enumerate(out) if i != idx)


def test_killing_sl2(sl2):
    h = sl2.cartan_element([1])
    assert sl2.killing_form(h, h) == 8


def test_killing_root_space_orthogonality(sl3):
    for alpha in sl3.rs.roots:
        for beta in sl3.rs.roots:
            value = sl3.killing_form(root_vector(sl3, alpha), root_vector(sl3, beta))
            if all(a + b == 0 for a, b in zip(alpha, beta)):
                assert value != 0
            else:
                assert value == 0


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "D4"])
def test_killing_invariance(name):
    alg = build_algebra(LieType.parse(name))
    rng = random.Random(5)
    for _ in range(100):
        x, y, z = (
            alg.from_sparse({i: rng.randint(-2, 2) for i in range(alg.dim)}) for _ in range(3)
        )
        lhs = alg.killing_form(alg.bracket(x, y), z)
        rhs = alg.killing_form(y, alg.bracket(x, z))
        assert lhs + rhs == 0


@pytest.mark.parametrize("name", BUILT_TYPES)
def test_killing_nondegenerate(name):
    alg = build_algebra(LieType.parse(name))
    assert rank(alg.killing_gram()) == alg.dim


def test_centralizer_of_zero(sl2):
    full = sl2.centralizer([sl2.zero()], range(sl2.dim))
    assert full == [sl2.from_sparse({i: Q(1)}) for i in range(sl2.dim)]


def test_centralizer_of_sl2_triple_is_trivial(sl2):
    h = sl2.cartan_element([1])
    e = root_vector(sl2, (1,))
    f = root_vector(sl2, (-1,))
    assert sl2.centralizer([h, e, f], range(sl2.dim)) == []


def test_coroot_brackets(sl3):
    # [e_alpha, e_{-alpha}] is the coroot, and pairs to 2 against alpha
    for alpha in sl3.rs.positive_roots:
        e = root_vector(sl3, alpha)
        f = root_vector(sl3, tuple(-x for x in alpha))
        h = sl3.bracket(e, f)
        assert h == sl3.coroot(alpha)
        assert sl3.bracket(h, e) == 2 * e


@pytest.mark.parametrize("name", BUILT_TYPES)
def test_build_verifies(name):
    # construction runs the string-length and Jacobi checks internally
    build_algebra(LieType.parse(name))


# -- the Jacobi certificate ------------------------------------------------


def jacobi_holds(alg, i, j, k) -> bool:
    """J(b_i, b_j, b_k) = 0, straight from the basis brackets (the test oracle)."""
    acc = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for l, cl in alg.basis_bracket(b, c).items():
            for m, cm in alg.basis_bracket(a, l).items():
                acc[m] = acc.get(m, 0) + cl * cm
    return not any(acc.values())


def all_triples_hold(alg) -> bool:
    n = alg.dim
    return all(
        jacobi_holds(alg, i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def with_entry(alg, i, j, terms):
    """A copy of alg whose table has [b_i, b_j] = terms, and [b_j, b_i] = -terms."""
    bad = copy.copy(alg)
    bad._rows = [dict(row) for row in alg._rows]
    bad._rows[i][j] = tuple(terms)
    bad._rows[j][i] = tuple((k, -c) for k, c in terms)
    return bad


def mutants(alg, name, count=10):
    """Up to ten table entries, each corrupted three ways: sign, doubling, wrong target."""
    entries = sorted((i, j) for i, row in enumerate(alg._rows) for j in row if i < j)
    for i, j in random.Random(name).sample(entries, min(count, len(entries))):
        (k, c), *rest = alg._rows[i][j]
        targets = {t for t, _ in alg._rows[i][j]}
        other = next(t % alg.dim for t in range(k + 1, k + alg.dim) if t % alg.dim not in targets)
        for head in ((k, -c), (k, 2 * c), (other, c)):
            yield with_entry(alg, i, j, [head] + rest)


def certificate_passes(alg) -> bool:
    try:
        alg._verify_jacobi()
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("name", ["A3", "G2", "F4", "E6", "B7", "D8", "A9", "E7"])
def test_certificate_catches_corrupted_entries(name):
    alg = build_algebra(LieType.parse(name))
    for bad in mutants(alg, name):
        with pytest.raises(AssertionError):
            bad._verify_jacobi()
    alg._verify_jacobi()  # the copies left the cached table alone


# in A1, flipping or doubling [e, f] only rescales f: still a Lie algebra, and both pass
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_certificate_agrees_with_all_triples(name):
    alg = build_algebra(LieType.parse(name))
    assert certificate_passes(alg) and all_triples_hold(alg)
    for bad in mutants(alg, name):
        assert certificate_passes(bad) == all_triples_hold(bad)


def test_certificate_needs_an_alternating_table(sl3):
    i, j = 0, sl3.root_index[(1, 0)]
    bad = with_entry(sl3, i, j, sl3._rows[i][j])
    bad._rows[i][j] = tuple((k, 2 * c) for k, c in bad._rows[i][j])  # one orientation only
    with pytest.raises(AssertionError, match="not alternating"):
        bad._verify_jacobi()


def test_certificate_rejects_generators_that_do_not_span(sl2):
    # [e, f] = 0 leaves the solvable algebra h + <e, f>: Jacobi holds, h is never reached
    e, f = sl2.root_index[(1,)], sl2.root_index[(-1,)]
    bad = with_entry(sl2, e, f, [])
    assert all_triples_hold(bad)
    with pytest.raises(AssertionError, match="reach only 2 of 3"):
        bad._verify_jacobi()
    g2 = build_algebra(LieType.parse("G2"))
    abelian = copy.copy(g2)
    abelian._rows = [{} for _ in range(g2.dim)]
    with pytest.raises(AssertionError, match="reach only 3 of 14"):
        abelian._verify_jacobi()


def test_non_integral_constant_is_rejected(monkeypatch):
    rs = build_root_system(LieType.parse("B2"))
    halves = [(pair, Q(n, 2)) for pair, n in StructureConstants(rs).table.items()]
    monkeypatch.setattr(StructureConstants, "_fill", lambda self: [self._set(a, b, n) for (a, b), n in halves])
    with pytest.raises(AssertionError, match="not an integer"):
        ChevalleyAlgebra(rs)


def test_non_integral_constant_is_rejected_under_python_dash_o():
    """Under ``python -O`` a half-integer constant through ``_set`` still raises AssertionError."""
    script = (
        "from fractions import Fraction\n"
        "from gradedlie import LieType, build_root_system\n"
        "from gradedlie.chevalley import ChevalleyAlgebra, StructureConstants\n"
        "rs = build_root_system(LieType.parse('B2'))\n"
        "halves = [(pair, Fraction(n, 2)) for pair, n in StructureConstants(rs).table.items()]\n"
        "StructureConstants._fill = lambda self: [self._set(a, b, n) for (a, b), n in halves]\n"
        "try:\n"
        "    ChevalleyAlgebra(rs)\n"
        "except AssertionError as exc:\n"
        "    print('AssertionError', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("AssertionError") and run.stdout.endswith("is not an integer\n")


@pytest.mark.parametrize("name", ["D4", "F4"])
def test_fill_out_of_height_order_raises(name):
    """With the non-simple positive roots reversed, the highest root comes first, and
    the constants its other pairs read are not written yet: the read raises and
    is never taken as 0."""
    rs = build_root_system(LieType.parse(name))
    pos, r = rs.positive_roots, rs.rank
    reversed_order = dataclasses.replace(rs, positive_roots=pos[:r] + pos[r:][::-1])
    with pytest.raises(AssertionError, match="is read before it is written"):
        StructureConstants(reversed_order)


@pytest.mark.parametrize(
    "name", ["A3", "B3", "C3", "D4", "G2", "F4", "A8", "B8", "C8", "D8", "E6", "E7"]
)
def test_table_matches_structure_constants(name):
    alg = build_algebra(LieType.parse(name))
    rs, r = alg.rs, alg.rank
    for i, alpha in enumerate(rs.roots):
        for j, beta in enumerate(rs.roots):
            s = tuple(a + b for a, b in zip(alpha, beta))
            if not any(s):
                expected = {k: c for k, c in enumerate(rs.coroot_coefficients(alpha)) if c}
            elif s in alg.root_index:
                expected = {alg.root_index[s]: alg.constants.value(alpha, beta)}
            else:
                expected = {}
            got = alg.basis_bracket(r + i, r + j)
            assert got == expected
            assert all(type(c) is int for c in got.values())


ORACLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_integer_constants_match_fraction_oracle(name):
    """Integer constants and coroots equal the Fraction route, constant by constant."""
    rs = build_root_system(LieType.parse(name))
    constants, oracle = StructureConstants(rs), FractionConstants(rs)
    root = {c: a for a, c in rs.codes.items()}
    table = {(root[a], root[b]): n for (a, b), n in constants.table.items()}
    assert table == oracle._table
    assert all(type(n) is int for n in table.values())
    for alpha in rs.roots:
        coroot = rs.coroot_coefficients(alpha)
        assert coroot == fraction_coroot(rs, alpha)
        assert all(type(c) is int for c in coroot)
        for beta in rs.roots:
            n = constants.value(alpha, beta)
            assert type(n) is int and n == oracle.value(alpha, beta)


AD_BLOCK_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", AD_BLOCK_TYPES)
def test_ad_block_matches_bracket_on_every_basis_pair(name):
    """ad_block against the dense bracket, every basis pair at once.

    x = sum_i B^i b_i with B above twice every table coefficient, so entry
    (k, j) of ad_block(x) is the base-B number whose digit i is the coefficient
    of b_k in [b_i, b_j].  Equal entries mean equal digits: the two routes
    agree on every basis pair (i, j) and every coordinate k.
    """
    alg = build_algebra(LieType.parse(name))
    n = alg.dim
    base = 2 * max(abs(c) for row in alg._rows for terms in row.values() for _, c in terms) + 1
    x = alg.from_sparse({i: base**i for i in range(n)})
    block = alg.ad_block(x, range(n), range(n))
    assert all(type(v) is int for row in block for v in row)
    for j in range(n):
        column = alg.bracket(x, alg.from_sparse({j: Q(1)}))
        assert [row[j] for row in block] == list(column.dense(n))


@pytest.mark.parametrize("name", ["A3", "G2", "F4"])
def test_ad_block_non_integral_and_restricted(name):
    """ad_block(x) is the integer block of x.den * x, and restricts entrywise."""
    alg = build_algebra(LieType.parse(name))
    n = alg.dim
    rng = random.Random(name)
    x = alg.from_sparse({i: Q(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(n)})
    assert x.den > 1
    full = alg.ad_block(x, range(n), range(n))
    assert all(type(v) is int for row in full for v in row)
    for j in range(n):
        column = alg.bracket(x, alg.from_sparse({j: Q(1)})).dense(n)
        assert [row[j] for row in full] == [x.den * v for v in column]
    domain = sorted(rng.sample(range(n), n // 2))
    codomain = sorted(rng.sample(range(n), n // 3))
    assert alg.ad_block(x, domain, codomain) == [[full[k][j] for j in domain] for k in codomain]


def test_centralizer_unchanged_by_rational_scaling(sl2):
    """Each block is scaled by its element's denominator, and no nonzero scale
    changes a kernel: the centralizer of [h/3, 2e/5, f] is that of [h, e, f]."""
    sl2_triple = (sl2.cartan_element([1]), root_vector(sl2, (1,)), root_vector(sl2, (-1,)))
    cd = cayley_pair(quiver_grading(QuiverDims((2, 2, 2))))
    cayley_triple = (cd.triple.h, cd.triple.e, cd.triple.f)
    for alg, domain, (h, e, f) in [
        (sl2, range(sl2.dim), sl2_triple),
        (cd.algebra, cd.pair.grading.piece(0), cayley_triple),
    ]:
        centralizer = alg.centralizer([h, e, f], domain)
        assert alg.centralizer([h * Q(1, 3), e * Q(2, 5), f], domain) == centralizer
        assert alg.centralizer([h * Q(1, 3)], domain) == alg.centralizer([h], domain) != []
