import ast
import copy
import inspect
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from operator import add, mul
from pathlib import Path

import pytest

import gradedlie
from conftest import quiver_grading
from oracles import (
    FractionConstants, basis_bracket, basis_index, cartan_element, cocycle_signs, coroot, dense, fraction_coroot,
    from_sparse, root_vector,
)

from gradedlie import chevalley
from gradedlie.cayley import cayley_pair
from gradedlie.chevalley import ChevalleyAlgebra, Element, StructureConstants, build_algebra
from gradedlie.linalg import rank
from gradedlie.quiver import QuiverDims
from gradedlie.rootsystem import LieType, RootSystem, build_root_system, form_table
from gradedlie.vinberg import normalized_form

BUILT_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]


def test_sl2_relations(sl2):
    h = cartan_element(sl2, [1])
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
        x = from_sparse(sl3, {i: rng.randint(-3, 3) for i in range(sl3.dim)})
        assert all(v == 0 for v in dense(sl3.bracket(x, x), sl3.dim))


def test_simple_root_bracket_unit(sl3):
    out = dense(sl3.bracket(root_vector(sl3, (1, 0)), root_vector(sl3, (0, 1))), sl3.dim)
    idx = basis_index(sl3.rs, (1, 1))
    assert out[idx] in (Q(1), Q(-1))
    assert all(v == 0 for i, v in enumerate(out) if i != idx)


def test_killing_sl2(sl2):
    h = cartan_element(sl2, [1])
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
            from_sparse(alg, {i: rng.randint(-2, 2) for i in range(alg.dim)}) for _ in range(3)
        )
        lhs = alg.killing_form(alg.bracket(x, y), z)
        rhs = alg.killing_form(y, alg.bracket(x, z))
        assert lhs + rhs == 0


@pytest.mark.parametrize("name", BUILT_TYPES)
def test_killing_nondegenerate(name):
    alg = build_algebra(LieType.parse(name))
    assert rank(alg.killing_gram()) == alg.dim


def test_centralizer_of_zero(sl2):
    full = sl2.centralizer([Element()], range(sl2.dim))
    assert full == [from_sparse(sl2, {i: Q(1)}) for i in range(sl2.dim)]


def test_centralizer_of_sl2_triple_is_trivial(sl2):
    h = cartan_element(sl2, [1])
    e = root_vector(sl2, (1,))
    f = root_vector(sl2, (-1,))
    assert sl2.centralizer([h, e, f], range(sl2.dim)) == []


def test_coroot_brackets(sl3):
    # [e_alpha, e_{-alpha}] is the coroot, and pairs to 2 against alpha
    for alpha in sl3.rs.positive_roots:
        e = root_vector(sl3, alpha)
        f = root_vector(sl3, tuple(-x for x in alpha))
        h = sl3.bracket(e, f)
        assert h == coroot(sl3.rs, alpha)
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
        for l, cl in basis_bracket(alg, b, c).items():
            for m, cm in basis_bracket(alg, a, l).items():
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
        with pytest.raises(AssertionError, match=r"^Jacobi identity fails on basis triple \(\d+,\d+,\d+\)$"):
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
    i, j = 0, basis_index(sl3.rs, (1, 0))
    bad = with_entry(sl3, i, j, sl3._rows[i][j])
    bad._rows[i][j] = tuple((k, 2 * c) for k, c in bad._rows[i][j])  # one orientation only
    with pytest.raises(AssertionError, match="not alternating"):
        bad._verify_jacobi()


def test_certificate_rejects_generators_that_do_not_span(sl2):
    # [e, f] = 0 leaves the solvable algebra h + <e, f>: Jacobi holds, h is never reached
    e, f = basis_index(sl2.rs, (1,)), basis_index(sl2.rs, (-1,))
    bad = with_entry(sl2, e, f, [])
    assert all_triples_hold(bad)
    with pytest.raises(AssertionError, match="reach only 2 of 3"):
        bad._verify_jacobi()
    g2 = build_algebra(LieType.parse("G2"))
    abelian = copy.copy(g2)
    abelian._rows = [{} for _ in range(g2.dim)]
    with pytest.raises(AssertionError, match="reach only 3 of 14"):
        abelian._verify_jacobi()


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4"])
def test_relabelled_root_vectors_fail_the_cartan_certificate(name):
    """Swapping e_{-alpha_1} and e_{-alpha_2} in every row and target gives an isomorphic
    table, a Lie algebra the Jacobi certificate passes, whose row h_1 (basis index 0) no
    longer matches the Cartan matrix."""
    alg = build_algebra(LieType.parse(name))
    r = alg.rank
    p, q = (basis_index(alg.rs, tuple(-int(k == i) for k in range(r))) for i in (0, 1))
    perm = list(range(alg.dim))
    perm[p], perm[q] = q, p
    bad = copy.copy(alg)
    bad._rows = [{} for _ in alg._rows]
    for i, row in enumerate(alg._rows):
        for j, terms in row.items():
            bad._rows[perm[i]][perm[j]] = tuple((perm[k], c) for k, c in terms)
    bad._verify_jacobi()
    with pytest.raises(AssertionError, match=r"^the Cartan action on h_0 differs from the Cartan matrix$"):
        bad._verify_cartan_action()
    alg._verify_cartan_action()  # the copy left the cached table alone


@pytest.mark.parametrize("name", ["B3", "G2", "F4"])
def test_cartan_rows_come_from_the_pass_not_the_matrix(name):
    """The writer reads the pairing vectors of the root pass, and the certificate reads the
    Cartan matrix: with the matrix transposed the table is unchanged, and the certificate fails."""
    rs = build_root_system(LieType.parse(name))
    transposed = rebuilt(rs, cartan=tuple(zip(*rs.cartan)))
    assert StructureConstants(transposed).rows == StructureConstants(rs).rows
    with pytest.raises(AssertionError, match=r"^the Cartan action on h_\d differs from the Cartan matrix$"):
        ChevalleyAlgebra(transposed)


SIMPLY_LACED = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


def joined_nodes(rs: RootSystem) -> list:
    return [(i, j) for i in range(rs.rank) for j in range(i + 1, rs.rank) if rs.cartan[i][j]]


@pytest.mark.parametrize("name", SIMPLY_LACED)
def test_simply_laced_table_is_the_cocycle_table(name):
    """Up to the signs s_alpha of ``cocycle_signs``, every root-root entry of the table is the
    Frenkel-Kac bracket [E_a, E_b] = eps(a, b) E_{a+b}, with E_0 = h_a at b = -a, and the entry is
    absent otherwise.  eps is recomputed here on integer coordinates, not bit masks."""
    alg = build_algebra(LieType.parse(name))
    rs, r = alg.rs, alg.rank
    signs = cocycle_signs(rs)  # on a table built afresh, compared below with the cached algebra's
    assert signs is not None
    bonds = joined_nodes(rs)

    def eps(a, b) -> int:
        return (-1) ** (sum(map(mul, a, b)) + sum(a[i] * b[j] for i, j in bonds))

    for alpha in rs.roots:
        expected = {}
        for beta in rs.roots:
            total = tuple(map(add, alpha, beta))
            sign = eps(alpha, beta) * signs[alpha] * signs[beta]
            if total in alg.rs.codes:
                expected[basis_index(alg.rs, beta)] = ((basis_index(alg.rs, total), sign * signs[total]),)
            elif not any(total):
                expected[basis_index(alg.rs, beta)] = tuple((k, sign * c) for k, c in enumerate(rs.coroot(alpha)) if c)
        row = alg.constants.rows[basis_index(alg.rs, alpha)]
        assert {col: terms for col, terms in row.items() if col >= r} == expected, alpha


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E8"])
def test_flipped_constant_has_no_cocycle_signs(name):
    """N_{alpha_i, alpha_j} of the first joined pair negated, in both orientations and nowhere else."""
    alg = build_algebra(LieType.parse(name))
    r = alg.rank
    a, b = (basis_index(alg.rs, tuple(int(k == n) for k in range(r))) for n in joined_nodes(alg.rs)[0])
    rows = [dict(row) for row in alg.constants.rows]
    ((target, n),) = rows[a][b]
    rows[a][b], rows[b][a] = ((target, -n),), ((target, n),)
    assert cocycle_signs(alg.rs, rows) is None


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E8"])
def test_cocycle_with_a_dropped_bond_has_no_signs(name):
    alg = build_algebra(LieType.parse(name))
    bonds = joined_nodes(alg.rs)
    for dropped in range(len(bonds)):
        assert cocycle_signs(alg.rs, alg.constants.rows, bonds[:dropped] + bonds[dropped + 1 :]) is None


def positive_constants(constants: StructureConstants) -> dict:
    """N_{a,b} read off the rows on root codes, once per pair of positive roots a, b with a
    root sum, a before b in basis order."""
    pos, roots = [c for c in constants.rs.basis_codes if c > 0], constants.rs.lengths
    return {(a, b): constants._value(a, b) for i, a in enumerate(pos) for b in pos[i + 1 :] if a + b in roots}


def test_non_integral_constant_is_rejected(monkeypatch):
    rs = build_root_system(LieType.parse("B2"))
    halves = [(pair, Q(n, 2)) for pair, n in positive_constants(StructureConstants(rs)).items()]
    monkeypatch.setattr(StructureConstants, "_fill", lambda self: [self._set(a, b, n) for (a, b), n in halves])
    with pytest.raises(AssertionError, match="not an integer"):
        ChevalleyAlgebra(rs)


def test_non_integral_constant_is_rejected_under_python_dash_o():
    """Under ``python -O`` a half-integer constant through ``_set`` still raises AssertionError."""
    script = (
        "from fractions import Fraction\n"
        "from gradedlie.chevalley import ChevalleyAlgebra, StructureConstants\n"
        "from gradedlie.rootsystem import LieType, build_root_system\n"
        "rs = build_root_system(LieType.parse('B2'))\n"
        "c = StructureConstants(rs)\n"
        "pos = [a for a in rs.basis_codes if a > 0]\n"
        "halves = [(a, b, Fraction(c._value(a, b), 2)) for a in pos for b in pos if a < b and a + b in rs.lengths]\n"
        "StructureConstants._fill = lambda self: [self._set(a, b, n) for a, b, n in halves]\n"
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


def test_no_assert_statement_in_src():
    """Every certificate raises AssertionError itself, so ``python -O`` strips none of them."""
    package = Path(gradedlie.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_src_parses_as_python_3_10():
    """``requires-python`` is >=3.10: no module uses syntax added after it."""
    package = Path(gradedlie.__file__).parent
    for path in sorted(package.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))


# Every certificate in src/, as (module, function, message), and the tests that
# provoke it, at least one per raise site, in source order.  An f-string's fields read "{}".
CERTIFICATE_TESTS = {
    ("cayley", "cayley_pair", "sl2-module longer than 2m-1 detected"):
        ["test_cayley.py::test_module_longer_than_2m_minus_1_fails_the_bound"],
    ("cayley", "cayley_pair", "invariant form degenerate on c + V"): [
        "test_cayley.py::test_transport_that_is_not_injective_is_refused",
        "test_cayley.py::test_c_sharing_a_vector_with_v_is_refused",
        "test_cayley.py::test_degenerate_form_on_c_plus_v_is_refused",
    ],
    ("chevalley", "StructureConstants._fill", "no special pair for {}"):
        ["test_chevalley.py::test_root_without_a_pair_raises"],
    ("chevalley", "StructureConstants._put", "structure constant {} of [{},{}] is not an integer"):
        ["test_chevalley.py::test_fractional_constant_is_refused"],
    ("chevalley", "StructureConstants._value", "N({},{}) is read before it is written"):
        ["test_chevalley.py::test_fill_out_of_height_order_raises"],
    ("chevalley", "StructureConstants.verify_string_lengths", "bad constant N({},{}) = {}, p = {}"):
        ["test_chevalley.py::test_doubled_constant_fails_the_string_check"],
    ("chevalley", "ChevalleyAlgebra._verify_jacobi", "bracket table is not alternating at ({},{})"):
        ["test_chevalley.py::test_certificate_needs_an_alternating_table"],
    ("chevalley", "ChevalleyAlgebra._verify_jacobi", "Jacobi identity fails on basis triple ({},{},{})"):
        ["test_chevalley.py::test_certificate_catches_corrupted_entries"],
    ("chevalley", "ChevalleyAlgebra._verify_jacobi", "the generators reach only {} of {} basis vectors"):
        ["test_chevalley.py::test_certificate_rejects_generators_that_do_not_span"],
    ("chevalley", "ChevalleyAlgebra._verify_cartan_action", "the Cartan action on h_{} differs from the Cartan matrix"):
        ["test_chevalley.py::test_relabelled_root_vectors_fail_the_cartan_certificate"],
    ("grading", "_verify_root_grading", "the grading element is not in the Cartan"):
        ["test_grading.py::test_grading_element_off_the_cartan_is_refused"],
    ("grading", "_verify_root_grading", "the pieces do not hold each basis index once"):
        ["test_grading.py::test_root_grading_check_rejects_moved_or_missing_roots"],
    ("grading", "_verify_root_grading", "grading element eigenvalue check failed at degree {}"):
        ["test_grading.py::test_root_grading_check_rejects_other_zeta"],
    ("quaternionic", "build_quaternionic", "grading element differs from the highest-root coroot"):
        ["test_quaternionic.py::test_grading_element_other_than_the_highest_coroot_is_refused"],
    ("quaternionic", "build_quaternionic", "unexpected piece structure {}"):
        ["test_quaternionic.py::test_two_dimensional_extreme_piece_is_refused"],
    ("quaternionic", "build_quaternionic", "kappa = {} contradicts the family rule for {}"):
        ["test_quaternionic.py::test_kappa_against_the_wrong_family_rule_is_refused"],
    ("quiver", "enumerate_orbits", "two interval multiplicity vectors share a rank tuple"):
        ["test_quiver.py::test_rank_tuples_that_collide_are_refused"],
    ("rootsystem", "RootSystem.grading_element", "the Cartan matrix is singular"):
        ["test_grading.py::test_singular_cartan_matrix_is_refused"],
    ("rootsystem", "exact_div", "{}/{} is not an integer"):
        ["test_rootsystem.py::test_exact_div_refuses_a_remainder"],
    ("rootsystem", "build_root_system", "positive roots not closed under falling reflections"):
        ["test_rootsystem.py::test_missing_negative_root_fails_the_build"],
    ("rootsystem", "build_root_system", "highest root is not unique"):
        ["test_rootsystem.py::test_missing_highest_root_fails_the_build"],
    ("rootsystem", "build_root_system", "more than two root lengths"):
        ["test_rootsystem.py::test_three_root_lengths_fail_the_build"],
    ("rootsystem", "build_root_system", "the highest root is not long"):
        ["test_rootsystem.py::test_swapped_length_classes_fail_the_build"],
    ("vinberg", "killing_dual_norm", "the Killing form is degenerate on the Cartan"):
        ["test_vinberg.py::test_killing_dual_norm_raises_on_a_degenerate_form"],
    ("vinberg", "generic_element", "no open-orbit element found; the pair data is inconsistent"):
        ["test_vinberg.py::test_generic_element_raises_when_no_sample_is_open"],
    ("vinberg", "Sl2Triple.verify", "sl2 relation {} fails"):
        ["test_vinberg.py::test_complete_triple_verifies_its_solution"],
    ("vinberg", "jm_triple", "sl2 completion system is inconsistent"): [
        "test_vinberg.py::test_jm_triple_raises_when_stage_one_is_inconsistent",
        "test_vinberg.py::test_jm_triple_raises_when_completion_fails",
    ],
}


def _certificate_sites(node, scope=()):
    """(function, message) of each ``raise AssertionError(...)`` or ``raise
    RuntimeError(...)`` under node, the function qualified by its class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _certificate_sites(child, scope + (child.name,))
        elif isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if getattr(exc, "id", None) in ("AssertionError", "RuntimeError"):
                message = child.exc.args[0] if isinstance(child.exc, ast.Call) else ast.Constant("")
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                yield ".".join(scope), "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts)
        else:
            yield from _certificate_sites(child, scope)


def test_every_certificate_has_a_provoking_test():
    """Each raise site in src/ is listed with a test that makes it fire, and each
    listed site and test still exists."""
    package = Path(gradedlie.__file__).parent
    sites = Counter(
        (path.stem, *site)
        for path in sorted(package.glob("*.py"))
        for site in _certificate_sites(ast.parse(path.read_text()))
    )
    assert sites.keys() - CERTIFICATE_TESTS.keys() == set(), "certificate sites with no provoking test"
    assert CERTIFICATE_TESTS.keys() - sites.keys() == set(), "listed sites that are gone from src/"
    assert all(len(CERTIFICATE_TESTS[site]) >= n for site, n in sites.items()), "fewer tests than raise sites"
    defined = {}
    for test_id in sorted({t for tests in CERTIFICATE_TESTS.values() for t in tests}):
        file, name = test_id.split("::")
        if file not in defined:
            tree = ast.parse((Path(__file__).parent / file).read_text())
            defined[file] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert name in defined[file], test_id


def _generates_record_code(node) -> bool:
    """An import of ``dataclasses``, ``typing.NamedTuple`` or ``collections.namedtuple``."""
    if isinstance(node, ast.Import):
        return any(a.name.partition(".")[0] == "dataclasses" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        names = {a.name for a in node.names}
        return (
            node.module == "dataclasses"
            or node.module == "typing" and "NamedTuple" in names
            or node.module == "collections" and "namedtuple" in names
        )
    return False


def test_no_dataclasses_in_src():
    """Records are classes with a written ``__init__``: importing the CLI
    generates no code (a dataclass or a NamedTuple compiles methods or annotations as it is
    defined) and loads neither ``dataclasses`` nor ``inspect``."""
    package = Path(gradedlie.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _generates_record_code(node)
    ]
    assert found == []


def rebuilt(rs: RootSystem, **changes) -> RootSystem:
    """A copy of a root system with some fields changed, built by its constructor."""
    params = list(inspect.signature(RootSystem).parameters)
    return RootSystem(**{**{name: getattr(rs, name) for name in params}, **changes})


@pytest.mark.parametrize("name", ["D4", "F4"])
def test_fill_out_of_height_order_raises(name):
    """With the non-simple positive roots reversed, the highest root comes first, and
    the constants its other pairs read are not written yet: the read raises and
    is never taken as 0."""
    rs = build_root_system(LieType.parse(name))
    pos, r = rs.positive_roots, rs.rank
    reversed_order = rebuilt(rs, positive_roots=pos[:r] + pos[r:][::-1])
    with pytest.raises(AssertionError, match="is read before it is written"):
        StructureConstants(reversed_order)


def test_root_without_a_pair_raises():
    """With a simple root of A2 moved past the highest root, the fill meets it as a
    non-simple root, and no pair of earlier positive roots sums to it."""
    rs = build_root_system(LieType.parse("A2"))
    simple, moved, theta = rs.positive_roots
    with pytest.raises(AssertionError, match=rf"^no special pair for {re.escape(str(moved))}$"):
        StructureConstants(rebuilt(rs, positive_roots=(simple, theta, moved)))


def test_fractional_constant_is_refused(monkeypatch):
    """A constant that reaches the table as a Fraction, even a whole one, is refused."""
    monkeypatch.setattr(chevalley, "exact_div", Q)
    with pytest.raises(AssertionError, match=r"^structure constant -?\d+ of \[\d+,\d+\] is not an integer$"):
        StructureConstants(build_root_system(LieType.parse("A2")))


@pytest.mark.parametrize("name", ["B3", "G2"])
def test_doubled_constant_fails_the_string_check(name):
    """One positive constant doubled in the rows, in both orientations and nowhere else,
    fails the string check: it reads the rows every bracket reads."""
    constants = StructureConstants(build_root_system(LieType.parse(name)))
    constants.verify_string_lengths()
    table = positive_constants(constants)
    a, b = max(table, key=lambda ab: abs(table[ab]))
    y, z = constants.rs.basis_index[a], constants.rs.basis_index[b]
    ((k, n),) = constants.rows[y][z]
    constants.rows[y][z], constants.rows[z][y] = ((k, 2 * n),), ((k, -2 * n),)
    with pytest.raises(AssertionError, match=r"^bad constant N\(\(.*\),\(.*\)\) = -?\d+, p = [1-3]$"):
        constants.verify_string_lengths()


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
                expected = {k: c for k, c in enumerate(rs.coroot(alpha)) if c}
            elif s in alg.rs.codes:
                expected = {basis_index(alg.rs, s): alg.constants._value(rs.codes[alpha], rs.codes[beta])}
            else:
                expected = {}
            got = basis_bracket(alg, r + i, r + j)
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
    table = {(root[a], root[b]): n for (a, b), n in positive_constants(constants).items()}
    assert {frozenset(ab) for ab in table} == {frozenset(ab) for ab in oracle._table}
    assert table == {(a, b): oracle.value(a, b) for a, b in table}
    assert all(type(n) is int for n in table.values())
    for alpha in rs.roots:
        coroot = rs.coroot(alpha)
        assert coroot == fraction_coroot(rs, alpha)
        assert all(type(c) is int for c in coroot)
        for beta in rs.roots:
            n = constants._value(rs.codes[alpha], rs.codes[beta])
            assert type(n) is int and n == oracle.value(alpha, beta)


PATTERN_TYPES = (
    [f"A{r}" for r in range(2, 9)] + [f"B{r}" for r in range(2, 6)] + [f"C{r}" for r in range(2, 6)]
    + ["D4", "D5", "D6", "G2", "F4", "E6", "E7", "E8"]
)


@pytest.mark.parametrize("name", PATTERN_TYPES)
def test_nonzero_pattern_is_the_root_sums(name):
    """The fact the root-level pair code trusts, held to the built table: [e_alpha, e_beta] is
    N e_{alpha+beta} with N != 0 exactly when alpha + beta is a root, h_alpha when beta = -alpha
    (its integer coroot), and zero otherwise."""
    alg = build_algebra(LieType.parse(name))
    rs, index = alg.rs, alg.rs.basis_index
    for a, c in rs.codes.items():
        row = alg._rows[index[c]]
        for d in rs.codes.values():
            terms = row.get(index[d])
            if c + d == 0:
                assert terms == tuple((k, x) for k, x in enumerate(rs.coroot(a)) if x), a
            elif c + d in rs.lengths:
                (k, n), = terms
                assert k == index[c + d] and n != 0, (a, d)
            else:
                assert terms is None, (a, d)


AD_BLOCK_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", AD_BLOCK_TYPES + ["C2"])
def test_form_table_is_an_integer_symmetric_table(name):
    """Every form_table entry is a nonzero Python int, B(b_i, b_j) = B(b_j, b_i), and
    the coroot of the highest root has B(theta^vee, theta^vee) = 4 / B*(theta, theta) = 2."""
    alg = build_algebra(LieType.parse(name))
    assert len(form_table(alg.rs)) == alg.dim
    entries = {(i, j): t for i, row in enumerate(form_table(alg.rs)) for j, t in row}
    assert all(type(t) is int and t for t in entries.values())
    assert all(entries.get((j, i)) == t for (i, j), t in entries.items())
    assert all((basis_index(alg.rs, a), basis_index(alg.rs, tuple(-x for x in a))) in entries for a in alg.rs.roots)
    theta_vee = coroot(alg.rs, alg.rs.highest_root)
    assert normalized_form(alg.rs, theta_vee, theta_vee) == 2


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
    x = from_sparse(alg, {i: base**i for i in range(n)})
    block = alg.ad_block(x, range(n), range(n))
    assert all(type(v) is int for row in block for v in row)
    for j in range(n):
        column = alg.bracket(x, from_sparse(alg, {j: Q(1)}))
        assert [row[j] for row in block] == list(dense(column, n))


@pytest.mark.parametrize("name", ["A3", "G2", "F4"])
def test_ad_block_non_integral_and_restricted(name):
    """ad_block(x) is the integer block of x.den * x, and restricts entrywise."""
    alg = build_algebra(LieType.parse(name))
    n = alg.dim
    rng = random.Random(name)
    x = from_sparse(alg, {i: Q(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(n)})
    assert x.den > 1
    full = alg.ad_block(x, range(n), range(n))
    assert all(type(v) is int for row in full for v in row)
    for j in range(n):
        column = dense(alg.bracket(x, from_sparse(alg, {j: Q(1)})), n)
        assert [row[j] for row in full] == [x.den * v for v in column]
    domain = sorted(rng.sample(range(n), n // 2))
    codomain = sorted(rng.sample(range(n), n // 3))
    assert alg.ad_block(x, domain, codomain) == [[full[k][j] for j in domain] for k in codomain]


def test_centralizer_unchanged_by_rational_scaling(sl2):
    """Each block is scaled by its element's denominator, and no nonzero scale
    changes a kernel: the centralizer of [h/3, 2e/5, f] is that of [h, e, f]."""
    sl2_triple = (cartan_element(sl2, [1]), root_vector(sl2, (1,)), root_vector(sl2, (-1,)))
    cd = cayley_pair(quiver_grading(QuiverDims((2, 2, 2))))
    cayley_triple = (cd.triple.h, cd.triple.e, cd.triple.f)
    for alg, domain, (h, e, f) in [
        (sl2, range(sl2.dim), sl2_triple),
        (cd.algebra, cd.pair.piece(0), cayley_triple),
    ]:
        centralizer = alg.centralizer([h, e, f], domain)
        assert alg.centralizer([h * Q(1, 3), e * Q(2, 5), f], domain) == centralizer
        assert alg.centralizer([h * Q(1, 3)], domain) == alg.centralizer([h], domain) != []
