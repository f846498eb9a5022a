import ast
import random
from fractions import Fraction as Q
from operator import mul
from pathlib import Path
from typing import List

import pytest

from oracles import (
    PER_ROOT_MAPS, classical_root_count, dense_reflection_closure, form_affine_cartan_matrix, fraction_coroot,
    basis_root, triple_parts,
)

from gradedlie import rootsystem
from gradedlie.chevalley import ChevalleyAlgebra, build_algebra
from gradedlie.cli import main
from gradedlie.quaternionic import build_quaternionic
from gradedlie.rootsystem import (
    LieType,
    _positive_pass,
    affine_cartan_matrix,
    build_root_system,
    cartan_matrix,
    form_table,
)
from gradedlie.vinberg import set_triple

SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]


@pytest.mark.parametrize("name", SMALL_TYPES + ["D3", "A20", "B12", "C12", "D12", "E7", "E8"])
def test_root_counts(name):
    """The built roots, the oracle's count and the closed form the size bounds read agree."""
    rs = build_root_system(LieType.parse(name))
    expected = classical_root_count(rs.lie_type)
    assert len(rs.roots) == expected == rs.lie_type.root_count
    assert 2 * len(rs.positive_roots) == expected


def test_invalid_types():
    for family, r in [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3)]:
        with pytest.raises(ValueError):
            LieType(family, r)
    with pytest.raises(ValueError):
        LieType.parse("X4")


@pytest.mark.parametrize("family", ["", "AB", "a", "X"])
def test_unknown_family_is_a_value_error(family):
    with pytest.raises(ValueError, match=f"^unknown family {family!r}$"):
        LieType(family, 3)


@pytest.mark.parametrize("text", ["A1_0", "A\u0663", "a+3", "E 8", " A2", "A2 ", "A", "", "4A"])
def test_parse_takes_a_family_letter_and_ascii_digits_only(text):
    with pytest.raises(ValueError):
        LieType.parse(text)


def test_parse_takes_either_case():
    assert LieType.parse("e8") == LieType.parse("E8") == LieType("E", 8)


def test_highest_root_a2():
    rs = build_root_system(LieType.parse("A2"))
    assert rs.highest_root == (1, 1)


def test_highest_root_a1():
    rs = build_root_system(LieType.parse("A1"))
    assert rs.highest_root == (1,)


def test_highest_root_g2():
    rs = build_root_system(LieType.parse("G2"))
    # short simple root first: marks (3, 2)
    assert rs.highest_root == (3, 2)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_highest_root_is_maximal(name):
    rs = build_root_system(LieType.parse(name))
    root_set = set(rs.roots)
    b = rs.highest_root
    for k in range(rs.rank):
        bumped = tuple(b[i] + int(i == k) for i in range(rs.rank))
        assert bumped not in root_set


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_highest_root_norm_two(name):
    rs = build_root_system(LieType.parse(name))
    assert rs.norm(rs.highest_root) == 2


@pytest.mark.parametrize("name", SMALL_TYPES + ["A20", "B8", "C8", "D8", "E8"])
def test_norm_table_matches_form(name):
    """Norms read from the length classes agree with the form on every root."""
    rs = build_root_system(LieType.parse(name))
    assert set(rs.lengths) == set(rs.codes.values())
    for alpha in rs.roots:
        assert rs.norm(alpha) == rs.form_value(alpha, alpha)
    assert len({rs.norm(alpha) for alpha in rs.roots}) <= 2


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_coroot_table_pairs_roots(name):
    # <alpha_k, alpha^vee> = 2 (alpha_k, alpha) / (alpha, alpha) on simple roots
    rs = build_root_system(LieType.parse(name))
    for alpha in rs.roots:
        coeffs = rs.coroot(alpha)
        for k in range(rs.rank):
            simple = tuple(int(i == k) for i in range(rs.rank))
            lhs = sum(c * rs.pairing(simple, j) for j, c in enumerate(coeffs))
            assert lhs == 2 * rs.form_value(simple, alpha) / rs.form_value(alpha, alpha)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Q(0)
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * _det(minor)
    return total


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_form_symmetric_positive_definite(name):
    rs = build_root_system(LieType.parse(name))
    r = rs.rank
    simple = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    form = [[rs.form_value(a, b) for b in simple] for a in simple]
    for i in range(r):
        for j in range(r):
            assert form[i][j] == form[j][i]
    # Sylvester: all leading principal minors strictly positive
    for k in range(1, r + 1):
        assert _det([list(row[:k]) for row in form[:k]]) > 0


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_swapped_length_classes_fail_the_build(monkeypatch, name):
    """With the long and short classes swapped, the highest root is short: the build refuses."""
    classes = rootsystem._length_classes

    def swapped(cartan, r):
        ell = classes(cartan, r)
        return [max(ell) * min(ell) // e for e in ell]

    monkeypatch.setattr(rootsystem, "_length_classes", swapped)
    with pytest.raises(AssertionError, match="highest root is not long"):
        build_root_system.__wrapped__(LieType.parse(name))


def _pass_without(drop):
    """``_positive_pass`` with the roots that ``drop(positive roots)`` names left out."""
    positive_pass = rootsystem._positive_pass

    def patched(cartan, r):
        found = positive_pass(cartan, r)
        gone = set(drop([alpha for alpha, _, _, _ in found]))
        return [entry for entry in found if entry[0] not in gone]

    return patched


def test_missing_negative_root_fails_the_build(monkeypatch):
    """The negative roots are the positive ones negated, so -alpha goes missing with
    alpha = alpha_1 + alpha_2 of B3; s_3 raises alpha to alpha + 2 alpha_3, whose
    falling reflection s_3 then lands on no root: the closure check refuses."""
    monkeypatch.setattr(rootsystem, "_positive_pass", _pass_without(lambda roots: [(1, 1, 0)]))
    with pytest.raises(AssertionError, match="^positive roots not closed under falling reflections$"):
        build_root_system.__wrapped__(LieType.parse("B3"))


def test_missing_highest_root_fails_the_build(monkeypatch):
    """Without theta, every root just below theta has no root above it, and none of
    them is dominant."""
    monkeypatch.setattr(rootsystem, "_positive_pass", _pass_without(lambda roots: [max(roots, key=sum)]))
    with pytest.raises(AssertionError, match="^highest root is not unique$"):
        build_root_system.__wrapped__(LieType.parse("A3"))


def test_three_root_lengths_fail_the_build(monkeypatch):
    monkeypatch.setattr(rootsystem, "_length_classes", lambda cartan, r: [k + 1 for k in range(r)])
    with pytest.raises(AssertionError, match="^more than two root lengths$"):
        build_root_system.__wrapped__(LieType.parse("A3"))


@pytest.mark.parametrize("name", ["A1", "B2", "C3", "G2", "F4", "E6"])
def test_length_classes_are_whole_with_gcd_one(name):
    """The simple-root classes are ints, the short ones 1, and the long ones 2 or 3
    times that exactly when the diagram has a double or triple bond."""
    t = LieType.parse(name)
    ell = rootsystem._length_classes(cartan_matrix(t), t.rank)
    assert all(type(e) is int for e in ell) and min(ell) == 1
    assert max(ell) == {"A": 1, "E": 1, "G": 3}.get(t.family, 2)


def test_per_root_maps_are_filled_on_first_read():
    """A fresh build holds none of the per-root maps; each is built on its own first read,
    not with the others, and later reads find it in the instance."""
    rs = build_root_system.__wrapped__(LieType.parse("C3"))
    assert not set(PER_ROOT_MAPS) & set(vars(rs))
    assert rs.norm(rs.highest_root) == 2  # reads codes and lengths
    assert {"codes", "lengths"} <= set(vars(rs)) and "basis_index" not in vars(rs)
    for name in PER_ROOT_MAPS:
        assert getattr(rs, name) is vars(rs)[name]
    assert list(rs.codes) == list(rs.roots) == [rs.roots[i - rs.rank] for i in rs.basis_index.values()]
    with pytest.raises(AttributeError, match="no_such_field"):
        rs.no_such_field


LAYOUT_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", LAYOUT_TYPES)
def test_basis_layout_has_one_owner(name):
    """``basis_codes`` is h_1..h_r (code 0), then the codes in root order, each sum_k a_k 64^k;
    ``basis_index`` inverts it and mirrors e_{-alpha} from e_alpha; each root row of the form
    pairs i with ``basis_index[-basis_codes[i]]``; ``coroot`` is the Fraction coroot;
    ``basis_roots`` is () on h_1..h_r and inverts ``basis_index`` on the roots; and
    ``basis_values(p)`` is sum_k a_k p_k through ``oracles.basis_root`` (0 on the Cartan), on
    each Cartan column and on three seeded random label vectors."""
    rs = build_root_system(LieType.parse(name))
    r, n = rs.rank, len(rs.roots)
    assert rs.basis_codes[:r] == (0,) * r
    assert list(rs.basis_codes[r:]) == [rs.codes[a] for a in rs.roots]
    assert list(rs.basis_codes[r:]) == [sum(x << 6 * k for k, x in enumerate(a)) for a in rs.roots]
    assert sorted(rs.basis_index.items(), key=lambda item: item[1]) == list(zip(rs.basis_codes[r:], range(r, r + n)))
    assert all(rs.basis_index[c] + rs.basis_index[-c] == 2 * r + n - 1 for c in rs.basis_codes[r:])
    rows = form_table(rs)
    assert all([j for j, _ in rows[i]] == [rs.basis_index[-rs.basis_codes[i]]] for i in range(r, r + n))
    assert all(rs.coroot(a) == fraction_coroot(rs, a) for a in rs.roots)
    assert rs.basis_roots[:r] == ((),) * r
    assert all(rs.basis_index[rs.codes[a]] == i for i, a in enumerate(rs.basis_roots) if a)
    rng = random.Random(name)
    for p in list(zip(*rs.cartan)) + [[rng.randint(-3, 3) for _ in range(r)] for _ in range(3)]:
        expected = [sum(map(mul, basis_root(rs, i), p)) if i >= r else 0 for i in range(r + n)]
        assert rs.basis_values(p) == expected, p


def _layout_reads(source: str) -> List[int]:
    """The lines of Python source that work out the basis layout themselves: a ``.roots[...]``
    subscript, a ``[rank:]`` slice or an ``enumerate(..., rank)``, where rank is ``rank``, ``r``
    or ``name.rank`` (``rs.rank``, ``self.rank``).  ``chevalley``'s ``pos[self.rs.rank :]`` is
    not one: it skips the simple roots of the positive roots in height order, not the Cartan."""

    def is_rank(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in ("rank", "r")) or (
            isinstance(node, ast.Attribute) and node.attr == "rank" and isinstance(node.value, ast.Name)
        )

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            sl = node.slice
            if (isinstance(node.value, ast.Attribute) and node.value.attr == "roots") or (
                isinstance(sl, ast.Slice) and is_rank(sl.lower) and sl.upper is None
            ):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "enumerate":
            start = node.args[1:] + [k.value for k in node.keywords if k.arg == "start"]
            if any(map(is_rank, start)):
                lines.add(node.lineno)
    return sorted(lines)


def _outside_rootsystem(reads) -> List[str]:
    """``module:line`` of every line that ``reads`` finds in a package module other than ``rootsystem``."""
    package = Path(rootsystem.__file__).parent
    return [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "rootsystem.py"
        for line in reads(path.read_text())
    ]


def test_no_module_but_rootsystem_works_out_the_basis_layout():
    """Basis index -> root, and the root values on the basis, are read from ``RootSystem``
    (``basis_roots``, ``basis_codes``, ``basis_index``, ``basis_values``) in every other module."""
    assert _outside_rootsystem(_layout_reads) == []


def test_layout_reads_are_found():
    """The source test finds each form it looks for, and nothing in code that reads the layout
    from ``RootSystem``."""
    sample = (
        "a = rs.roots[i - r]\n"
        "b = piece[rs.rank :]\n"
        "c = codes[rank:]\n"
        "for i, x in enumerate(values, r): pass\n"
        "for i, x in enumerate(values, start=self.rank): pass\n"
        "d = rs.basis_roots[i]\n"
        "for g in pos[self.rs.rank :]: pass\n"
        "e = gram[:r]\n"
        "for i, x in enumerate(values): pass\n"
    )
    assert _layout_reads(sample) == [1, 2, 3, 4, 5]


def _cartan_reads(source: str) -> List[int]:
    """The lines of Python source that read or write an attribute named ``cartan``."""
    tree = ast.parse(source)
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "cartan"})


def test_no_module_but_rootsystem_reads_the_cartan_matrix():
    """A Cartan element's simple-root labels, and the element with given labels, come from
    ``RootSystem.simple_values`` and ``RootSystem.grading_element`` in every other module."""
    assert _outside_rootsystem(_cartan_reads) == []


def test_cartan_reads_are_found():
    """The source test finds a ``.cartan`` read however it is reached, and nothing else."""
    sample = (
        "a = rs.cartan[k][i]\n"
        "for column in zip(*self.rs.cartan): pass\n"
        "b = solve(RationalMatrix(rs.cartan), p)\n"
        "c = rs.grading_element(p)\n"
        "d = cartan_matrix(t)\n"
        "e = rs.simple_values(h)\n"
    )
    assert _cartan_reads(sample) == [1, 2, 3]


@pytest.mark.parametrize("name", LAYOUT_TYPES)
def test_simple_values_are_the_labels_and_grading_element_inverts_them(name):
    """``simple_values(beta^vee)`` is <alpha_k, beta^vee> = 2 B*(alpha_k, beta) / B*(beta, beta) from
    form values at the coroot of every positive root, the simple coroots among them, so at every h
    by linearity; ``grading_element`` gives back each such coroot over 1, and on seeded random
    labels p a positive denominator D and numerators whose labels are D p."""
    rs = build_root_system(LieType.parse(name))
    r = rs.rank
    simple = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    for beta in rs.positive_roots:
        labels = rs.simple_values(rs.coroot(beta))
        assert labels == [2 * rs.form_value(a, beta) / rs.norm(beta) for a in simple], beta
        assert rs.grading_element(labels) == (list(rs.coroot(beta)), 1), beta
    rng = random.Random(name)
    for p in [[rng.randint(0, 3) for _ in range(r)] for _ in range(3)]:
        num, den = rs.grading_element(p)
        assert den > 0 and rs.simple_values(num) == [den * x for x in p], p


def reversed_codes(t: LieType):
    """A fresh root system whose ``codes`` dict is filled in reversed insertion order before
    any other map is built."""
    mutant = build_root_system.__wrapped__(t)
    mutant.codes = dict(reversed(build_root_system(t).codes.items()))
    assert list(mutant.codes) != list(mutant.roots) and not {"basis_codes", "basis_index"} & set(vars(mutant))
    return mutant


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4", "E6"])
def test_codes_insertion_order_moves_no_basis_position(name):
    """No basis position is read off the order of the ``codes`` dict: the table rows, the form
    rows and each one-root triple of a root system whose ``codes`` run backwards are those of
    the cached one."""
    t = LieType.parse(name)
    mutant, rs = reversed_codes(t), build_root_system(t)
    assert ChevalleyAlgebra(mutant).constants.rows == build_algebra(t).constants.rows
    assert form_table(mutant) == form_table(rs)
    for i in range(rs.rank, rs.dim_algebra):
        assert triple_parts(set_triple(mutant, [i])) == triple_parts(set_triple(rs, [i])), i


def test_codes_insertion_order_leaves_the_quaternionic_report(monkeypatch, capsys):
    assert main(["quaternionic", "--type", "F4"]) == 0
    expected = capsys.readouterr().out
    mutant = reversed_codes(LieType.parse("F4"))
    monkeypatch.setattr("gradedlie.quaternionic.build_root_system", lambda t: mutant)
    monkeypatch.setattr("gradedlie.cli.build_quaternionic", build_quaternionic.__wrapped__)
    assert main(["quaternionic", "--type", "F4"]) == 0
    assert capsys.readouterr().out == expected
    assert "basis_index" in vars(mutant)  # the report was read off the mutant


def test_equal_types_share_one_cache_entry():
    """A type is a cache key by value: a second, equal type hits the first one's entry."""
    first = build_root_system(LieType("F", 4))
    hits = build_root_system.cache_info().hits
    assert LieType.parse("f4") == LieType("F", 4)
    assert hash(LieType.parse("f4")) == hash(LieType("F", 4))
    assert build_root_system(LieType.parse("f4")) is first
    assert build_root_system.cache_info().hits == hits + 1


def test_short_root_norms():
    c2 = build_root_system(LieType.parse("C2"))
    short = [a for a in c2.roots if c2.norm(a) != 2]
    assert short and all(c2.norm(a) == 1 for a in short)
    g2 = build_root_system(LieType.parse("G2"))
    assert c2.norm((1, 0)) == 1
    assert g2.norm((1, 0)) == Q(2, 3)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_coroot_coefficients_integral(name):
    rs = build_root_system(LieType.parse(name))
    for alpha in rs.roots:
        for c in rs.coroot(alpha):
            assert c.denominator == 1


def test_exact_div_refuses_a_remainder():
    """Each quotient that must be an integer (coroots, structure constants, form entries) is
    certified one: a remainder raises rather than truncating."""
    assert rootsystem.exact_div(-6, 3) == -2
    with pytest.raises(AssertionError, match="^2/3 is not an integer$"):
        rootsystem.exact_div(2, 3)


def test_affine_marks():
    expect = {
        "A2": (1, 1, 1),
        "B3": (1, 1, 2, 2),
        "C3": (1, 2, 2, 1),
        "D4": (1, 1, 2, 1, 1),
        "G2": (1, 3, 2),
        "F4": (1, 2, 3, 4, 2),
        "E6": (1, 1, 2, 2, 3, 2, 1),
    }
    for name, marks in expect.items():
        rs = build_root_system(LieType.parse(name))
        assert rs.affine_marks == marks


def test_affine_cartan_matrix_a1():
    rs = build_root_system(LieType.parse("A1"))
    assert affine_cartan_matrix(rs) == [[2, -2], [-2, 2]]


AFFINE_TYPES = (
    [f"A{r}" for r in range(1, 13)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 11)]
    + [f"D{r}" for r in range(3, 11)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_affine_cartan_matrix_matches_form_oracle(name):
    """The integer affine Cartan matrix equals the one from Fraction form values."""
    rs = build_root_system(LieType.parse(name))
    affine = affine_cartan_matrix(rs)
    assert affine == form_affine_cartan_matrix(rs)
    assert all(type(c) is int for row in affine for c in row)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_pairing_matches_cartan(name):
    rs = build_root_system(LieType.parse(name))
    for alpha in rs.roots:
        for j in range(rs.rank):
            simple = tuple(int(i == j) for i in range(rs.rank))
            expected = 2 * rs.form_value(alpha, simple) / rs.norm(simple)
            assert rs.pairing(alpha, j) == expected


CLOSURE_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", CLOSURE_TYPES)
def test_sparse_reflection_closure_matches_dense(name):
    """The pass finds the positive roots of the dense closure, each with the same origin
    simple root, compared without order."""
    t = LieType.parse(name)
    cartan = cartan_matrix(t)
    found = _positive_pass(cartan, t.rank)
    _, dense_origin = dense_reflection_closure(cartan, t.rank)
    assert len(found) == len({alpha for alpha, _, _, _ in found})  # each root once
    assert {alpha: j for alpha, _, j, _ in found} == {a: j for a, j in dense_origin.items() if sum(a) > 0}
    for alpha, code, _, pairing in found:
        assert code == sum(x << 6 * k for k, x in enumerate(alpha))
        assert list(pairing) == [sum(alpha[i] * cartan[i][j] for i in range(t.rank)) for j in range(t.rank)]
