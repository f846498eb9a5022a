"""Property tests: exact linear algebra, the bracket and the CLI's exit-code contract,
and the repo's pytest settings reporting a failing property test."""

import contextlib
import io
import json
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from oracles import (
    _bareiss_echelon,
    bareiss_kernel_basis,
    bareiss_rank,
    bareiss_solve,
    dense,
    fraction_bracket,
    fractions_of,
    from_sparse,
    is_normalised,
)

from gradedlie.chevalley import Element, build_algebra
from gradedlie import cli
from gradedlie.cli import COMMAND_FLAGS, COMMANDS, FIELDS, main
from gradedlie.linalg import RationalMatrix, independent_subset, kernel_basis, rank, solve
from gradedlie.quiver import QuiverDims, labels_for_dims
from gradedlie.rootsystem import LieType

entries = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-12, 12))


def shaped(rows: int, cols: int):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: RationalMatrix(xs[i * cols : (i + 1) * cols] for i in range(rows))
    )


@st.composite
def matrices(draw, max_side: int = 5):
    """Up to max_side x max_side, often rank-deficient (a product through a thin middle)."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        return draw(shaped(rows, cols))
    inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    return draw(shaped(rows, inner)).matmul(draw(shaped(inner, cols)))


def vectors(n: int):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


def column(m: RationalMatrix, j: int):
    return tuple(row[j] for row in m)


def apply(m: RationalMatrix, v):
    """Mv, in ints for an int vector and in Fractions for a Fraction one."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def transpose(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([column(m, j) for j in range(m.cols)])


def naive_pivots(m: RationalMatrix):
    """Pivot columns of Gauss-Jordan elimination in Fraction arithmetic."""
    rows = [list(row) for row in m]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = Q(rows[i][c]) / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


@settings(max_examples=60)
@given(st.dictionaries(st.integers(0, 9), st.integers(-40, 40)), st.integers(2, 30), st.integers(10, 14))
def test_element_strs_match_the_dense_coordinates(num, den, dim):
    """The report formatter reads the integer numerators; ``str`` of the coordinates that
    ``oracles.dense`` reads back as ints or Fractions is its oracle.
    Coordinate 0 is 1/den, so the denominator stays above 1; negative numerators and
    zero coordinates come from the draw."""
    e = Element({**num, 0: 1}, den)
    assert e.den == den
    assert cli.element_strs(e, dim) == [str(x) for x in dense(e, dim)]


# report-shaped values: str keys in any order ("0,10" sorts before "0,2"), text with
# non-ASCII, quotes, backslashes and control characters, ints past 64 bits, tuples
report_keys = st.one_of(st.sampled_from(["0,10", "0,2", "0,1", "10,11", "", "é", '"', "\\", "\x00"]), st.text())
report_scalars = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text())
report_values = st.recursive(
    report_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(report_keys, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=150)
@given(report_values)
def test_report_json_matches_json_dumps(value):
    assert cli.report_json(value) == json.dumps(value, indent=2, sort_keys=True)


@given(st.integers(-(2**70), 2**70), st.integers(1, 2**40))
def test_ratio_str_matches_fraction(num, den):
    assert cli.ratio_str(num, den) == str(Q(num, den))


@settings(max_examples=40)
@given(st.data())
def test_solve_residual_is_zero(data):
    m = data.draw(matrices())
    x0 = data.draw(vectors(m.cols))
    b = apply(m, x0)
    x = fractions_of(solve(m, b))
    assert x is not None and apply(m, x) == b
    # an arbitrary right-hand side: solved exactly, or shown inconsistent by rank
    b = data.draw(vectors(m.rows))
    x = fractions_of(solve(m, b))
    augmented = RationalMatrix([list(m[i]) + [b[i]] for i in range(m.rows)])
    if x is None:
        assert rank(augmented) == rank(m) + 1
    else:
        assert apply(m, x) == b


@settings(max_examples=40)
@given(matrices())
def test_kernel_vectors_are_annihilated(m):
    solutions = kernel_basis(m)
    basis = [fractions_of(v) for v in solutions]
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert all(x == 0 for x in apply(m, v))
    if basis:  # each vector's numerators span its line
        assert rank(RationalMatrix(num for num, _ in solutions)) == len(basis)


@settings(max_examples=40)
@given(matrices())
def test_rank_of_transpose(m):
    assert rank(m) == rank(transpose(m))


@settings(max_examples=40)
@given(matrices())
def test_bareiss_matches_naive_elimination(m):
    _, pivots = _bareiss_echelon(list(m))
    assert pivots == naive_pivots(m)
    assert rank(m) == len(pivots)


@settings(max_examples=40)
@given(st.data())
def test_non_int_entries_raise_type_error(data):
    """Every elimination takes Python-int entries only: one entry of another type,
    even an integral Fraction or a float, in the matrix or in b raises TypeError."""
    # a single row never reaches a gcd in the elimination, so only the gate sees it
    with pytest.raises(TypeError):
        rank(RationalMatrix([[Q(1, 2)]]))
    m = data.draw(matrices())
    b = list(data.draw(vectors(m.rows)))
    rank(m), kernel_basis(m), solve(m, b), independent_subset(m)  # int input is accepted
    bad = data.draw(st.sampled_from([Q(1, 2), Q(-3, 2), Q(2), 1.0]))
    i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    tainted = RationalMatrix([list(row) for row in m])
    tainted[i][j] = bad
    for call in (rank, kernel_basis, independent_subset, lambda x: solve(x, b)):
        with pytest.raises(TypeError):
            call(tainted)
    b[i] = bad  # a non-int only in the right-hand side
    with pytest.raises(TypeError):
        solve(m, b)


def mixed_rows(draw, rows: int, cols: int):
    """Int rows, with some rows set to zero."""
    row = st.lists(entries, min_size=cols, max_size=cols)
    out = draw(st.lists(row, min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, max(0, rows - 1)), max_size=rows)):
        out[i] = [0] * cols
    return RationalMatrix(out, cols)


@settings(max_examples=60)
@given(st.data())
def test_matmul_matches_naive_product(data):
    n, k, p = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = mixed_rows(data.draw, n, k)
    b = mixed_rows(data.draw, k, p)
    if p and data.draw(st.booleans()):  # a zero column of b
        j = data.draw(st.integers(0, p - 1))
        for row in b:
            row[j] = 0
    product = a.matmul(b)
    naive = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p)] for i in range(n)]
    assert (product.rows, product.cols) == (n, p)
    assert product == naive


def assert_lowest_terms(solution):
    """Python-int numerators over a positive Python-int denominator, in lowest terms."""
    num, den = solution
    assert type(den) is int and all(type(n) is int for n in num)
    assert den > 0
    assert gcd(den, *num) == 1


def assert_matches_bareiss(m: RationalMatrix, b):
    assert rank(m) == bareiss_rank(m)
    basis = kernel_basis(m)
    assert [fractions_of(v) for v in basis] == bareiss_kernel_basis(m)
    for v in basis:
        assert_lowest_terms(v)
    x = solve(m, b)
    assert fractions_of(x) == bareiss_solve(m, b)
    if x is not None:
        assert_lowest_terms(x)
    greedy = []  # rows that raise the rank, from the front
    for i in range(m.rows):
        if bareiss_rank(RationalMatrix([m[k] for k in greedy + [i]], m.cols)) > len(greedy):
            greedy.append(i)
    assert independent_subset(m) == greedy


@settings(max_examples=60)
@given(st.data())
def test_elimination_matches_bareiss_oracle(data):
    m = data.draw(matrices())
    assert_matches_bareiss(m, data.draw(vectors(m.rows)))
    assert_matches_bareiss(m, apply(m, data.draw(vectors(m.cols))))


@settings(max_examples=60)
@given(st.data())
def test_elimination_matches_bareiss_oracle_on_mixed_rows(data):
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    m = mixed_rows(data.draw, n, k)
    assert_matches_bareiss(m, data.draw(vectors(n)))
    assert_matches_bareiss(m, apply(m, data.draw(vectors(k))))


BRACKET_TYPES = ["A2", "B3", "C3", "D4", "G2", "F4", "E6"]
# mostly zero, then ints and Fractions with denominators up to 3
coordinates = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)
)


@settings(max_examples=40)
@given(st.data())
def test_bracket_matches_fraction_oracle(data):
    alg = build_algebra(LieType.parse(data.draw(st.sampled_from(BRACKET_TYPES))))
    element = st.lists(coordinates, min_size=alg.dim, max_size=alg.dim)
    a, b = data.draw(element), data.draw(element)
    out = alg.bracket(from_sparse(alg, dict(enumerate(a))), from_sparse(alg, dict(enumerate(b))))
    assert type(out) is Element and is_normalised(out)
    assert all(0 <= i < alg.dim for i in out.num)
    assert dense(out, alg.dim) == fraction_bracket(alg, a, b)


# -- CLI fuzz: every argv or config gives exit code 0, 1 or 2 and never raises --
# Each command's flags, config keys and switches come from cli.FIELDS and
# cli.COMMANDS, and each value is drawn by its field's parser, so a new field
# is fuzzed without an edit here.  A draw puts a rejected value in at most one
# field, so about half the draws reach a handler's report.

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]
FUZZED = sorted(c for c in COMMANDS if c != "verify-paper")  # its full check table takes seconds a run


# list entries by field key: labels may be 0 (a vanishing label), dims may not
ENTRIES = {"labels": st.sampled_from([1, 0, 2, 1]), "degrees": st.integers(-2, 2)}


def int_list(size: int, key: str):
    return st.lists(ENTRIES.get(key, st.sampled_from([1, 2, 1])), min_size=size, max_size=size)


# (accepted, rejected) draws of each integer field whose range is not "at least 2"
INT_POOLS = {"seed": ([0, 1, 3], ["x", "1_0"])}
# dimension vectors whose block grading has Cayley data (a JM-regular degree-1 pair)
CAYLEY_DIMS = [(1, 1), (2, 2), (1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 1, 1, 1), (1, 2, 2, 1)]

# the flags each mode of a command leaves out, and the optional flags it needs:
# a draw keeps to one mode, so that a report is in reach
MODES = {
    "cayley": [({"--type", "--labels"}, {"--dims"})] * 4 + [({"--dims"}, {"--type", "--labels"})],
}


@st.composite
def field_values(draw, command: str, folder):
    """Values for the fields of one mode of the command, drawn by each field's
    parser, and the key of the one field (in about half the draws) whose value
    its parser or its range rejects, or which is left out although required;
    an optional field the mode does not need is left out now and then.
    cayley's --dims mode is drawn four times in five and draws an unbroken
    --dims from the dimension vectors with Cayley data; its --type --labels
    mode draws the block grading of one of them.  Integer lists stay lists:
    labels are sized to the type's rank (plus one for kac), degrees to the
    dims, and degrees lie in -2..2 and sum to zero when the last one can make
    them.  Dims have 2 to 4 entries, or in one draw in four 17 to 24, which is
    past ``quiver.ORBIT_BOUND`` whatever the entries."""
    left_out, needed = draw(st.sampled_from(MODES[command])) if command in MODES else (set(), set())
    block_labels = None
    if command == "cayley" and "--dims" in left_out:
        dims = QuiverDims(draw(st.sampled_from(CAYLEY_DIMS)))
        lie_type, block_labels = f"A{dims.n - 1}", list(labels_for_dims(dims))
    else:
        lie_type = draw(st.sampled_from(TYPES))
    rank = int(lie_type[1:])
    n_dims = draw(st.integers(2, 4)) if draw(st.integers(0, 3)) else draw(st.integers(17, 24))
    sizes = {"labels": rank + (command == "kac"), "dims": n_dims, "degrees": n_dims}
    path = folder / "r.json"
    accepted = {
        cli.to_lie_type: st.just(lie_type),
        cli.to_int: st.sampled_from([2, 2, 3]),
        cli.to_rational: st.sampled_from(["0", "4", "1/2", "1"]),
        cli.to_switch: st.booleans(),
        cli.to_format: st.sampled_from(cli.FORMATS),
        cli.to_path: st.just(str(path)),
    }
    rejected = {
        cli.to_lie_type: st.sampled_from(["A0", "E9", "X3", "A1_0", "E 8"]),
        cli.to_int: st.sampled_from([-1, 0, 1, "x", "1_0"]),
        cli.to_rational: st.sampled_from(["-3", "x", "1/0"]),
        cli.to_switch: st.sampled_from(["no", 1]),
        cli.to_format: st.just("xml"),
        cli.to_path: st.sampled_from([str(folder / "no-such-dir" / "r.json"), ""]),
    }
    own = {flag: required or flag in needed for flag, required in COMMAND_FLAGS[command].items()
           if flag not in left_out}
    broken = draw(st.sampled_from([FIELDS[flag].key for flag in own])) if draw(st.booleans()) else None
    values = {}
    for flag, required in own.items():
        field = FIELDS[flag]
        if (field.key == broken and required and draw(st.booleans())) or (
            not required and not draw(st.integers(0, 4))
        ):
            continue
        if field.key in INT_POOLS:
            values[field.key] = draw(st.sampled_from(INT_POOLS[field.key][field.key == broken]))
        elif field.parse is not cli.to_ints:
            pools = rejected if field.key == broken else accepted
            values[field.key] = draw(pools[field.parse])
        else:
            size = sizes[field.key] if field.key in sizes else draw(st.integers(1, 4))
            if field.key == "labels" and block_labels:
                value = block_labels
            elif command == "cayley" and field.key == "dims" and field.key != broken:
                value = list(draw(st.sampled_from(CAYLEY_DIMS)))
            else:
                value = draw(int_list(size, field.key))
            if field.key == "degrees" and value and -2 <= sum(value[:-1]) <= 2:
                value[-1] = -sum(value[:-1])
            if field.key == broken:
                value = draw(st.sampled_from([value + [-1], []]))
            values[field.key] = value
    return values, broken


def flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@st.composite
def argvs(draw, command: str, folder):
    """The subcommand with the drawn fields."""
    values, _ = draw(field_values(command, folder))
    argv = [command]
    for flag in COMMAND_FLAGS[command]:
        field = FIELDS[flag]
        if field.key not in values:
            continue
        if field.parse is cli.to_switch:
            if values[field.key]:
                argv.append(flag)
        else:
            argv.append(f"{flag}={flag_text(values[field.key])}")
    return argv


# the types a JSON config can hold in place of a string
NON_STRINGS = st.one_of(
    st.integers(-1, 3),
    st.sampled_from([0.0, 1.5, -2.0]),
    st.booleans(),
    st.none(),
    st.lists(st.sampled_from([1, 0, 2, -1]), max_size=4),
)


@st.composite
def configs(draw, command: str, folder):
    """A config of the subcommand's fields, each the drawn value or its flag text
    (a switch is the drawn bool); the field given a rejected value may instead
    hold an int, float, bool, null or list."""
    values, broken = draw(field_values(command, folder))
    config = {}
    for flag in COMMAND_FLAGS[command]:
        field = FIELDS[flag]
        if field.key not in values:
            continue
        value = values[field.key]
        if field.key == broken:
            value = draw(st.one_of(st.just(value), NON_STRINGS))
        elif field.parse is not cli.to_switch:
            value = draw(st.sampled_from([value, flag_text(value)]))
        config[field.key] = value
    return config


def assert_exit_contract(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
    return code


@pytest.mark.parametrize("command", FUZZED)
@settings(max_examples=20)
@given(data=st.data())
def test_cli_exit_codes(command, data, tmp_path_factory):
    assert_exit_contract(data.draw(argvs(command, tmp_path_factory.getbasetemp())))


@pytest.mark.parametrize("command", FUZZED)
@settings(max_examples=20)
@given(data=st.data())
def test_cli_config_exit_codes(command, data, tmp_path_factory):
    folder = tmp_path_factory.getbasetemp()
    config = data.draw(configs(command, folder))
    path = folder / f"fuzz-{command}.json"
    path.write_text(json.dumps(config))
    assert_exit_contract(["--config", str(path), command])


SWITCH_FLAGS = sorted(flag for flag, field in FIELDS.items() if field.parse is cli.to_switch)


@st.composite
def malformed_argvs(draw, command: str, folder):
    """A drawn argv of the command with one malformed token (or pair) put in."""
    argv = draw(argvs(command, folder))
    own = list(COMMAND_FLAGS[command])
    value_flags = [flag for flag in own if FIELDS[flag].parse is not cli.to_switch]
    kind = draw(st.sampled_from(
        ["unknown", "foreign", "bare", "empty", "switch=", "command", "config", "help"]
    ))
    if kind == "command":
        argv[0] = draw(st.sampled_from(["frobnicate", "Quiver", "verify_paper", "--dims", ""]))
        return argv
    if kind == "help":
        tokens = [draw(st.sampled_from(["-h", "--help"]))]
    elif kind == "unknown":
        tokens = [draw(st.sampled_from(["--bogus", "--bogus=1", "--dim", "--typ=A2", "-x", "--"]))]
    elif kind == "foreign":
        foreign = [flag for flag in sorted(FIELDS) if flag not in own]
        tokens = [draw(st.sampled_from(foreign))] if foreign else ["--bogus"]
    elif kind == "bare":
        tokens = [draw(st.sampled_from(value_flags))]
    elif kind == "empty":
        tokens = [draw(st.sampled_from(value_flags)) + "="]
    elif kind == "switch=":
        tokens = [draw(st.sampled_from(SWITCH_FLAGS)) + "=" + draw(st.sampled_from(["x", "", "1"]))]
    else:
        tokens = ["--config", draw(st.sampled_from(["job.json", "", "-1"]))]
    at = draw(st.integers(0 if kind == "help" else 1, len(argv)))
    return argv[:at] + tokens + argv[at:]


@pytest.mark.parametrize("command", FUZZED)
@settings(max_examples=30)
@given(data=st.data())
def test_cli_malformed_argv_exit_codes(command, data, tmp_path_factory):
    # every malformed token gives a report or one error line
    argv = data.draw(malformed_argvs(command, tmp_path_factory.getbasetemp()))
    assert assert_exit_contract(argv) in (0, 2), argv


# -- a failing property test is reported under the repo's pytest settings ----
# On a failure the hypothesis plugin imports libcst to suggest a patch, and that
# import warns; with filterwarnings = ["error"] alone the warning ended the session
# with INTERNALERROR and lost the falsifying example.

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                     "--rootdir", str(tmp_path), "test_fails.py", cwd=tmp_path, exit_code=1)
    out = run.stdout + run.stderr
    assert "1 failed" in out and "INTERNALERROR" not in out, out
    assert "Falsifying example: test_fails(" in out, out
