import fractions
import importlib.util
import inspect
import json
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import SMALL_DIMS, dims_id
from oracles import PER_ROOT_MAPS
from replay import EXAMPLES, GOLDEN, slug

from gradedlie import cli, quaternionic, vinberg
from gradedlie.cli import (
    COMMAND_FLAGS, COMMANDS, cmd_grading, cmd_kac, cmd_quiver, main, q_str, report_json, to_rational, usage,
)
from gradedlie.quiver import QuiverDims, orbit_count
from gradedlie.rootsystem import LieType, build_root_system

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_q_str():
    from fractions import Fraction as Q

    assert q_str(Q(3)) == "3"
    assert q_str(Q(-1, 2)) == "-1/2"
    assert q_str(-7) == "-7" and q_str(True) == "1"
    assert to_rational("-1/2", "lam") == Q(-1, 2)
    assert to_rational("4", "lam") == 4


def test_grading_command(capsys):
    code, report = run_json(capsys, "grading", "--type", "A2", "--labels", "1,1")
    assert code == 0
    assert report["results"]["piece_dims"] == {"-2": 1, "-1": 2, "0": 2, "1": 2, "2": 1}
    assert report["schema_version"] == 1


def test_quaternionic_command(capsys):
    code, report = run_json(capsys, "quaternionic", "--type", "A2")
    assert code == 0
    r = report["results"]
    assert r["piece_dims"] == [1, 2, 2, 2, 1]
    assert r["kappa"] == 2
    assert (r["rank_plus"], r["rank_minus"]) == ("4", "1")


def test_toledo_command(capsys):
    code, report = run_json(
        capsys, "toledo", "--dims", "1,1", "--degrees=-1,1", "--genus", "2"
    )
    assert code == 0
    assert report["results"]["tau"] == "2"


def test_amw_quaternionic_coarse(capsys):
    # C3 at lambda = 0: the symplectic coarse interval, from the type's computed pair
    code, report = run_json(capsys, "amw", "--type", "C3", "--genus", "2")
    assert code == 0
    assert report["inputs"] == {"genus": 2, "lambda": "0", "lie_type": "C3"}
    assert report["results"] == {"bounds": ["-2", "2"], "kappa": 1}


def test_amw_empty_interval_warns(capsys):
    """An interval with lower > upper (C3 at a lambda outside the formula's range) is still
    reported, with exit 0, and one warning names both bounds."""
    code, report = run_json(capsys, "amw", "--type", "C3", "--genus", "2", "--lambda", "-4")
    assert code == 0
    assert report["results"]["bounds"] == ["2", "-2"]
    assert report["warnings"] == ["empty interval: lower bound 2 exceeds upper bound -2"]


def test_amw_interval_closed_to_a_point_does_not_warn(capsys):
    """At the lambda where C3's genus-2 interval closes to a point, solved from lower = upper on
    the pair's affine ``interval``, the report exits 0 with one bound twice and no warning."""
    graded = quaternionic.build_quaternionic(LieType.parse("C3"))
    (lo0, up0), (lo1, up1) = graded.interval(2, fractions.Fraction(0)), graded.interval(2, fractions.Fraction(1))
    lam = (lo0 - up0) / ((up1 - up0) - (lo1 - lo0))
    code, report = run_json(capsys, "amw", "--type", "C3", "--genus", "2", f"--lambda={q_str(lam)}")
    assert code == 0
    lower, upper = report["results"]["bounds"]
    assert lower == upper == q_str(graded.interval(2, lam)[0])
    assert report["warnings"] == []


def test_kac_command(capsys):
    code, report = run_json(capsys, "kac", "--type", "A2", "--labels", "0,1,1")
    assert code == 0
    assert report["results"]["lift"] == "after automorphism"


def test_quiver_command(capsys):
    code, report = run_json(capsys, "quiver", "--dims", "1,1,1")
    assert code == 0
    assert report["results"]["jm_regular"] is True
    opens = [o for o in report["results"]["orbits"] if o["open"]]
    assert len(opens) == 1 and opens[0]["toledo_rank"] == "4"


def test_quiver_admits_a_vector_at_the_orbit_bound_and_refuses_one_past_it(monkeypatch, capsys):
    """With ``cli.ORBIT_BOUND`` set to the orbit count of 1,1,1 the vector is reported in full;
    with the bound one lower its count is one past it, and it is refused with exit 2."""
    count = orbit_count(QuiverDims((1, 1, 1)))
    monkeypatch.setattr(cli, "ORBIT_BOUND", count)
    code, report = run_json(capsys, "quiver", "--dims", "1,1,1")
    assert code == 0 and len(report["results"]["orbits"]) == count
    monkeypatch.setattr(cli, "ORBIT_BOUND", count - 1)
    assert main(["quiver", "--dims", "1,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the dimension vector has at least {count} orbits; a report lists at most {count - 1}\n"
    )


def test_cayley_command(capsys):
    code, report = run_json(capsys, "cayley", "--dims", "2,2,2")
    assert code == 0
    r = report["results"]
    assert (r["dim_c"], r["dim_v"]) == (3, 4)
    assert r["theta_pair_candidate"] is False
    assert "witness" in r


def test_invalid_input_exit_code(capsys):
    code, _ = run_cli(capsys, "grading", "--type", "Z9", "--labels", "1")
    assert code == 2
    code, _ = run_cli(capsys, "toledo", "--dims", "1,1", "--degrees", "1,1", "--genus", "2")
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"lie_type": "A2", "labels": [1, 0]}))
    code, report = run_json(
        capsys, "--config", str(cfg), "grading", "--labels", "1,1"
    )
    assert code == 0
    assert report["inputs"]["labels"] == [1, 1]


def test_output_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _ = run_cli(
        capsys, "toledo", "--dims", "1,1,1", "--degrees", "1,0,-1", "--genus", "2",
        "--output", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["results"]["tau"] == "-4"


def test_reports_byte_stable(capsys):
    _, out1 = run_cli(capsys, "quaternionic", "--type", "C2", "--seed", "3")
    _, out2 = run_cli(capsys, "quaternionic", "--type", "C2", "--seed", "3")
    assert out1 == out2


def test_verify_paper(capsys):
    code, report = run_json(capsys, "verify-paper")
    assert code == 0
    assert report["checks"] and all(c["pass"] for c in report["checks"])
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert "witness_222" in report["results"]
    assert set(report["results"]["kappa_table"]) == {
        "A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6"
    }


def test_failed_paper_check_exits_1(monkeypatch, capsys):
    """A row whose value misses its expectation fails alone, and verify-paper exits 1."""
    table = cli.paper_checks

    def one_wrong_expectation(extended, seed):
        rows = table(extended, seed)
        (row,) = [row for row in rows if row.id == "quiver-toledo-111"]
        row.expected = "4"  # the paper's value is -4
        return rows

    monkeypatch.setattr(cli, "paper_checks", one_wrong_expectation)
    code = main(["verify-paper"])
    captured = capsys.readouterr()
    assert code == 1
    verdicts = {check["id"]: check["pass"] for check in json.loads(captured.out)["checks"]}
    assert verdicts.pop("quiver-toledo-111") is False
    assert len(verdicts) == 27 and all(verdicts.values())
    # the failing row, and only it, says how to reproduce it
    assert captured.err.splitlines() == [
        "[FAIL] quiver-toledo-111: gradedlie toledo --dims 1,1,1 --degrees=1,0,-1 --genus 2"
    ]


def test_text_format(capsys):
    code, out = run_cli(capsys, "quaternionic", "--type", "G2", "--format", "text")
    assert code == 0
    assert "kappa: 2" in out
    assert "[PASS]" in out


@pytest.mark.parametrize(
    "field,argv",
    [
        ({"seed": "abc"}, ["quaternionic", "--type", "A2"]),
        ({"seed": "abc"}, ["cayley", "--dims", "1,1,1"]),
        ({"seed": "abc"}, ["verify-paper"]),
        ({"genus": "x"}, ["amw", "--type", "E6"]),
        ({"lie_type": 5}, ["grading", "--labels", "1"]),
        ({"labels": 5}, ["grading", "--type", "A1"]),
        ({"labels": [1, "a"]}, ["grading", "--type", "A2"]),
        ({"output_path": 7}, ["toledo", "--dims", "1,1", "--degrees=-1,1", "--genus", "2"]),
        ({"output_path": ["r.json"]}, ["grading", "--type", "A2", "--labels", "1,1"]),
        ([1, 2], ["grading", "--type", "A2", "--labels", "1,1"]),
    ],
)
def test_bad_config_field_is_input_error(tmp_path, capsys, field, argv):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(field))
    code = main(["--config", str(cfg)] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "Traceback" not in captured.err


def test_config_integer_strings_accepted(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"lie_type": "A2", "labels": ["1", 1]}))
    code, report = run_json(capsys, "--config", str(cfg), "grading")
    assert code == 0
    assert report["inputs"]["labels"] == [1, 1]


def case_id(argv) -> str:
    """An argv as its shell line, with a leading config dict written as its JSON."""
    config = [json.dumps(argv[0])] if isinstance(argv[0], dict) else []
    return " ".join(config + [shlex.join(argv[len(config):])])


@pytest.mark.parametrize(
    "argv",
    [
        ["cayley", "--dims", "1"],
        ["cayley", "--dims", "0,1"],
        # every --dims is checked by one rule, with one wording
        ["quiver", "--dims", "0,1"],
        ["toledo", "--dims", "0,1", "--degrees", "0,0", "--genus", "2"],
        ["quaternionic", "--type", "A1"],
        ["amw", "--type", "A1", "--genus", "2"],
        # amw's one mode needs --type
        ["amw", "--genus", "2"],
        ["amw", "--genus", "2", "--depth", "0"],
        ["amw", "--genus", "2", "--depth", "1"],
        ["toledo", "--dims=", "--degrees=", "--genus=2"],
        ["toledo", "--dims=1", "--degrees=0", "--genus=2"],
        ["toledo", "--dims", "1,1", "--degrees", "0", "--genus", "2"],
        # an empty item in an integer list is rejected, not dropped
        ["grading", "--type", "A2", "--labels", "1,,1"],
        ["quiver", "--dims", ",2,1,"],
        # a leading dict is a config file: a present null, list or boolean is rejected
        [{"seed": [], "lam": False}, "amw", "--genus", "2"],
        [{"lam": None}, "amw", "--type", "E6", "--genus", "2"],
        [{"genus": []}, "amw", "--type", "E6"],
        [{"lam": False}, "amw", "--type", "E6", "--genus", "2"],
        [{"lie_type": None}, "amw", "--genus", "2"],
        [{"seed": []}, "quaternionic", "--type", "A2"],
        [{"seed": False}, "cayley", "--dims", "2,2,2"],
        [{"seed": None}, "verify-paper"],
        [{"labels": "1,,1"}, "grading", "--type", "A2"],
        # an integer is an optional sign and ASCII digits, nothing else
        ["grading", "--type", "A2", "--labels", "1_0,1"],
        ["grading", "--type", "A2", "--labels", "1 0,1"],
        ["quaternionic", "--type", "A2", "--seed", "\u0663"],
        ["amw", "--type", "E6", "--genus", " 2"],
        ["amw", "--type", "E6", "--genus", "2", "--lambda", "1/\u0662"],
        [{"seed": "\u0663"}, "quaternionic", "--type", "A2"],
        # usage errors: one line, never a SystemExit
        ["quiver", "--seed", "x", "--dims", "2,2"],
        ["quiver", "--dim", "2,2"],
        ["quiver", "--dims"],
        ["quiver", "--dims", "--seed", "1"],
        ["quiver", "--format", "xml", "--dims", "2,2"],
        ["quiver", "--dims", "2,2", "--extended"],
        ["verify-paper", "--extended=x"],
        ["quiver", "2,2"],
        ["frobnicate"],
        ["quiver", "--dims", "2,2", "--config", "job.json"],
        ["--config"],
        # a config's output_format and output_path go through the checks of --format and --output
        [{"output_format": "xml"}, "quiver", "--dims", "1,1"],
        [{"output_format": 7}, "quiver", "--dims", "1,1"],
        ["quiver", "--dims", "1,1", "--output", ""],
        [{"output_path": ""}, "quiver", "--dims", "1,1"],
        # a switch in a config file is a JSON boolean
        [{"extended": "no"}, "verify-paper"],
        [{"extended": "false"}, "verify-paper"],
        [{"extended": 1}, "verify-paper"],
        # a config key is a field of the command, as a flag is
        [{"extended": True}, "quiver", "--dims", "2,2"],
        # only the commands that read or echo the seed take one
        [{"seed": "x"}, "quiver", "--dims", "2,2"],
        # amw takes no --kappa or --coarse: kappa is computed from --type
        ["amw", "--genus", "2", "--kappa", "5"],
        # every field the command takes is parsed when present, read or not
        ["cayley", "--dims", "2,2", "--type", "Q2"],
        # a Lie type is a family letter and ASCII digits, nothing else
        ["quaternionic", "--type", "A1_0"],
        ["quaternionic", "--type", "A\u0663"],
        ["quaternionic", "--type", "a+3"],
        ["quaternionic", "--type", "E 8"],
        ["quaternionic", "--type", "A", "--rank", "2"],
        # a flag of amw's deleted typed mode, and a valid flag that the chosen cayley mode would not read
        ["amw", "--genus", "2", "--type", "E6", "--depth", "3"],
        ["cayley", "--dims", "2,2", "--type", "A5", "--labels", "1,0,0,0,0"],
        ["cayley", "--dims", "2,2", "--labels", "1"],
        # a library ValueError is an input error
        ["cayley", "--type", "C3", "--labels", "1,0,0"],
        ["quiver", "--dims", "1"],
        ["toledo", "--dims", "1,1", "--degrees", "1,-1", "--genus", "1"],
        # every flag and config key of amw's deleted typed mode, and flags amw never had
        ["amw", "--type", "E6", "--genus", "2", "--depth", "3", "--zeta-pairing", "5", "--phi-minus-zero"],
        ["amw", "--type", "E6", "--genus", "2", "--depth", "2"],
        ["amw", "--type", "E6", "--genus", "2", "--zeta-pairing", "4"],
        ["amw", "--type", "E6", "--genus", "2", "--phi-minus-zero"],
        ["amw", "--type", "E6", "--genus", "2", "--lambda", "1/2", "--rank-plus", "3"],
        ["amw", "--type", "E6", "--coarse", "--genus", "2", "--lambda", "0"],
        ["amw", "--type", "C3", "--genus", "2", "--rank-minus", "1"],
        ["amw", "--quaternionic", "--type", "E6", "--genus", "3"],
        ["amw", "--genus", "2", "--kappa", "2"],
        [{"depth": 3}, "amw", "--type", "E6", "--genus", "2"],
        [{"zeta_pairing": "5"}, "amw", "--type", "E6", "--genus", "2"],
        [{"phi_minus_zero": True}, "amw", "--type", "E6", "--genus", "2"],
        [{"lam": "1/2", "rank_plus": 3}, "amw", "--type", "E6", "--genus", "2"],
        [{"rank_minus": 0}, "amw", "--type", "E6", "--genus", "2"],
        [{"kappa": 1}, "amw", "--genus", "2"],
        # a one-block dimension vector has no degree-1 piece
        ["cayley", "--dims", "3"],
        [{"quaternionic": True}, "amw", "--type", "E6", "--genus", "3"],
        # a removed flag is refused before its value is read
        ["amw", "--genus", "2", "--rank-minus", "-1", "--depth", "3"],
        # a flag given twice, in either form, a switch and a common flag too
        ["grading", "--type", "A2", "--type", "G2", "--labels", "1,0"],
        ["grading", "--type", "A2", "--labels=1,1", "--labels", "1,0"],
        ["verify-paper", "--extended", "--extended"],
        ["quiver", "--dims", "2,2", "--format", "json", "--format=text"],
        ["cayley", "--dims", "2,2", "--seed", "1", "--seed", "1"],
        # past a size bound, refused before the label count is checked
        ["grading", "--type", "A201", "--labels", "1"],
        ["kac", "--type", "B142", "--labels", "1"],
        ["quaternionic", "--type", "C142"],
        ["amw", "--type", "D143", "--genus", "2"],
        ["cayley", "--dims", "11,11"],
        ["cayley", "--type", "B15", "--labels", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0"],
        # past the lowest-piece bound, refused before the bracket table is built
        ["cayley", "--dims", "10,10"],
    ],
    ids=case_id,
)
def test_rejected_input_is_one_line(tmp_path, capsys, argv):
    expected = REJECTED_LINES.get(case_id(argv))
    if isinstance(argv[0], dict):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(argv[0]))
        argv = ["--config", str(cfg)] + argv[1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    if expected is not None:
        assert line == expected


# the whole error line of a rejected argv whose message is itself under test, keyed by its case id
REJECTED_LINES = {
    "cayley --dims 3": "error: --dims needs at least two blocks",
    "cayley --dims 0,1": "error: dimensions must be positive",
    "quiver --dims 0,1": "error: dimensions must be positive",
    "toledo --dims 0,1 --degrees 0,0 --genus 2": "error: dimensions must be positive",
    "toledo --dims=1 --degrees=0 --genus=2": "error: total dimension must be at least 2",
    "toledo --dims 1,1 --degrees 0 --genus 2": "error: one degree per dimension required",
    "amw --genus 2": "error: --type is required",
    "amw --type E6 --genus 2 --depth 2": "error: amw takes no flag --depth",
    "amw --type E6 --genus 2 --zeta-pairing 4": "error: amw takes no flag --zeta-pairing",
    "amw --type E6 --genus 2 --phi-minus-zero": "error: amw takes no flag --phi-minus-zero",
    "amw --type E6 --genus 2 --lambda 1/2 --rank-plus 3": "error: amw takes no flag --rank-plus",
    "amw --type C3 --genus 2 --rank-minus 1": "error: amw takes no flag --rank-minus",
    "amw --genus 2 --type E6 --depth 3": "error: amw takes no flag --depth",
    "amw --genus 2 --rank-minus -1 --depth 3": "error: amw takes no flag --rank-minus",
    "amw --type E6 --coarse --genus 2 --lambda 0": "error: amw takes no flag --coarse",
    "amw --genus 2 --kappa 2": "error: amw takes no flag --kappa",
    "amw --quaternionic --type E6 --genus 3": "error: amw takes no flag --quaternionic",
    '{"depth": 3} amw --type E6 --genus 2': "error: amw takes no field 'depth'",
    '{"zeta_pairing": "5"} amw --type E6 --genus 2': "error: amw takes no field 'zeta_pairing'",
    '{"phi_minus_zero": true} amw --type E6 --genus 2': "error: amw takes no field 'phi_minus_zero'",
    '{"lam": "1/2", "rank_plus": 3} amw --type E6 --genus 2': "error: amw takes no field 'rank_plus'",
    '{"rank_minus": 0} amw --type E6 --genus 2': "error: amw takes no field 'rank_minus'",
    '{"quaternionic": true} amw --type E6 --genus 3': "error: amw takes no field 'quaternionic'",
    '{"lam": null} amw --type E6 --genus 2': "error: lam must be a rational, got None",
    "grading --type A2 --type G2 --labels 1,0": "error: --type given twice",
    "grading --type A2 --labels=1,1 --labels 1,0": "error: --labels given twice",
    "verify-paper --extended --extended": "error: --extended given twice",
    "grading --type A201 --labels 1": "error: A201 has 40602 roots, past the bound of 40200 roots",
    "kac --type B142 --labels 1": "error: B142 has 40328 roots, past the bound of 40200 roots",
    "quaternionic --type C142": "error: C142 has 40328 roots, past the bound of 40200 roots",
    "amw --type D143 --genus 2": "error: D143 has 40612 roots, past the bound of 40200 roots",
    "cayley --dims 11,11": "error: A21 has dimension 483, past the bracket table's bound of 440",
    "cayley --type B15 --labels 1,0,0,0,0,0,0,0,0,0,0,0,0,0,0":
        "error: B15 has dimension 465, past the bracket table's bound of 440",
    "cayley --dims 10,10": "error: the lowest piece has dimension 100, past the theta-pair bound of 81",
}


# the cases that ``cli.check_size`` refuses, off the type alone; the lowest-piece bound reads the grading
TYPE_BOUND_CASES = [case for case, line in REJECTED_LINES.items() if "bound of" in line and "lowest piece" not in line]


@pytest.mark.parametrize("argv", [case.split() for case in TYPE_BOUND_CASES], ids=case_id)
def test_size_bound_refuses_before_any_root_is_built(monkeypatch, capsys, argv):
    def no_build(*_):
        raise AssertionError("build_root_system ran")

    for module in (cli, quaternionic):
        monkeypatch.setattr(module, "build_root_system", no_build)
    assert main(argv) == 2
    assert capsys.readouterr().err == REJECTED_LINES[" ".join(argv)] + "\n"


def test_the_largest_admitted_types_have_their_bound():
    assert LieType("A", 200).root_count == cli.ROOT_BOUND
    assert LieType("A", 20).root_count + 20 == cli.TABLE_BOUND


def test_a_type_at_its_bound_is_admitted():
    """Each bound is inclusive: A200's 40 200 roots and A20's dimension 440 pass ``check_size``."""
    cli.check_size(LieType("A", 200))
    cli.check_size(LieType("A", 20), table=True)


def test_lowest_piece_bound_refuses_before_the_table_is_built(monkeypatch, capsys):
    def no_build(*_):
        raise AssertionError("build_algebra ran")

    monkeypatch.setattr(vinberg, "build_algebra", no_build)
    assert main(["cayley", "--dims", "10,10"]) == 2
    assert capsys.readouterr().err == REJECTED_LINES["cayley --dims 10,10"] + "\n"


def test_a_lowest_piece_at_its_bound_is_admitted(monkeypatch):
    """``cayley --dims 9,9`` has a lowest piece of dimension 81, the bound, and reaches ``cayley_pair``."""
    class Reached(Exception):
        pass

    def reached(zg, seed):
        assert len(zg.piece(1 - zg.depth)) == cli.LOWEST_PIECE_BOUND
        raise Reached

    monkeypatch.setattr(cli, "cayley_pair", reached)
    with pytest.raises(Reached):
        main(["cayley", "--dims", "9,9"])


@pytest.mark.parametrize("command", ["amw", "grading", "kac", "quiver", "toledo"])
def test_seedless_command_rejects_a_seed(capsys, command):
    # only cayley, quaternionic and verify-paper have a report that reads or echoes the seed
    code = main([command, "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {command} takes no flag --seed"]


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"lie_type": "A2", "labls": [1, 1]}))
    assert main(["--config", str(cfg), "grading"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "labls" in line


def test_config_switch_false_runs_the_default_table(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"extended": False}))
    code, out = run_cli(capsys, "--config", str(cfg), "verify-paper")
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / "verify_paper.out").read_text()


def test_unwritable_output_is_one_line(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "r.json"
    code = main(["toledo", "--dims", "1,1", "--degrees=-1,1", "--genus", "2", "--output", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot write output")


def test_absent_rational_fields_default_to_zero(capsys):
    code, report = run_json(capsys, "amw", "--type", "A2", "--genus", "2")
    assert code == 0
    assert report["inputs"]["lambda"] == "0"


def run_src(*args: str) -> str:
    """The stdout of ``python *args`` in a fresh interpreter on this checkout's src, which must exit 0."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_python_dash_m_runs_the_cli():
    argv = ["grading", "--type", "A2", "--labels", "1,1"]
    assert run_src("-m", "gradedlie", *argv) == (GOLDEN / "grading_type_A2_labels_1_1.out").read_text()


def src_functions():
    """Every function defined in src/gradedlie, nested ones included, keyed by (module, first
    line, name) as its code object is, mapped to its qualified name.  Code objects, not
    attributes, so that properties and decorated functions count."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name.startswith("<"):  # a lambda or a comprehension
                walk(const, module, prefix)
            elif const.co_flags & inspect.CO_OPTIMIZED:  # a function
                found[(module, const.co_firstlineno, const.co_name)] = f"{module}.{prefix}{const.co_name}"
                walk(const, module, f"{prefix}{const.co_name}.<locals>.")
            else:  # a class body
                walk(const, module, f"{prefix}{const.co_name}.")

    for path in sorted((ROOT / "src" / "gradedlie").glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, "")
    return found


# The one pass of the guard below: the README commands (verify-paper --extended among
# them), then one --config and one --output argv; it prints the (module, first line, name)
# of every src function it enters.
SWEEP = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path
from gradedlie import cli

package = str(Path(cli.__file__).parent)
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(
    (Path(c.co_filename).stem, c.co_firstlineno, c.co_name) for c in entered if str(Path(c.co_filename).parent) == package
)))
"""

# Functions no command enters, each for a stated reason.  bench/tracer.py wraps these
# test oracles and aliases by name, so they stay until its TARGETS let them go:
TRACER_ONLY = {
    "chevalley.ChevalleyAlgebra.killing_gram",
    "grading.z_grading_from_labels",  # root_grading on an algebra's root system
    "chevalley.ChevalleyAlgebra.killing_form",
    "rootsystem.RootSystem.form_value",
    "vinberg.killing_dual_norm",
    "vinberg.jm_triple",
    "quiver.rank_tuple",
    "linalg.RationalMatrix.matmul",  # only jm_triple and rank_tuple call it
}
NEVER_ENTERED = TRACER_ONLY | {
    "quiver._check_shapes",  # only rank_tuple calls it
    "chevalley.Element.__repr__",  # the three reprs, for a reader at a prompt
    "quiver.QuiverDims.__repr__",
    "rootsystem.LieType.__repr__",
    "chevalley.StructureConstants._root",  # it only builds failure messages
    "cli.Field.__init__",  # it runs at import time, before the pass starts
}


def test_every_src_function_runs_in_a_command(tmp_path):
    """Every src function outside ``NEVER_ENTERED`` runs in a README command or in a
    --config or --output job, and none inside it does: src holds what a command runs."""
    tracer = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    targets = importlib.util.module_from_spec(tracer)
    tracer.loader.exec_module(targets)
    assert TRACER_ONLY <= {f"{module}.{path}" for module, path, _ in targets.TARGETS}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"lie_type": "A2", "labels": [1, 0]}))
    argvs = EXAMPLES + [
        ["--config", str(config), "grading", "--labels", "1,1"],
        ["toledo", "--dims", "1,1", "--degrees", "1,-1", "--genus", "2", "--output", str(tmp_path / "r.json")],
    ]
    swept = json.loads(run_src("-c", SWEEP, json.dumps(argvs)))
    functions = src_functions()
    entered = {functions.get(tuple(key)) for key in swept}  # None: a comprehension
    assert (tmp_path / "r.json").exists()
    assert sorted(set(functions.values()) - entered) == sorted(NEVER_ENTERED)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["quiver", "--help"], ["--config", "x", "amw", "-h"]])
def test_help_lists_every_command(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == usage() and captured.err == ""
    for command in COMMANDS:
        assert f"  {command} " in captured.out
        assert all(flag in captured.out for flag in COMMAND_FLAGS[command])


def test_no_command_prints_usage(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == usage()
    assert captured.err.splitlines() == ["error: a command is required"]


def test_negative_list_as_separate_token(capsys):
    code, report = run_json(capsys, "toledo", "--dims", "1,1,1", "--degrees", "-1,0,1", "--genus", "2")
    assert code == 0
    assert report["inputs"]["degrees"] == [-1, 0, 1]
    assert report["results"]["tau"] == "4"


def test_signed_integers_accepted(capsys):
    code, report = run_json(capsys, "amw", "--type", "A2", "--genus=+2", "--lambda", "-1/+2")
    assert code == 0
    assert (report["inputs"]["genus"], report["inputs"]["lambda"]) == (2, "-1/2")


def test_quiver_job_imports_no_parser():
    # argparse builds gettext lookups that import locale: milliseconds per job;
    # dataclasses, with inspect, is as much again before a record is defined
    script = (
        "import sys\n"
        "from gradedlie import cli\n"
        "assert cli.main(['quiver', '--dims', '2,2']) == 0\n"
        "print(sorted(m for m in ('argparse', 'locale', 'dataclasses', 'inspect') if m in sys.modules))\n"
    )
    assert run_src("-c", script).splitlines()[-1] == "[]"


def modules_after(statement: str) -> str:
    """The ``gradedlie`` modules loaded by one statement in a fresh interpreter, as a sorted list."""
    script = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'gradedlie'))\n"
    return run_src("-c", script).splitlines()[-1]


def test_readme_library_block_runs_as_written():
    """The Python block of the README's Library section, run verbatim in a fresh interpreter."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert run_src("-c", block) == "4\n-8 4\n"


def test_readme_layout_has_one_row_per_module():
    """The Layout table names each module of the package once, and nothing else."""
    section = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
    modules = [path.stem for path in (ROOT / "src" / "gradedlie").glob("*.py")]
    assert sorted(rows) == sorted(set(modules) - {"__init__", "__main__"})


def test_package_import_loads_no_module():
    assert modules_after("import gradedlie") == "['gradedlie']"


def test_quiver_import_loads_only_quiver_and_linalg():
    """A quiver job's modules: no root system, Chevalley algebra or parser of the other commands."""
    assert modules_after("import gradedlie.quiver") == "['gradedlie', 'gradedlie.linalg', 'gradedlie.quiver']"


def _no_build(*_args, **_kwargs):
    raise AssertionError("built before the label count was checked")


ZEROS_A30 = ",".join(["0"] * 30)
NEGATIVE_A30 = ",".join(["-1"] + ["0"] * 29)
ZEROS_A61 = ",".join(["0"] * 61)  # A60 has 61 affine nodes
NEGATIVE_A61 = ",".join(["1"] * 60 + ["-1"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kac", "--type", "A60", "--labels", "1,1"], "error: label count must match node count"),
        (["grading", "--type", "A40", "--labels", "1"], "error: one label per simple root required"),
        (["cayley", "--type", "A40", "--labels", "1,0"], "error: one label per simple root required"),
        (["grading", "--type", "A30", "--labels", ZEROS_A30], "error: labels must not all be zero"),
        (["grading", "--type", "A30", "--labels", NEGATIVE_A30], "error: labels must be non-negative"),
        (["cayley", "--type", "A30", "--labels", ZEROS_A30], "error: labels must not all be zero"),
        (["cayley", "--type", "A30", "--labels", NEGATIVE_A30], "error: labels must be non-negative"),
        (["kac", "--type", "A60", "--labels", ZEROS_A61], "error: labels must not all be zero"),
        (["kac", "--type", "A60", "--labels", NEGATIVE_A61], "error: labels must be non-negative"),
    ],
    ids=[
        "kac", "grading", "cayley",
        "grading-all-zero", "grading-negative", "cayley-all-zero", "cayley-negative",
        "kac-all-zero", "kac-negative",
    ],
)
def test_label_count_is_checked_before_any_build(monkeypatch, capsys, argv, message):
    monkeypatch.setattr("gradedlie.cli.build_root_system", _no_build)
    monkeypatch.setattr("gradedlie.vinberg.build_algebra", _no_build)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv",
    [["kac", "--type", "E8", "--labels", "0,0,0,0,0,0,0,0,1"], ["quaternionic", "--type", "F4"]],
    ids=["kac-E8-node-0-zero", "quaternionic-F4"],
)
def test_job_evaluates_no_form_value(monkeypatch, capsys, argv):
    from gradedlie.quaternionic import build_quaternionic
    from gradedlie.rootsystem import RootSystem

    calls = []
    form_value = RootSystem.form_value

    def spy(self, alpha, beta):
        calls.append((alpha, beta))
        return form_value(self, alpha, beta)

    monkeypatch.setattr(RootSystem, "form_value", spy)
    build_quaternionic.cache_clear()  # a cached job would evaluate nothing
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == []


def test_kac_job_builds_no_chevalley_algebra(monkeypatch, capsys):
    monkeypatch.setattr("gradedlie.chevalley.ChevalleyAlgebra.__init__", _no_build)
    monkeypatch.setattr("gradedlie.vinberg.build_algebra", _no_build)  # a cached algebra would hide a build
    code, report = run_json(capsys, "kac", "--type", "E8", "--labels", "0,0,0,0,0,0,0,0,1")
    assert code == 0
    assert report["results"]["lift"] == "none"


ROOT_LEVEL_JOBS = [
    (cmd_grading, "A20", [1, 1] + [0] * 17 + [1]),  # zeta has denominator 21
    (cmd_grading, "B7", [1, 1, 0, 0, 0, 0, 0]),  # and 2
    (cmd_kac, "C7", [0, 1, 0, 0, 0, 0, 0, 1]),  # p_0 = 0: the lift reads the affine diagram
    (cmd_kac, "A12", [1, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1]),
]


@pytest.mark.parametrize(
    "handler, lie_type, labels", ROOT_LEVEL_JOBS, ids=[f"{h.__name__}-{t}" for h, t, _ in ROOT_LEVEL_JOBS]
)
def test_root_level_reports_build_no_fraction(monkeypatch, handler, lie_type, labels):
    """``grading`` and ``kac`` report from a fresh root system with ``Fraction`` unable to
    build, the same report as with it, and leave the per-root maps unfilled."""
    expected = handler(lie_type=LieType.parse(lie_type), labels=labels)
    built = []

    def fresh(t):  # a cached root system would hide the build
        built.append(build_root_system.__wrapped__(t))
        return built[-1]

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr("gradedlie.cli.build_root_system", fresh)
    monkeypatch.setattr(fractions.Fraction, "__new__", no_fraction)
    report = handler(lie_type=LieType.parse(lie_type), labels=labels)
    monkeypatch.undo()
    assert report == expected
    assert handler is cmd_kac or any("/" in x for x in report["results"]["zeta"])
    assert len(built) == 1
    assert not set(PER_ROOT_MAPS) & set(vars(built[0]))


def test_grading_job_builds_no_chevalley_algebra(monkeypatch, capsys):
    monkeypatch.setattr("gradedlie.chevalley.ChevalleyAlgebra.__init__", _no_build)
    monkeypatch.setattr("gradedlie.vinberg.build_algebra", _no_build)  # a cached algebra would hide a build
    a20 = ",".join(["1"] + ["0"] * 18 + ["1"])  # the README's A20 line
    for lie_type, labels in (("E8", "0,0,0,0,0,0,0,1"), ("A20", a20)):
        code, report = run_json(capsys, "grading", "--type", lie_type, "--labels", labels)
        assert code == 0
        assert report["results"]["depth"] == 3
        assert report["results"]["piece_dims"]["2"] == 1  # the highest root alone


@pytest.mark.parametrize("value", [0.5, {"a": [1, 2.0]}, {1: "a"}, {"a": {2: 3}}, {1, 2}, [{"a": frozenset()}]],
                         ids=["float", "nested-float", "int-key", "nested-int-key", "set", "nested-frozenset"])
def test_report_json_refuses_what_json_dumps_would_coerce(value):
    """``json.dumps`` writes a float, turns an int key into a string and refuses a set; a
    report holds none of them, so the writer refuses all three, at any depth."""
    with pytest.raises(TypeError):
        report_json(value)


@pytest.mark.parametrize("argv", EXAMPLES, ids=slug)
def test_readme_examples_take_no_json_dumps(monkeypatch, capsys, argv):
    """Every README command writes its golden report with ``json.dumps`` unable to run."""

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps was called")

    monkeypatch.setattr(json, "dumps", no_dumps)
    main(argv)
    assert capsys.readouterr().out == (GOLDEN / f"{slug(argv)}.out").read_text()


@pytest.mark.parametrize("dims", SMALL_DIMS + [(1, 1, 2, 2, 1, 1)], ids=dims_id)
def test_quiver_report_builds_no_fraction(monkeypatch, dims):
    """``quiver`` reports alpha from an int numerator over n and every Toledo rank as an int,
    with ``Fraction`` unable to build, the same report as with it."""
    expected = cmd_quiver(dims=list(dims))

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", no_fraction)
    report = cmd_quiver(dims=list(dims))
    monkeypatch.undo()
    assert report == expected
    assert report_json(report) == json.dumps(expected, indent=2, sort_keys=True)
