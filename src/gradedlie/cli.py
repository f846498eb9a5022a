"""Command-line interface.

Subcommands cover the main pipelines (grading, kac, quiver, toledo, amw,
quaternionic, cayley) plus ``verify-paper``, which runs the full table of
numeric cross-checks and fails loudly on any mismatch.  Reports are emitted
as JSON (default) or text; every rational is serialized as an exact "p/q"
string, never as a float.  Input takes one path: ``FIELDS`` gives each flag
its config key, parser and default, and ``COMMANDS`` each command its handler
and flags.  Flags override a JSON config file; every value, from either, goes
through its field's parser, and each handler receives typed values.  There is
no ``argparse``, so a job pays for no parser construction.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as Q
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from . import __version__
from . import amw as amw_mod
from .cayley import bracket_projection_test, cayley_pair, verify_iso_and_character
from .checks import expected_ranks, kappa_table, paper_checks, q_list, q_str, witness_222, witness_json
from .chevalley import build_algebra
from .grading import kac_labels, kac_lift_check, z_grading_from_labels, zm_from_kac
from .quaternionic import build_quaternionic, quaternionic_ranks, verify_extreme_pieces
from .quiver import (
    QuiverDims,
    QuiverHiggsTopology,
    enumerate_orbits,
    interval_toledo_rank,
    labels_for_dims,
    maximal_rank_tuple,
    quiver_jm_regular,
    toledo_invariant,
)
from .rootsystem import LieType, build_root_system
from .vinberg import jm_regular

SCHEMA_VERSION = 1
VERSION = __version__
FORMATS = ("json", "text")


class InputError(Exception):
    pass


def _int_text(text: str) -> int:
    """An integer written as an optional sign and ASCII digits, nothing else."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def to_int(raw, name: str) -> int:
    """An integer field."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return _int_text(raw)
        except ValueError:
            pass
    raise InputError(f"{name} must be an integer, got {raw!r}")


def to_rational(raw, name: str) -> Q:
    """A rational field: an integer, or a "p/q" or integer string."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Q(raw)
    if not isinstance(raw, str):
        raise InputError(f"{name} must be a rational, got {raw!r}")
    num, slash, den = raw.partition("/")
    try:
        return Q(_int_text(num), _int_text(den)) if slash else Q(_int_text(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {raw!r}") from exc


def to_ints(raw, name: str) -> List[int]:
    """An integer-list field: a comma-separated string or a list of integers."""
    if isinstance(raw, str):
        try:
            return [_int_text(x.strip(" ")) for x in raw.split(",")]
        except ValueError as exc:
            raise InputError(f"bad integer list {raw!r}") from exc
    if not isinstance(raw, list):
        raise InputError(f"{name} must be a list of integers, got {raw!r}")
    return [to_int(x, name) for x in raw]


def to_switch(raw, name: str) -> bool:
    """A switch: the bare flag (True), or true or false in the config file."""
    if not isinstance(raw, bool):
        raise InputError(f"{name} must be true or false, got {raw!r}")
    return raw


def to_lie_type(raw, name: str) -> LieType:
    if not isinstance(raw, str):
        raise InputError(f"{name} must be a string, got {raw!r}")
    try:
        return LieType.parse(raw)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def to_format(raw, name: str) -> str:
    if raw not in FORMATS:
        raise InputError(f"--format must be {' or '.join(FORMATS)}, got {raw!r}")
    return raw


def to_path(raw, name: str) -> str:
    if not (isinstance(raw, str) and raw):
        raise InputError(f"{name} must be a non-empty string, got {raw!r}")
    return raw


class Field(NamedTuple):
    key: str  # the config key, the handler's keyword and (upper-cased) the usage name
    parse: Callable[[Any, str], Any]  # (flag text or config value, key) -> typed value
    default: Any = None  # what the handler receives when the field is absent


FIELDS = {
    "--type": Field("lie_type", to_lie_type),
    "--labels": Field("labels", to_ints),
    "--dims": Field("dims", to_ints),
    "--degrees": Field("degrees", to_ints),
    "--genus": Field("genus", to_int),
    "--lambda": Field("lam", to_rational, Q(0)),
    "--rank-plus": Field("rank_plus", to_rational, Q(0)),
    "--rank-minus": Field("rank_minus", to_rational, Q(0)),
    "--zeta-pairing": Field("zeta_pairing", to_rational, Q(0)),
    "--depth": Field("depth", to_int, 2),
    "--phi-minus-zero": Field("phi_minus_zero", to_switch, False),
    "--quaternionic": Field("quaternionic", to_switch, False),
    "--kappa": Field("kappa", to_int, 2),
    "--coarse": Field("coarse", to_switch, False),
    "--extended": Field("extended", to_switch, False),
    "--format": Field("output_format", to_format, "json"),
    "--output": Field("output_path", to_path),
    "--seed": Field("seed", to_int, 0),
}


def check_labels(labels: List[int], t: LieType) -> None:
    """One label per simple root of t, non-negative and not all zero: checked before any build."""
    if len(labels) != t.rank:
        raise InputError("one label per simple root required")
    if any(x < 0 for x in labels):
        raise InputError("labels must be non-negative")
    if not any(labels):
        raise InputError("labels must not all be zero")


def make_report(command: str, inputs: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "command": command,
        "inputs": inputs,
        "results": {},
        "checks": [],
        "warnings": [],
        "version": VERSION,
        "schema_version": SCHEMA_VERSION,
    }


def add_check(report, check_id: str, ref: str, expected, actual):
    ok = expected == actual
    report["checks"].append(
        {"id": check_id, "paper_ref": ref, "expected": expected, "actual": actual, "pass": ok}
    )
    return ok


# -- command handlers: typed fields as keyword arguments ----------------------


def cmd_grading(lie_type: LieType, labels: List[int], **_) -> Dict[str, Any]:
    check_labels(labels, lie_type)
    zg = z_grading_from_labels(build_algebra(lie_type), labels)
    report = make_report("grading", {"lie_type": str(lie_type), "labels": labels})
    report["results"] = {
        "piece_dims": {str(j): d for j, d in zg.dims().items()},
        "depth": zg.depth,
        "zeta": q_list(zg.zeta),
    }
    return report


def cmd_kac(lie_type: LieType, labels: List[int], **_) -> Dict[str, Any]:
    if len(labels) != lie_type.rank + 1:
        raise InputError("label count must match node count")
    rs = build_root_system(lie_type)
    try:
        kac = kac_labels(rs, labels)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    zm = zm_from_kac(rs, kac)
    verdict = kac_lift_check(rs, kac)
    report = make_report("kac", {"lie_type": str(lie_type), "labels": labels})
    report["results"] = {
        "order": kac.order,
        "residue_dims": {str(j): d for j, d in zm.dims().items()},
        "lift": verdict.mode,
        "witness_labels": list(verdict.witness) if verdict.witness else None,
    }
    if kac.order_warning:
        report["warnings"].append(kac.order_warning)
    return report


def cmd_quiver(dims: List[int], **_) -> Dict[str, Any]:
    try:
        quiver = QuiverDims(tuple(dims))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    orbits = enumerate_orbits(quiver)
    top = maximal_rank_tuple(quiver)
    keys = [f"{i},{j}" for (i, j), _ in top]
    report = make_report("quiver", {"dims": dims})
    report["results"] = {
        "jm_regular": quiver_jm_regular(quiver),
        "alpha": q_str(quiver.alpha),
        "orbits": [
            {
                "ranks": dict(zip(keys, (r for _, r in rt))),
                "toledo_rank": q_str(interval_toledo_rank(quiver, mult)),
                "open": rt == top,
            }
            for rt, mult in orbits
        ],
    }
    return report


def cmd_toledo(dims: List[int], degrees: List[int], genus: int, **_) -> Dict[str, Any]:
    try:
        top = QuiverHiggsTopology(tuple(dims), tuple(degrees), genus)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = make_report(
        "toledo", {"dims": dims, "degrees": degrees, "genus": top.genus}
    )
    report["results"] = {"tau": q_str(toledo_invariant(top))}
    return report


def cmd_amw(
    genus: int, lam: Q, rank_plus: Q, rank_minus: Q, zeta_pairing: Q, depth: int,
    phi_minus_zero: bool, quaternionic: bool, kappa: int, coarse: bool, **_,
) -> Dict[str, Any]:
    inputs = {"genus": genus, "lambda": q_str(lam)}
    report = make_report("amw", inputs)
    try:
        if not quaternionic:
            bi = amw_mod.BoundInput(genus, lam, rank_plus, rank_minus, zeta_pairing, kappa)
            upper = amw_mod.amw_upper(bi, depth, phi_minus_zero)
            report["results"] = {
                "lower_bound": q_str(-amw_mod.amw_lower(bi)),
                "upper_bound": q_str(upper) if upper is not None else None,
            }
            return report
        inputs["kappa"] = kappa
        if coarse:
            lo, hi = amw_mod.quaternionic_coarse(genus, kappa)
            inputs["coarse"] = True
        else:
            bi = amw_mod.BoundInput(genus, lam, rank_plus, rank_minus, kappa=kappa)
            lo, hi = amw_mod.quaternionic_bounds(bi)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report["results"] = {"bounds": [q_str(lo), q_str(hi)]}
    return report


def cmd_quaternionic(lie_type: LieType, seed: int, **_) -> Dict[str, Any]:
    try:
        qd = build_quaternionic(lie_type)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rp, rm = quaternionic_ranks(qd, seed)
    extremes = verify_extreme_pieces(qd, seed)
    degree1_regular = jm_regular(qd.pair(1), seed).regular
    report = make_report("quaternionic", {"lie_type": str(lie_type), "seed": seed})
    report["results"] = {
        "piece_dims": [qd.piece_dims[j] for j in (-2, -1, 0, 1, 2)],
        "kappa": qd.kappa,
        "rank_plus": q_str(rp),
        "rank_minus": q_str(rm),
        "degree1_jm_regular": degree1_regular,
        "extreme_pieces_jm_regular": extremes.both_regular,
    }
    ranks = [q_str(rp), q_str(rm)]
    add_check(report, f"ranks-{lie_type}", "quaternionic rank table", expected_ranks(lie_type), ranks)
    add_check(report, f"extremes-{lie_type}", "extreme pieces JM-regular", True, extremes.both_regular)
    return report


def cmd_cayley(
    lie_type: Optional[LieType], labels: Optional[List[int]], dims: Optional[List[int]], seed: int, **_
) -> Dict[str, Any]:
    if dims is not None:
        try:
            quiver = QuiverDims(tuple(dims))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        lie_type = LieType("A", quiver.n - 1)
        labels = list(labels_for_dims(quiver))
        inputs = {"dims": dims}
    elif lie_type is None or labels is None:
        raise InputError("--dims, or --type with --labels, is required")
    else:
        check_labels(labels, lie_type)
        inputs = {"lie_type": str(lie_type), "labels": labels}
    try:
        zg = z_grading_from_labels(build_algebra(lie_type), labels)
        cd = cayley_pair(zg, seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    iso = verify_iso_and_character(cd)
    theta = bracket_projection_test(cd)
    report = make_report("cayley", inputs)
    report["results"] = {
        "dim_c": cd.dim_c,
        "dim_v": cd.dim_v,
        "iso_invertible": iso.iso_full,
        "chi_t_vanishes_on_c": iso.chi_vanishes,
        "theta_pair_candidate": theta.candidate,
    }
    if theta.witness is not None:
        report["results"]["witness"] = witness_json(theta.witness)
    add_check(report, "cayley-iso", "transport map invertible", True, iso.iso_full)
    add_check(report, "cayley-chi", "character vanishes on centralizer", True, iso.chi_vanishes)
    return report


def cmd_verify_paper(seed: int, extended: bool, **_) -> Dict[str, Any]:
    report = make_report("verify-paper", {"seed": seed, "extended": extended})
    for row in paper_checks(extended):
        add_check(report, row.id, row.paper_ref, row.expected, row.actual(seed))
    report["results"]["kappa_table"] = kappa_table(extended)
    witness = witness_222(seed)
    if witness is not None:
        report["results"]["witness_222"] = witness
    report["checks"].sort(key=lambda c: c["id"])
    return report


# Each command's handler and flags in usage order; a flag ending in "!" is
# required.  Every command also takes COMMON_FLAGS; ``**_`` in a handler takes
# those it does not read.
COMMANDS = {
    "grading": (cmd_grading, "--type! --labels!"),
    "kac": (cmd_kac, "--type! --labels!"),
    "quiver": (cmd_quiver, "--dims!"),
    "toledo": (cmd_toledo, "--dims! --degrees! --genus!"),
    "amw": (cmd_amw, "--genus! --lambda --rank-plus --rank-minus --zeta-pairing --depth "
                     "--phi-minus-zero --quaternionic --kappa --coarse"),
    "quaternionic": (cmd_quaternionic, "--type!"),
    "cayley": (cmd_cayley, "--type --labels --dims"),
    "verify-paper": (cmd_verify_paper, "--extended"),
}
COMMON_FLAGS = ["--format", "--output", "--seed"]


def command_flags(command: str) -> Dict[str, bool]:
    """The command's flags, in usage order and the common ones last, each mapped to whether it is required."""
    return {flag.rstrip("!"): flag.endswith("!") for flag in COMMANDS[command][1].split() + COMMON_FLAGS}


def usage() -> str:
    """The usage listing, built from FIELDS and COMMANDS."""

    def shown(flag: str) -> str:
        field = FIELDS[flag]
        if field.parse is to_switch:
            return f"[{flag}]"
        return f"[{flag} {'|'.join(FORMATS) if field.parse is to_format else field.key.upper()}]"

    lines = [
        "usage: gradedlie [--config PATH] COMMAND [--flag VALUE | --flag=VALUE | --switch]...",
        "",
        "Exact computations for graded complex semisimple Lie algebras.",
        "",
        "commands:",
    ]
    for command, (_, flags) in COMMANDS.items():
        lines.append(f"  {command} {' '.join(shown(flag.rstrip('!')) for flag in flags.split())}")
    lines += [
        "",
        f"every command also takes {' '.join(map(shown, COMMON_FLAGS))}",
        "--config PATH names a JSON file supplying any field; flags override it",
    ]
    return "\n".join(lines) + "\n"


def parse_argv(argv: List[str]):
    """(config path, command, raw flag values by field key) from the command line.

    The grammar is ``[--config PATH] COMMAND [--flag VALUE | --flag=VALUE |
    --switch]...``; a flag's separate value may be any token that does not
    start with ``--``, and a switch's value is True.  The command is None when
    argv names none.
    """

    def flag_value(flag: str, inline: Optional[str], rest: List[str]) -> str:
        if inline is not None:
            return inline
        if not rest or rest[0].startswith("--"):
            raise InputError(f"{flag} needs a value")
        return rest.pop(0)

    rest = list(argv)
    config = None
    if rest and rest[0].partition("=")[0] == "--config":
        flag, eq, inline = rest.pop(0).partition("=")
        config = flag_value(flag, inline if eq else None, rest)
    if not rest:
        return config, None, {}
    command = rest.pop(0)
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    allowed = command_flags(command)
    flags: Dict[str, Any] = {}
    while rest:
        token = rest.pop(0)
        flag, eq, inline = token.partition("=")
        if flag == "--config":
            raise InputError("--config goes before the command")
        if flag not in allowed:
            if not flag.startswith("--"):
                raise InputError(f"unexpected argument {token!r}")
            raise InputError(f"{command} takes no flag {flag}")
        field = FIELDS[flag]
        if field.parse is to_switch:
            if eq:
                raise InputError(f"{flag} takes no value")
            flags[field.key] = True
        else:
            flags[field.key] = flag_value(flag, inline if eq else None, rest)
    return config, command, flags


def typed_fields(command: str, config: Dict[str, Any], flags: Dict[str, Any]) -> Dict[str, Any]:
    """Every field of the command, typed: the flags laid over the config, each
    present value parsed by its field's parser, each absent one its default."""
    raw = {**config, **flags}
    own = command_flags(command)
    unknown = sorted(raw.keys() - {FIELDS[flag].key for flag in own})
    if unknown:
        raise InputError(f"{command} takes no field {unknown[0]!r}")
    values: Dict[str, Any] = {}
    for flag, required in own.items():
        field = FIELDS[flag]
        if required and field.key not in raw:
            raise InputError(f"{flag} is required")
        values[field.key] = field.parse(raw[field.key], field.key) if field.key in raw else field.default
    return values


def render_text(report: Dict[str, Any]) -> str:
    lines = [f"command: {report['command']}"]
    for k, v in report["inputs"].items():
        lines.append(f"input {k}: {v}")
    for k, v in report["results"].items():
        lines.append(f"{k}: {v}")
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(f"[{status}] {c['id']}: expected {c['expected']}, got {c['actual']}")
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def read_config(path: Optional[str]) -> Dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError("the config must be a JSON object")
    return config


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(usage())
        return 0
    try:
        config, command, flags = parse_argv(argv)
        if command is None:
            sys.stdout.write(usage())
            raise InputError("a command is required")
        fields = typed_fields(command, read_config(config), flags)
        report = COMMANDS[command][0](**fields)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = any(not c["pass"] for c in report["checks"])
    if fields["output_format"] == "text":
        payload = render_text(report)
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = fields["output_path"]
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(payload)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
