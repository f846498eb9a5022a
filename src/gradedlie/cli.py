"""Command-line interface.

Subcommands cover the main pipelines (grading, kac, quiver, toledo, amw,
quaternionic, cayley) plus ``verify-paper``, which runs the full table of
numeric cross-checks and fails loudly on any mismatch.  Reports are emitted
as JSON (default) or text; every rational is serialized as an exact "p/q"
string, never as a float.  A JSON config file can supply any field, with
command-line flags taking precedence.  The command line is read straight from
the flag tables below, so a job pays for no parser construction.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as Q
from typing import Any, Dict, List, Optional

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


class InputError(Exception):
    pass


def _int_text(text: str) -> int:
    """An integer written as an optional sign and ASCII digits, nothing else."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Q:
    num, slash, den = text.partition("/")
    try:
        return Q(_int_text(num), _int_text(den)) if slash else Q(_int_text(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def parse_ints(text: str) -> List[int]:
    try:
        return [_int_text(x.strip(" ")) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}") from exc


def to_int(raw, name: str) -> int:
    """An integer field, from a flag or the config file."""
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
    if isinstance(raw, str):
        return parse_rational(raw)
    raise InputError(f"{name} must be a rational, got {raw!r}")


def to_ints(raw, name: str) -> List[int]:
    """An integer-list field: a comma-separated string or a list of integers."""
    if isinstance(raw, str):
        return parse_ints(raw)
    if not isinstance(raw, list):
        raise InputError(f"{name} must be a list of integers, got {raw!r}")
    return [to_int(x, name) for x in raw]


def parse_type(args) -> LieType:
    t = args.get("lie_type")
    if t is None:
        raise InputError("a Lie type is required (--type)")
    if not isinstance(t, str):
        raise InputError(f"lie_type must be a string, got {t!r}")
    try:
        if args.get("rank") is not None:
            return LieType(t.upper(), to_int(args["rank"], "rank"))
        return LieType.parse(t)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def simple_root_labels(raw, t: LieType) -> List[int]:
    """One label per simple root of t, non-negative and not all zero, checked before any build."""
    labels = to_ints(raw, "labels")
    if len(labels) != t.rank:
        raise InputError("one label per simple root required")
    if any(x < 0 for x in labels):
        raise InputError("labels must be non-negative")
    if not any(labels):
        raise InputError("labels must not all be zero")
    return labels


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


# -- command handlers ------------------------------------------------------


def cmd_grading(args) -> Dict[str, Any]:
    t = parse_type(args)
    labels = args.get("labels")
    if labels is None:
        raise InputError("--labels is required")
    labels = simple_root_labels(labels, t)
    zg = z_grading_from_labels(build_algebra(t), labels)
    report = make_report("grading", {"lie_type": str(t), "labels": labels})
    report["results"] = {
        "piece_dims": {str(j): d for j, d in zg.dims().items()},
        "depth": zg.depth,
        "zeta": q_list(zg.zeta),
    }
    return report


def cmd_kac(args) -> Dict[str, Any]:
    t = parse_type(args)
    raw = args.get("labels")
    if raw is None:
        raise InputError("--labels is required (p_0,...,p_r)")
    labels = to_ints(raw, "labels")
    if len(labels) != t.rank + 1:
        raise InputError("label count must match node count")
    rs = build_root_system(t)
    try:
        kac = kac_labels(rs, labels)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    zm = zm_from_kac(rs, kac)
    verdict = kac_lift_check(rs, kac)
    report = make_report("kac", {"lie_type": str(t), "labels": labels})
    report["results"] = {
        "order": kac.order,
        "residue_dims": {str(j): d for j, d in zm.dims().items()},
        "lift": verdict.mode,
        "witness_labels": list(verdict.witness) if verdict.witness else None,
    }
    if kac.order_warning:
        report["warnings"].append(kac.order_warning)
    return report


def cmd_quiver(args) -> Dict[str, Any]:
    raw = args.get("dims")
    if raw is None:
        raise InputError("--dims is required")
    dims_list = to_ints(raw, "dims")
    try:
        dims = QuiverDims(tuple(dims_list))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    orbits = enumerate_orbits(dims)
    top = maximal_rank_tuple(dims)
    keys = [f"{i},{j}" for (i, j), _ in top]
    report = make_report("quiver", {"dims": dims_list})
    report["results"] = {
        "jm_regular": quiver_jm_regular(dims),
        "alpha": q_str(dims.alpha),
        "orbits": [
            {
                "ranks": dict(zip(keys, (r for _, r in rt))),
                "toledo_rank": q_str(interval_toledo_rank(dims, mult)),
                "open": rt == top,
            }
            for rt, mult in orbits
        ],
    }
    return report


def cmd_toledo(args) -> Dict[str, Any]:
    raw_dims, raw_deg = args.get("dims"), args.get("degrees")
    if raw_dims is None or raw_deg is None or args.get("genus") is None:
        raise InputError("--dims, --degrees and --genus are required")
    ranks = to_ints(raw_dims, "dims")
    degrees = to_ints(raw_deg, "degrees")
    genus = to_int(args["genus"], "genus")
    try:
        top = QuiverHiggsTopology(tuple(ranks), tuple(degrees), genus)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = make_report(
        "toledo", {"dims": ranks, "degrees": degrees, "genus": top.genus}
    )
    report["results"] = {"tau": q_str(toledo_invariant(top))}
    return report


def cmd_amw(args) -> Dict[str, Any]:
    if args.get("genus") is None:
        raise InputError("--genus is required")
    genus = to_int(args["genus"], "genus")
    lam = to_rational(args.get("lam", 0), "lambda")
    inputs = {"genus": genus, "lambda": q_str(lam)}
    report = make_report("amw", inputs)
    try:
        if args.get("quaternionic"):
            kappa = to_int(args.get("kappa", 2), "kappa")
            inputs["kappa"] = kappa
            if args.get("coarse"):
                lo, hi = amw_mod.quaternionic_coarse(genus, kappa)
                inputs["coarse"] = True
            else:
                bi = amw_mod.BoundInput(
                    genus=genus,
                    lam=lam,
                    rank_plus=to_rational(args.get("rank_plus", 0), "rank_plus"),
                    rank_minus=to_rational(args.get("rank_minus", 0), "rank_minus"),
                    kappa=kappa,
                )
                lo, hi = amw_mod.quaternionic_bounds(bi)
            report["results"] = {"bounds": [q_str(lo), q_str(hi)]}
        else:
            bi = amw_mod.BoundInput(
                genus=genus,
                lam=lam,
                rank_plus=to_rational(args.get("rank_plus", 0), "rank_plus"),
                rank_minus=to_rational(args.get("rank_minus", 0), "rank_minus"),
                zeta_pairing=to_rational(args.get("zeta_pairing", 0), "zeta_pairing"),
            )
            lower = amw_mod.amw_lower(bi)
            depth = to_int(args.get("depth", 2), "depth")
            upper = amw_mod.amw_upper(bi, depth, bool(args.get("phi_minus_zero")))
            report["results"] = {
                "lower_bound": q_str(-lower),
                "upper_bound": q_str(upper) if upper is not None else None,
            }
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return report


def cmd_quaternionic(args) -> Dict[str, Any]:
    t = parse_type(args)
    seed = to_int(args.get("seed", 0), "seed")
    try:
        qd = build_quaternionic(t)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rp, rm = quaternionic_ranks(qd, seed)
    extremes = verify_extreme_pieces(qd, seed)
    degree1_regular = jm_regular(qd.pair(1), seed).regular
    report = make_report("quaternionic", {"lie_type": str(t), "seed": seed})
    report["results"] = {
        "piece_dims": [qd.piece_dims[j] for j in (-2, -1, 0, 1, 2)],
        "kappa": qd.kappa,
        "rank_plus": q_str(rp),
        "rank_minus": q_str(rm),
        "degree1_jm_regular": degree1_regular,
        "extreme_pieces_jm_regular": extremes.both_regular,
    }
    add_check(report, f"ranks-{t}", "quaternionic rank table", expected_ranks(t), [q_str(rp), q_str(rm)])
    add_check(report, f"extremes-{t}", "extreme pieces JM-regular", True, extremes.both_regular)
    return report


def cmd_cayley(args) -> Dict[str, Any]:
    seed = to_int(args.get("seed", 0), "seed")
    raw_dims = args.get("dims")
    if raw_dims is not None:
        dims_list = to_ints(raw_dims, "dims")
        try:
            dims = QuiverDims(tuple(dims_list))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        t = LieType("A", dims.n - 1)
        labels = list(labels_for_dims(dims))
        inputs = {"dims": dims_list}
    else:
        t = parse_type(args)
        raw = args.get("labels")
        if raw is None:
            raise InputError("--labels or --dims is required")
        labels = simple_root_labels(raw, t)
        inputs = {"lie_type": str(t), "labels": labels}
    try:
        zg = z_grading_from_labels(build_algebra(t), labels)
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


def cmd_verify_paper(args) -> Dict[str, Any]:
    seed = to_int(args.get("seed", 0), "seed")
    extended = bool(args.get("extended"))
    report = make_report("verify-paper", {"seed": seed, "extended": extended})
    for row in paper_checks(extended):
        add_check(report, row.id, row.paper_ref, row.expected, row.actual(seed))
    report["results"]["kappa_table"] = kappa_table(extended)
    witness = witness_222(seed)
    if witness is not None:
        report["results"]["witness_222"] = witness
    report["checks"].sort(key=lambda c: c["id"])
    return report


HANDLERS = {
    "grading": cmd_grading,
    "kac": cmd_kac,
    "quiver": cmd_quiver,
    "toledo": cmd_toledo,
    "amw": cmd_amw,
    "quaternionic": cmd_quaternionic,
    "cayley": cmd_cayley,
    "verify-paper": cmd_verify_paper,
}


SWITCH = {"switch": True}  # takes no value; present means True
INT = {"int": True}  # the value goes through to_int
# Options of the flags that are not plain strings stored under their own name.
FLAG_OPTIONS = {
    "--type": {"dest": "lie_type"},
    "--rank": INT,
    "--genus": INT,
    "--lambda": {"dest": "lam"},
    "--depth": INT,
    "--kappa": INT,
    "--phi-minus-zero": SWITCH,
    "--quaternionic": SWITCH,
    "--coarse": SWITCH,
    "--extended": SWITCH,
    "--format": {"dest": "output_format", "choices": ("json", "text")},
    "--output": {"dest": "output_path"},
    "--seed": INT,
}
# The flags of each command, in usage order; every one also takes COMMON_FLAGS.
COMMAND_FLAGS = {
    "grading": "--type --rank --labels",
    "kac": "--type --rank --labels",
    "quiver": "--dims",
    "toledo": "--dims --degrees --genus",
    "amw": "--genus --lambda --rank-plus --rank-minus --zeta-pairing --depth "
           "--phi-minus-zero --quaternionic --kappa --coarse",
    "quaternionic": "--type --rank",
    "cayley": "--type --rank --labels --dims",
    "verify-paper": "--extended",
}
COMMON_FLAGS = ["--format", "--output", "--seed"]


def field_name(flag: str) -> str:
    return FLAG_OPTIONS.get(flag, {}).get("dest", flag[2:].replace("-", "_"))


def usage() -> str:
    """The usage listing, built from the flag tables."""

    def shown(flag: str) -> str:
        options = FLAG_OPTIONS.get(flag, {})
        if options.get("switch"):
            return f"[{flag}]"
        return f"[{flag} {'|'.join(options.get('choices', [field_name(flag).upper()]))}]"

    lines = [
        "usage: gradedlie [--config PATH] COMMAND [--flag VALUE | --flag=VALUE | --switch]...",
        "",
        "Exact computations for graded complex semisimple Lie algebras.",
        "",
        "commands:",
    ]
    lines += [f"  {c} {' '.join(map(shown, flags.split()))}" for c, flags in COMMAND_FLAGS.items()]
    lines += [
        "",
        f"every command also takes {' '.join(map(shown, COMMON_FLAGS))}",
        "--config PATH names a JSON file supplying any field; flags override it",
    ]
    return "\n".join(lines) + "\n"


def parse_argv(argv: List[str]):
    """(config path, command, flag fields) from the command line.

    The grammar is ``[--config PATH] COMMAND [--flag VALUE | --flag=VALUE |
    --switch]...``; a flag's separate value may be any token that does not
    start with ``--``.  The command is None when argv names none.
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
    if command not in COMMAND_FLAGS:
        raise InputError(f"unknown command {command!r}")
    allowed = COMMAND_FLAGS[command].split() + COMMON_FLAGS
    fields: Dict[str, Any] = {}
    while rest:
        token = rest.pop(0)
        flag, eq, inline = token.partition("=")
        if flag == "--config":
            raise InputError("--config goes before the command")
        if flag not in allowed:
            if not flag.startswith("--"):
                raise InputError(f"unexpected argument {token!r}")
            raise InputError(f"{command} takes no flag {flag}")
        options = FLAG_OPTIONS.get(flag, {})
        if options.get("switch"):
            if eq:
                raise InputError(f"{flag} takes no value")
            fields[field_name(flag)] = True
            continue
        value = flag_value(flag, inline if eq else None, rest)
        fields[field_name(flag)] = to_int(value, field_name(flag)) if options.get("int") else value
    return config, command, fields


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
        config, command, fields = parse_argv(argv)
        if command is None:
            sys.stdout.write(usage())
            raise InputError("a command is required")
        args = {**read_config(config), **fields}
        formats = FLAG_OPTIONS["--format"]["choices"]
        if args.get("output_format", "json") not in formats:
            raise InputError(f"--format must be {' or '.join(formats)}, got {args['output_format']!r}")
        path = args.get("output_path")
        if path is not None and not (isinstance(path, str) and path):
            raise InputError(f"output_path must be a non-empty string, got {path!r}")
        report = HANDLERS[command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = any(not c["pass"] for c in report["checks"])
    if args.get("output_format") == "text":
        payload = render_text(report)
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
