"""Command-line interface.

Subcommands cover the main pipelines (grading, kac, quiver, toledo, amw,
quaternionic, cayley) plus ``verify-paper``, which runs the full table of
numeric cross-checks and fails loudly on any mismatch.  Reports are emitted
as JSON (default) or text; every rational is serialized as an exact "p/q"
string, never as a float.  Input takes one path: ``FIELDS`` gives each flag
its config key, parser and default (None where the library states it), and
``COMMANDS`` each command its handler and flags.  Flags override a JSON
config file; every value, from either, goes through its field's parser, and
each handler receives typed values.  There is no ``argparse``, so a job pays
for no parser construction.

Errors: a ``ValueError``, raised by a field parser, a handler or the library,
is an input error: ``main`` prints it as one ``error:`` line and exits 2.  An
``AssertionError`` or ``RuntimeError`` is a failed certificate and propagates.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as Q
from typing import Any, Callable, Dict, List, Optional

from . import __version__
from . import amw as amw_mod
from .cayley import bracket_projection_test, cayley_pair
from .checks import expected_ranks, kappa_table, paper_checks, q_list, q_str, witness_222, witness_json
from .chevalley import build_algebra
from .grading import check_labels, kac_labels, kac_lift_check, root_grading, z_grading_from_labels, zm_from_kac
from .quaternionic import amw_interval, build_quaternionic, extremes_regular, quaternionic_ranks
from .quiver import (
    ORBIT_BOUND,
    QuiverDims,
    QuiverHiggsTopology,
    enumerate_orbits,
    interval_toledo_rank,
    labels_for_dims,
    maximal_rank_tuple,
    orbit_count,
    quiver_jm_regular,
    toledo_invariant,
)
from .rootsystem import LieType, build_root_system
from .vinberg import jm_regular

SCHEMA_VERSION = 1
VERSION = __version__
FORMATS = ("json", "text")


def _int_text(text: str) -> Optional[int]:
    """An integer written as an optional sign and ASCII digits, else None."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def to_int(raw, name: str) -> int:
    """An integer field."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    value = _int_text(raw) if isinstance(raw, str) else None
    if value is None:
        raise ValueError(f"{name} must be an integer, got {raw!r}")
    return value


def to_rational(raw, name: str) -> Q:
    """A rational field: an integer, or a "p/q" or integer string."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Q(raw)
    if not isinstance(raw, str):
        raise ValueError(f"{name} must be a rational, got {raw!r}")
    num, slash, den = raw.partition("/")
    p, q = _int_text(num), _int_text(den) if slash else 1
    if p is None or not q:
        raise ValueError(f"bad rational {raw!r}")
    return Q(p, q)


def to_ints(raw, name: str) -> List[int]:
    """An integer-list field: a comma-separated string or a list of integers."""
    if isinstance(raw, str):
        values = [_int_text(x.strip(" ")) for x in raw.split(",")]
        if None in values:
            raise ValueError(f"bad integer list {raw!r}")
        return values
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list of integers, got {raw!r}")
    return [to_int(x, name) for x in raw]


def to_switch(raw, name: str) -> bool:
    """A switch: the bare flag (True), or true or false in the config file."""
    if not isinstance(raw, bool):
        raise ValueError(f"{name} must be true or false, got {raw!r}")
    return raw


def to_lie_type(raw, name: str) -> LieType:
    if not isinstance(raw, str):
        raise ValueError(f"{name} must be a string, got {raw!r}")
    return LieType.parse(raw)


def to_format(raw, name: str) -> str:
    if raw not in FORMATS:
        raise ValueError(f"--format must be {' or '.join(FORMATS)}, got {raw!r}")
    return raw


def to_path(raw, name: str) -> str:
    if not (isinstance(raw, str) and raw):
        raise ValueError(f"{name} must be a non-empty string, got {raw!r}")
    return raw


class Field:
    """How one flag reaches its handler."""

    __slots__ = ("key", "parse", "default")

    def __init__(self, key: str, parse: Callable[[Any, str], Any], default: Any = None):
        self.key = key  # the config key, the handler's keyword and (upper-cased) the usage name
        self.parse = parse  # (flag text or config value, key) -> typed value
        self.default = default  # what the handler receives when the field is absent


FIELDS = {
    "--type": Field("lie_type", to_lie_type),
    "--labels": Field("labels", to_ints),
    "--dims": Field("dims", to_ints),
    "--degrees": Field("degrees", to_ints),
    "--genus": Field("genus", to_int),
    "--lambda": Field("lam", to_rational),
    "--rank-plus": Field("rank_plus", to_rational),
    "--rank-minus": Field("rank_minus", to_rational),
    "--zeta-pairing": Field("zeta_pairing", to_rational),
    "--depth": Field("depth", to_int),
    "--phi-minus-zero": Field("phi_minus_zero", to_switch, False),
    "--quaternionic": Field("quaternionic", to_switch, False),
    "--extended": Field("extended", to_switch, False),
    "--format": Field("output_format", to_format, "json"),
    "--output": Field("output_path", to_path),
    "--seed": Field("seed", to_int, 0),
}


def make_report(command: str, inputs: Dict[str, Any], results: Dict[str, Any], checks=()) -> Dict[str, Any]:
    """The report; each check is an (id, paper reference, expected, actual) row."""
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": [
            {"id": check_id, "paper_ref": ref, "expected": expected, "actual": actual,
             "pass": expected == actual}
            for check_id, ref, expected, actual in checks
        ],
        "warnings": [],
        "version": VERSION,
        "schema_version": SCHEMA_VERSION,
    }


# -- command handlers: typed fields as keyword arguments ----------------------


def cmd_grading(lie_type: LieType, labels: List[int], **_) -> Dict[str, Any]:
    check_labels(labels, lie_type.rank)
    rs = build_root_system(lie_type)
    g = root_grading(rs, labels)
    return make_report(
        "grading",
        {"lie_type": str(lie_type), "labels": labels},
        {"piece_dims": {str(j): d for j, d in g.dims().items()}, "depth": g.depth,
         "zeta": q_list(g.zeta.dense(rs.dim_algebra))},
    )


def cmd_kac(lie_type: LieType, labels: List[int], **_) -> Dict[str, Any]:
    check_labels(labels, lie_type.rank, affine=True)
    rs = build_root_system(lie_type)
    kac = kac_labels(rs, labels)
    zm = zm_from_kac(rs, kac)
    verdict = kac_lift_check(rs, kac)
    report = make_report(
        "kac",
        {"lie_type": str(lie_type), "labels": labels},
        {
            "order": kac.order,
            "residue_dims": {str(j): d for j, d in zm.dims().items()},
            "lift": verdict.mode,
            "witness_labels": list(verdict.witness) if verdict.witness else None,
        },
    )
    if kac.order_warning:
        report["warnings"].append(kac.order_warning)
    return report


def cmd_quiver(dims: List[int], **_) -> Dict[str, Any]:
    quiver = QuiverDims(tuple(dims))
    count = orbit_count(quiver)
    if count > ORBIT_BOUND:
        raise ValueError(f"the dimension vector has at least {count} orbits; a report lists at most {ORBIT_BOUND}")
    orbits = enumerate_orbits(quiver)
    top = maximal_rank_tuple(quiver)
    keys = [f"{i},{j}" for (i, j), _ in top]
    return make_report(
        "quiver",
        {"dims": dims},
        {
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
        },
    )


def cmd_toledo(dims: List[int], degrees: List[int], genus: int, **_) -> Dict[str, Any]:
    top = QuiverHiggsTopology(tuple(dims), tuple(degrees), genus)
    inputs = {"dims": dims, "degrees": degrees, "genus": top.genus}
    return make_report("toledo", inputs, {"tau": q_str(toledo_invariant(top))})


# the amw flags that each mode does not read; a given one exits 2
AMW_UNREAD = {
    None: ("--type",),
    "--quaternionic": ("--rank-plus", "--rank-minus", "--zeta-pairing", "--depth", "--phi-minus-zero"),
}


def present(**values) -> Dict[str, Any]:
    """The keyword arguments that are not None: an absent field takes the library's default."""
    return {key: value for key, value in values.items() if value is not None}


def cmd_amw(
    genus: int, lam: Optional[Q], rank_plus: Optional[Q], rank_minus: Optional[Q], zeta_pairing: Optional[Q],
    depth: Optional[int], phi_minus_zero: bool, quaternionic: bool, lie_type: Optional[LieType], **_,
) -> Dict[str, Any]:
    mode = "--quaternionic" if quaternionic else None
    flags = {"--type": lie_type, "--rank-plus": rank_plus, "--rank-minus": rank_minus, "--zeta-pairing": zeta_pairing,
             "--depth": depth, "--phi-minus-zero": phi_minus_zero or None}
    unread = [flag for flag in AMW_UNREAD[mode] if flags[flag] is not None]
    if unread:
        raise ValueError(f"{unread[0]} needs --quaternionic" if mode is None else f"{mode} does not read {unread[0]}")
    bi = amw_mod.BoundInput(genus, **present(
        lam=lam, rank_plus=rank_plus, rank_minus=rank_minus, zeta_pairing=zeta_pairing
    ))
    inputs = {"genus": genus, "lambda": q_str(bi.lam)}
    if mode is None:
        upper = amw_mod.amw_upper(bi, **present(m=depth), phi_minus_zero=phi_minus_zero)
        return make_report("amw", inputs, {
            "lower_bound": q_str(-amw_mod.amw_lower(bi)),
            "upper_bound": q_str(upper) if upper is not None else None,
        })
    if lie_type is None:
        raise ValueError("--quaternionic needs --type")
    qd = build_quaternionic(lie_type)
    inputs["lie_type"] = str(lie_type)
    return make_report("amw", inputs, {"bounds": q_list(amw_interval(qd, genus, bi.lam)), "kappa": qd.kappa})


def cmd_quaternionic(lie_type: LieType, seed: int, **_) -> Dict[str, Any]:
    qd = build_quaternionic(lie_type)
    rp, rm = quaternionic_ranks(qd)
    extremes = extremes_regular(qd)
    return make_report(
        "quaternionic",
        # no value reads the seed: it is echoed because the reference digests in bench/references.json pin it
        {"lie_type": str(lie_type), "seed": seed},
        {
            "piece_dims": list(qd.grading.dims().values()),  # degrees -2..2
            "kappa": qd.kappa,
            "rank_plus": q_str(rp),
            "rank_minus": q_str(rm),
            "degree1_jm_regular": jm_regular(qd.pairs[1]),
            "extreme_pieces_jm_regular": extremes,
        },
        [
            (f"ranks-{lie_type}", "quaternionic rank table", expected_ranks(lie_type), [q_str(rp), q_str(rm)]),
            (f"extremes-{lie_type}", "extreme pieces JM-regular", True, extremes),
        ],
    )


def cmd_cayley(
    lie_type: Optional[LieType], labels: Optional[List[int]], dims: Optional[List[int]], seed: int, **_
) -> Dict[str, Any]:
    if dims is not None:
        if lie_type is not None or labels is not None:
            raise ValueError("--dims goes without --type and --labels")
        quiver = QuiverDims(tuple(dims))
        if quiver.m < 2:
            raise ValueError("--dims needs at least two blocks")
        lie_type, labels = LieType("A", quiver.n - 1), list(labels_for_dims(quiver))
        inputs = {"dims": dims}
    elif lie_type is None or labels is None:
        raise ValueError("--dims, or --type with --labels, is required")
    else:
        check_labels(labels, lie_type.rank)
        inputs = {"lie_type": str(lie_type), "labels": labels}
    cd = cayley_pair(z_grading_from_labels(build_algebra(lie_type), labels), seed)
    witness = bracket_projection_test(cd)
    results = {
        "dim_c": cd.dim_c,
        "dim_v": cd.dim_v,
        "iso_invertible": True,  # cayley_pair raised unless the transport has rank dim g_{1-m}
        "chi_t_vanishes_on_c": cd.chi_vanishes,
        "theta_pair_candidate": witness is None,
    }
    if witness is not None:
        results["witness"] = witness_json(witness, cd.algebra.dim)
    return make_report("cayley", inputs, results, [
        ("cayley-iso", "transport map invertible", True, results["iso_invertible"]),
        ("cayley-chi", "character vanishes on centralizer", True, results["chi_t_vanishes_on_c"]),
    ])


def cmd_verify_paper(seed: int, extended: bool, **_) -> Dict[str, Any]:
    checks = sorted(
        ((row.id, row.paper_ref, row.expected, row.actual(seed)) for row in paper_checks(extended)),
        key=lambda check: check[0],
    )
    results = {"kappa_table": kappa_table(extended)}
    witness = witness_222(seed)
    if witness is not None:
        results["witness_222"] = witness
    return make_report("verify-paper", {"seed": seed, "extended": extended}, results, checks)


# Each command's handler and flags in usage order; a flag ending in "!" is
# required.  Every command also takes COMMON_FLAGS; ``**_`` in a handler takes
# those it does not read.  Only the commands whose report reads or echoes the
# seed take --seed.
COMMANDS = {
    "grading": (cmd_grading, "--type! --labels!"),
    "kac": (cmd_kac, "--type! --labels!"),
    "quiver": (cmd_quiver, "--dims!"),
    "toledo": (cmd_toledo, "--dims! --degrees! --genus!"),
    "amw": (cmd_amw, "--genus! --lambda --rank-plus --rank-minus --zeta-pairing --depth "
                     "--phi-minus-zero --quaternionic --type"),
    "quaternionic": (cmd_quaternionic, "--type! --seed"),
    "cayley": (cmd_cayley, "--type --labels --dims --seed"),
    "verify-paper": (cmd_verify_paper, "--extended --seed"),
}
COMMON_FLAGS = ["--format", "--output"]


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
            raise ValueError(f"{flag} needs a value")
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
        raise ValueError(f"unknown command {command!r}")
    allowed = command_flags(command)
    flags: Dict[str, Any] = {}
    while rest:
        token = rest.pop(0)
        flag, eq, inline = token.partition("=")
        if flag == "--config":
            raise ValueError("--config goes before the command")
        if flag not in allowed:
            if not flag.startswith("--"):
                raise ValueError(f"unexpected argument {token!r}")
            raise ValueError(f"{command} takes no flag {flag}")
        field = FIELDS[flag]
        if field.parse is to_switch:
            if eq:
                raise ValueError(f"{flag} takes no value")
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
        raise ValueError(f"{command} takes no field {unknown[0]!r}")
    values: Dict[str, Any] = {}
    for flag, required in own.items():
        field = FIELDS[flag]
        if required and field.key not in raw:
            raise ValueError(f"{flag} is required")
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
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("the config must be a JSON object")
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
            raise ValueError("a command is required")
        fields = typed_fields(command, read_config(config), flags)
        report = COMMANDS[command][0](**fields)
    except ValueError as exc:
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
