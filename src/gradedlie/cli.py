"""Command-line interface.

Subcommands cover the main pipelines (grading, kac, quiver, toledo, amw,
quaternionic, cayley) plus ``verify-paper``, which runs the table of paper
checks and exits 1 on any mismatch.  Each row of that table names the argvs
of the other commands that reproduce its claim; ``verify-paper`` runs each
distinct argv once, through the same tokenizer, typed fields and handler as
the command line, and writes a failing row's argvs to stderr, so any row can
be rerun by hand.  Reports are JSON (default) or text; every rational is an
exact "p/q" string, never a float.  One writer, ``report_json``, emits every JSON report
with the bytes of ``json.dumps(report, indent=2, sort_keys=True)`` but none of
its pure-Python encoder, and refuses a float.  Input takes one path: ``FIELDS``
gives each flag its config key, parser and default (None where the handler
must tell an absent value from a given one), and ``COMMANDS`` each command its
handler and flags.  Flags override a JSON config file; every value, from either,
goes through its field's parser, and each handler receives typed values.
There is no ``argparse``, so a job pays for no parser construction.

Errors: a ``ValueError``, raised by a field parser, a handler or the library,
is an input error: ``main`` prints it as one ``error:`` line and exits 2.  An
``AssertionError`` or ``RuntimeError`` is a failed certificate and propagates.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as Q
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import gcd
from typing import Any, Callable, Dict, List, Optional

from . import __version__
from .cayley import bracket_projection_test, cayley_pair
from .checks import expected_ranks, paper_checks, quaternionic_types
from .chevalley import Element
from .grading import ZmGrading, check_labels, kac_lift_check, root_grading
from .quaternionic import build_quaternionic
from .quiver import (ORBIT_BOUND, QuiverDims, enumerate_orbits, labels_for_dims,
                     maximal_rank_tuple, orbit_count, quiver_jm_regular, rank_pairs, toledo_invariant, toledo_rank)
from .rootsystem import LieType, build_root_system
from .vinberg import jm_regular

SCHEMA_VERSION = 1
VERSION = __version__
FORMATS = ("json", "text")
# Size bounds, read off (family, rank) before anything is built; times in process, Python 3.11.7
# on 2 shared cores.  Root-level jobs: grading --type A200 (40 200 roots) 1.80 s, quaternionic
# --type A200 1.73 s, amw 1.44 s, kac 1.00 s.
ROOT_BOUND = 40_200
# cayley builds the bracket table: cayley --type A20 (dim 440) 1.08 s, A30 (dim 960) 13 s.
TABLE_BOUND = 440
# cayley's theta-pair test brackets each pair of V, whose dimension is that of g_{1-m}: cayley
# --dims 9,9 (81) 2.1-2.3 s, --type C12 --labels 0,...,0,1 (78) 1.4-1.9 s; past the bound,
# --dims 10,10 (100) 4.4-4.9 s, C14 (105) 3.0-3.9 s.
LOWEST_PIECE_BOUND = 81


def ratio_str(num: int, den: int) -> str:
    """num/den (den > 0) as a "p/q" string in lowest terms, with no Fraction built."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def q_str(x) -> str:
    """An int or a Fraction as a "p/q" string."""
    return ratio_str(x.numerator, x.denominator)


def element_strs(e: Element, dim: int) -> List[str]:
    """The ``dim`` coordinates of e as "p/q" strings, from its numerators."""
    return [ratio_str(e.num[i], e.den) if i in e.num else "0" for i in range(dim)]


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
    "--lambda": Field("lam", to_rational, Q(0)),
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


def check_size(lie_type: LieType, table: bool = False) -> None:
    """Refuse a type past its job's size bound: TABLE_BOUND on dim g for a job that builds
    the bracket table, else ROOT_BOUND on the number of roots."""
    roots = lie_type.root_count
    dim = roots + lie_type.rank
    if table and dim > TABLE_BOUND:
        raise ValueError(f"{lie_type} has dimension {dim}, past the bracket table's bound of {TABLE_BOUND}")
    if roots > ROOT_BOUND:
        raise ValueError(f"{lie_type} has {roots} roots, past the bound of {ROOT_BOUND} roots")


# -- command handlers: typed fields as keyword arguments ----------------------


def cmd_grading(lie_type: LieType, labels: List[int], **_) -> Dict[str, Any]:
    check_size(lie_type)
    check_labels(labels, lie_type.rank)
    rs = build_root_system(lie_type)
    g = root_grading(rs, labels)
    return make_report(
        "grading",
        {"lie_type": str(lie_type), "labels": labels},
        {"piece_dims": {str(j): d for j, d in g.dims().items()}, "depth": g.depth,
         "zeta": element_strs(g.zeta, rs.dim_algebra)},
    )


def cmd_kac(lie_type: LieType, labels: List[int], **_) -> Dict[str, Any]:
    check_size(lie_type)
    check_labels(labels, lie_type.rank, affine=True)
    rs = build_root_system(lie_type)
    zm = ZmGrading(rs, labels)
    verdict = kac_lift_check(rs, zm)
    report = make_report(
        "kac",
        {"lie_type": str(lie_type), "labels": labels},
        {
            "order": zm.m,
            "residue_dims": {str(j): d for j, d in zm.dims().items()},
            "lift": verdict.mode,
            "witness_labels": list(verdict.witness) if verdict.witness else None,
        },
    )
    if zm.order_warning:
        report["warnings"].append(zm.order_warning)
    return report


def cmd_quiver(dims: List[int], **_) -> Dict[str, Any]:
    quiver = QuiverDims(tuple(dims))
    count = orbit_count(quiver)
    if count > ORBIT_BOUND:
        raise ValueError(f"the dimension vector has at least {count} orbits; a report lists at most {ORBIT_BOUND}")
    orbits = enumerate_orbits(quiver)
    top = maximal_rank_tuple(quiver)
    keys = [f"{i},{j}" for i, j in rank_pairs(quiver)]
    return make_report(
        "quiver",
        {"dims": dims},
        {
            "jm_regular": quiver_jm_regular(quiver),
            "alpha": ratio_str(quiver.moment, quiver.n),
            "orbits": [
                {
                    "ranks": dict(zip(keys, rt)),
                    "toledo_rank": str(toledo_rank(mult)),
                    "open": rt == top,
                }
                for rt, mult in orbits
            ],
        },
    )


def cmd_toledo(dims: List[int], degrees: List[int], genus: int, **_) -> Dict[str, Any]:
    tau = toledo_invariant(QuiverDims(tuple(dims)), tuple(degrees), genus)
    return make_report("toledo", {"dims": dims, "degrees": degrees, "genus": genus}, {"tau": str(tau)})


def cmd_amw(lie_type: LieType, genus: int, lam: Q, **_) -> Dict[str, Any]:
    check_size(lie_type)
    graded = build_quaternionic(lie_type)
    lower, upper = graded.interval(genus, lam)
    report = make_report(
        "amw",
        {"genus": genus, "lambda": q_str(lam), "lie_type": str(lie_type)},
        {"bounds": [q_str(lower), q_str(upper)], "kappa": int(graded.one.norm)},
    )
    if lower > upper:  # the formula's lambda hypothesis fails: no tau satisfies both
        report["warnings"].append(f"empty interval: lower bound {q_str(lower)} exceeds upper bound {q_str(upper)}")
    return report


def cmd_quaternionic(lie_type: LieType, seed: int, **_) -> Dict[str, Any]:
    check_size(lie_type)
    graded = build_quaternionic(lie_type)
    rp, rm = graded.ranks()
    extremes = jm_regular(graded.top) and jm_regular(graded.low)
    return make_report(
        "quaternionic",
        # no value reads the seed: it is echoed because the reference digests in bench/references.json pin it
        {"lie_type": str(lie_type), "seed": seed},
        {
            "piece_dims": list(graded.one.grading.dims().values()),  # degrees -2..2
            "kappa": int(graded.one.norm),
            "rank_plus": q_str(rp),
            "rank_minus": q_str(rm),
            "degree1_jm_regular": jm_regular(graded.one),
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
    check_size(lie_type, table=True)
    zg = root_grading(build_root_system(lie_type), labels)
    lowest = len(zg.piece(1 - zg.depth))
    if lowest > LOWEST_PIECE_BOUND:
        raise ValueError(f"the lowest piece has dimension {lowest}, past the theta-pair bound of {LOWEST_PIECE_BOUND}")
    cd = cayley_pair(zg, seed)
    witness = bracket_projection_test(cd)
    results = {
        "dim_c": cd.dim_c,
        "dim_v": cd.dim_v,
        "iso_invertible": True,  # cayley_pair raised unless the transport has rank dim g_{1-m}
        "chi_t_vanishes_on_c": cd.chi_vanishes,
        "theta_pair_candidate": witness is None,
    }
    if witness is not None:  # each part as its coordinates
        dim = cd.algebra.dim
        parts = {part: element_strs(getattr(witness, part), dim) for part in ("c_part", "v_part", "rest_part")}
        results["witness"] = {"pair": [witness.v_index, witness.v_prime_index], **parts}
    return make_report("cayley", inputs, results, [
        ("cayley-iso", "transport map invertible", True, results["iso_invertible"]),
        ("cayley-chi", "character vanishes on centralizer", True, results["chi_t_vanishes_on_c"]),
    ])


def cmd_verify_paper(seed: int, extended: bool, **_) -> Dict[str, Any]:
    runs: Dict[tuple, Dict[str, Any]] = {}  # argv -> the results of its report; each argv runs once

    def results_of(argv: tuple) -> Dict[str, Any]:
        if argv not in runs:
            _, command, flags = parse_argv(list(argv))
            runs[argv] = COMMANDS[command][0](**typed_fields(command, {}, flags))["results"]
        return runs[argv]

    rows = {row.id: row for row in paper_checks(extended, seed)}
    checks = sorted(
        (row.id, row.paper_ref, row.expected, row.read([results_of(argv) for argv in row.argvs]))
        for row in rows.values()
    )
    # the kappa table and the witness are read off the runs of the rows that check them
    results = {"kappa_table": {
        name: results_of(rows[f"quaternionic-ranks-{name}"].argvs[0])["kappa"]
        for name in quaternionic_types(extended)
    }}
    witness = results_of(rows["cayley-222"].argvs[0]).get("witness")
    if witness is not None:
        results["witness_222"] = witness
    for row_id, _, expected, actual in checks:
        if expected != actual:
            reruns = "; ".join("gradedlie " + " ".join(argv) for argv in rows[row_id].argvs)
            print(f"[FAIL] {row_id}: {reruns}", file=sys.stderr)
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
    "amw": (cmd_amw, "--type! --genus! --lambda"),
    "quaternionic": (cmd_quaternionic, "--type! --seed"),
    "cayley": (cmd_cayley, "--type --labels --dims --seed"),
    "verify-paper": (cmd_verify_paper, "--extended --seed"),
}
COMMON_FLAGS = ["--format", "--output"]
# each command's flags, in usage order and the common ones last, each mapped to whether it is required
COMMAND_FLAGS = {
    command: {flag.rstrip("!"): flag.endswith("!") for flag in flags.split() + COMMON_FLAGS}
    for command, (_, flags) in COMMANDS.items()
}


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
    start with ``--``, a switch's value is True, and no flag is given twice.
    The command is None when argv names none.
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
    allowed = COMMAND_FLAGS[command]
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
        if field.key in flags:
            raise ValueError(f"{flag} given twice")
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
    own = COMMAND_FLAGS[command]
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


_SCALARS = {  # the text of each scalar type a report holds
    str: encode_basestring_ascii, int: int.__repr__, bool: ("false", "true").__getitem__, type(None): lambda _: "null",
}
_KEYS, _SCALAR_TYPES, _CONTAINERS = frozenset((str,)), frozenset(_SCALARS), frozenset((dict, list, tuple))


def _encode(value, depth: int, out: List[str]) -> None:
    """Append the chunks of ``value`` at ``depth`` to ``out``.  A container of scalars is
    one call of json's C encoder, which puts each item after the first on a new line."""
    kind = type(value)
    if kind in _SCALARS:
        out.append(_SCALARS[kind](value))
    elif kind not in _CONTAINERS:
        raise TypeError(f"a report holds no {kind.__name__}")
    elif kind is dict and not _KEYS.issuperset(map(type, value)):
        raise TypeError("a report key must be a str")
    else:
        inner, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        if _SCALAR_TYPES.issuperset(map(type, value.values() if kind is dict else value)):  # or no item
            encoder = c_make_encoder(None, None, encode_basestring_ascii, None, ": ", "," + inner, True, False, True)
            text = "".join(encoder(value, 0))
            out += (text[0], inner, text[1:-1], end, text[-1]) if value else (text,)
        else:
            sep = ("{" if kind is dict else "[") + inner
            for key in sorted(value) if kind is dict else range(len(value)):
                out.append(sep + encode_basestring_ascii(key) + ": " if kind is dict else sep)
                _encode(value[key], depth + 1, out)
                sep = "," + inner
            out.append(end + ("}" if kind is dict else "]"))


def report_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, on dicts with str keys,
    lists, tuples, str, int, bool and None; anything else raises TypeError.  ``indent`` sends
    ``json.dumps`` to its pure-Python encoder; this writer sends it no value."""
    out: List[str] = []
    _encode(value, 0, out)
    return "".join(out)


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
        payload = report_json(report) + "\n"
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
