"""Command-line interface.

Subcommands cover the main pipelines (grading, kac, quiver, toledo, amw,
quaternionic, cayley) plus ``verify-paper``, which runs the full table of
numeric cross-checks and fails loudly on any mismatch.  Reports are emitted
as JSON (default) or text; every rational is serialized as an exact "p/q"
string, never as a float.  A JSON config file can supply any field, with
command-line flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction as Q
from typing import Any, Dict, List, Optional

from . import __version__
from . import amw as amw_mod
from .cayley import bracket_projection_test, cayley_pair, verify_iso_and_character
from .chevalley import build_algebra
from .grading import bar_pieces, kac_labels, kac_lift_check, z_grading_from_labels, zm_from_kac
from .quaternionic import build_quaternionic, quaternionic_ranks, verify_extreme_pieces
from .quiver import (
    QuiverDims,
    QuiverHiggsTopology,
    canonical_open_element,
    enumerate_orbits,
    labels_for_dims,
    maximal_rank_tuple,
    orbit_toledo_rank,
    quiver_jm_regular,
    toledo_invariant,
)
from .rootsystem import LieType
from .vinberg import jm_regular, pair_rank, vinberg_pair

SCHEMA_VERSION = 1
VERSION = __version__


class InputError(Exception):
    pass


def q_str(x) -> str:
    q = Q(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def q_list(xs) -> List[str]:
    return [q_str(x) for x in xs]


def parse_rational(text: str) -> Q:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Q(int(num), int(den))
        return Q(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def parse_ints(text: str) -> List[int]:
    try:
        return [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}") from exc


def to_int(raw, name: str) -> int:
    """An integer field, from a flag or the config file."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise InputError(f"{name} must be an integer, got {raw!r}")


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
    labels = to_ints(labels, "labels")
    try:
        zg = z_grading_from_labels(build_algebra(t), labels)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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
    alg = build_algebra(t)
    try:
        kac = kac_labels(alg, labels)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    zm = zm_from_kac(alg, kac)
    verdict = kac_lift_check(alg, kac)
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
    report = make_report("quiver", {"dims": dims_list})
    report["results"] = {
        "jm_regular": quiver_jm_regular(dims),
        "alpha": q_str(dims.alpha),
        "orbits": [
            {
                "ranks": {f"{i},{j}": r for (i, j), r in rt},
                "toledo_rank": q_str(orbit_toledo_rank(dims, rt)),
                "open": rt == maximal_rank_tuple(dims),
            }
            for rt, _ in orbits
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
    lam = parse_rational(str(args.get("lam") or "0"))
    inputs = {"genus": genus, "lambda": q_str(lam)}
    report = make_report("amw", inputs)
    try:
        if args.get("quaternionic"):
            kappa = to_int(args.get("kappa") or 2, "kappa")
            inputs["kappa"] = kappa
            if args.get("coarse"):
                lo, hi = amw_mod.quaternionic_coarse(genus, kappa)
                inputs["coarse"] = True
            else:
                bi = amw_mod.BoundInput(
                    genus=genus,
                    lam=lam,
                    rank_plus=parse_rational(str(args.get("rank_plus") or "0")),
                    rank_minus=parse_rational(str(args.get("rank_minus") or "0")),
                    kappa=kappa,
                )
                lo, hi = amw_mod.quaternionic_bounds(bi)
            report["results"] = {"bounds": [q_str(lo), q_str(hi)]}
        else:
            bi = amw_mod.BoundInput(
                genus=genus,
                lam=lam,
                rank_plus=parse_rational(str(args.get("rank_plus") or "0")),
                rank_minus=parse_rational(str(args.get("rank_minus") or "0")),
                zeta_pairing=parse_rational(str(args.get("zeta_pairing") or "0")),
            )
            lower = amw_mod.amw_lower(bi)
            depth = to_int(args.get("depth") or 2, "depth")
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
    seed = to_int(args.get("seed") or 0, "seed")
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
    expected = ("1", "1") if qd.kappa == 1 else ("4", "1")
    add_check(report, f"ranks-{t}", "quaternionic rank table", list(expected), [q_str(rp), q_str(rm)])
    add_check(report, f"extremes-{t}", "extreme pieces JM-regular", True, extremes.both_regular)
    return report


def cmd_cayley(args) -> Dict[str, Any]:
    seed = to_int(args.get("seed") or 0, "seed")
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
        labels = to_ints(raw, "labels")
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
        w = theta.witness
        report["results"]["witness"] = {
            "pair": [w.v_index, w.v_prime_index],
            "c_part": q_list(w.c_part),
            "v_part": q_list(w.v_part),
            "rest_part": q_list(w.rest_part),
        }
    add_check(report, "cayley-iso", "transport map invertible", True, iso.iso_full)
    add_check(report, "cayley-chi", "character vanishes on centralizer", True, iso.chi_vanishes)
    return report


def cmd_verify_paper(args) -> Dict[str, Any]:
    seed = to_int(args.get("seed") or 0, "seed")
    extended = bool(args.get("extended"))
    report = make_report("verify-paper", {"seed": seed, "extended": extended})
    checks = report["checks"]

    types = ["A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]
    if extended:
        types += ["E7", "E8"]
    kappa_table = {}
    for name in types:
        t = LieType.parse(name)
        qd = build_quaternionic(t)
        kappa_table[name] = qd.kappa
        rp, rm = quaternionic_ranks(qd, seed)
        expected = (Q(1), Q(1)) if qd.kappa == 1 else (Q(4), Q(1))
        add_check(
            report,
            f"quaternionic-ranks-{name}",
            "rank table for the highest-root grading",
            [q_str(x) for x in expected],
            [q_str(rp), q_str(rm)],
        )
        extremes = verify_extreme_pieces(qd, seed)
        add_check(
            report,
            f"extreme-pieces-regular-{name}",
            "one-dimensional pieces are JM-regular",
            True,
            extremes.both_regular,
        )
    report["results"]["kappa_table"] = kappa_table

    for name in ("C2", "C3"):
        qd = build_quaternionic(LieType.parse(name))
        add_check(
            report,
            f"sp-degree1-not-regular-{name}",
            "symplectic degree-1 pair is not JM-regular",
            False,
            jm_regular(qd.pair(1), seed).regular,
        )

    add_check(
        report,
        "coarse-bounds-kappa2",
        "coarse interval at genus 2, generic type",
        ["-8", "4"],
        [q_str(x) for x in amw_mod.quaternionic_coarse(2, 2)],
    )
    add_check(
        report,
        "coarse-bounds-kappa1",
        "coarse interval at genus 2, symplectic type",
        ["-2", "2"],
        [q_str(x) for x in amw_mod.quaternionic_coarse(2, 1)],
    )

    import random

    rng = random.Random(seed)
    two_vertex_ok = True
    for _ in range(50):
        p, q_, a = rng.randint(1, 6), rng.randint(1, 6), rng.randint(-5, 5)
        tau = toledo_invariant(QuiverHiggsTopology((p, q_), (a, -a), 2))
        if tau != 2 * Q(p * (-a) - q_ * a, p + q_):
            two_vertex_ok = False
    add_check(report, "quiver-toledo-two-vertex", "two-block Toledo formula", True, two_vertex_ok)
    add_check(
        report,
        "quiver-toledo-111",
        "three-block Toledo value",
        "-4",
        q_str(toledo_invariant(QuiverHiggsTopology((1, 1, 1), (1, 0, -1), 2))),
    )

    a2 = build_algebra(LieType.parse("A2"))
    cd1 = cayley_pair(z_grading_from_labels(a2, [1, 1]), seed)
    t1 = bracket_projection_test(cd1)
    add_check(
        report,
        "cayley-111",
        "one-block-chain centralizer data",
        [0, 1, True],
        [cd1.dim_c, cd1.dim_v, t1.candidate],
    )
    a5 = build_algebra(LieType.parse("A5"))
    cd2 = cayley_pair(z_grading_from_labels(a5, [0, 1, 0, 1, 0]), seed)
    t2 = bracket_projection_test(cd2)
    witness_ok = (
        t2.witness is not None
        and any(t2.witness.c_part)
        and any(t2.witness.v_part)
    )
    add_check(
        report,
        "cayley-222",
        "two-block-chain data with projection witness",
        [3, 4, False, True],
        [cd2.dim_c, cd2.dim_v, t2.candidate, witness_ok],
    )
    if t2.witness is not None:
        report["results"]["witness_222"] = {
            "pair": [t2.witness.v_index, t2.witness.v_prime_index],
            "c_part": q_list(t2.witness.c_part),
            "v_part": q_list(t2.witness.v_part),
            "rest_part": q_list(t2.witness.rest_part),
        }

    # every order-3 labelling of the rank-2 chain algebra lifts
    all_lift = True
    for p0 in range(4):
        for p1 in range(4):
            for p2 in range(4):
                if p0 + p1 + p2 == 3:
                    v = kac_lift_check(a2, kac_labels(a2, [p0, p1, p2]))
                    if not v.lifts:
                        all_lift = False
    add_check(report, "kac-a2-all-lift", "rank-2 chain: every labelling lifts", True, all_lift)
    g2 = build_algebra(LieType.parse("G2"))
    v = kac_lift_check(g2, kac_labels(g2, [0, 1, 0]))
    add_check(report, "kac-g2-no-lift", "no lift without a movable positive label", False, v.lifts)

    report["checks"] = sorted(checks, key=lambda c: c["id"])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact computations for graded complex semisimple Lie algebras",
    )
    parser.add_argument("--config", help="JSON file supplying any field; flags override")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", dest="output_format", choices=["json", "text"])
        p.add_argument("--output", dest="output_path")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("grading")
    p.add_argument("--type", dest="lie_type")
    p.add_argument("--rank", type=int)
    p.add_argument("--labels")
    common(p)

    p = sub.add_parser("kac")
    p.add_argument("--type", dest="lie_type")
    p.add_argument("--rank", type=int)
    p.add_argument("--labels")
    common(p)

    p = sub.add_parser("quiver")
    p.add_argument("--dims")
    common(p)

    p = sub.add_parser("toledo")
    p.add_argument("--dims")
    p.add_argument("--degrees")
    p.add_argument("--genus", type=int)
    common(p)

    p = sub.add_parser("amw")
    p.add_argument("--genus", type=int)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--rank-plus", dest="rank_plus")
    p.add_argument("--rank-minus", dest="rank_minus")
    p.add_argument("--zeta-pairing", dest="zeta_pairing")
    p.add_argument("--depth", type=int)
    p.add_argument("--phi-minus-zero", dest="phi_minus_zero", action="store_true", default=None)
    p.add_argument("--quaternionic", action="store_true", default=None)
    p.add_argument("--kappa", type=int)
    p.add_argument("--coarse", action="store_true", default=None)
    common(p)

    p = sub.add_parser("quaternionic")
    p.add_argument("--type", dest="lie_type")
    p.add_argument("--rank", type=int)
    common(p)

    p = sub.add_parser("cayley")
    p.add_argument("--type", dest="lie_type")
    p.add_argument("--rank", type=int)
    p.add_argument("--labels")
    p.add_argument("--dims")
    common(p)

    p = sub.add_parser("verify-paper")
    p.add_argument("--extended", action="store_true", default=None)
    common(p)

    return parser


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        return 2
    args: Dict[str, Any] = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                args.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    for k, v in vars(ns).items():
        if k not in ("config", "command") and v is not None:
            args[k] = v
    try:
        report = HANDLERS[ns.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = any(not c["pass"] for c in report["checks"])
    if args.get("output_format") == "text":
        payload = render_text(report)
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = args.get("output_path")
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
