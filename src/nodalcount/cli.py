"""Command line driver: verification runs, counterexample pipelines, tables.

Exit codes: 0 when every verified configuration is equal (or, for
counterexample, when the pencil is not general or its two sides differ,
and for theorem-sweep when the observed outcome matrix matches the
packaged golden table); 1 for an unexpected result; 2 for invalid input
or a computation outside the supported exact scope.  A reader that closes
stdout early ends the command quietly, with its own exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import reprlib
import sys
from fractions import Fraction

from . import nodal
from .burnside import table_of_marks
from .geometry import (
    FieldExtensionError,
    IrrationalNodalParameter,
    NotGeneral,
    analyze_pencil,
    conic_to_string,
    d8_case_suite,
    klein_counterexample,
    line_to_string,
)
from .permgroup import class_labels, subgroup_classes, subgroup_label
from .presets import PRESET_ORDER, resolve_group

__all__ = ["main"]


class CliError(ValueError):
    pass


def _emit(args, body) -> None:
    """Write a command's report: its text, or its JSON payload as JSON."""
    if args.format == "json":
        import json

        body = json.dumps(body, indent=2)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror}") from None
        return
    try:
        print(body)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  What is left of the report, and
        # the flush at exit, go to the null device, so the command ends
        # quietly with its own exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _group(args):
    try:
        return resolve_group(args.group)
    except KeyError as exc:
        raise CliError(exc.args[0]) from None


def _load_sweep_golden() -> dict:
    import json
    from importlib import resources

    text = (
        resources.files("nodalcount")
        .joinpath("data/theorem_sweep_golden.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


# ---------------------------------------------------------------------------
# commands
#
# Each command returns (body, exit code), where body is the report in the
# format it prints: text for --format text, a JSON payload for --format json.
# ---------------------------------------------------------------------------


def cmd_marks(args) -> tuple:
    G = _group(args)
    marks = table_of_marks(G)
    labels = class_labels(G)
    if args.format == "json":
        payload = {
            "group": args.group,
            "classes": list(labels),
            "marks": [list(row) for row in marks],
        }
        return payload, 0
    # the header is one more row, named "" and holding the column labels
    width = max(len(lbl) for lbl in labels)
    cells = [max(len(str(v)) for v in column) for column in zip(labels, *marks)]
    lines = [f"table of marks for {args.group} (rows [G/H], columns K)"]
    lines += [
        name.ljust(width) + " | " + "  ".join(str(v).rjust(c) for v, c in zip(row, cells))
        for name, row in [("", labels), *zip(labels, marks)]
    ]
    return "\n".join(lines), 0


def cmd_verify(args) -> tuple:
    G = _group(args)
    try:
        sigma = nodal.parse_sigma_spec(args.sigma, G)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    report = nodal.verify(sigma)
    if args.format == "json":
        body = report.to_json(args.group)
    else:
        body = report.render_text(args.group)
    return body, 0 if report.equal else 1


def cmd_verify_all(args) -> tuple:
    reports = nodal.verify_all(_group(args))
    if args.format == "json":
        body = {"group": args.group, "reports": [r.to_json(args.group) for r in reports]}
    else:
        body = "\n\n".join(r.render_text(args.group) for r in reports)
    return body, 0 if all(r.equal for r in reports) else 1


def _expanded_table(report: nodal.VerificationReport):
    """Per-subgroup fixed-point rows (classes expanded to all members)."""
    G = report.sigma.ambient
    return [
        (subgroup_label(member, ambient=G), lhs_mark, rhs_mark)
        for cls, (_, lhs_mark, rhs_mark) in zip(subgroup_classes(G), report.table)
        for member in cls.members
    ]


def _counterexample_report(args, label, analysis, report):
    members = [
        {
            "t": f"[{mu}:{lam}]",
            "conic": conic_to_string(member),
            "lines": [line_to_string(l) for l in pair],
        }
        for ((mu, lam), member), pair in zip(analysis.members, analysis.lines)
    ]
    base = [str(p) for p in analysis.base]
    expanded = _expanded_table(report)
    if args.format == "json":
        payload = report.to_json()
        payload["pencil"] = label
        payload["members"] = members
        payload["base_locus"] = base
        payload["full_table"] = [
            {"subgroup": name, "lhs": lm, "rhs": rm} for name, lm, rm in expanded
        ]
        return payload
    lines = [f"pencil: {label}", "degenerate members:"]
    lines += [
        f"  t={m['t']}  {m['conic']}  =  ({m['lines'][0]}) * ({m['lines'][1]})"
        for m in members
    ]
    lines.append("base locus: " + ", ".join(base))
    lines.append(report.render_text(args.target))
    lines += ["", "full per-subgroup table:", *nodal.fixed_point_lines(expanded)]
    return "\n".join(lines)


def cmd_counterexample(args) -> tuple:
    if args.target == "klein":
        case = klein_counterexample()
        label = "klein pencil through the orbit of [1:2:3]"
    else:
        try:
            case = d8_case_suite(args.a, args.b, args.c, args.d)[args.case - 1]
        except ValueError as exc:
            raise CliError(str(exc)) from None
        label = (
            f"{case.label}: mu*({conic_to_string(case.f)}) + "
            f"lambda*({conic_to_string(case.g)})  [a={args.a}, b={args.b}, c={args.c}, d={args.d}]"
        )
    try:
        analysis = analyze_pencil(case)
    except NotGeneral as exc:
        if args.format == "json":
            body = {"pencil": label, "general": False, "reason": exc.reason}
        else:
            body = f"pencil: {label}\nnot general: {exc.reason}"
        return body, 0
    report = nodal.verify(analysis.sigma)
    body = _counterexample_report(args, label, analysis, report)
    return body, 1 if report.equal else 0


def cmd_theorem_sweep(args) -> tuple:
    golden = {entry["group"]: entry["configs"] for entry in _load_sweep_golden()["groups"]}
    groups = []
    for name in PRESET_ORDER:
        observed = [
            {
                "sigma": s.sigma_string(),
                "orbit_classes": list(s.orbit_classes),
                "equal": all(lm == rm for _, lm, rm in nodal.pulled_back_table(s)),
            }
            for s in nodal.enumerate_sigma_configs(resolve_group(name))
        ]
        match = observed == golden.get(name)
        groups.append({"group": name, "matches_golden": match, "configs": observed})
    all_match = all(g["matches_golden"] for g in groups)
    code = 0 if all_match else 1
    if args.format == "json":
        return {"groups": groups, "matches_golden": all_match}, code
    lines = []
    for g in groups:
        cells = " ".join(f"{o['sigma']}={'T' if o['equal'] else 'F'}" for o in g["configs"])
        status = "ok" if g["matches_golden"] else "DRIFT"
        lines.append(f"{g['group']:8s} [{status}] {cells}")
    lines.append("all groups match the golden table" if all_match else "drift detected")
    return "\n".join(lines), code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """A rational from its text.  A digit run or an expanded exponent longer than
    Python prints ("1e10000000") is refused, unechoed, before Fraction builds it."""
    mantissa, marker, exponent = text.upper().partition("E")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    run = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
    try:
        if run > limit or (marker and sum(map(str.isdigit, mantissa)) + abs(int(exponent)) > limit):
            raise argparse.ArgumentTypeError(f"more than {limit} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {reprlib.repr(text)}")


def _sign(text: str) -> int:
    value = int(text)
    if value not in (1, -1):
        raise argparse.ArgumentTypeError("expected +1 or -1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalcount",
        description=(
            "Exact Burnside-ring verification of weighted nodal-orbit counts "
            "in group-invariant pencils of plane conics."
        ),
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marks", help="print the table of marks of a group preset")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_marks)

    p = sub.add_parser("verify", help="verify one 4-point configuration")
    p.add_argument("--group", required=True)
    p.add_argument(
        "--sigma",
        required=True,
        help='orbit spec, e.g. "4*", "2*+[G]", "[G/(123)]", "2[G/(12)(34)]"',
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-all", help="verify every configuration of a group")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("counterexample", help="run a geometric counterexample pipeline")
    p.set_defaults(func=cmd_counterexample)
    targets = p.add_subparsers(dest="target", required=True)
    targets.add_parser("klein", help="the pencil through the Klein orbit of [1:2:3]")
    p = targets.add_parser("d8", help="one of the nine dihedral pencils")
    p.add_argument("--a", type=_sign, default=1)
    p.add_argument("--b", type=_sign, default=1)
    for name in ("c", "d"):
        p.add_argument(
            f"--{name}",
            type=_fraction,
            default=Fraction(1),
            help=f"nonzero rational, e.g. 3/2; give a negative fraction as --{name}=-7/3",
        )
    p.add_argument("--case", type=int, choices=range(1, 10), default=8)

    p = sub.add_parser(
        "theorem-sweep",
        help="verify every configuration of every subgroup class of S4",
    )
    p.set_defaults(func=cmd_theorem_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--c=--" as an empty list of values
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name}: expected one argument")
    try:
        body, code = args.func(args)
        _emit(args, body)
        return code
    except (CliError, NotGeneral, IrrationalNodalParameter, FieldExtensionError) as exc:
        message = str(exc)
    except ValueError as exc:
        # str() refuses an int longer than sys.get_int_max_str_digits(); a
        # nodal parameter or coefficient derived from c and d can be one.
        if "integer string conversion" not in str(exc):
            raise
        message = f"a number in the result has more than {sys.get_int_max_str_digits()} digits"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
