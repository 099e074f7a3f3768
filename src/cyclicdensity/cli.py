"""Command-line interface.

Exit codes: 0 when all requested checks pass, 1 when a verified group
violates a checked identity (a mathematical counterexample), 2 for usage,
parse, or I/O errors, 3 for an internal fault (any other exception, such
as running out of memory).  Output is deterministic: the same invocation
yields byte-identical bytes regardless of parallelism.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import build_group, load_table_with_report
from .density import (
    alpha,
    alpha_via_totient,
    average_order,
    cyclic_subgroups,
)
from .errors import GroupError
from .groups import DEFAULT_SIZE_CAP, SIZE_CAP_ENV, FiniteGroup, center
from .sweep import SWEEP_FAMILIES, SweepConfig, SweepResult, run_sweep
from .verify import AlphaReport, full_report

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_UNCAPPED = 10 ** 9  # effective "no cap" when --size-override is given
_CAP_HELP = f"the size cap ({DEFAULT_SIZE_CAP}, or ${SIZE_CAP_ENV} when set)"

_REPORT_COLUMNS = (
    "label",
    "order",
    "cyclic_count",
    "alpha_g",
    "alpha_z",
    "equality",
    "structural",
    "quotient_exponent",
    "two_central",
    "four_abelian",
    "avg_order_g",
    "avg_order_z",
    "proof_steps",
)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac_approx(x: Fraction) -> str:
    """Exact rational plus a clearly-marked 6-place decimal approximation."""
    return f"{_frac(x)} (approx {float(x):.6f})"


def _steps_compact(report: AlphaReport) -> str:
    parts = []
    for c in report.proof_steps:
        flags = "".join(
            "+" if ok else "-"
            for ok in (c.order_identity, c.divisibility, c.coset_inequality)
        )
        parts.append(f"k={c.k} sum={_frac(c.coset_sum)} flags={flags}")
    return "; ".join(parts)


def report_to_dict(report: AlphaReport) -> dict:
    """Fixed-key JSON form of a report."""
    return {
        "label": report.label,
        "order": report.order,
        "cyclic_count": report.cyclic_count,
        "alpha_g": _frac(report.alpha_g),
        "alpha_z": _frac(report.alpha_z),
        "equality": report.equality,
        "structural": report.structural,
        "quotient_exponent": report.quotient_exponent,
        "two_central": report.two_central,
        "four_abelian": report.four_abelian,
        "avg_order_g": _frac(report.avg_order_g),
        "avg_order_z": _frac(report.avg_order_z),
        "proof_steps": [
            {
                "k": c.k,
                "sum": _frac(c.coset_sum),
                "order_identity": c.order_identity,
                "divisibility": c.divisibility,
                "coset_inequality": c.coset_inequality,
                "is_center": c.is_center,
            }
            for c in report.proof_steps
        ],
    }


_JSON_BOOL = ("false", "true")


def _json_list(items: Sequence[str], pad: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    it out at indent pad."""
    if not items:
        return "[]"
    sep = ",\n" + pad + "  "
    return "[" + sep[1:] + sep.join(items) + "\n" + pad + "]"


def _report_json(r: AlphaReport, label: str, pad: str = "") -> str:
    """json.dumps(report_to_dict(r), indent=2) at indent pad, with the label
    already encoded; every other value is an int, a bool or digits/digits."""
    p, q, b = pad + "  ", pad + "      ", _JSON_BOOL
    distinct = {id(c): c for c in r.proof_steps}  # equal cosets share one CosetCheck
    text = {
        key: f'{{\n{q}"k": {c.k},\n{q}"sum": "{_frac(c.coset_sum)}",\n'
        f'{q}"order_identity": {b[c.order_identity]},\n{q}"divisibility": {b[c.divisibility]},\n'
        f'{q}"coset_inequality": {b[c.coset_inequality]},\n{q}"is_center": {b[c.is_center]}\n'
        f'{p}  }}' for key, c in distinct.items()}
    steps = [text[id(c)] for c in r.proof_steps]
    return (
        f'{{\n{p}"label": {label},\n{p}"order": {r.order},\n{p}"cyclic_count": {r.cyclic_count},\n'
        f'{p}"alpha_g": "{_frac(r.alpha_g)}",\n{p}"alpha_z": "{_frac(r.alpha_z)}",\n'
        f'{p}"equality": {b[r.equality]},\n{p}"structural": {b[r.structural]},\n'
        f'{p}"quotient_exponent": {r.quotient_exponent},\n'
        f'{p}"two_central": {b[r.two_central]},\n{p}"four_abelian": {b[r.four_abelian]},\n'
        f'{p}"avg_order_g": "{_frac(r.avg_order_g)}",\n'
        f'{p}"avg_order_z": "{_frac(r.avg_order_z)}",\n{p}"proof_steps": {_json_list(steps, p)}\n'
        f'{pad}}}')


def _report_csv_row(report: AlphaReport) -> list:
    d = report_to_dict(report)
    d["proof_steps"] = _steps_compact(report)
    return [d[col] for col in _REPORT_COLUMNS]


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _report_text(report: AlphaReport) -> str:
    lines = [
        f"group: {report.label}",
        f"order: {report.order}",
        f"center order: {report.center_order}",
        f"cyclic subgroups: {report.cyclic_count}",
        f"alpha(G): {_frac_approx(report.alpha_g)}",
        f"alpha(Z): {_frac_approx(report.alpha_z)}",
        f"alpha(G) <= alpha(Z): {_yesno(report.inequality_holds)}",
        f"equality: {_yesno(report.equality)}",
        f"structural condition: {_yesno(report.structural)}",
        f"exp(G/Z): {report.quotient_exponent}",
        f"2-central: {_yesno(report.two_central)}",
        f"4-abelian: {_yesno(report.four_abelian)}",
        f"o(G): {_frac_approx(report.avg_order_g)}",
        f"o(Z): {_frac_approx(report.avg_order_z)}",
        f"o(G) >= o(Z): {_yesno(report.avg_inequality_holds)}",
        f"count identity (enumeration vs totient): {_yesno(report.count_identity)}",
        "proof steps (cosets of the center):",
    ]
    for c in report.proof_steps:
        tag = "center " if c.is_center else "       "
        lines.append(
            f"  {tag}k={c.k} sum={_frac(c.coset_sum)} "
            f"order-identity={_yesno(c.order_identity)} "
            f"divisibility={_yesno(c.divisibility)} "
            f"coset-inequality={_yesno(c.coset_inequality)}"
        )
    if report.findings:
        lines.append("findings:")
        lines += [f"  {f}" for f in report.findings]
    else:
        lines.append("findings: none")
    return "\n".join(lines) + "\n"


def _build_from_args(args: argparse.Namespace) -> FiniteGroup:
    max_size = _UNCAPPED if getattr(args, "size_override", False) else None
    return build_group(args.group, max_size=max_size)


def _cmd_alpha(args: argparse.Namespace) -> int:
    g = _build_from_args(args)
    census = cyclic_subgroups(g)
    a_enum = alpha(g)
    a_tot = alpha_via_totient(g)
    z = center(g)
    a_z = alpha(g, z)
    avg = average_order(g)
    avg_z = average_order(g, z)
    if args.json:
        payload = {
            "label": g.label,
            "order": g.n,
            "cyclic_count": census.count,
            "alpha_enumeration": _frac(a_enum),
            "alpha_totient": _frac(a_tot),
            "routes_agree": a_enum == a_tot,
            "alpha_z": _frac(a_z),
            "avg_order": _frac(avg),
            "avg_order_z": _frac(avg_z),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(
            f"group: {g.label}\n"
            f"order: {g.n}\n"
            f"cyclic subgroups: {census.count}\n"
            f"alpha (enumeration): {_frac_approx(a_enum)}\n"
            f"alpha (totient sum): {_frac_approx(a_tot)}\n"
            f"routes agree: {_yesno(a_enum == a_tot)}\n"
            f"alpha(Z): {_frac_approx(a_z)}\n"
            f"average order: {_frac_approx(avg)}\n"
            f"average order of Z: {_frac_approx(avg_z)}\n"
        )
    return EXIT_OK if a_enum == a_tot else EXIT_COUNTEREXAMPLE


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _build_from_args(args)
    report = full_report(g)
    if args.json:
        sys.stdout.write(_report_json(report, json.dumps(report.label)) + "\n")
    elif args.csv:
        sys.stdout.write(_csv_text([_report_csv_row(report)]))
    else:
        sys.stdout.write(_report_text(report))
    if report.findings:
        for f in report.findings:
            sys.stderr.write(f"counterexample: {report.label}: {f}\n")
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _sweep_text(result: SweepResult) -> str:
    cfg = result.config
    lines = [
        f"sweep: max_order={cfg.max_order} families={','.join(cfg.families)}"
        f" parallelism={cfg.parallelism}",
        f"groups checked: {len(result.reports)}",
        f"equality cases: {len(result.equality_labels)}",
        f"counterexamples: {len(result.counterexamples)}",
    ]
    lines += [f"  counterexample: {label}" for label in result.counterexamples]
    lines.append("result: " + ("FAIL" if result.counterexamples else "PASS"))
    return "\n".join(lines) + "\n"


def _write_sweep_json(result: SweepResult) -> None:
    """json.dumps of the sweep payload (README) with indent=2, plus "\n",
    written to stdout one report at a time."""
    label = {r.label: json.dumps(r.label) for r in result.reports}
    out, reports = sys.stdout, result.reports
    out.write(
        f'{{\n  "max_order": {result.config.max_order},\n'
        f'  "families": {_json_list([json.dumps(f) for f in result.config.families], "  ")},\n'
        f'  "groups_checked": {len(reports)},\n'
        f'  "equality_count": {len(result.equality_labels)},\n'
        f'  "equality_cases": {_json_list([label[s] for s in result.equality_labels], "  ")},\n'
        f'  "counterexamples": {_json_list([label[s] for s in result.counterexamples], "  ")},\n'
        f'  "reports": {"[" if reports else "[]"}'
    )
    for i, r in enumerate(reports):
        out.write((",\n    " if i else "\n    ") + _report_json(r, label[r.label], "    "))
    out.write("\n  ]\n}\n" if reports else "\n}\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    families = tuple(args.families.split(",")) if args.families else SWEEP_FAMILIES
    config = SweepConfig(
        max_order=args.max_order,
        families=families,
        include_tables=tuple(args.include_table or ()),
        fail_fast=args.fail_fast,
        parallelism=args.parallelism,
        size_override=args.size_override,
    )
    result = run_sweep(config)
    if args.json:
        _write_sweep_json(result)
    elif args.csv:
        sys.stdout.write(_csv_text([_report_csv_row(r) for r in result.reports]))
    else:
        sys.stdout.write(_sweep_text(result))
    for label in result.counterexamples:
        sys.stderr.write(f"counterexample: {label}\n")
    return EXIT_COUNTEREXAMPLE if result.counterexamples else EXIT_OK


def _cmd_import(args: argparse.Namespace) -> int:
    max_size = _UNCAPPED if args.size_override else None
    group, reindex = load_table_with_report(args.table, max_size=max_size)
    moved = [f"{old}->{new}" for old, new in enumerate(reindex) if old != new]
    if args.json:
        payload = {
            "path": args.table,
            "label": group.label,
            "order": group.n,
            "reindexed": bool(moved),
            "reindex_map": reindex,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(f"loaded: {group.label}\norder: {group.n}\n")
        if moved:
            sys.stdout.write(
                "identity moved to id 0; relabeled ids: " + ", ".join(moved) + "\n"
            )
        else:
            sys.stdout.write("identity already at id 0; labels unchanged\n")
    return EXIT_OK


def _add_format_flags(p: argparse.ArgumentParser, csv_too: bool = True) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable JSON")
    if csv_too:
        fmt.add_argument("--csv", action="store_true", help="one CSV row per group")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-density",
        description="Cyclic-subgroup density computations and exhaustive "
        "verification of the density inequality against the center.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alpha = sub.add_parser(
        "alpha", help="compute the density of one group by both routes"
    )
    p_alpha.add_argument("--group", required=True, help="group spec, e.g. dihedral:8")
    p_alpha.add_argument("--size-override", action="store_true",
                         help=f"allow groups over {_CAP_HELP}")
    _add_format_flags(p_alpha, csv_too=False)
    p_alpha.set_defaults(func=_cmd_alpha)

    p_verify = sub.add_parser(
        "verify", help="run every identity and inequality check on one group"
    )
    p_verify.add_argument("--group", required=True, help="group spec, e.g. quaternion:16")
    p_verify.add_argument("--size-override", action="store_true",
                          help=f"allow groups over {_CAP_HELP}")
    _add_format_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="verify the whole catalog up to a size bound"
    )
    p_sweep.add_argument("--max-order", type=int, default=256)
    p_sweep.add_argument(
        "--families",
        help="comma-separated subset of: " + ",".join(SWEEP_FAMILIES),
    )
    p_sweep.add_argument("--include-table", action="append", metavar="PATH",
                         help="also check this Cayley-table file (repeatable)")
    p_sweep.add_argument("--fail-fast", action="store_true",
                         help="stop at the first counterexample")
    p_sweep.add_argument("--parallelism", type=int, default=1)
    p_sweep.add_argument("--size-override", action="store_true",
                         help=f"allow max-order over {_CAP_HELP}")
    _add_format_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_import = sub.add_parser(
        "import", help="validate a Cayley-table file and report the re-indexing"
    )
    p_import.add_argument("--table", required=True, help="path to the table file")
    p_import.add_argument("--size-override", action="store_true",
                          help=f"allow tables over {_CAP_HELP}")
    _add_format_flags(p_import, csv_too=False)
    p_import.set_defaults(func=_cmd_import)

    return parser


_parser = functools.cache(build_parser)  # one parser per process; parse_args keeps no state


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GroupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not a counterexample
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


__all__ = ["main", "build_parser", "report_to_dict", "EXIT_OK",
           "EXIT_COUNTEREXAMPLE", "EXIT_USAGE", "EXIT_INTERNAL"]
