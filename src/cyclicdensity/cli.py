"""Command-line interface.

Exit codes: 0 when all requested checks pass, 1 when a verified group
violates a checked identity (a mathematical counterexample), 2 for usage,
parse, or I/O errors and for a group over the size cap or physical memory,
3 for an internal fault (any other exception).  Output is deterministic:
the same invocation yields byte-identical bytes regardless of parallelism.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .catalog import build_group, load_table_with_report
from .density import alpha, average_order, cyclic_subgroups
from .errors import GroupError
from .groups import DEFAULT_SIZE_CAP, MAX_ORDER, SIZE_CAP_ENV, FiniteGroup, center
from .sweep import SWEEP_FAMILIES, SweepConfig, SweepResult, run_sweep
from .verify import AlphaReport, CosetCheck, full_report, per_coset_analysis

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_CAP_HELP = f"the size cap ({DEFAULT_SIZE_CAP}, or ${SIZE_CAP_ENV} when set)"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class _Kind(NamedTuple):
    """How one kind of value is written."""

    value: Callable  # in report_to_dict, hence in JSON and in a CSV cell
    json_field: str  # its field in the JSON writer's f-string, the value at VALUE
    text: Callable  # in the text form


_STR = _Kind(str, "{label}", str)  # the label, which the JSON writer gets encoded
_INT = _Kind(int, "{VALUE}", str)
_FRAC = _Kind(_frac, '"{_frac(VALUE)}"', lambda x: f"{_frac(x)} (approx {float(x):.6f})")
_BOOL = _Kind(bool, "{_JSON_BOOL[VALUE]}", ("no", "yes").__getitem__)

# One row per AlphaReport field but proof_steps and findings, in output order:
# the field, which is also its JSON and CSV key; its caption in the text form;
# its kind; and whether JSON and CSV carry it (the text form prints every
# row).  The proof steps follow the rows, and the text form ends with the
# findings.
_FIELDS = (
    ("label", "group", _STR, True),
    ("order", "order", _INT, True),
    ("center_order", "center order", _INT, False),
    ("cyclic_count", "cyclic subgroups", _INT, True),
    ("alpha_g", "alpha(G)", _FRAC, True),
    ("alpha_z", "alpha(Z)", _FRAC, True),
    ("inequality_holds", "alpha(G) <= alpha(Z)", _BOOL, False),
    ("equality", "equality", _BOOL, True),
    ("structural", "structural condition", _BOOL, True),
    ("quotient_exponent", "exp(G/Z)", _INT, True),
    ("two_central", "2-central", _BOOL, True),
    ("four_abelian", "4-abelian", _BOOL, True),
    ("avg_order_g", "o(G)", _FRAC, True),
    ("avg_order_z", "o(Z)", _FRAC, True),
    ("avg_inequality_holds", "o(G) >= o(Z)", _BOOL, False),
    ("count_identity", "count identity (enumeration vs totient)", _BOOL, False),
)
_CARRIED = tuple((name, kind) for name, _, kind, carried in _FIELDS if carried)
_REPORT_COLUMNS = (*(name for name, _ in _CARRIED), "proof_steps")

# One row per CosetCheck field: the field, its JSON key, its caption, and its
# kind.  The text form writes k, sum and the three proof obligations as
# caption=value, after a tag on the center's step; CSV writes k and sum so,
# then one + or - per obligation.
_STEP_FIELDS = (
    ("k", "k", "k", _INT),
    ("coset_sum", "sum", "sum", _FRAC._replace(text=_frac)),
    ("order_identity", "order_identity", "order-identity", _BOOL),
    ("divisibility", "divisibility", "divisibility", _BOOL),
    ("coset_inequality", "coset_inequality", "coset-inequality", _BOOL),
    ("is_center", "is_center", None, _BOOL),
)
_STEP_HEAD, _OBLIGATIONS = _STEP_FIELDS[:2], _STEP_FIELDS[2:5]


def _step_pairs(c: CosetCheck, rows) -> str:
    return " ".join(f"{cap}={kind.text(getattr(c, attr))}" for attr, _, cap, kind in rows)


def report_to_dict(report: AlphaReport) -> dict:
    """Fixed-key JSON form of a report."""
    d = {name: kind.value(getattr(report, name)) for name, kind in _CARRIED}
    d["proof_steps"] = [
        {key: kind.value(getattr(c, attr)) for attr, key, _, kind in _STEP_FIELDS}
        for c in report.proof_steps]
    return d


def _json_list(items: Sequence[str], pad: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    it out at indent pad."""
    if not items:
        return "[]"
    sep = ",\n" + pad + "  "
    return "[" + sep[1:] + sep.join(items) + "\n" + pad + "]"


@functools.cache
def _json_writers(pad: str) -> tuple[Callable, Callable]:
    """The JSON writers at indent pad: (r, label, steps) -> report r, given its
    label and proof steps encoded, and (c) -> proof step c.  Each is one
    f-string, built from the tables once per indent and compiled as
    dataclasses compiles its methods, so a report costs one string fill."""
    p, q = pad + "  ", pad + "      "
    report = "".join(f'{p}"{key}": {kind.json_field.replace("VALUE", "r." + key)},\n'
                     for key, kind in _CARRIED)
    step = ",\n".join(f'{q}"{key}": {kind.json_field.replace("VALUE", "c." + attr)}'
                      for attr, key, _, kind in _STEP_FIELDS)
    report = "{{\n" + report + p + '"proof_steps": {steps}\n' + pad + "}}"
    step = "{{\n" + step + "\n" + p + "  }}"
    scope = {"_frac": _frac, "_JSON_BOOL": ("false", "true")}
    return (eval(f"lambda r, label, steps: f{report!r}", scope),
            eval(f"lambda c: f{step!r}", scope))


def _report_json(r: AlphaReport, label: str, pad: str = "") -> str:
    """json.dumps(report_to_dict(r), indent=2) at indent pad, with the label
    already encoded."""
    report, step = _json_writers(pad)
    distinct = {id(c): c for c in r.proof_steps}  # equal cosets share one CosetCheck
    text = {key: step(c) for key, c in distinct.items()}
    return report(r, label, _json_list([text[id(c)] for c in r.proof_steps], pad + "  "))


def _csv_text(reports: Sequence[AlphaReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    for r in reports:
        row = report_to_dict(r)
        row["proof_steps"] = "; ".join(
            _step_pairs(c, _STEP_HEAD) + " flags="
            + "".join("+" if getattr(c, attr) else "-" for attr, *_ in _OBLIGATIONS)
            for c in r.proof_steps)
        writer.writerow(row.values())
    return buf.getvalue()


def _text(rows) -> str:
    """(caption, kind, value) rows as "caption: value" lines."""
    return "".join(f"{cap}: {kind.text(v)}\n" for cap, kind, v in rows)


def _report_text(r: AlphaReport) -> str:
    lines = ["proof steps (cosets of the center):"]
    lines += [("  center " if c.is_center else " " * 9) + _step_pairs(c, _STEP_HEAD + _OBLIGATIONS)
              for c in r.proof_steps]
    lines += ["findings:", *(f"  {f}" for f in r.findings)] if r.findings else ["findings: none"]
    rows = ((cap, kind, getattr(r, name)) for name, cap, kind, _ in _FIELDS)
    return _text(rows) + "\n".join(lines) + "\n"


def _build_from_args(args: argparse.Namespace) -> FiniteGroup:
    return build_group(args.group, max_size=MAX_ORDER if args.size_override else None)


def _cmd_alpha(args: argparse.Namespace) -> int:
    g = _build_from_args(args)
    census = cyclic_subgroups(g)
    z = center(g)
    a_enum, a_tot = Fraction(census.count, g.n), per_coset_analysis(g, z).total / g.n
    rows = (  # JSON key, text caption, kind, value
        ("label", "group", _STR, g.label),
        ("order", "order", _INT, g.n),
        ("cyclic_count", "cyclic subgroups", _INT, census.count),
        ("alpha_enumeration", "alpha (enumeration)", _FRAC, a_enum),
        ("alpha_totient", "alpha (totient sum)", _FRAC, a_tot),
        ("routes_agree", "routes agree", _BOOL, a_enum == a_tot),
        ("alpha_z", "alpha(Z)", _FRAC, alpha(g, z)),
        ("avg_order", "average order", _FRAC, average_order(g)),
        ("avg_order_z", "average order of Z", _FRAC, average_order(g, z)),
    )
    if args.json:
        payload = {key: kind.value(v) for key, _, kind, v in rows}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(_text(row[1:] for row in rows))
    return EXIT_OK if a_enum == a_tot else EXIT_COUNTEREXAMPLE


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _build_from_args(args)
    report = full_report(g)
    if args.json:
        sys.stdout.write(_report_json(report, json.dumps(report.label)) + "\n")
    elif args.csv:
        sys.stdout.write(_csv_text([report]))
    else:
        sys.stdout.write(_report_text(report))
    if report.findings:
        for f in report.findings:
            sys.stderr.write(f"counterexample: {report.label}: {f}\n")
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _sweep_text(result: SweepResult) -> str:
    cfg, bad = result.config, result.counterexamples
    lines = [
        f"sweep: max_order={cfg.max_order} families={','.join(cfg.families)}"
        f" parallelism={cfg.parallelism}",
        f"groups checked: {len(result.reports)}",
        f"equality cases: {len(result.equality_labels)}",
        f"counterexamples: {len(bad)}",
    ]
    lines += [f"  counterexample: {label}" for label in bad]
    lines.append("result: " + ("FAIL" if bad else "PASS"))
    return "\n".join(lines) + "\n"


def _write_sweep_json(result: SweepResult) -> None:
    """json.dumps of the sweep payload (README) with indent=2, plus "\n",
    written to stdout one report at a time."""
    label = {r.label: json.dumps(r.label) for r in result.reports}
    out, reports, equal = sys.stdout, result.reports, result.equality_labels
    out.write(
        f'{{\n  "max_order": {result.config.max_order},\n'
        f'  "families": {_json_list([json.dumps(f) for f in result.config.families], "  ")},\n'
        f'  "groups_checked": {len(reports)},\n'
        f'  "equality_count": {len(equal)},\n'
        f'  "equality_cases": {_json_list([label[s] for s in equal], "  ")},\n'
        f'  "counterexamples": {_json_list([label[s] for s in result.counterexamples], "  ")},\n'
        f'  "reports": {"[" if reports else "[]"}'
    )
    for i, r in enumerate(reports):
        out.write((",\n    " if i else "\n    ") + _report_json(r, label[r.label], "    "))
    out.write("\n  ]\n}\n" if reports else "\n}\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    families = SWEEP_FAMILIES if args.families is None else tuple(args.families.split(","))
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
        sys.stdout.write(_csv_text(result.reports))
    else:
        sys.stdout.write(_sweep_text(result))
    bad = result.counterexamples
    for label in bad:
        sys.stderr.write(f"counterexample: {label}\n")
    return EXIT_COUNTEREXAMPLE if bad else EXIT_OK


def _cmd_import(args: argparse.Namespace) -> int:
    max_size = MAX_ORDER if args.size_override else None
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
    except (GroupError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not a counterexample
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


__all__ = ["main", "build_parser", "report_to_dict", "EXIT_OK",
           "EXIT_COUNTEREXAMPLE", "EXIT_USAGE", "EXIT_INTERNAL"]
