"""The fixed-schema JSON writer of `verify --json` and `sweep --json`,
against its reference: json.dumps(..., indent=2) of report_to_dict and of
the sweep payload, plus a newline."""

from __future__ import annotations

import dataclasses
import io
import json
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclicdensity import SweepConfig, build_group, cli, full_report, run_sweep
from cyclicdensity.sweep import SweepResult
from cyclicdensity.verify import CosetCheck
from cyclicdensity.groups import FiniteGroup
from cyclicdensity.sweep import SWEEP_FAMILIES
from table_oracle import with_orders


def tampered(spec: str, x: int, o: int) -> FiniteGroup:
    g = build_group(spec)
    ords = g.ord.copy()
    ords[x] = o
    return with_orders(g, ords, f"tampered:{spec}")


REPORTS = (
    [full_report(build_group(spec)) for spec in (
        "cyclic:1", "abelian:2,4", "dihedral:8", "dihedral:24", "quaternion:16",
        "symmetric:4", "almost-extraspecial:16", "heisenberg:3")]
    # reports with findings
    + [full_report(tampered("dihedral:8", 4, 4)), full_report(tampered("quaternion:8", 1, 1009))]
)


def sweep_reference(result: SweepResult) -> str:
    """The payload and encoding `sweep --json` had before the writer."""
    payload = {
        "max_order": result.config.max_order,
        "families": list(result.config.families),
        "groups_checked": len(result.reports),
        "equality_count": len(result.equality_labels),
        "equality_cases": list(result.equality_labels),
        "counterexamples": list(result.counterexamples),
        "reports": [cli.report_to_dict(r) for r in result.reports],
    }
    return json.dumps(payload, indent=2) + "\n"


def sweep_written(result: SweepResult) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._write_sweep_json(result)
    return buf.getvalue()


def sweep_result(reports, families=SWEEP_FAMILIES, max_order=256) -> SweepResult:
    return SweepResult(SweepConfig(max_order=max_order, families=tuple(families)),
                       tuple(reports))


# table: paths carry any text, including quotes, backslashes, control
# characters and non-ASCII, which json.dumps escapes
labels = st.text().map(lambda path: f"table:{path}")
checks = st.builds(
    CosetCheck, k=st.integers(1, 10 ** 12), coset_sum=st.fractions(),
    order_identity=st.booleans(), divisibility=st.booleans(),
    coset_inequality=st.booleans(), is_center=st.booleans())


@st.composite
def reports(draw):
    """A real report, relabeled; some with their free fields redrawn."""
    r = dataclasses.replace(draw(st.sampled_from(REPORTS)), label=draw(labels))
    if draw(st.booleans()):
        r = dataclasses.replace(
            r, proof_steps=tuple(draw(st.lists(checks, max_size=4))),
            structural=draw(st.booleans()), two_central=draw(st.booleans()),
            four_abelian=draw(st.booleans()),
            quotient_exponent=draw(st.integers(0, 10 ** 12)))
    return r


@settings(max_examples=200, deadline=None)
@given(reports())
@example(dataclasses.replace(REPORTS[2], label='table:dir "x"\\t\x00\n\u00e9\u2603\U0001f600.txt'))
def test_report_writer_matches_json_dumps(report):
    expected = json.dumps(cli.report_to_dict(report), indent=2)
    assert cli._report_json(report, json.dumps(report.label)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(reports(), max_size=5),
       st.lists(st.sampled_from(SWEEP_FAMILIES), min_size=1, unique=True),
       st.integers(1, 10 ** 9))
def test_sweep_writer_matches_json_dumps(items, families, max_order):
    result = sweep_result(items, families, max_order)
    assert sweep_written(result) == sweep_reference(result)


@pytest.mark.parametrize("specs", [
    (),  # no reports at all
    ("dihedral:8", "symmetric:4"),  # neither an equality case nor a counterexample
    ("cyclic:4", "abelian:2,2"),  # equality cases only
])
def test_sweep_writer_on_empty_lists(specs):
    result = sweep_result([full_report(build_group(s)) for s in specs])
    assert sweep_written(result) == sweep_reference(result)


def test_sweep_writer_matches_reference_on_a_real_sweep():
    result = run_sweep(SweepConfig(max_order=32))
    assert sweep_written(result) == sweep_reference(result)


def test_writers_need_only_json_dumps(monkeypatch, capsys):
    # the traced benchmark leaves cli only json.dumps; the output is unchanged
    calls = (["sweep", "--max-order", "12", "--json"], ["verify", "--group", "dihedral:8", "--json"])
    plain = []
    for argv in calls:
        assert cli.main(argv) == 0
        plain.append(capsys.readouterr().out)
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=json.dumps))
    for argv, out in zip(calls, plain):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out
