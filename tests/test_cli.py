"""CLI contract: output formats, exit codes, determinism."""

import dataclasses
import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from cyclicdensity import AlphaReport, build_group, catalog, cli
from cyclicdensity.verify import CosetCheck

REPORT_KEYS = [
    "label", "order", "cyclic_count", "alpha_g", "alpha_z", "equality",
    "structural", "quotient_exponent", "two_central", "four_abelian",
    "avg_order_g", "avg_order_z", "proof_steps",
]

STEP_KEYS = ["k", "sum", "order_identity", "divisibility",
             "coset_inequality", "is_center"]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cyclicdensity", *args],
        capture_output=True, text=True,
    )


def test_alpha_text():
    proc = run_cli("alpha", "--group", "dihedral:8")
    assert proc.returncode == 0
    assert "cyclic subgroups: 7" in proc.stdout
    assert "alpha (enumeration): 7/8" in proc.stdout
    assert "alpha (totient sum): 7/8" in proc.stdout
    assert "average order: 19/8" in proc.stdout


def test_alpha_text_shows_decimal_approximations():
    proc = run_cli("alpha", "--group", "almost-extraspecial:16")
    assert proc.returncode == 0
    assert "alpha (enumeration): 3/4 (approx 0.750000)" in proc.stdout
    assert "alpha(Z): 3/4 (approx 0.750000)" in proc.stdout
    assert "average order of Z:" in proc.stdout


def test_alpha_json():
    proc = run_cli("alpha", "--group", "quaternion:8", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["alpha_enumeration"] == "5/8"
    assert payload["alpha_totient"] == "5/8"
    assert payload["routes_agree"] is True
    assert payload["alpha_z"] == "1/1"
    assert payload["avg_order"] == "27/8"
    assert payload["avg_order_z"] == "3/2"


def test_verify_text_passes():
    proc = run_cli("verify", "--group", "almost-extraspecial:16")
    assert proc.returncode == 0
    assert "equality: yes" in proc.stdout
    assert "structural condition: yes" in proc.stdout
    assert "findings: none" in proc.stdout


def test_verify_json_schema():
    proc = run_cli("verify", "--group", "dihedral:8", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert list(payload.keys()) == REPORT_KEYS
    assert payload["alpha_g"] == "7/8"
    assert payload["alpha_z"] == "1/1"
    assert payload["equality"] is False
    for step in payload["proof_steps"]:
        assert list(step.keys()) == STEP_KEYS
    assert payload["proof_steps"][0]["is_center"] is True


def test_verify_csv():
    proc = run_cli("verify", "--group", "quaternion:8", "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == ",".join(REPORT_KEYS)
    assert len(lines) == 2
    assert lines[1].startswith("quaternion:8,8,5,5/8,1/1,")
    assert "k=4 sum=1/1 flags=+++" in lines[1]


def test_each_report_field_has_one_row():
    # every format reads the one field table, so a field missing from it, or
    # listed twice, would drop or repeat that field in every format
    fields = {f.name for f in dataclasses.fields(AlphaReport)} - {"proof_steps", "findings"}
    # the verdicts derived from the fractions are report fields too
    fields |= {name for name, value in vars(AlphaReport).items()
               if isinstance(value, property) and name != "clean"}
    assert {"inequality_holds", "equality", "avg_inequality_holds"} <= fields
    assert sorted(row[0] for row in cli._FIELDS) == sorted(fields)
    assert sorted(row[0] for row in cli._STEP_FIELDS) == sorted(
        f.name for f in dataclasses.fields(CosetCheck))
    for table in (cli._FIELDS, cli._STEP_FIELDS):
        for column in zip(*table):
            names = [x for x in column if isinstance(x, str)]
            assert len(set(names)) == len(names), names
    assert list(cli._REPORT_COLUMNS) == REPORT_KEYS


def test_verify_json_csv_mutually_exclusive():
    proc = run_cli("verify", "--group", "cyclic:4", "--json", "--csv")
    assert proc.returncode == 2


def test_verify_product_spec():
    proc = run_cli("verify", "--group", "product:(cyclic:3)x(quaternion:8)")
    assert proc.returncode == 0
    assert "order: 24" in proc.stdout


def test_sweep_text_small():
    proc = run_cli("sweep", "--max-order", "16")
    assert proc.returncode == 0
    assert "counterexamples: 0" in proc.stdout
    assert "result: PASS" in proc.stdout


def test_sweep_json_deterministic_across_parallelism():
    runs = [
        run_cli("sweep", "--max-order", "20", "--json"),
        run_cli("sweep", "--max-order", "20", "--json"),
        run_cli("sweep", "--max-order", "20", "--json", "--parallelism", "3"),
    ]
    assert all(p.returncode == 0 for p in runs)
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["counterexamples"] == []
    assert payload["groups_checked"] == len(payload["reports"])
    for rep in payload["reports"]:
        assert list(rep.keys()) == REPORT_KEYS


def test_sweep_fail_fast_stops_at_the_first_counterexample(monkeypatch, capsys):
    # the pool forks on Linux, so the workers inherit the patched full_report
    from cyclicdensity import sweep

    real = sweep.full_report

    def flag_dihedral_8(g):
        report = real(g)
        if report.label != "dihedral:8":
            return report
        return dataclasses.replace(report, findings=("injected: a finding",))

    monkeypatch.setattr(sweep, "full_report", flag_dihedral_8)
    corpus = sweep.corpus_specs(sweep.SweepConfig(max_order=16))
    checked = list(corpus[:corpus.index("dihedral:8") + 1])
    assert len(checked) < len(corpus)
    outs = []
    for parallelism in ("1", "2"):
        argv = ["sweep", "--max-order", "16", "--fail-fast", "--json",
                "--parallelism", parallelism]
        assert cli.main(argv) == cli.EXIT_COUNTEREXAMPLE == 1
        out, err = capsys.readouterr()
        assert err == "counterexample: dihedral:8\n"
        payload = json.loads(out)
        assert [r["label"] for r in payload["reports"]] == checked
        assert payload["counterexamples"] == ["dihedral:8"]
        outs.append(out)
    assert outs[0] == outs[1]


def test_sweep_csv_format():
    proc = run_cli("sweep", "--max-order", "8", "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == ",".join(REPORT_KEYS)
    assert len(lines) > 10


def test_sweep_families_filter():
    proc = run_cli("sweep", "--max-order", "64", "--families", "heisenberg", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert [r["label"] for r in payload["reports"]] == ["heisenberg:3"]


def test_sweep_unknown_family_exits_2():
    proc = run_cli("sweep", "--families", "sporadic")
    assert proc.returncode == 2
    assert "sporadic" in proc.stderr


@pytest.mark.parametrize("families", ["", "cyclic,"])
def test_sweep_empty_family_name_exits_2(capsys, families):
    # an explicit empty name is refused, not read as "every family"
    assert cli.main(["sweep", "--families", families, "--max-order", "4"]) == 2
    assert capsys.readouterr() == ("", "error: cannot sweep families: ''\n")


def test_import_identity_at_zero(tmp_path, capsys):
    # in process, so a line trace of the tests reaches the unchanged-labels branch
    f = tmp_path / "q8.txt"
    rows = build_group("quaternion:8").table.tolist()
    f.write_text("8\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    assert cli.main(["import", "--table", str(f)]) == 0
    assert capsys.readouterr() == (
        f"loaded: table:{f}\norder: 8\nidentity already at id 0; labels unchanged\n", "")


def test_import_reindexes(tmp_path):
    f = tmp_path / "z3.txt"
    f.write_text("3\n2 0 1\n0 1 2\n1 2 0\n")  # identity at id 1
    proc = run_cli("import", "--table", str(f), "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["reindexed"] is True
    assert payload["reindex_map"][1] == 0


def test_import_rejects_nonassociative(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3\n0 1 2\n1 2 0\n2 0 2\n")
    proc = run_cli("import", "--table", str(f))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


TABLE_COMMANDS = [lambda f: ["import", "--table", str(f)],
                  lambda f: ["verify", "--group", f"table:{f}"]]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=["import", "verify"])
def test_undecodable_table_exits_2(tmp_path, argv):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"2\n0 1\n1 \xff0\n")
    proc = run_cli(*argv(f))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {f}: byte 8 is not valid UTF-8\n"


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=["import", "verify"])
def test_table_over_cap_is_refused_before_its_rows(tmp_path, argv):
    f = tmp_path / "big.txt"
    f.write_text("4097\n0 1 junk\n")
    proc = run_cli(*argv(f))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: table 'table:{f}' has order 4097, over the cap 4096\n"
    proc = run_cli(*argv(f), "--size-override")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: line 2: token 'junk' is not an integer\n"


@pytest.mark.parametrize("text", ["1\n\n\n", "1" * 5000 + "\n0\n"],
                         ids=["no rows", "5000-digit order"])
def test_a_malformed_table_prints_one_error_line(tmp_path, text):
    # neither a warning of the whole-array read nor an int() fault of the
    # order reaches stderr: the loop names the file's fault, and exits 2
    f = tmp_path / "bad.txt"
    f.write_text(text)
    proc = run_cli("import", "--table", str(f))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_import_missing_file_exits_2():
    proc = run_cli("import", "--table", "/nonexistent/zzz.txt")
    assert proc.returncode == 2


def test_bad_spec_exits_2():
    for spec in ("extraspecial:24:+", "nonsense:4", "dihedral:7", "cyclic:"):
        proc = run_cli("verify", "--group", spec)
        assert proc.returncode == 2, spec
        assert "error:" in proc.stderr


def timed_verify(spec):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cyclicdensity", "verify", "--group", spec],
                          capture_output=True, text=True, timeout=60)
    return proc, time.perf_counter() - start


def test_a_huge_heisenberg_prime_exits_2_as_soon_as_a_small_one():
    # the rule settles 2^61 - 1 without trial division, so its order p^3
    # meets the size check as soon as heisenberg:41's does
    elapsed = {}
    for p in (41, 2 ** 61 - 1):
        proc, elapsed[p] = timed_verify(f"heisenberg:{p}")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: heisenberg:{p} has order {p ** 3}, over 65535, "
                               f"the most that 16-bit table ids can number\n")
    assert elapsed[2 ** 61 - 1] < elapsed[41] + 1


@pytest.mark.parametrize("p, refusal", [
    (2 ** 89 - 1, "heisenberg:{p} has order {cube}, over 65535, "
                  "the most that 16-bit table ids can number"),
    ((2 ** 89 - 1) * (2 ** 61 - 1), "heisenberg parameter must be an odd prime, got {p}"),
], ids=["prime", "composite"])
def test_heisenberg_parameters_past_the_prime_test_bound_exit_2_at_once(p, refusal):
    # past arith._MR_BOUND the rule runs the strong probable-prime test
    # alone: the prime 2^89 - 1 passes it and is refused by size, and
    # (2^89 - 1)(2^61 - 1) fails a base; each as soon as heisenberg:41
    proc, elapsed = timed_verify(f"heisenberg:{p}")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {refusal.format(p=p, cube=p ** 3)}\n"
    small, small_elapsed = timed_verify("heisenberg:41")
    assert small.returncode == 2
    assert elapsed < small_elapsed + 1, (elapsed, small_elapsed)


def test_size_cap_and_override():
    import os

    # symmetric:7 (order 5040) sits above the default 4096 cap
    proc = run_cli("verify", "--group", "symmetric:7")
    assert proc.returncode == 2
    assert "cap" in proc.stderr

    env = dict(os.environ, CYCLIC_DENSITY_MAX_ORDER="16")
    blocked = subprocess.run(
        [sys.executable, "-m", "cyclicdensity", "verify", "--group", "dihedral:32"],
        capture_output=True, text=True, env=env,
    )
    assert blocked.returncode == 2 and "cap" in blocked.stderr
    allowed = subprocess.run(
        [sys.executable, "-m", "cyclicdensity", "verify", "--group", "dihedral:32",
         "--size-override"],
        capture_output=True, text=True, env=env,
    )
    assert allowed.returncode == 0
    assert "order: 32" in allowed.stdout


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("argv", [["verify", "--group", "cyclic:4"],
                                  ["alpha", "--group", "cyclic:4"]])
def test_malformed_size_cap_exits_2(argv, value, monkeypatch, capsys):
    # a bad cap is a usage error, never exit 1 (the counterexample code)
    from cyclicdensity import cli

    monkeypatch.setenv("CYCLIC_DENSITY_MAX_ORDER", value)
    assert cli.main(argv) == cli.EXIT_USAGE == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: CYCLIC_DENSITY_MAX_ORDER must be")


def test_missing_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_verify_table_spec(tmp_path):
    f = tmp_path / "d8.txt"
    rows = build_group("dihedral:8").table.tolist()
    f.write_text("8\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    proc = run_cli("verify", "--group", f"table:{f}", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["cyclic_count"] == 7
    assert payload["label"] == f"table:{f}"


def test_internal_fault_exits_3(monkeypatch, capsys):
    # exit 1 is reserved for a counterexample, so an internal fault is 3
    from cyclicdensity import cli

    def out_of_memory(g):
        raise MemoryError("table too large")

    monkeypatch.setattr(cli, "full_report", out_of_memory)
    assert cli.main(["verify", "--group", "dihedral:8"]) == cli.EXIT_INTERNAL == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: MemoryError: table too large\n"


def test_a_builder_fault_exits_3(monkeypatch, capsys):
    # a fill that misplaces the identity breaks _build's premise: a fault
    # of the program, not of its input
    test, rule, order, fill = catalog._FAMILIES["cyclic"]

    def swapped(n):
        sigma = np.arange(n, dtype=np.uint16)
        sigma[[0, 1]] = 1, 0
        return sigma[fill(n)][np.ix_(sigma, sigma)]

    monkeypatch.setitem(catalog._FAMILIES, "cyclic", (test, rule, order, swapped))
    assert cli.main(["verify", "--group", "cyclic:4"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr() == ("", (
        "internal error: ValueError: 'cyclic:4' is no group with identity 0: "
        "every row holds 0, but x^4 is not 0 for x = 1\n"))


def test_oversized_header_under_size_override_allocates_no_table(tmp_path, capsys):
    # a header of 46000 fits no n x n table in 10 bytes: the loop names line 2
    from cyclicdensity import cli

    f = tmp_path / "big.txt"
    f.write_text("46000\n0 1\n")
    tracemalloc.start()
    try:
        rc = cli.main(["import", "--table", str(f), "--size-override"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", "error: line 2: expected 46000 entries, got 2\n")
    assert peak < 1 << 20, peak


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # main builds its parser once per process; build_parser gives a new one
    from cyclicdensity import cli

    f = tmp_path / "q8.txt"
    rows = build_group("quaternion:8").table.tolist()
    perm = [3, 0, 1, 2, 7, 4, 5, 6]
    moved = [[0] * 8 for _ in range(8)]
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            moved[perm[a]][perm[b]] = perm[v]
    f.write_text("8\n" + "\n".join(" ".join(map(str, r)) for r in moved) + "\n")
    outs = []
    for argv in (["verify", "--group", "dihedral:8"], ["import", "--table", str(f)],
                 ["verify", "--group", f"table:{f}", "--csv"]):
        rc = cli.main(argv)
        outs.append(capsys.readouterr().out)
        fresh = run_cli(*argv)
        assert (rc, outs[-1]) == (fresh.returncode, fresh.stdout), argv
    assert "identity moved to id 0" in outs[1]
    assert cli.build_parser() is not cli.build_parser()
