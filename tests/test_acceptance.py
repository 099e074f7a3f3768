"""Acceptance suite: ten criteria, one test per criterion.

Run with `pytest -v` to get one pass/fail line per criterion.  Tolerances:
all rational comparisons are exact (fractions.Fraction equality); the two
runtime walls are 1 s for the spot density computation and 60 s for the
full sweep at parallelism 4.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from census_oracle import per_coset_findings
from cyclicdensity import (
    alpha,
    average_order,
    build_group,
    center,
    cyclic_subgroups,
    full_report,
    load_table_with_report,
)
from cyclicdensity import cli as cli_module
from cyclicdensity.sweep import SweepConfig, run_sweep
from cyclicdensity.verify import per_coset_analysis
from table_oracle import group_exponent, relabeled_copy, with_orders

SWEEP_WALL_SECONDS = 60.0
SPOT_WALL_SECONDS = 1.0


@pytest.fixture(scope="module")
def corpus():
    """The default corpus: full catalog sweep to order 256 at parallelism 4,
    plus symmetric:6 (symmetric:5 is already inside the bound)."""
    t0 = time.monotonic()
    result = run_sweep(SweepConfig(max_order=256, parallelism=4))
    s6 = full_report(build_group("symmetric:6"))
    elapsed = time.monotonic() - t0
    assert any(r.label == "symmetric:5" for r in result.reports)
    return SimpleNamespace(result=result, reports=result.reports + (s6,),
                           elapsed=elapsed)


def test_criterion_01_almost_extraspecial_alpha_three_quarters():
    t0 = time.monotonic()
    for order in (16, 64, 256):
        g = build_group(f"almost-extraspecial:{order}")
        assert alpha(g) == Fraction(3, 4), order
        assert per_coset_findings(g).total / g.n == Fraction(3, 4), order
        assert per_coset_analysis(g, center(g)).total / g.n == Fraction(3, 4), order
        z = center(g)
        assert len(z) == 4 and group_exponent(z.as_group()) == 4  # center is Z4
        assert alpha(z.as_group()) == Fraction(3, 4), order
    elapsed = time.monotonic() - t0
    assert elapsed < SPOT_WALL_SECONDS, f"took {elapsed:.2f}s"


def test_criterion_02_inequality_sweep_corpus_256(corpus):
    violations = [r.label for r in corpus.reports if not r.inequality_holds]
    assert violations == [], violations
    assert corpus.elapsed < SWEEP_WALL_SECONDS, f"sweep took {corpus.elapsed:.1f}s"
    assert len(corpus.reports) > 900  # the corpus really is the full catalog


def test_criterion_03_equivalence_sweep(corpus):
    mismatched = [r.label for r in corpus.reports if r.equality != r.structural]
    assert mismatched == [], mismatched
    equal = {r.label for r in corpus.reports if r.equality}
    for r in corpus.reports:
        if r.label.split(":")[0] in ("cyclic", "abelian", "almost-extraspecial"):
            assert r.label in equal, f"{r.label} must be an equality case"
    for label in ("dihedral:8", "quaternion:8", "quaternion:16",
                  "extraspecial:32:+", "extraspecial:32:-",
                  "symmetric:3", "symmetric:4", "symmetric:5", "symmetric:6",
                  "heisenberg:3", "heisenberg:5"):
        assert label not in equal, f"{label} must not be an equality case"


def test_criterion_04_count_identity_and_decomposition(corpus):
    for r in corpus.reports:
        assert r.count_identity, r.label
        assert sum(c.coset_sum for c in r.proof_steps) == r.cyclic_count, r.label


def test_criterion_05_per_coset_proof_steps(corpus):
    witnesses = []
    for r in corpus.reports:
        for c in r.proof_steps:
            if not (c.coset_inequality and c.order_identity and c.divisibility):
                witnesses.append((r.label, c))
        witnesses.extend((r.label, f) for f in r.findings
                         if f.startswith(("order-identity", "totient-divisibility",
                                          "coset-inequality")))
    if witnesses:
        for label, w in witnesses:
            print(f"counterexample witness: {label}: {w}")
    assert witnesses == []


def test_criterion_06_equality_consequences(corpus):
    for r in corpus.reports:
        if not r.equality:
            continue
        assert all(c.k == 2 for c in r.proof_steps if not c.is_center), r.label
        assert 2 % r.quotient_exponent == 0, r.label  # exponent divides 2
        assert r.two_central, r.label
        assert r.four_abelian, r.label
        if r.order % 2 == 1:
            g = build_group(r.label)
            assert len(center(g)) == g.n, r.label


def test_criterion_07_average_order_inequality(corpus):
    violations = [r.label for r in corpus.reports if not r.avg_inequality_holds]
    assert violations == []


def test_criterion_08_relabeling_invariance_via_import(tmp_path):
    rng = np.random.default_rng(88)
    cases = [build_group(s) for s in ("dihedral:8", "quaternion:8", "almost-extraspecial:16")]
    for g in cases:
        baseline = dataclasses.asdict(full_report(g))
        baseline.pop("label")
        for trial in range(20):
            sigma = rng.permutation(g.n).astype(np.int32)
            inv = np.empty(g.n, dtype=np.int32)
            inv[sigma] = np.arange(g.n, dtype=np.int32)
            permuted = sigma[g.table][np.ix_(inv, inv)]
            path = tmp_path / f"{g.label.replace(':', '_')}_{trial}.txt"
            path.write_text(
                f"{g.n}\n" + "\n".join(" ".join(map(str, row)) for row in permuted) + "\n"
            )
            loaded, _ = load_table_with_report(path)
            got = dataclasses.asdict(full_report(loaded))
            got.pop("label")
            assert got == baseline, (g.label, trial)


def test_criterion_08_relabeling_invariance_across_the_corpus(corpus):
    # a fast path that leans on the catalog's id layout fails here: each
    # group, relabeled with its identity off id 0, goes through
    # validate_table_with_report
    rng = np.random.default_rng(975)
    assert len(corpus.result.reports) == 975
    for report in corpus.result.reports:
        g = build_group(report.label)
        sigma = rng.permutation(g.n)
        if g.n > 1 and sigma[0] == 0:
            sigma[[0, 1]] = sigma[[1, 0]]
        got = full_report(relabeled_copy(g, sigma, "relabeled"))
        assert dataclasses.replace(got, label=report.label) == report, report.label


def test_criterion_09_frozen_spot_values():
    assert alpha(build_group("symmetric:3")) == Fraction(5, 6)
    assert alpha(build_group("quaternion:8")) == Fraction(5, 8)
    assert alpha(build_group("dihedral:8")) == Fraction(7, 8)
    assert alpha(build_group("cyclic:4")) == Fraction(3, 4)
    assert alpha(build_group("abelian:2,2")) == Fraction(1)
    assert cyclic_subgroups(build_group("almost-extraspecial:16")).count == 12
    assert average_order(build_group("symmetric:3")) == Fraction(13, 6)


def test_criterion_10_error_path_contract(tmp_path, monkeypatch, capsys):
    # non-associative table import: exit 2 and a witness triple on stderr
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 2\n1 2 0\n2 0 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cyclicdensity", "import", "--table", str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert re.search(r"\(\d+\*\d+\)\*\d+", proc.stderr), proc.stderr

    # impossible family parameter: exit 2 via SpecSyntaxError
    proc = subprocess.run(
        [sys.executable, "-m", "cyclicdensity", "verify", "--group",
         "extraspecial:24:+"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "extraspecial" in proc.stderr

    # injected-fault double: a group whose stored orders lie must make
    # verify report a counterexample and exit 1
    real = build_group("dihedral:8")
    bad_ord = real.ord.copy()
    bad_ord[4] = 4
    double = with_orders(real, bad_ord, "dihedral:8")
    monkeypatch.setattr(cli_module, "build_group", lambda *a, **k: double)
    code = cli_module.main(["verify", "--group", "dihedral:8"])
    captured = capsys.readouterr()
    assert code == 1
    assert "counterexample" in captured.err
