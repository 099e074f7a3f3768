"""Tests for the benchmark itself: input generator, closed-form oracle,
span folding, output checks, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tables  # noqa: E402
import tracing  # noqa: E402


# Independent constructions: each returns (elements, multiply).

def cyclic(n):
    return list(range(n)), lambda a, b: (a + b) % n


def dihedral(order):
    m = order // 2
    elems = list(product(range(m), (0, 1)))  # r^i s^j

    def mul(x, y):
        (i, j), (k, l) = x, y
        return ((i + (k if j == 0 else -k)) % m, j ^ l)
    return elems, mul


def dicyclic(order):
    m = order // 4
    elems = list(product(range(2 * m), (0, 1)))  # a^i b^j, b a = a^-1 b, b^2 = a^m

    def mul(x, y):
        (i, j), (k, l) = x, y
        if j == 0:
            return ((i + k) % (2 * m), l)
        if l == 0:
            return ((i - k) % (2 * m), 1)
        return ((i - k + m) % (2 * m), 0)
    return elems, mul


def heisenberg(p):
    elems = list(product(range(p), repeat=3))

    def mul(x, y):
        (a, b, c), (d, e, f) = x, y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)
    return elems, mul


def pauli(qubits):
    """i^k X^x Z^z on `qubits` qubits: the almost-extraspecial group of order 2^(2q+2)."""
    elems = list(product(range(4), product((0, 1), repeat=2 * qubits)))

    def mul(u, v):
        (k, xz), (l, xz2) = u, v
        sign = sum(xz[2 * q + 1] * xz2[2 * q] for q in range(qubits))  # Z X = -X Z
        return ((k + l + 2 * sign) % 4, tuple(s ^ t for s, t in zip(xz, xz2)))
    return elems, mul


def brute_cyclic_count(elems, mul):
    identity = next(e for e in elems if all(mul(e, x) == x for x in elems))
    subgroups = set()
    for x in elems:
        members, cur = {identity}, x
        while cur != identity:
            members.add(cur)
            cur = mul(cur, x)
        subgroups.add(frozenset(members))
    return len(subgroups)


def as_table(elems, mul):
    index = {e: i for i, e in enumerate(elems)}
    return [[index[mul(a, b)] for b in elems] for a in elems]


def find_identity(t):
    n = len(t)
    return next(e for e in range(n)
                if t[e] == list(range(n)) and all(t[x][e] == x for x in range(n)))


def is_associative(t):
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


@pytest.mark.parametrize("n", range(1, 41))
def test_cyclic_closed_form(n):
    assert oracle.closed_form_count(f"cyclic:{n}") == brute_cyclic_count(*cyclic(n))


@pytest.mark.parametrize("order", range(4, 41, 2))
def test_dihedral_closed_form(order):
    assert oracle.closed_form_count(f"dihedral:{order}") == brute_cyclic_count(*dihedral(order))


@pytest.mark.parametrize("order", range(8, 49, 4))
def test_quaternion_closed_form(order):
    assert oracle.closed_form_count(f"quaternion:{order}") == brute_cyclic_count(*dicyclic(order))


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_closed_form(p):
    assert oracle.closed_form_count(f"heisenberg:{p}") == brute_cyclic_count(*heisenberg(p))


@pytest.mark.parametrize("qubits", [1, 2])
def test_almost_extraspecial_alpha(qubits):
    elems, mul = pauli(qubits)
    alpha = Fraction(brute_cyclic_count(elems, mul), len(elems))
    assert alpha == oracle.closed_form_alpha(f"almost-extraspecial:{len(elems)}")


def test_check_report_flags_wrong_counts():
    assert oracle.check_report("cyclic:12", 6, "1/2") == []
    assert oracle.check_report("cyclic:12", 7, "7/12")
    assert oracle.check_report("almost-extraspecial:64", 48, "3/4") == []
    assert oracle.check_report("almost-extraspecial:64", 47, "47/64")
    assert oracle.check_report("symmetric:4", 17, "17/24") == []  # no closed form


def small_sources():
    small = {"heisenberg:7": heisenberg(3), "symmetric:6": dihedral(12),
             "almost-extraspecial:1024": pauli(1)}
    return {spec: as_table(*small[spec]) for _, spec, _ in tables.SOURCES}


def generated_bytes(seed, tmp_path):
    out = tmp_path / f"seed{seed}"
    cases = tables.generate(seed, out, small_sources())
    return cases, {c.name: (out / f"{c.name}.txt").read_bytes() for c in cases}


def test_generator_is_deterministic_per_seed(tmp_path):
    cases_a, files_a = generated_bytes(7, tmp_path / "a")
    cases_b, files_b = generated_bytes(7, tmp_path / "b")
    _, files_c = generated_bytes(8, tmp_path / "c")
    facts = [[(c.name, c.source, c.corrupted, c.witness) for c in cases]
             for cases in (cases_a, cases_b)]
    assert facts[0] == facts[1] and files_a == files_b
    assert files_a != files_c
    assert [c.name for c in cases_a] == [
        "heisenberg-7", "heisenberg-7-corrupt", "symmetric-6", "symmetric-6-corrupt",
        "almost-extraspecial-1024", "almost-extraspecial-1024-corrupt"]


def parse(text):
    lines = text.split("\n")
    return [list(map(int, line.split())) for line in lines[1:int(lines[0]) + 1]]


def test_generated_tables_are_relabelings_and_corruptions(tmp_path):
    sources = small_sources()
    cases, files = generated_bytes(3, tmp_path)
    for case in cases:
        t = parse(files[case.name].decode())
        assert find_identity(t) != 0
        if case.corrupted:
            x, y, z = case.witness
            assert t[t[x][y]][z] != t[x][t[y][z]]
            assert not is_associative(t)
        else:
            assert is_associative(t)
            counts = brute_cyclic_count(range(len(t)), lambda a, b: t[a][b])
            base = sources[case.source]
            assert counts == brute_cyclic_count(range(len(base)), lambda a, b: base[a][b])


def test_relabeling_is_a_permutation_moving_the_identity():
    import random
    for n in (2, 3, 10, 50):
        for seed in range(20):
            perm = tables.relabeling(n, random.Random(seed))
            assert tables.is_permutation(perm, n) and perm[0] != 0


def test_span_metrics_self_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1],
        ["verify.full_report", 1.0, 9.0, 0, 1],
        ["density.census", 2.0, 5.0, 1, 1],
        ["groups.center", 5.0, 6.0, 1, 1],
        ["groups.center_rebuild", 6.0, 7.5, 1, 1],
        ["density.census_center", 7.5, 8.0, 1, 1],
    ]
    m = tracing.span_metrics(spans)
    assert m["verify.report_self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["density.self_s"] == pytest.approx(3.5)
    assert m["groups.self_s"] == pytest.approx(2.5)
    assert m["density.census_center_s"] == pytest.approx(0.5)
    assert m["verify.full_report_p50_ms"] == pytest.approx(8000.0)
    assert m["trace.spans"] == 6


def verify_result(rc=0, count=2060, stdout_digest="d", stderr=""):
    return {"rc": rc, "seconds": 1.0, "stdout_sha256": stdout_digest,
            "stdout_empty": rc != 0, "stderr": stderr,
            "summary": None if rc else {"reports": [["dihedral:4096", count, "515/1024", False]]}}


def test_check_call_counts_wrong_verdicts():
    call = run.Call("verify dihedral:4096", [], 0, 1)
    golden = {call.key: "d"}
    assert run.check_call(call, verify_result(), golden) == (0, [])
    assert run.check_call(call, verify_result(count=2059), golden)[0] == 1
    assert run.check_call(call, verify_result(stdout_digest="x"), golden)[0] == 1
    assert run.check_call(call, verify_result(rc=1), golden)[0] == 1
    reject = run.Call("table t-corrupt", [], 2, 1, "symmetric:6")
    empty = {reject.key: "d"}
    assert run.check_call(reject, verify_result(rc=2, stderr="error: x"), empty) == (0, [])
    assert run.check_call(reject, verify_result(rc=0, stderr=""), empty)[0] == 1
    assert run.check_call(reject, verify_result(rc=1, stderr="error: x"), empty)[0] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]
    span_based = set(tracing.span_metrics([]))
    run_based = {"sweep.groups", "verify.equality_cases", "density.cyclic_count",
                 "trace.overhead_s", "sweep.efficiency", "sweep.overhead_s"}
    assert span_based | run_based == {name for name, _, _ in tracing.PER_LAYER}


def test_golden_covers_every_call():
    golden = json.loads(run.GOLDEN.read_text())
    keys = {c.key for c in run.sweep_calls(1) + run.panel_calls()}
    keys |= {f"table {stem}{suffix}" for stem, _, _ in tables.SOURCES
             for suffix in ("", "-corrupt")}
    assert keys == set(golden)
