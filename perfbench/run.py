"""Benchmark for cyclicdensity: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from the root of a checkout; the library is taken from src/.  Each pass
of a workload runs in a fresh worker process (perfbench/worker.py) that
calls cyclicdensity.cli.main in-process, one call after the other.  A run
makes whole passes until --seconds have elapsed, at least one, and reports
medians over them.  Every output is checked: exit codes, a digest of every
stdout against perfbench/golden.json, the sweep totals, and closed-form
cyclic-subgroup counts (perfbench/oracle.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass at parallelism 1 (the p=2 workload adds an untraced p=2
pass) and prints the per-layer metrics of perfbench/tracing.py.  The last
line of stdout is the result object; the line before it holds machine
facts and the per-workload figures (verify_s.*, accept_s, reject_s,
error_rate).  --record-golden rewrites golden.json from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Optional

import oracle
import tables
import tracing

HERE = Path(__file__).resolve().parent
WORK_DIR = "perfbench/.work"
GOLDEN = HERE / "golden.json"
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 4  # cold starts before and again after the passes
SWEEP_GROUPS = 975
SWEEP_EQUALITIES = 775

WORKLOADS = {
    "sweep-256": "the paper's exhaustive claim: 975 catalog groups of order <= 256 at p=1; "
                 "per-group overhead, small-n census and per-coset Fractions",
    "sweep-256-p2": "the same sweep at --parallelism 2: the only workload through the process "
                    "pool; its stdout must equal the p=1 stdout byte for byte",
    "large-verify": "the ROADMAP panel up to n=4096: whole-table n^2 kernels, the rebuilt "
                    "center and its census, the structural closures",
    "import-verify": "seeded relabeled and corrupted Cayley tables: text parsing and the "
                     "exhaustive associativity check; accepts and rejects timed apart",
}

# (spec, metric slug, why it is in the panel)
PANEL = (
    ("symmetric:6", "symmetric-6", "non-abelian, trivial center: per-coset work is one coset"),
    ("almost-extraspecial:1024", "almost-extraspecial-1024",
     "equality case with alpha = 3/4: every corollary check runs"),
    ("heisenberg:11", "heisenberg-11", "odd order p^3: structural condition fails early"),
    ("dihedral:4096", "dihedral-4096",
     "center of order 2: census-bound, the center rebuild is trivial"),
    ("cyclic:4096", "cyclic-4096",
     "Z = G: the center rebuild repeats the n^2 census; longest power walk"),
    ("abelian:2,2,2,2,2,2,2,2,2,2,2,2", "abelian-2x12",
     "Z = G with exponent 2: center rebuild and structural closures dominate"),
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The run could not produce a result."""


@dataclass(frozen=True)
class Call:
    key: str            # golden-digest key
    argv: list
    rc: int             # expected exit code
    verdicts: int       # verdicts the call delivers
    source: Optional[str] = None  # catalog spec a table was derived from


def sweep_calls(parallelism: int) -> list[Call]:
    argv = ["sweep", "--json"]
    if parallelism > 1:
        argv += ["--parallelism", str(parallelism)]
    return [Call("sweep", argv, 0, SWEEP_GROUPS)]


def panel_calls() -> list[Call]:
    return [Call(f"verify {spec}", ["verify", "--group", spec, "--json"], 0, 1)
            for spec, _, _ in PANEL]


def table_calls(seed: int) -> list[Call]:
    sys.path.insert(0, "src")
    from cyclicdensity import build_group
    sources = {spec: build_group(spec).table.tolist() for _, spec, _ in tables.SOURCES}
    cases = tables.generate(seed, Path(WORK_DIR) / "tables", sources)
    return [Call(f"table {c.name}", ["verify", "--group", f"table:{c.path}", "--json"],
                 2 if c.corrupted else 0, 1, c.source)
            for c in cases]


def workload_calls(workload: str, seed: int, traced: bool = False) -> list[Call]:
    if workload == "sweep-256":
        return sweep_calls(1)
    if workload == "sweep-256-p2":
        return sweep_calls(1 if traced else 2)
    if workload == "large-verify":
        return panel_calls()
    return table_calls(seed)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list, deadline: float) -> subprocess.CompletedProcess:
    """Run cmd in its own session; kill the whole session at the deadline."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} did not finish within the run budget")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_pass(calls: list[Call], deadline: float, trace_path: Optional[str] = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           json.dumps([[c.key, c.argv] for c in calls])]
    if trace_path:
        cmd += ["--trace", trace_path]
    proc = run_child(cmd, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def cold_starts(deadline: float, repeats: int) -> list[float]:
    """Wall times of fresh `python -m cyclicdensity verify --group cyclic:1` runs."""
    cmd = [sys.executable, "-m", "cyclicdensity", "verify", "--group", "cyclic:1"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = run_child(cmd, deadline)
        if proc.returncode != 0:
            raise BenchError(f"cold start failed:\n{proc.stderr[-2000:]}")
        times.append(time.perf_counter() - start)
    return times


def check_call(call: Call, result: dict, golden: dict) -> tuple[int, list[str]]:
    """Wrong verdicts among the call's verdicts, and what was wrong."""
    whole = []  # problems that put every verdict of the call in doubt
    if result["rc"] != call.rc:
        whole.append(f"{call.key}: exit {result['rc']}, expected {call.rc}: "
                     f"{result['stderr'][-300:]}")
    if result["stdout_sha256"] != golden.get(call.key):
        whole.append(f"{call.key}: stdout differs from the golden digest")
    if "counterexample" in result["stderr"]:
        whole.append(f"{call.key}: counterexample reported")
    if call.rc != 0:
        if not (result["stdout_empty"] and result["stderr"].startswith("error:")):
            whole.append(f"{call.key}: a rejected table must print only an error")
        return (call.verdicts if whole else 0), whole
    summary = result["summary"]
    if summary is None:
        return call.verdicts, whole + [f"{call.key}: no JSON on stdout"]
    if call.key == "sweep":
        if summary["groups_checked"] != SWEEP_GROUPS or len(summary["reports"]) != SWEEP_GROUPS:
            whole.append(f"sweep: {summary['groups_checked']} groups, expected {SWEEP_GROUPS}")
        if summary["equality_count"] != SWEEP_EQUALITIES:
            whole.append(f"sweep: {summary['equality_count']} equality cases, "
                         f"expected {SWEEP_EQUALITIES}")
        if summary["counterexamples"]:
            whole.append(f"sweep: counterexamples {summary['counterexamples'][:5]}")
    wrong = 0
    problems = list(whole)
    for label, count, alpha_g, _ in summary["reports"]:
        found = oracle.check_report(call.source or label, count, alpha_g)
        wrong += bool(found)
        problems += found
    return (call.verdicts if whole else wrong), problems


def check_runs(runs: list[tuple[list[Call], dict]],
               golden: dict) -> tuple[int, int, list[str]]:
    """Verdicts attempted and wrong over (calls, pass result) pairs, with the problems."""
    attempted = failed = 0
    problems: list[str] = []
    for calls, result in runs:
        for call in calls:
            attempted += call.verdicts
            if call.key not in result["calls"]:
                failed += call.verdicts
                problems.append(f"{call.key}: not run")
                continue
            wrong, found = check_call(call, result["calls"][call.key], golden)
            failed += wrong
            problems += found
    return attempted, failed, problems


def machine_facts(load_at_start: tuple) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "loadavg_1_5_15": list(load_at_start)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def detail_metrics(calls: list[Call], passes: list[dict], attempted: int,
                   failed: int) -> dict:
    """Per-workload figures: medians over passes of per-call and per-kind times."""
    out = {}
    slugs = {f"verify {spec}": slug for spec, slug, _ in PANEL}
    for call in calls:
        if call.key in slugs:
            out[f"verify_s.{slugs[call.key]}"] = metric(
                statistics.median(p["calls"][call.key]["seconds"] for p in passes), "s")
    for kind, rc in (("accept", 0), ("reject", 2)):
        keys = [c.key for c in calls if c.source and c.rc == rc]
        if keys:
            out[f"{kind}_s"] = metric(statistics.median(
                sum(p["calls"][k]["seconds"] for k in keys) for p in passes), "s")
    out["error_rate"] = metric(failed / attempted, "ratio")
    return out


def verdict_counts(result: dict) -> dict:
    groups = equalities = cyclic = 0
    for call in result["calls"].values():
        summary = call["summary"]
        if summary is None:
            continue
        groups += summary.get("groups_checked", 0)
        for _, count, _, equality in summary["reports"]:
            equalities += bool(equality)
            cyclic += count
    return {"sweep.groups": groups, "verify.equality_cases": equalities,
            "density.cyclic_count": cyclic}


def measure(workload: str, seed: int, seconds: float, deadline: float,
            golden: dict) -> tuple[dict, dict, int, int, list[str]]:
    cold_starts(deadline, 1)  # writes the bytecode caches a user's first run leaves
    # Half the set-up samples before the inputs are made and the passes run,
    # half after, so that one burst of load on a shared host does not decide
    # the median.
    setup = cold_starts(deadline, SETUP_REPEATS)
    calls = workload_calls(workload, seed)
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(calls, deadline))
    setup += cold_starts(deadline, SETUP_REPEATS)
    attempted, failed, problems = check_runs([(calls, p) for p in passes], golden)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    detail = detail_metrics(calls, passes, attempted, failed)
    detail["passes"] = metric(len(passes), "count")
    return metrics, detail, attempted, failed, problems


def measure_traced(workload: str, seed: int, seconds: float, deadline: float,
                   golden: dict) -> tuple[dict, dict, int, int, list[str]]:
    """One untraced and one traced pass at p=1; seconds is not used."""
    calls = workload_calls(workload, seed, traced=True)
    plain = run_pass(calls, deadline)
    Path(WORK_DIR).mkdir(parents=True, exist_ok=True)
    spans_path = f"{WORK_DIR}/spans-{workload}-seed{seed}.jsonl"
    traced = run_pass(calls, deadline, trace_path=spans_path)
    runs = [(calls, plain), (calls, traced)]
    values = dict(traced["layers"])
    values.update(verdict_counts(traced))
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["sweep.efficiency"] = values["sweep.overhead_s"] = 0.0
    if workload == "sweep-256-p2":
        p2_calls = workload_calls(workload, seed)
        p2 = run_pass(p2_calls, deadline)
        runs.append((p2_calls, p2))
        values["sweep.efficiency"] = plain["wall_s"] / (2 * p2["wall_s"])
        values["sweep.overhead_s"] = p2["wall_s"] - plain["wall_s"] / 2
    attempted, failed, problems = check_runs(runs, golden)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: metric(values[name], units[name]) for name, _, _ in tracing.PER_LAYER}
    detail = {"spans_file": spans_path, "error_rate": metric(failed / attempted, "ratio"),
              "untraced_wall_s": metric(plain["wall_s"], "s"),
              "traced_wall_s": metric(traced["wall_s"], "s")}
    return metrics, detail, attempted, failed, problems


def record_golden(deadline: float) -> None:
    """Write the stdout digest of every call from the current code."""
    digests = {}
    for calls in (sweep_calls(1), panel_calls(), table_calls(0)):
        result = run_pass(calls, deadline)
        for call in calls:
            got = result["calls"][call.key]
            if got["rc"] != call.rc:
                raise BenchError(f"{call.key}: exit {got['rc']}, expected {call.rc}")
            digests[call.key] = got["stdout_sha256"]
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    load = os.getloadavg()
    if not Path("src/cyclicdensity/__init__.py").is_file():
        sys.stderr.write("error: run from a checkout root that holds src/cyclicdensity\n")
        return 2
    try:
        if args.record_golden:
            record_golden(deadline + 600)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        golden = json.loads(GOLDEN.read_text())
        measure_fn = measure_traced if args.trace else measure
        metrics, detail, attempted, failed, problems = measure_fn(
            args.workload, args.seed, args.seconds, deadline, golden)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine_facts(load), "detail": detail,
                      "problems": problems[:20]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
