"""Run one pass of a benchmark workload in a fresh process.

    python3 perfbench/worker.py CALLS_JSON [--trace SPANS_PATH]

CALLS_JSON is a JSON list of [key, argv] pairs.  Each argv goes through
cyclicdensity.cli.main in this process, one call after the other (a closed
loop), with stdout and stderr captured.  Run from the checkout root; the
library is imported from src/.  With --trace, the layer boundaries are
wrapped first and the spans are written to SPANS_PATH at the end.

Prints one JSON object: per call its exit code, seconds, stdout digest and a
summary of the verdicts; the pass wall time; peak RSS of this process plus
its largest child; and, when traced, the span-based per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def _summary(stdout: str):
    """label, cyclic_count, alpha_g and equality of every verdict printed."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    reports = doc["reports"] if "reports" in doc else [doc]
    out = {"reports": [[r["label"], r["cyclic_count"], r["alpha_g"], r["equality"]]
                       for r in reports]}
    if "reports" in doc:
        out.update(groups_checked=doc["groups_checked"],
                   equality_count=doc["equality_count"],
                   counterexamples=doc["counterexamples"])
    return out


def _run_call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a crash is a wrong verdict, not the end of the pass
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    text = out.getvalue()
    return {"rc": rc, "seconds": seconds,
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stdout_empty": not text, "stderr": err.getvalue()[-2000:],
            "summary": _summary(text) if text else None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("calls")
    parser.add_argument("--trace")
    args = parser.parse_args()
    sys.path.insert(0, "src")
    from cyclicdensity import cli

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results = {}
    start = time.perf_counter()
    for key, argv in json.loads(args.calls):
        results[key] = _run_call(cli, argv)
    wall = time.perf_counter() - start
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    payload = {"calls": results, "wall_s": wall, "peak_rss_mb": kb / 1024}
    if tracer is not None:
        from tracing import span_metrics
        tracer.write(args.trace)
        payload["layers"] = span_metrics(tracer.spans)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
