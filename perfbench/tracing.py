"""Span tracing for the traced benchmark run, from outside the library.

install() replaces, in the calling module's namespace, each function that
one layer of cyclicdensity (cli, sweep, catalog, groups, density, verify)
calls in the layer below, plus the phases of verify.full_report.  Every
call then records a span [name, start, end, parent index, request id].
Spans stay in memory; the worker writes them out when the pass ends.

A request is one CLI call, and inside a sweep one group (build + report).
"""

from __future__ import annotations

import json
import time
import types
from typing import Callable, Union

# Per-layer metrics in output order: (name, unit, the end-to-end metric and
# workload it should move).  Metrics a workload does not exercise read 0.
PER_LAYER = (
    ("catalog.build_s", "s", "wall_s on sweep-256; verify_s.cyclic-4096"),
    ("catalog.load_s", "s", "reject_s"),
    ("catalog.parse_s", "s", "reject_s"),
    ("groups.validate_s", "s", "accept_s"),
    ("groups.center_s", "s", "verify_s.abelian-2x12; verify_s.cyclic-4096"),
    ("groups.center_rebuild_s", "s", "verify_s.abelian-2x12; verify_s.cyclic-4096"),
    ("groups.quotient_s", "s", "none"),
    ("density.census_s", "s",
     "verify_s.cyclic-4096; verify_s.dihedral-4096; wall_s on sweep-256"),
    ("density.census_center_s", "s",
     "verify_s.cyclic-4096; verify_s.abelian-2x12; not verify_s.dihedral-4096"),
    ("density.totient_s", "s", "none"),
    ("verify.per_coset_s", "s", "wall_s on sweep-256"),
    ("verify.structural_s", "s", "verify_s.cyclic-4096; verify_s.abelian-2x12"),
    ("verify.two_central_s", "s", "none"),
    ("verify.four_abelian_s", "s", "none"),
    ("verify.report_self_s", "s", "none"),
    ("verify.full_report_p50_ms", "ms", "wall_s on sweep-256"),
    ("verify.full_report_p99_ms", "ms", "wall_s on sweep-256"),
    ("verify.full_report_calls", "count", "sample count of the two above"),
    ("sweep.efficiency", "ratio", "wall_s on sweep-256-p2"),
    ("sweep.overhead_s", "s", "wall_s on sweep-256-p2"),
    ("cli.emit_s", "s", "wall_s on sweep-256"),
    ("catalog.self_s", "s", "layer total"),
    ("groups.self_s", "s", "layer total"),
    ("density.self_s", "s", "layer total"),
    ("verify.self_s", "s", "layer total"),
    ("sweep.self_s", "s", "layer total"),
    ("cli.self_s", "s", "layer total"),
    ("sweep.groups", "count", "repeats exactly: 975 on the sweeps"),
    ("verify.equality_cases", "count", "repeats exactly: 775 on the sweeps"),
    ("density.cyclic_count", "count", "repeats exactly: sum of |C(G)| per pass"),
    ("trace.spans", "count", "repeats exactly per workload"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s"),
)

LAYERS = ("catalog", "groups", "density", "verify", "sweep", "cli")

# (module, attribute, span name, whether the call starts a new request)
BOUNDARIES = (
    ("cli", "main", "cli.main", True),
    ("cli", "build_group", "catalog.build_group", False),
    ("cli", "run_sweep", "sweep.run_sweep", False),
    ("cli", "full_report", "verify.full_report", False),
    ("cli", "report_to_dict", "cli.report_to_dict", False),
    ("sweep", "build_group", "catalog.build_group", True),
    ("sweep", "full_report", "verify.full_report", False),
    ("catalog", "load_table_with_report", "catalog.load_table_with_report", False),
    ("catalog", "validate_table_with_report", "groups.validate_table_with_report", False),
    ("verify", "alpha", "density.alpha", False),
    ("verify", "subgroup_count_identity_check", "density.count_identity", False),
    ("verify", "census_matches_orders", "density.census_matches_orders", False),
    ("verify", "average_order", "density.average_order", False),
    ("verify", "center", "groups.center", False),
    ("verify", "coset_partition", "groups.coset_partition", False),
    ("verify", "quotient_by_central", "groups.quotient_by_central", False),
    ("verify", "Subgroup", "groups.Subgroup", False),
    ("verify", "per_coset_analysis", "verify.per_coset_analysis", False),
    ("verify", "structural_condition", "verify.structural_condition", False),
    ("verify", "is_2_central", "verify.is_2_central", False),
    ("verify", "is_4_abelian_witness", "verify.is_4_abelian", False),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request]
        self._stack: list[int] = []
        self._request = 0
        self._center_groups: set[int] = set()  # ids of rebuilt centers in this report

    def wrap(self, fn: Callable, name: Union[str, Callable[..., str]],
             starts_request: bool = False) -> Callable:
        def traced(*args, **kwargs):
            if starts_request:
                self._request += 1
            span = [name(*args) if callable(name) else name, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self._request]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every boundary the library has; one it no longer has reads 0."""
        from cyclicdensity import catalog, cli, density, groups, sweep, verify
        report = verify.full_report

        def full_report(*args, **kwargs):
            # A new report's groups may reuse the address of an earlier center.
            self._center_groups.clear()
            return report(*args, **kwargs)
        cli.full_report = sweep.full_report = full_report

        modules = {"cli": cli, "sweep": sweep, "catalog": catalog, "verify": verify}
        for mod, attr, name, starts in BOUNDARIES:
            if hasattr(modules[mod], attr):
                setattr(modules[mod], attr,
                        self.wrap(getattr(modules[mod], attr), name, starts))

        def is_center(sub) -> bool:
            return getattr(sub.parent, "_center", None) is sub

        as_group = groups.Subgroup.as_group

        def center_as_group(sub, *args, **kwargs):
            out = as_group(sub, *args, **kwargs)
            if is_center(sub):
                self._center_groups.add(id(out))
            return out
        groups.Subgroup.as_group = self.wrap(
            center_as_group,
            lambda sub, *a, **k: "groups.center_rebuild" if is_center(sub) else "groups.as_group")

        census = self.wrap(
            density.cyclic_subgroups,
            lambda g: ("density.census_center" if id(g) in self._center_groups
                       else "density.census"))
        for module in (density, verify):
            if hasattr(module, "cyclic_subgroups"):
                module.cyclic_subgroups = census
        cli.json = types.SimpleNamespace(dumps=self.wrap(json.dumps, "cli.json_dumps"))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Fold spans into the span-based PER_LAYER metrics (seconds unless named _ms)."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        name = span[0]
        total[name] = total.get(name, 0.0) + dur[i]
        self_total[name] = self_total.get(name, 0.0) + dur[i] - child[i]
        layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
    reports_ms = [dur[i] * 1e3 for i, s in enumerate(spans) if s[0] == "verify.full_report"]
    load = total.get("catalog.load_table_with_report", 0.0)
    validate = total.get("groups.validate_table_with_report", 0.0)
    out = {
        "catalog.build_s": total.get("catalog.build_group", 0.0) - load,
        "catalog.load_s": load,
        "catalog.parse_s": load - validate,
        "groups.validate_s": validate,
        "groups.center_s": total.get("groups.center", 0.0),
        "groups.center_rebuild_s": total.get("groups.center_rebuild", 0.0),
        "groups.quotient_s": total.get("groups.quotient_by_central", 0.0),
        "density.census_s": total.get("density.census", 0.0),
        "density.census_center_s": total.get("density.census_center", 0.0),
        "density.totient_s": self_total.get("density.count_identity", 0.0),
        "verify.per_coset_s": total.get("verify.per_coset_analysis", 0.0),
        "verify.structural_s": total.get("verify.structural_condition", 0.0),
        "verify.two_central_s": total.get("verify.is_2_central", 0.0),
        "verify.four_abelian_s": total.get("verify.is_4_abelian", 0.0),
        "verify.report_self_s": self_total.get("verify.full_report", 0.0),
        "verify.full_report_p50_ms": _percentile(reports_ms, 50),
        "verify.full_report_p99_ms": _percentile(reports_ms, 99),
        "verify.full_report_calls": len(reports_ms),
        "cli.emit_s": total.get("cli.report_to_dict", 0.0) + total.get("cli.json_dumps", 0.0),
        "trace.spans": len(spans),
    }
    out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
    return out
