"""Exhaustive verification sweeps over the built-in catalog.

A sweep enumerates every catalog group up to a size bound (all cyclic and
abelian isomorphism types, dihedral, generalized quaternion, symmetric,
extraspecial of both types, almost extraspecial, Heisenberg), runs the
full checker on each, and aggregates counterexamples.  Results are sorted
by label so output is deterministic regardless of parallelism.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass
from typing import Optional

from .catalog import FAMILY_NAMES, GroupSpec, _rule_params, build_group
from .errors import InvalidArgument, SizeLimitExceeded
from .groups import MAX_ORDER, size_cap
from .verify import AlphaReport, full_report

SWEEP_FAMILIES = FAMILY_NAMES[:-2]  # every family but product and table
_DUPLICATES = {"symmetric:1", "symmetric:2"}  # cyclic:1 and cyclic:2 by other names


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: bound, families, extra table files, execution knobs."""

    max_order: int = 256
    families: tuple[str, ...] = SWEEP_FAMILIES
    include_tables: tuple[str, ...] = ()
    fail_fast: bool = False
    parallelism: int = 1
    size_override: bool = False

    def __post_init__(self):
        if self.max_order < 1:
            raise InvalidArgument(f"max_order must be >= 1, got {self.max_order}")
        if self.parallelism < 1:
            raise InvalidArgument(f"parallelism must be >= 1, got {self.parallelism}")
        if not self.families:
            raise InvalidArgument("families must be nonempty")
        bad = sorted(set(self.families) - set(SWEEP_FAMILIES))
        if bad:
            raise InvalidArgument(f"cannot sweep families: {', '.join(f or repr(f) for f in bad)}")


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    reports: tuple[AlphaReport, ...]

    @property
    def counterexamples(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.reports if r.findings)

    @property
    def equality_labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.reports if r.equality)


def corpus_specs(config: SweepConfig) -> tuple[str, ...]:
    """Sorted spec strings for every group the sweep will check: each
    family's parameters that meet its rule up to the order bound (one per
    abelian type), less the duplicates S_1 and S_2."""
    specs: list[str] = []
    for family in set(config.families):
        specs += [s for p in _rule_params(family, config.max_order)
                  if (s := GroupSpec(family, p).canonical()) not in _DUPLICATES]
    specs += [GroupSpec("table", (path,)).canonical() for path in config.include_tables]
    return tuple(sorted(specs))


def _sweep_worker(args: tuple[str, Optional[int]]) -> AlphaReport:
    spec, max_size = args
    return full_report(build_group(spec, max_size=max_size))


def run_sweep(config: SweepConfig) -> SweepResult:
    """Check every corpus group; reports come back sorted by label."""
    if config.max_order > MAX_ORDER:
        raise SizeLimitExceeded(f"max_order {config.max_order} exceeds {MAX_ORDER}, "
                                f"the most that 16-bit table ids can number")
    cap = size_cap()
    if config.max_order > cap and not config.size_override:
        raise SizeLimitExceeded(
            f"max_order {config.max_order} exceeds the size cap {cap}; "
            f"pass size_override to permit it"
        )
    max_size = max(config.max_order, cap) if config.size_override else None
    specs = corpus_specs(config)
    jobs = [(s, max_size) for s in specs]
    reports: list[AlphaReport] = []
    with contextlib.ExitStack() as stack:
        run = map
        if config.parallelism > 1:
            from concurrent.futures import ProcessPoolExecutor  # not paid by serial runs
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            workers = max(1, min(config.parallelism, len(jobs), cpus or 1))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            run = functools.partial(pool.map, chunksize=max(1, len(jobs) // (workers * 8)))
        # the loop holds the only reference to the results, so a break drops
        # them and the pool cancels the jobs it has not started before it exits
        for report in run(_sweep_worker, jobs):
            reports.append(report)
            if config.fail_fast and report.findings:
                break
    reports.sort(key=lambda r: r.label)
    return SweepResult(config, tuple(reports))


__all__ = [
    "SWEEP_FAMILIES",
    "SweepConfig",
    "SweepResult",
    "corpus_specs",
    "run_sweep",
]
