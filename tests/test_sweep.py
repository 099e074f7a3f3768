"""Corpus enumeration and sweep execution."""

import pytest

from corpus_oracle import corpus
from cyclicdensity import (
    InvalidArgument,
    SizeLimitExceeded,
    SweepConfig,
    build_group,
    run_sweep,
)
from cyclicdensity.sweep import SWEEP_FAMILIES, corpus_specs


def test_corpus_composition_small():
    cfg = SweepConfig(max_order=32)
    specs = corpus_specs(cfg)
    assert "cyclic:1" in specs and "cyclic:32" in specs and "cyclic:33" not in specs
    assert "abelian:2,2,2,2,2" in specs      # order 32
    assert "abelian:2,16" in specs
    assert "abelian:2,2,3" in specs          # order 12
    assert "dihedral:4" in specs and "dihedral:32" in specs
    assert "quaternion:8" in specs and "quaternion:32" in specs
    assert "symmetric:4" in specs and "symmetric:5" not in specs  # 120 > 32
    assert "extraspecial:8:+" in specs and "extraspecial:32:-" in specs
    assert "almost-extraspecial:16" in specs
    assert "heisenberg:3" in specs and "heisenberg:5" not in specs  # 125 > 32
    assert list(specs) == sorted(specs)
    assert len(specs) == len(set(specs))


def test_corpus_abelian_is_isomorphism_complete():
    # at bound 16 the abelian corpus must list every type of order 16 once
    cfg = SweepConfig(max_order=16, families=("abelian",))
    of_16 = [s for s in corpus_specs(cfg) if eval_order(s) == 16]
    assert sorted(of_16) == [
        "abelian:16",
        "abelian:2,2,2,2",
        "abelian:2,2,4",
        "abelian:2,8",
        "abelian:4,4",
    ]


def eval_order(spec):
    import math
    return math.prod(int(v) for v in spec.split(":")[1].split(","))


def test_corpus_families_filter():
    cfg = SweepConfig(max_order=64, families=("heisenberg", "symmetric"))
    assert corpus_specs(cfg) == ("heisenberg:3", "symmetric:3", "symmetric:4")


def test_corpus_includes_tables(tmp_path):
    f = tmp_path / "z2.txt"
    f.write_text("2\n0 1\n1 0\n")
    cfg = SweepConfig(max_order=4, families=("cyclic",), include_tables=(str(f),))
    specs = corpus_specs(cfg)
    assert f"table:{f}" in specs


def test_config_validation():
    with pytest.raises(InvalidArgument):
        SweepConfig(max_order=0)
    with pytest.raises(InvalidArgument):
        SweepConfig(parallelism=0)
    with pytest.raises(InvalidArgument):
        SweepConfig(families=())
    with pytest.raises(InvalidArgument, match="^cannot sweep families: sporadic$"):
        SweepConfig(families=("cyclic", "sporadic"))


def test_sweep_over_cap_needs_override(monkeypatch):
    from cyclicdensity.groups import SIZE_CAP_ENV

    monkeypatch.setenv(SIZE_CAP_ENV, "16")
    with pytest.raises(SizeLimitExceeded):
        run_sweep(SweepConfig(max_order=32))
    result = run_sweep(SweepConfig(max_order=32, families=("dihedral",),
                                   size_override=True))
    assert any(r.order == 32 for r in result.reports)


def test_small_sweep_clean_and_sorted():
    result = run_sweep(SweepConfig(max_order=24))
    assert result.counterexamples == ()
    labels = [r.label for r in result.reports]
    assert labels == sorted(labels)
    assert "quaternion:24" in labels
    # every abelian instance is an equality case
    for r in result.reports:
        if r.label.startswith(("cyclic:", "abelian:")):
            assert r.label in result.equality_labels


def test_sweep_trivial_bound():
    result = run_sweep(SweepConfig(max_order=1))
    assert [r.label for r in result.reports] == ["cyclic:1"]
    assert result.equality_labels == ("cyclic:1",)
    assert result.counterexamples == ()


def test_sweep_heisenberg_all_strict():
    # nonabelian odd order: the inequality is always strict
    result = run_sweep(SweepConfig(max_order=125, families=("heisenberg",)))
    assert [r.label for r in result.reports] == ["heisenberg:3", "heisenberg:5"]
    assert result.equality_labels == ()
    assert result.counterexamples == ()
    for r in result.reports:
        assert r.alpha_g < r.alpha_z, r.label


def test_sweep_parallel_matches_serial():
    serial = run_sweep(SweepConfig(max_order=20, parallelism=1))
    parallel = run_sweep(SweepConfig(max_order=20, parallelism=3))
    assert serial.reports == parallel.reports
    assert serial.counterexamples == parallel.counterexamples
    assert serial.equality_labels == parallel.equality_labels


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize("parallelism, cpus, workers", [
    (2, 8, 2), (64, 8, 5), (64, 3, 3), (100000, 1, 1),
])
def test_sweep_pool_starts_no_more_workers_than_jobs_or_cpus(monkeypatch, parallelism,
                                                             cpus, workers):
    # the corpus below has 5 groups; the pool never really forks here
    import os

    import concurrent.futures

    SerialPool.sizes = []
    # run_sweep imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    cfg = SweepConfig(max_order=4, families=("cyclic", "dihedral"), parallelism=parallelism)
    assert len(corpus_specs(cfg)) == 5
    result = run_sweep(cfg)
    assert SerialPool.sizes == [workers]
    serial = run_sweep(SweepConfig(max_order=4, families=("cyclic", "dihedral")))
    assert result.reports == serial.reports


def test_sweep_with_included_table(tmp_path):
    f = tmp_path / "d8.txt"
    rows = build_group("dihedral:8").table.tolist()
    f.write_text("8\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n")
    result = run_sweep(SweepConfig(max_order=4, families=("cyclic",),
                                   include_tables=(str(f),)))
    by_label = {r.label: r for r in result.reports}
    assert by_label[f"table:{f}"].cyclic_count == 7
    assert result.counterexamples == ()


BOUNDS = [*range(1, 65), 100, 255, 256, 257, 512, 1024, 4096, 5040]


@pytest.mark.parametrize("families", [SWEEP_FAMILIES, *((f,) for f in SWEEP_FAMILIES)],
                         ids=["all", *SWEEP_FAMILIES])
def test_corpus_matches_the_family_by_family_enumeration(families):
    # the parameters each family's rule admits are the ranges and loops
    # that corpus_oracle restates, at every bound
    for bound in BOUNDS:
        config = SweepConfig(max_order=bound, families=families, size_override=True,
                             include_tables=("t.txt",))
        assert corpus_specs(config) == corpus(config), bound
