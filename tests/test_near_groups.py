"""Loops that are not groups: a Latin square with its identity at id 0 is
the hardest table for the loader, as only associativity tells it from a
group.  They come from Cayley-Dickson algebras, and from group tables by an
intercalate swap or, for odd orders, a row cycle switch.  Each rejection
must name a triple that fails in the table, and the brute-force scan of
tests/assoc_oracle.py must agree with every verdict on a swapped or
switched group table.  A loop the library accepts is a library fault."""

from __future__ import annotations

import numpy as np
import pytest

from assoc_oracle import check_associativity_full
from cyclicdensity import NotAssociative, build_group, cli, full_report, validate_table_with_report
from near_groups import cayley_dickson_loop, cycle_switches, fails, intercalates, swap, switch


def verdict(table, label):
    """The library's verdict on table: None when accepted, else the witness triple."""
    try:
        validate_table_with_report(table, label)
    except NotAssociative as exc:
        assert fails(table, exc.triple), (label, exc.triple)
        return exc.triple
    return None


def reference_accepts(table) -> bool:
    try:
        check_associativity_full(table)
    except NotAssociative:
        return False
    return True


@pytest.mark.parametrize("k, center_order, cyclic_count", [(1, 4, 3), (2, 2, 5)])
def test_the_associative_cayley_dickson_loops_are_c4_and_q8(k, center_order, cyclic_count):
    g, reindex = validate_table_with_report(cayley_dickson_loop(k), f"cd:{k}")
    assert reindex == list(range(g.n))
    report = full_report(g)
    assert (report.order, report.center_order, report.cyclic_count) == (
        2 ** (k + 1), center_order, cyclic_count)
    assert report.findings == ()


@pytest.mark.parametrize("k", range(3, 10))  # orders 16 (the octonion loop) to 1024
def test_larger_cayley_dickson_loops_are_rejected_with_a_failing_triple(k):
    assert verdict(cayley_dickson_loop(k), f"cd:{k}") is not None


@pytest.mark.parametrize("spec, count", [("abelian:2,2,2", 63), ("dihedral:8", 45),
                                         ("quaternion:8", 9)])
def test_every_swap_of_a_small_group_is_rejected(spec, count):
    table = build_group(spec).table
    swaps = intercalates(table)
    assert len(swaps) == count
    for q in swaps:
        loop = swap(table, q)
        assert verdict(loop, spec) is not None, (spec, q)
        assert not reference_accepts(loop), (spec, q)


@pytest.mark.parametrize("spec, count", [("cyclic:4", 1), ("abelian:2,2", 3)])
def test_a_swap_that_gives_a_group_table_is_accepted(spec, count):
    table = build_group(spec).table
    swaps = intercalates(table)
    assert len(swaps) == count
    for q in swaps:
        loop = swap(table, q)
        assert verdict(loop, spec) is None, (spec, q)
        assert reference_accepts(loop), (spec, q)


@pytest.mark.parametrize("spec, count", [("dihedral:64", 31713), ("quaternion:64", 961)])
def test_sampled_swaps_of_order_64_are_rejected(spec, count):
    table = build_group(spec).table
    swaps = intercalates(table)
    assert len(swaps) == count
    rng = np.random.default_rng(sum(map(ord, spec)))
    for q in swaps[np.sort(rng.choice(count, size=50, replace=False))]:
        loop = swap(table, q)
        assert verdict(loop, spec) is not None, (spec, q)
        assert not reference_accepts(loop), (spec, q)


@pytest.mark.parametrize("spec, count, sample", [
    ("cyclic:9", 14, 14), ("abelian:3,3", 56, 56), ("cyclic:15", 104, 104),
    ("heisenberg:3", 2600, 50)])
def test_cycle_switches_of_odd_order_groups_are_rejected(spec, count, sample):
    # an odd-order group has no intercalate, so its loops come from longer
    # cycles; row and column 0 stay, so only associativity rejects them
    table = build_group(spec).table
    switches = cycle_switches(table)
    assert len(switches) == count and len(intercalates(table)) == 0
    rng = np.random.default_rng(sum(map(ord, spec)))
    for i in np.sort(rng.choice(count, size=sample, replace=False)):
        loop = switch(table, switches[i])
        assert verdict(loop, spec) is not None, (spec, switches[i])
        assert not reference_accepts(loop), (spec, switches[i])


@pytest.mark.parametrize("argv", [
    lambda f: ["import", "--table", str(f)],
    lambda f: ["sweep", "--families", "cyclic", "--max-order", "1", "--include-table", str(f)],
], ids=["import", "sweep"])
def test_the_octonion_loop_is_refused_by_the_cli(tmp_path, capsys, argv):
    f = tmp_path / "octonions.txt"
    t = cayley_dickson_loop(3)
    f.write_text(f"{len(t)}\n" + "\n".join(" ".join(map(str, r)) for r in t.tolist()) + "\n")
    assert cli.main(argv(f)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "(2*4)*1" in err
