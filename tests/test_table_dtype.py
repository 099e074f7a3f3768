"""The storage type of a Cayley table: every route that makes a group's
table makes it C-contiguous, read-only and of uint16 ids, and refuses an
order over 65,535, which uint16 cannot number, before it allocates
anything the size of a table.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from cyclicdensity import (
    SizeLimitExceeded,
    build_group,
    center,
    direct_product,
    load_table_with_report,
    validate_table_with_report,
)
from cyclicdensity import catalog, cli, groups, sweep
from cyclicdensity.groups import _build


def test_the_cut_is_below_two_to_the_sixteen(monkeypatch):
    # n itself must fit: it is the fill for "no id" in the per-coset minimum
    assert groups.MAX_ORDER == np.iinfo(np.uint16).max == 65535
    monkeypatch.setattr(groups, "_physical_memory", lambda: 1 << 40)
    groups._check_cap(65535, 65535, "cyclic:65535")
    with pytest.raises(SizeLimitExceeded, match="^cyclic:65536 has order 65536, over 65535, "):
        groups._check_cap(65536, 10 ** 9, "cyclic:65536")


def assert_stored(g):
    t = g.table
    assert t.dtype == np.uint16, (g.label, t.dtype)
    assert t.shape == (g.n, g.n) and t.flags.c_contiguous and not t.flags.writeable, g.label
    assert g.ord.dtype == np.int32, g.label


@pytest.mark.parametrize("spec", [
    "cyclic:12", "abelian:2,6", "abelian:2,2,2,2,2,2,2,2,2", "dihedral:12", "quaternion:12",
    "symmetric:4", "heisenberg:3", "extraspecial:32:-", "almost-extraspecial:16",
    "product:(dihedral:8)x(cyclic:3)", "cyclic:4096",
])
def test_catalog_tables_are_stored_as_their_id_type(spec):
    assert_stored(build_group(spec))


def table_file(tmp_path, t, line_end: str):
    path = tmp_path / "t.txt"
    path.write_text(f"{len(t)}{line_end}"
                    + "".join(" ".join(map(str, row)) + line_end for row in t.tolist()),
                    newline="")
    return path


# np.loadtxt reads LF and CRLF line ends alike
@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_imported_tables_are_stored_as_their_id_type(tmp_path, line_end):
    t = build_group("dihedral:12").table
    g, reindex = load_table_with_report(table_file(tmp_path, t, line_end))
    assert_stored(g)
    assert reindex == list(range(12)) and np.array_equal(g.table, t)


@pytest.mark.parametrize("as_input", [
    lambda t: t.tolist(),
    lambda t: t.astype(np.int64),
    lambda t: t.astype(np.int32),
    lambda t: t.astype(np.uint16),
], ids=["list", "int64", "int32", "uint16"])
def test_validated_tables_are_stored_as_their_id_type(as_input):
    t = build_group("quaternion:16").table
    raw = as_input(t)
    g, _ = validate_table_with_report(raw)
    assert_stored(g)
    assert np.array_equal(g.table, t)


def test_subgroups_as_groups_are_stored_as_their_id_type():
    g = build_group("almost-extraspecial:64")
    z = center(g).as_group()
    assert_stored(z)
    assert z.n == 4


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
def test_the_builder_refuses_any_other_type(dtype):
    # a fill that kept another type would be an internal fault (exit 3)
    t = np.array(build_group("cyclic:4").table, dtype=dtype)
    with pytest.raises(ValueError, match="is not a C-contiguous table of uint16 ids"):
        _build(t, "cyclic:4")


def test_the_builder_refuses_a_strided_table():
    t = np.array(build_group("cyclic:4").table.T, order="F")
    with pytest.raises(ValueError, match="is not a C-contiguous table of uint16 ids"):
        _build(t, "cyclic:4")


def test_factors_of_any_integer_type_make_the_same_product():
    t1, t2 = build_group("dihedral:8").table, build_group("cyclic:6").table
    want = groups._product_of_tables(t1, t2)
    assert want.dtype == np.uint16
    for dtype in (np.uint8, np.int16, np.int32, np.int64, np.uint64):
        got = groups._product_of_tables(t1.astype(dtype), t2.astype(dtype))
        assert got.dtype == np.uint16 and np.array_equal(got, want), dtype


def refuse(*args, **kwargs):
    raise AssertionError("a fill, parse or validation ran for an order past its limit")


def refuse_fills(monkeypatch):
    """Make the cyclic fill, every table product, every table validation and
    every sweep build fail the test, so a missed check fails fast instead of
    allocating gigabytes."""
    monkeypatch.setitem(catalog._FAMILIES, "cyclic", (*catalog._FAMILIES["cyclic"][:3], refuse))
    monkeypatch.setattr(groups, "_product_of_tables", refuse)
    monkeypatch.setattr(catalog, "_validate", refuse)
    monkeypatch.setattr(sweep, "build_group", refuse)


LIMIT = "has order 65536, over 65535, the most that 16-bit table ids can number"


def test_order_65536_is_refused_before_its_fill(monkeypatch):
    refuse_fills(monkeypatch)
    with pytest.raises(SizeLimitExceeded, match=f"^cyclic:65536 {LIMIT}$"):
        build_group("cyclic:65536", max_size=10 ** 9)


def test_a_product_of_order_65536_is_refused_before_its_table(monkeypatch):
    z256 = build_group("cyclic:256")
    refuse_fills(monkeypatch)
    with pytest.raises(SizeLimitExceeded, match=f"^product of 'cyclic:256' and 'cyclic:256' {LIMIT}$"):
        direct_product(z256, z256, max_size=10 ** 9)


def test_a_table_of_order_65536_is_refused_before_an_entry_is_read(monkeypatch):
    # reading the 2^32 entries takes seconds, and copying them takes 8 GiB
    zeros = np.broadcast_to(np.uint16(0), (65536, 65536))
    monkeypatch.setattr(groups, "_find_identity", refuse)
    monkeypatch.setattr(np, "array", refuse)  # the copy into a table
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match=f"^table 'table' {LIMIT}$"):
        validate_table_with_report(zeros, max_size=10 ** 9)
    assert time.perf_counter() - start < 1


def run_main(argv, capsys):
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    return rc, out, err, peak


@pytest.mark.parametrize("argv, error", [
    (["verify", "--group", "cyclic:65536"], f"cyclic:65536 {LIMIT}"),
    (["sweep", "--max-order", "65536"],
     "max_order 65536 exceeds 65535, the most that 16-bit table ids can number"),
    (["import", "--table"], f"table 'table:{{path}}' {LIMIT}"),  # the file's header is 65536
], ids=["verify", "sweep", "import"])
def test_the_cli_refuses_order_65536_under_size_override(monkeypatch, capsys, tmp_path, argv, error):
    path = tmp_path / "big.txt"
    path.write_text("65536\n0 1\n")
    argv = [*argv, str(path)] if argv[-1] == "--table" else argv
    refuse_fills(monkeypatch)
    rc, out, err, peak = run_main([*argv, "--size-override"], capsys)
    assert (rc, out, err) == (2, "", f"error: {error.format(path=path)}\n")
    assert peak < 1 << 20, peak


def test_a_table_over_physical_memory_is_refused_before_it_is_built(monkeypatch, capsys):
    monkeypatch.setattr(groups, "_physical_memory", lambda: 1 << 20)
    refuse_fills(monkeypatch)
    rc, out, err, peak = run_main(["verify", "--group", "cyclic:1024", "--size-override"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: cyclic:1024 has order 1024: its table of 2097152 bytes "
                   "exceeds the 1048576 bytes of physical memory\n")
    assert peak < 1 << 20, peak
