"""The storage type of a Cayley table: every route that makes a group's
table makes it C-contiguous, read-only and of _id_dtype(n), uint16 below
2^16 and int32 above; no route computes an id in a type too narrow for it.

A product across the 2^16 cut would need a table of 2^32 entries, so the
products are also built with the cut moved to 2^8 (uint8 below, int32
from 256 on), where a product of two narrow factors is wide at order 512.
"""

from __future__ import annotations

import numpy as np
import pytest

from cyclicdensity import (
    build_group,
    center,
    full_report,
    load_table_with_report,
    validate_table_with_report,
)
from cyclicdensity import catalog, groups
from cyclicdensity.groups import _build, _id_dtype
from table_oracle import abelian_fold_table, extraspecial_chain


def test_the_cut_is_below_two_to_the_sixteen():
    # n itself must fit: it is the fill for "no id" in the per-coset minimum
    assert _id_dtype(1) is np.uint16
    assert _id_dtype(65535) is np.uint16
    assert _id_dtype(65536) is np.int32
    assert _id_dtype(1 << 20) is np.int32


def assert_stored(g):
    t = g.table
    assert t.dtype == _id_dtype(g.n), (g.label, t.dtype)
    assert t.shape == (g.n, g.n) and t.flags.c_contiguous and not t.flags.writeable, g.label
    assert g.inv.dtype == g.ord.dtype == np.int32, g.label


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


# LF is the canonical parse; CRLF takes the per-token loop, _table_rows
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


def narrow_ids(monkeypatch):
    """Move the cut to 2^8: uint8 ids below order 256, int32 from it on."""
    def narrow(n: int) -> type:
        return np.uint8 if n < 1 << 8 else np.int32
    for module in (groups, catalog):
        monkeypatch.setattr(module, "_id_dtype", narrow)


# each product multiplies ids of a narrow factor by |H| past the narrow
# type: a * 32 for a < 16, a rank below 64 times 8
@pytest.mark.parametrize("spec, oracle", [
    ("product:(cyclic:32)x(cyclic:16)", lambda: abelian_fold_table((32, 16))),
    ("abelian:16,32", lambda: abelian_fold_table((16, 32))),
    ("extraspecial:512:+", lambda: extraspecial_chain(512, "+").table),
])
def test_products_across_the_cut_compute_in_the_wider_type(monkeypatch, spec, oracle):
    want, report = oracle(), full_report(build_group(spec))
    narrow_ids(monkeypatch)
    g = build_group(spec)
    assert g.table.dtype == np.int32
    assert np.array_equal(g.table, want)
    assert full_report(g) == report


def test_factors_of_any_integer_type_make_the_same_product():
    t1, t2 = build_group("dihedral:8").table, build_group("cyclic:6").table
    want = groups._product_of_tables(t1, t2)
    assert want.dtype == np.uint16
    for dtype in (np.uint8, np.int16, np.int32, np.int64, np.uint64):
        got = groups._product_of_tables(t1.astype(dtype), t2.astype(dtype))
        assert got.dtype == np.uint16 and np.array_equal(got, want), dtype
