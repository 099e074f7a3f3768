"""Core table machinery: validation, centers, cosets, quotients, products."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import power_oracle
from cyclicdensity import (
    InvalidArgument,
    NoIdentityAtZero,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    NotClosed,
    ParseError,
    SizeLimitExceeded,
    Subgroup,
    build_group,
    center,
    direct_product,
    validate_table_with_report,
)
from cyclicdensity.catalog import _canonical_table, load_table_with_report
from cyclicdensity.groups import (
    MAX_ORDER,
    SIZE_CAP_ENV,
    _build,
    _check_associativity,
    _check_cap,
    _find_identity,
    _physical_memory,
    _swap_to_zero,
)
from cyclicdensity.sweep import SweepConfig, corpus_specs
from table_oracle import (
    NotCentral,
    group_exponent,
    quotient_by_central,
    relabeled_copy,
    verify_group_invariants,
    with_orders,
)


def z3_table():
    return [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_validate_accepts_z3():
    g, _ = validate_table_with_report(z3_table(), "z3")
    assert g.n == 3
    assert g.table[1, 2] == 0
    assert power_oracle.inverses(g.table)[1] == 2
    assert g.ord.tolist() == [1, 3, 3]


def test_validate_moves_identity_to_zero():
    # same Z3 but with the identity living at id 2
    raw = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g, reindex = validate_table_with_report(raw, "z3-shifted")
    assert g.table[0, 0] == 0 and g.ord[0] == 1
    assert reindex[2] == 0 and len(reindex) == 3
    assert sorted(reindex) == [0, 1, 2]


def test_validate_rejects_nonsquare():
    with pytest.raises(NotClosed):
        validate_table_with_report([[0, 1], [1, 0], [0, 1]])


def test_validate_rejects_out_of_range_entry():
    with pytest.raises(NotClosed):
        validate_table_with_report([[0, 1], [1, 7]])


@pytest.mark.parametrize("raw, entry", [
    ([[0, 1.5], [1, 0]], "[0][1] = 1.5"),  # int64 would truncate it to 1
    ([[0, "1"], [1, 0]], "[0][1] = '1'"),  # int64 would parse it as 1
    ([[0, 1], [1, False]], "[1][1] = False"),  # np.asarray reads the list as int64
    (((0, 1), (1, np.False_)), "[1][1] = np.False_"),
    ([np.array([0, 1]), np.array([True, False])], "[1][0] = np.True_"),
], ids=["float", "str", "bool", "tuple-numpy-bool", "list-of-arrays"])
def test_validate_names_the_first_non_integer_entry(raw, entry):
    with pytest.raises(NotClosed, match=f"^{re.escape(f'entry table{entry} is not an integer')}$"):
        validate_table_with_report(raw)


def test_validate_rejects_missing_identity():
    with pytest.raises(NoIdentityAtZero):
        validate_table_with_report([[1, 1], [1, 1]])


def test_validate_finds_identity_anywhere():
    # Z2 written with the identity at id 1
    g, reindex = validate_table_with_report([[1, 0], [0, 1]])
    assert g.n == 2 and g.table[1, 1] == 0
    assert reindex == [1, 0]


def test_validate_rejects_nonassociative_with_witness():
    raw = [[0, 1, 2], [1, 2, 0], [2, 0, 2]]
    with pytest.raises(NotAssociative) as err:
        validate_table_with_report(raw)
    a, b, c = err.value.triple
    t = np.asarray(raw)
    assert t[t[a, b], c] != t[a, t[b, c]]


def test_validate_rejects_no_inverse():
    # identity present, associativity holds (idempotent monoid), but 1 has no inverse
    raw = [[0, 1], [1, 1]]
    with pytest.raises(NoInverse) as err:
        validate_table_with_report(raw)
    assert err.value.element == 1


def test_exact_assoc_check_accepts_good_table():
    g, _ = validate_table_with_report(z3_table())
    assert g.n == 3
    verify_group_invariants(g)


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "5")
    with pytest.raises(SizeLimitExceeded):
        build_group("cyclic:6")
    assert build_group("cyclic:5").n == 5
    monkeypatch.setenv(SIZE_CAP_ENV, "banana")
    with pytest.raises(InvalidArgument):
        build_group("cyclic:2")


def test_cap_without_the_physical_memory(monkeypatch):
    # where the platform does not say its memory, only MAX_ORDER and the cap
    # refuse: a table of 2 MAX_ORDER^2 bytes passes
    def no_sysconf(name):
        raise ValueError(name)

    _physical_memory.cache_clear()
    monkeypatch.setattr(os, "sysconf", no_sysconf)
    try:
        assert _physical_memory() is None
        _check_cap(MAX_ORDER, MAX_ORDER, "t")
        with pytest.raises(SizeLimitExceeded, match="over the cap 10$"):
            _check_cap(11, 10, "t")
        with pytest.raises(SizeLimitExceeded, match="16-bit table ids"):
            _check_cap(MAX_ORDER + 1, MAX_ORDER + 1, "t")
    finally:
        monkeypatch.undo()
        _physical_memory.cache_clear()


def test_reprs_name_the_group():
    g = build_group("cyclic:4")
    assert repr(g) == "FiniteGroup('cyclic:4', n=4)"
    assert repr(Subgroup(g, range(4))) == "Subgroup(order=4 of 'cyclic:4')"


def test_explicit_max_size_beats_env():
    assert build_group("cyclic:10", max_size=10).n == 10
    with pytest.raises(SizeLimitExceeded):
        build_group("cyclic:11", max_size=10)


def test_center_of_dihedral8(d8):
    z = center(d8)
    assert sorted(int(x) for x in z.members) == [0, 2]
    assert d8.ord[2] == 2


def test_center_of_abelian_is_everything(z12):
    assert len(center(z12)) == 12


def test_center_of_symmetric_is_trivial(s4):
    assert len(center(s4)) == 1


def test_subgroup_rejects_unclosed_set(d8):
    with pytest.raises(NotASubgroup) as err:
        Subgroup(d8, [0, 1])  # 1 is a rotation of order 4
    assert err.value.witness is not None


def test_subgroup_requires_identity(d8):
    with pytest.raises(NotASubgroup):
        Subgroup(d8, [2, 4])


@pytest.mark.parametrize("bad", [-1, 8, 2**40])
def test_subgroup_names_an_id_outside_the_parent(d8, bad):
    # checked before the identity test and before the int32 cast, which
    # 2**40 would overflow
    with pytest.raises(NotASubgroup, match=rf"^member {bad} outside parent of order 8$"):
        Subgroup(d8, [0, bad])


def test_subgroup_rejects_a_non_integer_member(z4):
    # an int32 cast would truncate 2.5 to the subgroup {0, 2}
    with pytest.raises(NotASubgroup, match=r"^member 2.5 is not an integer$"):
        Subgroup(z4, [0, 2.5])


@pytest.mark.parametrize("size", [2, 7])
def test_subgroup_rejects_a_mask_of_the_wrong_length(d8, size):
    # d8 has 8 ids; a mask must cover every one of them
    mask = np.zeros(size, dtype=bool)
    mask[0] = True
    with pytest.raises(NotASubgroup, match="does not cover the 8 ids"):
        Subgroup(d8, mask)


def test_subgroup_as_group_roundtrip(d8):
    z = Subgroup(d8, [0, 1, 2, 3])  # the rotation subgroup
    rot = z.as_group("rotations")
    assert rot.n == 4 and group_exponent(rot) == 4
    verify_group_invariants(rot)


def test_quotient_by_central_requires_central(s4):
    sub = Subgroup(s4, [0, 1])  # a transposition: not central
    with pytest.raises(NotCentral):
        quotient_by_central(s4, sub)


def test_quotient_of_d8_is_klein(d8):
    q = quotient_by_central(d8, center(d8))
    assert q.n == 4
    assert group_exponent(q) == 2
    assert len(center(q)) == q.n
    verify_group_invariants(q)


def test_quotient_by_whole_group_is_trivial(z12):
    q = quotient_by_central(z12, center(z12))
    assert q.n == 1 and group_exponent(q) == 1


def test_quotient_of_pauli16_is_klein(pauli16):
    # center is Z4; the quotient has order 4 with every non-identity
    # element an involution
    q = quotient_by_central(pauli16, center(pauli16))
    assert q.n == 4
    assert group_exponent(q) == 2
    assert sorted(int(v) for v in q.ord) == [1, 2, 2, 2]
    verify_group_invariants(q)


def test_group_exponent_values(d8, q8, s4, z12):
    assert group_exponent(d8) == 4
    assert group_exponent(q8) == 4
    assert group_exponent(s4) == 12
    assert group_exponent(z12) == 12


def test_direct_product_orders():
    g = direct_product(build_group("cyclic:3"), build_group("cyclic:4"))
    assert g.n == 12
    assert group_exponent(g) == 12
    assert sorted(np.unique(g.ord)) == [1, 2, 3, 4, 6, 12]
    verify_group_invariants(g)


def test_direct_product_with_trivial_factor(q8):
    g = direct_product(build_group("cyclic:1"), q8)
    assert g.n == 8
    assert np.array_equal(g.table, q8.table)


def test_direct_product_respects_cap():
    with pytest.raises(SizeLimitExceeded):
        direct_product(build_group("cyclic:70"), build_group("cyclic:70"), max_size=4000)


def test_relabeled_copy_is_a_group(d8):
    rng = np.random.default_rng(7)
    perm = rng.permutation(8)
    g = relabeled_copy(d8, perm)
    verify_group_invariants(g)
    assert sorted(np.unique(g.ord)) == sorted(np.unique(d8.ord))


def test_relabeled_copy_rejects_non_permutation(d8):
    with pytest.raises(InvalidArgument):
        relabeled_copy(d8, [0] * 8)


def test_invariants_audit_all_families():
    groups = [
        build_group("cyclic:1"),
        build_group("cyclic:31"),
        build_group("abelian:4,9"),
        build_group("dihedral:30"),
        build_group("quaternion:24"),
        build_group("symmetric:4"),
        build_group("heisenberg:3"),
    ]
    for g in groups:
        verify_group_invariants(g)


def test_invariants_hold_on_every_sweep_group_and_two_products():
    # _build takes the identity at 0 and associativity from its callers, so
    # every catalog group is audited from its raw table: identity at 0,
    # Latin rows and columns, two-sided inverses and the stored orders
    specs = [*corpus_specs(SweepConfig()), "product:(dihedral:8)x(cyclic:3)",
             "product:(quaternion:8)x(symmetric:3)"]
    assert len(specs) == 977
    for spec in specs:
        try:
            verify_group_invariants(build_group(spec))
        except Exception as exc:
            raise AssertionError(spec) from exc


def test_invariants_catch_tampered_orders(d8):
    bad_ord = d8.ord.copy()
    bad_ord[4] = 4  # a reflection really has order 2
    fake = with_orders(d8, bad_ord, "tampered")
    with pytest.raises(NotClosed):
        verify_group_invariants(fake)


small_orders = st.integers(min_value=1, max_value=24)


@settings(max_examples=30, deadline=None)
@given(small_orders, st.randoms(use_true_random=False))
def test_random_relabelings_stay_valid(n, rnd):
    g = build_group(f"cyclic:{n}")
    perm = list(range(n))
    rnd.shuffle(perm)
    h = relabeled_copy(g, perm)
    verify_group_invariants(h)
    assert group_exponent(h) == group_exponent(g)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["cyclic:1024", "dihedral:1024", "abelian:2,2,2,2,2,2,2,2,2,2"])
def test_build_allocates_under_a_quarter_of_the_table(spec):
    # orders and inverses come from a walk of bounded blocks, not an n^2 pass
    table = build_group(spec).table
    _, peak = traced_peak(_build, table, spec)
    assert peak < table.nbytes // 4, (spec, peak, table.nbytes)


@pytest.mark.parametrize("spec", ["abelian:2,2,2,2,2,2,2,2,2,2",
                                  "product:(dihedral:64)x(cyclic:64)"])
def test_product_build_peaks_under_twice_the_table(spec):
    # the product table is built in place in its id type, with no wider
    # copy; the bound is the per-family test's below, tightened from 2x
    g, peak = traced_peak(build_group, spec)
    assert peak < 1.2 * g.table.nbytes, (spec, peak, g.table.nbytes)


@pytest.mark.parametrize("spec", [
    "cyclic:1024", "dihedral:1024", "quaternion:1024", "abelian:2,2,2,2,2,2,2,2,2,2",
    "abelian:2,512", "heisenberg:11", "symmetric:6", "extraspecial:512:+",
    "almost-extraspecial:1024", "product:(dihedral:64)x(cyclic:16)",
])
def test_build_peaks_near_its_table(spec):
    # each family writes its table directly; fills with arithmetic go a
    # block of rows at a time, and no factor table is near n^2 entries.
    # 1.2x, not 1.3x: a circulant quadrant copied before it is assigned, or
    # an abelian factor of n^2/4 entries, peaks at 1.25x
    g, peak = traced_peak(build_group, spec)
    assert peak < 1.2 * g.table.nbytes, (spec, peak, g.table.nbytes)


def relabeled_table(spec: str, seed: int) -> np.ndarray:
    """spec's table under a seeded relabeling that moves the identity off 0."""
    t = build_group(spec).table
    perm = np.random.default_rng(seed).permutation(t.shape[0]).astype(np.int32)
    if perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return out


def test_import_peaks_near_its_file_plus_its_table(tmp_path):
    # np.loadtxt reads the file's bytes a line at a time into the table,
    # which validation relabels in place; the file's bytes are the only
    # other large allocation.  Here 4.1 MB of text and a 2.1 MB table peak
    # at 1.06x their sum.  CRLF line ends, which np.loadtxt reads as they
    # are, take the same route.
    table = relabeled_table("almost-extraspecial:1024", 1)
    for end in ("\n", "\r\n"):
        path = tmp_path / "t.txt"
        path.write_bytes(f"{table.shape[0]}{end}".encode() + "".join(
            " ".join(map(str, row)) + end for row in table.tolist()).encode())
        (g, reindex), peak = traced_peak(load_table_with_report, path)
        assert reindex[0] != 0
        both = path.stat().st_size + g.table.nbytes
        assert peak < 1.15 * both, (repr(end), peak, both)


def test_loop_import_peaks_under_three_times_its_file_plus_its_table(tmp_path):
    # a non-ASCII blank sends a valid file to the per-token loop, which drops
    # the bytes once they are decoded and the text once it is split, and
    # holds each finished row as an _ID array: 1.99x the file plus the table
    # measured, where all three copies of the file at once took 2.4x and rows
    # of Python ints 7x
    table = relabeled_table("almost-extraspecial:1024", 1)
    path = tmp_path / "t.txt"
    path.write_text(f"{table.shape[0]}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in table.tolist())[:-1] + "\u00a0\n",
        encoding="utf-8")
    assert _canonical_table(path.read_bytes(), None, "t") is None
    (g, reindex), peak = traced_peak(load_table_with_report, path)
    assert reindex[0] != 0
    both = path.stat().st_size + g.table.nbytes
    assert peak < 2.2 * both, (peak, both)


def load_or_error(path):
    """load_table_with_report's result, or the ParseError it raises."""
    try:
        return load_table_with_report(path)
    except ParseError as exc:
        return exc


@pytest.mark.parametrize("edit, fault", [
    (lambda text: text.replace(" 10 ", " 1_0 ", 1), None),
    (lambda text: text.rstrip().rpartition(" ")[0] + " 5000\n", "entry 5000 outside"),
], ids=["underscore", "last-entry-5000"])
def test_ascii_loop_import_peaks_under_1_5x_its_file_plus_its_table(tmp_path, edit, fault):
    # a token np.loadtxt refuses sends an ASCII file to the per-token loop,
    # which holds two copies of the file at a time, not three: 1.37x the
    # file plus the table measured for a valid file with one 1_0 in it, and
    # 1.33x for a file whose last entry is out of range
    table = relabeled_table("almost-extraspecial:1024", 1)
    text = edit(f"{table.shape[0]}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in table.tolist()))
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="ascii")
    out, peak = traced_peak(load_or_error, path)
    if fault is None:
        assert "1_0" in text and out[0].n == table.shape[0]
    else:
        assert isinstance(out, ParseError) and fault in str(out), out
    both = path.stat().st_size + table.nbytes
    assert peak < 1.5 * both, (peak, both)


@pytest.mark.parametrize("end", ["\r", "\x0b", "\x1c"], ids=["cr", "vt", "fs"])
def test_translated_import_peaks_under_twice_its_file_plus_its_table(tmp_path, end):
    # a bare CR, VT or FS line break is translated to LF first: one more
    # copy of the file's bytes (1.73x measured)
    table = relabeled_table("almost-extraspecial:1024", 1)
    data = f"{table.shape[0]}{end}".encode() + "".join(
        " ".join(map(str, row)) + end for row in table.tolist()).encode()
    assert _canonical_table(data, None, "t") is not None
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    _, peak = traced_peak(load_table_with_report, path)
    both = len(data) + table.nbytes
    assert peak < 1.8 * both, (repr(end), peak, both)


def test_validation_steps_peak_under_half_the_table():
    # the identity search, the relabel and Light's test each go a block of
    # rows at a time
    table = relabeled_table("almost-extraspecial:1024", 2)

    def steps(t):
        _swap_to_zero(t, _find_identity(t))
        return _check_associativity(t)

    _, peak = traced_peak(steps, table)
    assert peak < 0.5 * table.nbytes, (peak, table.nbytes)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("spec, seed", [("dihedral:12", None), ("dihedral:12", 4)])
def test_validation_copies_the_callers_array(dtype, spec, seed):
    # only the table loader hands its own table over; a caller's array is
    # neither kept, nor relabeled in place, nor frozen
    t = build_group(spec).table if seed is None else relabeled_table(spec, seed)
    raw = np.array(t, dtype=dtype)
    g, reindex = validate_table_with_report(raw)
    assert (reindex[0] != 0) == (seed is not None)
    assert not np.shares_memory(g.table, raw)
    assert raw.flags.writeable
    assert np.array_equal(raw, t)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_validation_copies_an_integer_array_once(dtype):
    # an integer array goes straight to its one uint16 copy, with no int64
    # copy on the way; the rest of the peak is validation's blocks
    t = build_group("almost-extraspecial:1024").table
    _, peak = traced_peak(validate_table_with_report, np.array(t, dtype=dtype))
    assert peak < 1.5 * t.nbytes, (peak, t.nbytes)
