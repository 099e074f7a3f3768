"""Family constructors, the spec grammar, and table import."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import power_oracle
from cyclicdensity import (
    GroupSpec,
    ParseError,
    SizeLimitExceeded,
    SpecSyntaxError,
    Subgroup,
    build_group,
    center,
    direct_product,
    load_table_with_report,
    parse_group_spec,
)
from cyclicdensity import catalog
from table_oracle import (
    abelian_fold_table,
    almost_extraspecial_chain,
    central_product_mod_involution,
    extraspecial_chain,
    group_exponent,
    heisenberg_int64_table,
    quotient_by_central,
    symmetric_lehmer_table,
    verify_group_invariants,
)


# ---------------------------------------------------------------- families

def test_cyclic_structure():
    g = build_group("cyclic:6")
    assert g.n == 6 and len(center(g)) == g.n
    assert g.ord.tolist() == [1, 6, 3, 2, 3, 6]
    verify_group_invariants(g)


def test_cyclic_trivial():
    g = build_group("cyclic:1")
    assert g.n == 1 and g.label == "cyclic:1"


def test_cyclic_rejects_zero():
    with pytest.raises(SpecSyntaxError, match=r"^cyclic order must be >= 1, got 0$"):
        build_group("cyclic:0")


def test_abelian_klein(klein):
    assert klein.n == 4 and len(center(klein)) == klein.n
    assert sorted(int(v) for v in klein.ord) == [1, 2, 2, 2]


def test_abelian_mixed_factors():
    g = build_group("abelian:2,3,4")
    assert g.n == 24 and len(center(g)) == g.n and group_exponent(g) == 12
    verify_group_invariants(g)


def test_abelian_rejects_empty_and_bad():
    with pytest.raises(SpecSyntaxError, match=r"^abelian cyclic orders must be >= 1, got \(\)$"):
        build_group(GroupSpec("abelian", ()))
    with pytest.raises(SpecSyntaxError, match=r"^abelian cyclic orders must be >= 1, got \(3, 0\)$"):
        build_group("abelian:3,0")


def test_dihedral8_relations(d8):
    # s r s = r^-1 with rotations 0..3 and reflections 4..7
    r, s = 1, 4
    assert d8.table[s, s] == 0
    assert d8.table[d8.table[s, r], s] == power_oracle.inverses(d8.table)[r]
    assert len(center(d8)) < d8.n
    assert sorted(int(v) for v in d8.ord) == [1, 2, 2, 2, 2, 2, 4, 4]
    verify_group_invariants(d8)


def test_dihedral4_is_klein():
    g = build_group("dihedral:4")
    assert len(center(g)) == g.n and sorted(int(v) for v in g.ord) == [1, 2, 2, 2]


def test_dihedral_rejects_odd_or_small():
    with pytest.raises(SpecSyntaxError, match="^dihedral order must be an even integer >= 4, got 7$"):
        build_group("dihedral:7")
    with pytest.raises(SpecSyntaxError, match="got 2$"):
        build_group(GroupSpec("dihedral", (2,)))


def test_quaternion8_relations(q8):
    # b^2 = a^2 = the unique involution; b a b^-1 = a^-1
    a, b = 1, 4
    minus_one = q8.table[b, b]
    assert minus_one == q8.table[a, a]
    assert q8.ord[minus_one] == 2
    assert int((q8.ord == 2).sum()) == 1
    inv = power_oracle.inverses(q8.table)
    bab = q8.table[q8.table[b, a], inv[b]]
    assert bab == inv[a]
    verify_group_invariants(q8)


def test_quaternion16_single_involution(q16):
    assert int((q16.ord == 2).sum()) == 1
    assert len(center(q16)) < q16.n
    verify_group_invariants(q16)


def test_quaternion_rejects_bad_order():
    with pytest.raises(SpecSyntaxError, match="^quaternion order must be a multiple of 4, >= 8, got 4$"):
        build_group("quaternion:4")
    with pytest.raises(SpecSyntaxError, match="got 18$"):
        build_group(GroupSpec("quaternion", (18,)))


def test_symmetric_orders(s3, s4):
    assert s3.n == 6 and s4.n == 24
    assert sorted(int(v) for v in s3.ord) == [1, 2, 2, 2, 3, 3]
    assert group_exponent(s4) == 12
    assert len(center(s4)) == 1
    verify_group_invariants(s3)
    verify_group_invariants(s4)


def test_symmetric_degree_bounds():
    with pytest.raises(SpecSyntaxError, match=r"^symmetric degree must be in 1\.\.7, got 0$"):
        build_group("symmetric:0")
    with pytest.raises(SpecSyntaxError, match="got 8$"):
        build_group(GroupSpec("symmetric", (8,)))


def test_heisenberg3_structure(heis3):
    assert heis3.n == 27
    assert len(center(heis3)) < heis3.n
    assert group_exponent(heis3) == 3
    assert len(center(heis3)) == 3
    verify_group_invariants(heis3)


def test_heisenberg_rejects_non_odd_prime():
    with pytest.raises(SpecSyntaxError, match="^heisenberg parameter must be an odd prime, got 2$"):
        build_group("heisenberg:2")
    with pytest.raises(SpecSyntaxError, match="got 9$"):
        build_group(GroupSpec("heisenberg", (9,)))


def test_extraspecial_small_are_d8_q8(d8, q8):
    p8 = build_group("extraspecial:8:+")
    m8 = build_group("extraspecial:8:-")
    assert np.array_equal(p8.table, d8.table)
    assert np.array_equal(m8.table, q8.table)
    assert p8.label == "extraspecial:8:+"


def test_extraspecial32_involution_counts(es32_plus, es32_minus):
    # 2^m (2^m + 1) - 1 and 2^m (2^m - 1) - 1 involutions at m = 2
    assert int((es32_plus.ord == 2).sum()) == 19
    assert int((es32_minus.ord == 2).sum()) == 11
    for g in (es32_plus, es32_minus):
        assert g.n == 32
        assert len(center(g)) == 2
        assert group_exponent(g) == 4
        verify_group_invariants(g)


def test_extraspecial_rejects_bad_shapes():
    rule = r"^extraspecial order must be 2\^\(1\+2m\) with m >= 1, got "
    with pytest.raises(SpecSyntaxError, match=rule + "16$"):
        build_group("extraspecial:16:+")  # even exponent
    with pytest.raises(SpecSyntaxError, match=rule + "24$"):
        build_group(GroupSpec("extraspecial", (24, "+")))
    with pytest.raises(SpecSyntaxError, match="^extraspecial type must be '\\+' or '-', got 'x'$"):
        build_group(GroupSpec("extraspecial", (32, "x")))


def test_almost_extraspecial_center_is_z4(pauli16):
    assert pauli16.n == 16
    z = center(pauli16)
    assert len(z) == 4
    zg = z.as_group()
    assert group_exponent(zg) == 4  # cyclic of order 4
    assert sorted(int(v) for v in pauli16.ord) == [1] + [2] * 7 + [4] * 8
    verify_group_invariants(pauli16)


def test_almost_extraspecial_64():
    g = build_group("almost-extraspecial:64")
    assert g.n == 64 and len(center(g)) == 4
    verify_group_invariants(g)


def test_almost_extraspecial_rejects_bad_shapes():
    for bad in (8, 32, 24):
        with pytest.raises(SpecSyntaxError, match=r"^almost-extraspecial order must be "
                                               rf"2\^\(2m\+2\) with m >= 1, got {bad}$"):
            build_group(GroupSpec("almost-extraspecial", (bad,)))


@pytest.mark.parametrize("spec, accepted", [
    ("extraspecial:4:+", False), ("extraspecial:8:+", True), ("extraspecial:32:-", True),
    (f"extraspecial:{2 ** 13}:+", True), ("almost-extraspecial:8", False),
    ("almost-extraspecial:16", True), ("almost-extraspecial:64", True),
])
def test_extraspecial_rules_at_their_boundaries(spec, accepted):
    # the least order of each family, and 2^13, which meets the rule though
    # its table is over the size cap
    if accepted:
        assert parse_group_spec(spec).canonical() == spec
    else:
        with pytest.raises(SpecSyntaxError, match=r"order must be 2\^\("):
            parse_group_spec(spec)


# The central product that the chain below is made of, against its
# definition: build G x H, then divide out <(zg, zh)> for any central
# involutions zg and zh.
@pytest.mark.parametrize("left, right", [
    ("dihedral:8", "dihedral:8"), ("quaternion:8", "dihedral:8"), ("dihedral:8", "cyclic:4"),
    ("abelian:2,2", "quaternion:16"), ("extraspecial:32:-", "cyclic:8"),
    ("cyclic:6", "abelian:2,4"), ("cyclic:2", "dihedral:24"),
    ("extraspecial:32:-", "cyclic:4"), ("abelian:2,4", "almost-extraspecial:16"),
])
def test_central_product_matches_the_quotient_of_the_direct_product(left, right):
    g, h = build_group(left), build_group(right)
    for zg in np.flatnonzero(center(g).bitmap & (g.ord == 2)).tolist():
        for zh in np.flatnonzero(center(h).bitmap & (h.ord == 2)).tolist():
            prod = direct_product(g, h)
            slow = quotient_by_central(prod, Subgroup(prod, [0, zg * h.n + zh]))
            fast = central_product_mod_involution(g, h, zg, zh)
            for field in ("table", "ord"):
                assert np.array_equal(getattr(fast, field), getattr(slow, field)), (zg, zh)


# The group-level chain that the cocycle fill replaced: every factor and
# every partial product built as a group, its central involution found.
@pytest.mark.parametrize("spec", [
    *(f"extraspecial:{2 ** k}:{sign}" for k in (3, 5, 7, 9, 11) for sign in "+-"),
    *(f"almost-extraspecial:{2 ** k}" for k in (4, 6, 8, 10, 12)),
])
def test_extraspecial_families_match_the_group_level_chain(spec):
    _, order, *sign = spec.split(":")
    slow = (extraspecial_chain(int(order), *sign) if sign
            else almost_extraspecial_chain(int(order)))
    g = build_group(spec)
    for field in ("table", "ord"):
        assert np.array_equal(getattr(g, field), getattr(slow, field)), field


# The n^2 `%` forms that the circulant fills of the cyclic, dihedral and
# quaternion families replaced, kept here as their reference.

def cyclic_mod_form(n):
    ar = np.arange(n, dtype=np.int32)
    return (ar[:, None] + ar[None, :]) % n


def dihedral_mod_form(order):
    n = order // 2
    i = np.arange(n, dtype=np.int32)
    a, b = i[:, None], i[None, :]
    t = np.empty((order, order), dtype=np.int32)
    t[:n, :n] = (a + b) % n
    t[:n, n:] = n + (b - a) % n
    t[n:, :n] = n + (a + b) % n
    t[n:, n:] = (b - a) % n
    return t


def quaternion_mod_form(order):
    n = order // 4
    two_n = 2 * n
    i = np.arange(two_n, dtype=np.int32)
    a, b = i[:, None], i[None, :]
    t = np.empty((order, order), dtype=np.int32)
    t[:two_n, :two_n] = (a + b) % two_n
    t[:two_n, two_n:] = two_n + (a + b) % two_n
    t[two_n:, :two_n] = two_n + (a - b) % two_n
    t[two_n:, two_n:] = (a - b + n) % two_n
    return t


@pytest.mark.parametrize("family, mod_form, orders", [
    ("cyclic", cyclic_mod_form, (1, 2, 4, 5, 12, 63, 256, 1000, 4096)),
    ("dihedral", dihedral_mod_form, (4, 6, 8, 12, 62, 256, 1002, 4096)),
    ("quaternion", quaternion_mod_form, (8, 12, 16, 20, 64, 252, 1024, 4096)),
], ids=["cyclic", "dihedral", "quaternion"])
def test_circulant_fills_match_the_mod_form(family, mod_form, orders):
    for order in orders:
        table = build_group(f"{family}:{order}").table
        assert table.dtype == np.uint16
        assert np.array_equal(table, mod_form(order)), order


# The fills that the block-bounded builders replaced, kept in table_oracle.

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_heisenberg_matches_the_int64_form(p):
    assert np.array_equal(build_group(f"heisenberg:{p}").table, heisenberg_int64_table(p))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_symmetric_matches_the_lehmer_rank(degree):
    assert np.array_equal(build_group(f"symmetric:{degree}").table, symmetric_lehmer_table(degree))


@st.composite
def factor_lists(draw):
    """1 to 12 cyclic orders, 1s included, whose product is at most 4096."""
    orders, room = [], 4096
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        orders.append(draw(st.integers(min_value=1, max_value=min(room, 64))))
        room //= orders[-1]
    return tuple(orders)


@settings(max_examples=60, deadline=None)
@given(factor_lists())
def test_abelian_matches_the_factor_fold(orders):
    # the balanced split numbers every element as the fold does
    assert np.array_equal(build_group(GroupSpec("abelian", orders)).table, abelian_fold_table(orders)), orders


@pytest.mark.parametrize("orders", [(4096,), (1,), (1, 1), (2, 2048), (2,) * 12, (64, 1, 1, 64)])
def test_abelian_matches_the_factor_fold_at_the_edges(orders):
    # one factor, only 1s, a factor past sqrt(n), and the 4096 cap
    assert np.array_equal(build_group(GroupSpec("abelian", orders)).table, abelian_fold_table(orders)), orders


# ---------------------------------------------------------------- grammar

def test_parse_round_trips():
    cases = [
        "cyclic:12",
        "abelian:2,3,4",
        "dihedral:8",
        "quaternion:16",
        "symmetric:5",
        "extraspecial:32:-",
        "almost-extraspecial:64",
        "heisenberg:5",
        "product:(cyclic:3)x(dihedral:8)",
        "product:(product:(cyclic:2)x(cyclic:3))x(quaternion:8)",
        "table:/tmp/some file.txt",
    ]
    for text in cases:
        spec = parse_group_spec(text)
        assert spec.canonical() == text
        assert parse_group_spec(spec.canonical()) == spec


@pytest.mark.parametrize("path", ["a,b:c.txt", Path("a,b:c.txt")], ids=["str", "Path"])
def test_table_spec_round_trips_a_path_with_commas_and_colons(path):
    # one table parameter is written as it is, never split on "," or ":"
    spec = GroupSpec("table", (path,))
    assert spec.canonical() == "table:a,b:c.txt"
    assert parse_group_spec(spec.canonical()) == GroupSpec("table", ("a,b:c.txt",))


def test_parse_unknown_family():
    with pytest.raises(SpecSyntaxError, match="^unknown group family 'alternating'$"):
        parse_group_spec("alternating:5")


def test_parse_syntax_errors():
    for bad in ("", "cyclic", "cyclic:", "abelian:2,,3", "product:cyclic:2",
                "product:(cyclic:2)y(cyclic:3)", "product:(cyclic:2"):
        with pytest.raises(SpecSyntaxError):
            parse_group_spec(bad)


def test_parse_bad_parameters():
    for bad in ("extraspecial:24:+", "extraspecial:16:+", "dihedral:7",
                "quaternion:6", "symmetric:9", "heisenberg:4",
                "almost-extraspecial:32", "cyclic:0", "abelian:2,0"):
        with pytest.raises(SpecSyntaxError):
            parse_group_spec(bad)


def test_parse_extraspecial_needs_sign():
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("extraspecial:32")


def test_build_group_dispatch(d8):
    g = build_group("dihedral:8")
    assert np.array_equal(g.table, d8.table)
    prod = build_group("product:(cyclic:2)x(cyclic:3)")
    assert prod.n == 6 and len(center(prod)) == prod.n
    assert prod.label == "product:(cyclic:2)x(cyclic:3)"


def test_build_group_respects_cap():
    with pytest.raises(SizeLimitExceeded):
        build_group("product:(cyclic:100)x(cyclic:100)", max_size=4096)


# ---------------------------------------------------------------- tables

def write_table(path, table, n=None):
    n = len(table) if n is None else n
    lines = [str(n)] + [" ".join(str(v) for v in row) for row in table]
    path.write_text("\n".join(lines) + "\n")


def test_load_table_roundtrip(tmp_path, d8):
    f = tmp_path / "d8.txt"
    write_table(f, d8.table.tolist())
    g, reindex = load_table_with_report(f)
    assert g.n == 8
    assert reindex == list(range(8))
    assert np.array_equal(g.table, d8.table)
    assert g.label == f"table:{f}"


def test_load_table_reindexes_identity(tmp_path):
    # Z3 written with identity at id 1
    f = tmp_path / "z3.txt"
    write_table(f, [[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    g, reindex = load_table_with_report(f)
    assert g.table[0, 0] == 0
    assert reindex[1] == 0
    assert g.ord.tolist() == [1, 3, 3]


def test_load_table_blank_lines_ok(tmp_path):
    f = tmp_path / "z2.txt"
    f.write_text("\n2\n\n0 1\n1 0\n\n")
    assert load_table_with_report(f)[0].n == 2


def test_load_table_errors_carry_positions(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("2\n0 1\n1 x\n")
    with pytest.raises(ParseError) as err:
        load_table_with_report(f)
    assert err.value.line == 3 and err.value.column == 2

    f.write_text("2\n0 1 1\n1 0\n")
    with pytest.raises(ParseError) as err:
        load_table_with_report(f)
    assert err.value.line == 2

    f.write_text("2\n0 1\n1 0\n0 1\n")
    with pytest.raises(ParseError) as err:
        load_table_with_report(f)
    assert err.value.line == 4

    f.write_text("2\n0 1\n")
    with pytest.raises(ParseError):
        load_table_with_report(f)

    f.write_text("2\n0 1\n1 2\n")
    with pytest.raises(ParseError) as err:
        load_table_with_report(f)
    assert err.value.line == 3


@pytest.mark.parametrize("body", ["0 1\n", "0 1 junk\n"])  # whole-array path, line loop
def test_load_table_checks_the_cap_on_the_header(tmp_path, body):
    f = tmp_path / "big.txt"
    f.write_text("4097\n" + body)
    with pytest.raises(SizeLimitExceeded, match="has order 4097, over the cap 4096"):
        load_table_with_report(f)
    with pytest.raises(ParseError) as err:
        load_table_with_report(f, max_size=10 ** 9)
    assert err.value.line == 2


def test_load_table_missing_file():
    with pytest.raises(ParseError):
        load_table_with_report("/nonexistent/nowhere.txt")


def test_build_group_from_table_spec(tmp_path, q8):
    f = tmp_path / "q8.txt"
    write_table(f, q8.table.tolist())
    g = build_group(f"table:{f}")
    assert g.n == 8 and np.array_equal(g.table, q8.table)


@pytest.mark.parametrize("path_type", [str, Path], ids=["str", "Path"])
def test_a_table_groupspec_builds_what_its_spec_string_builds(tmp_path, q8, path_type):
    f = tmp_path / "q8.txt"
    write_table(f, q8.table.tolist())
    want = build_group(f"table:{f}")
    g = build_group(GroupSpec("table", (path_type(f),)))
    assert g.label == want.label == f"table:{f}"
    assert np.array_equal(g.table, want.table)


# ------------------------------------------------------- property checks

spec_strategy = st.one_of(
    st.integers(1, 20).map(lambda n: f"cyclic:{n}"),
    st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), min_size=1, max_size=3)
      .map(lambda xs: "abelian:" + ",".join(map(str, xs))),
    st.integers(2, 12).map(lambda n: f"dihedral:{2 * n}"),
    st.integers(2, 6).map(lambda n: f"quaternion:{4 * n}"),
    st.sampled_from(["symmetric:1", "symmetric:2", "symmetric:3", "symmetric:4",
                     "extraspecial:8:+", "extraspecial:8:-", "extraspecial:32:+",
                     "extraspecial:32:-", "almost-extraspecial:16", "heisenberg:3"]),
)


@settings(max_examples=40, deadline=None)
@given(spec_strategy)
def test_every_spec_builds_a_valid_group(text):
    spec = parse_group_spec(text)
    assert parse_group_spec(spec.canonical()) == spec
    g = build_group(spec)
    assert g.label == spec.canonical()
    verify_group_invariants(g)


@pytest.mark.parametrize("spec, message", [
    (GroupSpec("cyclic", (4.5,)), "cyclic order must be >= 1, got 4.5: 4.5"),
    (GroupSpec("abelian", (2, 2.5)), r"abelian cyclic orders must be >= 1, got \(2, 2.5\): 2.5"),
    (GroupSpec("cyclic", (True,)), "cyclic order must be >= 1, got True: True"),
    (GroupSpec("dihedral", (8.0,)), "dihedral order must be an even integer >= 4, got 8.0: 8.0"),
    (GroupSpec("cyclic", ("4",)), "cyclic order must be >= 1, got 4: '4'"),
], ids=["float", "abelian-float", "bool", "float-that-is-whole", "str"])
def test_family_parameters_must_be_integers(monkeypatch, spec, message):
    # the rule refuses them before any fill: no order-5 "cyclic:4.5", no
    # order-6 abelian:2,2.5, no "cyclic:True", no TypeError
    def refuse(*args):
        raise AssertionError("a fill ran for a spec whose parameters are not integers")
    for family in ("cyclic", "abelian", "dihedral"):
        monkeypatch.setitem(catalog._FAMILIES, family, (*catalog._FAMILIES[family][:3], refuse))
    with pytest.raises(SpecSyntaxError, match=f"^{message} is not an integer$"):
        build_group(spec)


@pytest.mark.parametrize("spec, message", [
    (GroupSpec("cyclic", ()), r"cyclic takes 1 parameter, got 0: \(\)"),
    (GroupSpec("cyclic", (4, 5)), r"cyclic takes 1 parameter, got 2: \(4, 5\)"),
    (GroupSpec("extraspecial", ()), r"extraspecial takes 2 parameters, got 0: \(\)"),
    (GroupSpec("extraspecial", (8,)), r"extraspecial takes 2 parameters, got 1: \(8,\)"),
    (GroupSpec("extraspecial", (8, 1)), "extraspecial type must be '\\+' or '-', got 1"),
    (GroupSpec("heisenberg", (np.True_,)),
     "heisenberg parameter must be an odd prime, got True: np.True_ is not an integer"),
    (GroupSpec("product", ()), r"product takes two GroupSpec factors, got \(\)"),
    (GroupSpec("product", ("cyclic:2", "cyclic:3")),
     r"product takes two GroupSpec factors, got \('cyclic:2', 'cyclic:3'\)"),
    (GroupSpec("product", (GroupSpec("cyclic", (5,)), GroupSpec("cyclic", (4, 5)))),
     r"cyclic takes 1 parameter, got 2: \(4, 5\)"),
    (GroupSpec("table", (5,)), r"table takes one str or PathLike path, got \(5,\)"),
    (GroupSpec("cyclic", 4), "cyclic parameters must be a tuple, got 4"),
    (GroupSpec("torus", (4,)), "unknown group family 'torus'"),
    (42, "expected a spec string or a GroupSpec, got 42"),
], ids=["no-parameter", "two-parameters", "extraspecial-none", "extraspecial-no-type",
        "extraspecial-int-type", "numpy-bool", "product-empty", "product-of-strings",
        "product-malformed-right", "table-int", "not-a-tuple", "unknown-family", "not-a-spec"])
def test_malformed_parameters_raise_spec_syntax_error(monkeypatch, spec, message):
    # before the rule runs or formats p[0], and before any fill
    def refuse(*args):
        raise AssertionError("a fill ran for a malformed spec")
    for family in catalog._FAMILIES:
        monkeypatch.setitem(catalog._FAMILIES, family, (*catalog._FAMILIES[family][:3], refuse))
    with pytest.raises(SpecSyntaxError, match=f"^{message}$"):
        build_group(spec)


@pytest.mark.parametrize("params, text", [
    ((np.int8(5),), "symmetric:5"),
    ((np.int8(7),), "heisenberg:7"),
    ((np.int8(100), np.int8(50)), "abelian:100,50"),  # math.prod of int8 wraps to -120
    ((np.uint16(12), np.int64(3)), "abelian:12,3"),
    ((np.int64(32), "-"), "extraspecial:32:-"),
    ((np.uint8(40),), "dihedral:40"),
], ids=["symmetric-int8", "heisenberg-int8", "abelian-int8-over-the-cap", "abelian-mixed",
        "extraspecial-int64", "dihedral-uint8"])
def test_numpy_parameters_build_what_their_spec_string_builds(params, text):
    spec = GroupSpec(text.partition(":")[0], params)
    try:
        want = build_group(text)
    except SizeLimitExceeded as exc:
        with pytest.raises(SizeLimitExceeded, match=f"^{exc}$"):
            build_group(spec)
        return
    g = build_group(spec)
    assert g.label == want.label == text
    assert np.array_equal(g.table, want.table)


def test_spec_parameters_become_python_ints():
    spec = catalog._require(GroupSpec("product", [GroupSpec("abelian", (np.int16(2), 3)),
                                                  GroupSpec("cyclic", (np.uint8(5),))]))
    assert [[type(v) for v in q.params] for q in spec.params] == [[int, int], [int]]
    assert build_group(spec).label == "product:(abelian:2,3)x(cyclic:5)"
