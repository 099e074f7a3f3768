"""The density inequality, its equality characterization, per-coset proof
obligations, and the corollaries, on groups with independently frozen values."""

import dataclasses
import gc
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from cyclicdensity import (
    AlphaReport,
    InvalidArgument,
    Subgroup,
    alpha,
    average_order,
    build_group,
    center,
    four_abelian_failure,
    full_report,
)
from cyclicdensity.verify import per_coset_analysis, structural_condition
from table_oracle import relabeled_copy, with_orders


def test_inequality_d8(d8):
    a_g, a_z = alpha(d8), alpha(d8, center(d8))
    assert (a_g, a_z, a_g <= a_z) == (Fraction(7, 8), Fraction(1), True)


def test_inequality_q8(q8):
    a_g, a_z = alpha(q8), alpha(q8, center(q8))
    # center is {1, -1}, a copy of Z2, whose density is 1
    assert (a_g, a_z, a_g <= a_z) == (Fraction(5, 8), Fraction(1), True)


def test_inequality_pauli16_is_equality(pauli16):
    a_g, a_z = alpha(pauli16), alpha(pauli16, center(pauli16))
    assert a_g == a_z == Fraction(3, 4)
    assert a_g <= a_z and a_g == a_z


def test_inequality_heisenberg_strict(heis3):
    a_g, a_z = alpha(heis3), alpha(heis3, center(heis3))
    assert a_g == Fraction(14, 27)
    assert a_z == Fraction(2, 3)
    assert a_g <= a_z and a_g != a_z


def test_inequality_symmetric(s3, s4):
    for g in (s3, s4):
        a_g, a_z = alpha(g), alpha(g, center(g))
        assert a_z == Fraction(1)  # trivial center
        assert a_g <= a_z and a_g < a_z


def test_average_order_inequality(d8, q8, pauli16, heis3):
    expected = ((d8, Fraction(19, 8), Fraction(3, 2)),
                (q8, Fraction(27, 8), Fraction(3, 2)),
                (pauli16, Fraction(47, 16), Fraction(11, 4)),
                (heis3, Fraction(79, 27), Fraction(7, 3)))
    for g, want_g, want_z in expected:
        avg_g, avg_z = average_order(g), average_order(g, center(g))
        assert (avg_g, avg_z) == (want_g, want_z), g.label
        assert avg_g >= avg_z, g.label


# ---------------------------------------------------------------- per coset

def test_per_coset_d8(d8):
    pc = per_coset_analysis(d8, center(d8))
    assert pc.total == Fraction(7)  # equals |C(D8)|
    assert pc.findings == ()
    head = pc.per_coset[0]
    assert head.is_center and head.k == 1 and head.coset_sum == Fraction(2)
    rest = [(c.k, c.coset_sum) for c in pc.per_coset[1:]]
    # two reflection cosets sum to 2 (equality), the rotation coset {r, r^3} to 1
    assert rest == [(2, Fraction(2)), (2, Fraction(2)), (4, Fraction(1))]
    assert all(c.order_identity and c.divisibility and c.coset_inequality
               for c in pc.per_coset)


def test_per_coset_q8(q8):
    pc = per_coset_analysis(q8, center(q8))
    assert pc.per_coset[0].coset_sum == Fraction(2)
    assert [(c.k, c.coset_sum) for c in pc.per_coset[1:]] == [(4, Fraction(1))] * 3
    assert pc.total == Fraction(5)


def test_per_coset_pauli16_attains_equality_everywhere(pauli16):
    pc = per_coset_analysis(pauli16, center(pauli16))
    assert all(c.coset_sum == Fraction(3) for c in pc.per_coset)
    assert all(c.k == 2 for c in pc.per_coset[1:])
    assert pc.total == Fraction(12)


def test_per_coset_abelian_single_coset(z12):
    pc = per_coset_analysis(z12, center(z12))
    assert len(pc.per_coset) == 1
    assert pc.per_coset[0].is_center
    assert pc.total == Fraction(6)


def test_per_coset_trivial_center(s4):
    pc = per_coset_analysis(s4, center(s4))
    assert len(pc.per_coset) == 24
    assert pc.per_coset[0].coset_sum == Fraction(1)
    assert all(c.coset_sum <= 1 for c in pc.per_coset)
    assert pc.total == Fraction(17)
    assert pc.findings == ()


# ---------------------------------------------------------------- structure

def test_structural_holds_for_pauli16(pauli16):
    assert structural_condition(pauli16, center(pauli16)) is None


def test_structural_holds_for_abelian(z12, klein):
    for g in (z12, klein):
        assert structural_condition(g, center(g)) is None, g.label


def test_structural_fails_for_heisenberg(heis3):
    why = structural_condition(heis3, center(heis3))
    assert "odd order" in why and "not central" in why


def test_structural_fails_for_q8(q8):
    assert "minimal order 4" in structural_condition(q8, center(q8))


def test_structural_fails_for_s3(s3):
    assert structural_condition(s3, center(s3)) is not None


def test_structural_odd_part_detached():
    g = build_group("product:(cyclic:3)x(quaternion:8)")
    # odd part Z3 is central and splits off, but the 2-part is Q8: no involution cover
    assert structural_condition(g, center(g)) == (
        "coset of 1 in the 2-part has minimal order 4, no element of order <= 2")


def test_equivalence_on_named_groups(d8, q8, q16, s3, s4, pauli16,
                                     es32_plus, es32_minus, heis3, z12, klein):
    expect_equal = {id(pauli16), id(z12), id(klein)}
    for g in (d8, q8, q16, s3, s4, pauli16, es32_plus, es32_minus, heis3, z12, klein):
        eq = alpha(g) == alpha(g, center(g))
        assert eq == (structural_condition(g, center(g)) is None), g.label
        assert eq == (id(g) in expect_equal), g.label


# --------------------------------------------------------------- corollaries

def test_is_2_central(d8, q8, s3, heis3, pauli16):
    assert full_report(d8).two_central
    assert full_report(q8).two_central
    assert full_report(pauli16).two_central
    assert not full_report(s3).two_central
    assert not full_report(heis3).two_central


@pytest.mark.parametrize("check", [per_coset_analysis, structural_condition])
@pytest.mark.parametrize("spec, members", [("cyclic:8", [0, 4]), ("cyclic:6", [0, 2, 4])])
def test_checks_refuse_a_subgroup_of_another_group(d8, check, spec, members):
    # read on dihedral:8's ids, the first gave false order-identity findings
    # and the second cosets that do not partition the group
    z = Subgroup(build_group(spec), members)
    with pytest.raises(InvalidArgument, match="does not belong to this group"):
        check(d8, z)


def _pow4(g, x: int) -> int:
    x2 = g.table[x, x]
    return int(g.table[x2, x2])


def test_four_abelian_failure(d8, q8, s3, s4, z12, pauli16, es32_plus, heis3):
    # exponent <= 4 makes every fourth power trivial; abelian and
    # exponent-3 groups satisfy the identity outright
    for g in (d8, q8, z12, pauli16, es32_plus, heis3):
        assert four_abelian_failure(g) is None, g.label
    for g in (s3, s4):
        witness = four_abelian_failure(g)
        assert witness is not None, g.label
        x, y = witness
        lhs = _pow4(g, g.table[x, y])
        rhs = g.table[_pow4(g, x), _pow4(g, y)]
        assert lhs != rhs, g.label
        first = next((a, b) for a in range(g.n) for b in range(g.n)
                     if _pow4(g, g.table[a, b]) != g.table[_pow4(g, a), _pow4(g, b)])
        assert witness == first, g.label


def test_four_abelian_failure_s3_witness_shape(s3):
    # the failing pair multiplies to a 3-cycle whose fourth power is itself,
    # while the pair's own fourth powers collapse to the identity
    x, y = four_abelian_failure(s3)
    assert s3.ord[s3.table[x, y]] == 3
    assert _pow4(s3, x) == 0 and _pow4(s3, y) == 0


# ------------------------------------------------------------------ reports

def test_full_report_clean_on_good_groups(d8, q8, s4, pauli16, heis3, es32_minus):
    for g in (d8, q8, s4, pauli16, heis3, es32_minus):
        report = full_report(g)
        assert report.findings == (), (g.label, report.findings)
        assert report.clean
        assert report.count_identity
        assert report.cyclic_count == report.order * report.alpha_g
        assert sum(c.coset_sum for c in report.proof_steps) == report.cyclic_count


def test_full_report_values_pauli16(pauli16):
    r = full_report(pauli16)
    assert r.equality and r.structural
    assert r.center_order == 4
    assert r.quotient_exponent == 2
    assert r.two_central and r.four_abelian
    assert r.alpha_g == r.alpha_z == Fraction(3, 4)


def test_full_report_quotient_exponents(d8, q8, s3, heis3, s4):
    assert full_report(d8).quotient_exponent == 2
    assert full_report(q8).quotient_exponent == 2
    assert full_report(s3).quotient_exponent == 6  # trivial center, G/Z = G
    assert full_report(heis3).quotient_exponent == 3
    assert full_report(s4).quotient_exponent == 12


def test_report_verdicts_follow_their_fractions(d8):
    r = full_report(d8)
    assert r.inequality_holds and not r.equality and r.avg_inequality_holds
    equal = dataclasses.replace(r, alpha_z=r.alpha_g)
    assert equal.inequality_holds and equal.equality
    over = dataclasses.replace(r, alpha_z=r.alpha_g - Fraction(1, 8))
    assert not over.inequality_holds and not over.equality
    assert not dataclasses.replace(r, avg_order_z=r.avg_order_g + 1).avg_inequality_holds
    assert dataclasses.replace(r, avg_order_z=r.avg_order_g).avg_inequality_holds
    with pytest.raises(ValueError):
        dataclasses.replace(r, center_order=3)


def test_report_relabel_invariant(d8, q8, pauli16, s4):
    import numpy as np

    rng = np.random.default_rng(2024)
    for g in (d8, q8, pauli16, s4):
        base = dataclasses.asdict(full_report(g))
        base.pop("label")
        for _ in range(3):
            h = relabeled_copy(g, rng.permutation(g.n))
            other = dataclasses.asdict(full_report(h))
            other.pop("label")
            assert other == base, g.label


def test_tampered_orders_produce_findings(d8):
    bad_ord = d8.ord.copy()
    bad_ord[4] = 4  # reflection 4 really has order 2
    fake = with_orders(d8, bad_ord)
    report = full_report(fake)
    assert "count-identity" in [f.check for f in report.findings]
    assert not report.count_identity


def test_orders_rebound_after_a_report_reach_the_next_one():
    # a group caches nothing read off g.ord: a second report of a group
    # whose orders were rebound finds what a fresh copy with them finds
    g = build_group("dihedral:8")
    assert full_report(g).findings == ()
    ords = g.ord.copy()
    ords[4] = 4  # reflection 4 really has order 2
    g.ord = ords
    fresh = full_report(with_orders(build_group("dihedral:8"), ords))
    assert [f.check for f in fresh.findings] == [
        "count-identity", "census-orders", "order-identity"]
    assert full_report(g).findings == fresh.findings


def test_odd_order_groups_equality_iff_abelian():
    # odd-order slice: equality must coincide with being abelian
    for spec in ("cyclic:15", "cyclic:27", "abelian:3,9", "abelian:5,5",
                 "heisenberg:3", "heisenberg:5"):
        g = build_group(spec)
        assert g.n % 2 == 1
        assert (alpha(g) == alpha(g, center(g))) == (len(center(g)) == g.n), spec


@pytest.mark.parametrize("spec", [
    "abelian:2,2,2,2,2,2,2,2,2,2", "dihedral:1024", "cyclic:1024",
    "almost-extraspecial:1024", "symmetric:6",
])
def test_full_report_allocates_under_half_the_table(spec):
    # no check on the report path may make an n^2 temporary
    g = build_group(spec)
    tracemalloc.start()
    try:
        full_report(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.table.nbytes // 2, (spec, peak, g.table.nbytes)


def test_reported_group_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        g = build_group("dihedral:64")
        full_report(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()

