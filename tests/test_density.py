"""Census and density values, frozen from an independent brute-force pass
(groups realized as permutation/matrix groups, subgroups enumerated as raw
element sets), plus cross-route identities."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from census_oracle import cyclic_subgroup_sets, least_generator, per_coset_findings
from cyclicdensity import (
    GroupSpec,
    NoInverse,
    NotClosed,
    alpha,
    average_order,
    build_group,
    center,
    cyclic_subgroups,
    full_report,
    validate_table_with_report,
)
from cyclicdensity.density import census_matches_orders
from cyclicdensity.verify import per_coset_analysis
from table_oracle import group_exponent, prove_orders, with_orders


def test_census_d8(d8):
    census = cyclic_subgroups(d8)
    assert census.count == 7
    assert census.by_order == {1: 1, 2: 5, 4: 1}
    sets = cyclic_subgroup_sets(d8)
    for members in (frozenset({0, 1, 2, 3}), frozenset({0})):  # rotations, trivial
        assert members in sets
        assert census.roots[least_generator(d8, members)]


def test_census_q8(q8):
    census = cyclic_subgroups(q8)
    assert census.count == 5
    assert census.by_order == {1: 1, 2: 1, 4: 3}


def test_census_z12(z12):
    census = cyclic_subgroups(z12)
    # one cyclic subgroup per divisor of 12
    assert census.count == 6
    assert census.by_order == {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 12: 1}


def test_census_symmetric(s3, s4):
    assert cyclic_subgroups(s3).count == 5
    assert cyclic_subgroups(s4).count == 17


def test_census_is_cached(d8):
    assert cyclic_subgroups(d8) is cyclic_subgroups(d8)


def test_alpha_values(d8, q8, s3, z4, klein, d16, q16, heis3):
    assert alpha(d8) == Fraction(7, 8)
    assert alpha(q8) == Fraction(5, 8)
    assert alpha(s3) == Fraction(5, 6)
    assert alpha(z4) == Fraction(3, 4)
    assert alpha(klein) == Fraction(1)
    assert alpha(d16) == Fraction(3, 4)
    assert alpha(q16) == Fraction(1, 2)
    assert alpha(heis3) == Fraction(14, 27)


def assert_totient_routes_match(g):
    """alpha(g) against |C(G)| / |G| = (sum of 1/phi(o(x))) / |G|, summed
    by the test oracle and by the library's per-coset analysis."""
    assert alpha(g) == per_coset_findings(g).total / g.n, g.label
    assert alpha(g) == per_coset_analysis(g, center(g)).total / g.n, g.label


def test_alpha_totient_route_matches(d8, q8, s3, s4, pauli16, es32_plus,
                                     es32_minus, heis3, z12, klein):
    for g in (d8, q8, s3, s4, pauli16, es32_plus, es32_minus, heis3, z12, klein):
        assert_totient_routes_match(g)
        assert full_report(g).count_identity
        assert census_matches_orders(g)


def test_alpha_extraspecial32(es32_plus, es32_minus):
    assert alpha(es32_plus) == Fraction(13, 16)
    assert alpha(es32_minus) == Fraction(11, 16)
    assert cyclic_subgroups(es32_plus).count == 26
    assert cyclic_subgroups(es32_minus).count == 22


def test_alpha_pauli16(pauli16):
    assert cyclic_subgroups(pauli16).count == 12
    assert alpha(pauli16) == Fraction(3, 4)


def test_average_orders(d8, q8, s3, s4, pauli16):
    assert average_order(d8) == Fraction(19, 8)
    assert average_order(q8) == Fraction(27, 8)
    assert average_order(s3) == Fraction(13, 6)
    assert average_order(s4) == Fraction(67, 24)
    assert average_order(pauli16) == Fraction(47, 16)


def test_alpha_of_trivial_group():
    g = build_group("cyclic:1")
    assert alpha(g) == Fraction(1)
    assert average_order(g) == Fraction(1)


def test_alpha_cyclic_closed_form():
    # for Z_n: |C| = number of divisors of n
    for n, divisors in ((2, 2), (6, 4), (12, 6), (30, 8), (36, 9)):
        g = build_group(f"cyclic:{n}")
        assert cyclic_subgroups(g).count == divisors


def test_klein_alpha_is_one(klein):
    # every element has order <= 2, so every cyclic subgroup has a unique generator
    assert alpha(klein) == 1
    assert_totient_routes_match(klein)


def test_count_identity_report_agreement(d8):
    report = full_report(d8)
    assert report.count_identity and report.cyclic_count == 7
    assert report.findings == ()


def test_count_identity_report_discrepancy(d8):
    bad_ord = d8.ord.copy()
    bad_ord[4] = 4  # reflection 4 really has order 2
    fake = with_orders(d8, bad_ord)
    report = full_report(fake)
    assert not report.count_identity
    # 1/phi(4) = 1/2 replaces 1/phi(2) = 1 in the totient sum
    assert report.findings[0] == ("count-identity: enumeration finds 7 cyclic subgroups, "
                                  "totient sum gives 13/2")


def test_census_proves_stored_orders(d8):
    # one tampered order: the proof names the element instead of trusting it
    bad_ord = d8.ord.copy()
    bad_ord[4] = 4  # reflection 4 really has order 2
    with pytest.raises(NotClosed, match=r"element 4 has recorded order 4, but x\^2 is the identity"):
        prove_orders(d8.table, bad_ord)
    bad_ord[4] = 1
    with pytest.raises(NotClosed, match=r"element 4 has recorded order 1, but x\^1 is not the identity"):
        prove_orders(d8.table, bad_ord)
    bad_ord[4] = 0
    with pytest.raises(NotClosed, match=r"element 4 has recorded order 0"):
        prove_orders(d8.table, bad_ord)
    z4 = build_group("cyclic:4")  # 2^2 is the identity, so the first mismatch is at k = 2
    with pytest.raises(NotClosed, match=r"element 2 has recorded order 4, but x\^2 is the identity"):
        prove_orders(z4.table, np.array([1, 4, 4, 4], dtype=np.int32))
    # the census then counts from the table, never from the tampered order
    fake = with_orders(d8, bad_ord)
    census = cyclic_subgroups(fake)
    assert (census.count, census.by_order) == (7, {1: 1, 2: 5, 4: 1})
    assert not census_matches_orders(fake)


def test_census_of_a_built_group_ignores_a_rebound_order_array():
    # the census reuses the orders the builder derived from the table, not
    # g.ord, so a tampered g.ord bound before any census changes nothing
    g = build_group("dihedral:8")
    bad_ord = g.ord.copy()
    bad_ord[4] = 4  # reflection 4 really has order 2
    g.ord = bad_ord
    census = cyclic_subgroups(g)
    assert (census.count, census.by_order) == (7, {1: 1, 2: 5, 4: 1})
    assert not census_matches_orders(g)


def test_census_raises_when_powers_never_reach_identity():
    # Z2 with a zero adjoined (2 * x = 2) is a monoid, not a group: no group
    # reaches the census, as validation names 2, whose powers never reach 0
    table = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 2]], dtype=np.int32)
    with pytest.raises(NoInverse, match="element 2 has no two-sided inverse") as err:
        validate_table_with_report(table)
    assert err.value.element == 2


def test_alpha_range_and_exponent_two_characterization():
    # alpha lies in (0, 1]; it hits 1 exactly when every non-identity
    # element is an involution
    for spec in ("cyclic:1", "cyclic:2", "abelian:2,2", "abelian:2,2,2",
                 "cyclic:5", "cyclic:12", "dihedral:8", "quaternion:16",
                 "symmetric:4", "heisenberg:3"):
        g = build_group(spec)
        a = alpha(g)
        assert 0 < a <= 1, spec
        assert (a == 1) == (group_exponent(g) <= 2), spec


def test_average_order_lower_bound():
    # o(G) >= 1, with equality only for the one-element group
    for spec in ("cyclic:1", "cyclic:2", "dihedral:8", "heisenberg:3",
                 "symmetric:4"):
        g = build_group(spec)
        avg = average_order(g)
        assert avg >= 1, spec
        assert (avg == 1) == (g.n == 1), spec


corpus_specs_strategy = st.sampled_from([
    "cyclic:17", "cyclic:24", "abelian:2,2,2", "abelian:3,9", "abelian:4,4",
    "dihedral:12", "dihedral:20", "quaternion:8", "quaternion:20",
    "symmetric:4", "extraspecial:32:+", "extraspecial:32:-",
    "almost-extraspecial:16", "heisenberg:3", "heisenberg:5",
    "product:(cyclic:3)x(quaternion:8)", "product:(dihedral:8)x(cyclic:5)",
])


@settings(max_examples=17, deadline=None)
@given(corpus_specs_strategy)
def test_routes_agree_across_catalog(spec):
    g = build_group(spec)
    assert_totient_routes_match(g)
    assert census_matches_orders(g)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), min_size=1, max_size=3))
def test_abelian_alpha_equals_center_alpha(orders):
    g = build_group(GroupSpec("abelian", tuple(orders)))
    # abelian: G = Z(G), so the density must equal itself under both routes
    assert_totient_routes_match(g)
    assert full_report(g).count_identity


@pytest.mark.parametrize("spec", ["cyclic:4096", "dihedral:4096", "abelian:2,3,5,7,11"])
def test_census_allocates_under_a_quarter_of_the_table(spec):
    # the unit-orbit census holds a few arrays of n ids, never a block of powers
    g = build_group(spec)
    tracemalloc.start()
    try:
        cyclic_subgroups(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.table.nbytes // 4, (spec, peak, g.table.nbytes)
