"""The least-generator census, the one-pass coset walk, the generating-set
checks and the values read off G's own arrays, against the
explicit-enumeration, n x |Z| coset partition, n^2 table and
rebuilt-subgroup oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from census_oracle import (
    by_order,
    cyclic_subgroup_sets,
    least_generator,
    per_coset_findings,
    quotient_table,
    rebuilt_center_values,
    structural,
)
from cyclicdensity import (
    SweepConfig,
    alpha,
    average_order,
    build_group,
    center,
    cyclic_subgroups,
    direct_product,
    four_abelian_failure,
    full_report,
)
from cyclicdensity.arith import unit_generators
from cyclicdensity.sweep import corpus_specs
from cyclicdensity.verify import per_coset_analysis, structural_condition
from table_oracle import (
    center_members,
    centrality_failure,
    four_abelian_witness,
    group_exponent,
    quotient_by_central,
    relabeled_copy,
    with_orders,
)


def assert_matches_oracle(g):
    census = cyclic_subgroups(g)
    sets = cyclic_subgroup_sets(g)
    assert census.count == len(sets), g.label
    assert census.by_order == by_order(sets), g.label
    assert int(census.roots.sum()) == census.count, g.label

    a_z, avg_z, z_order = rebuilt_center_values(g)
    z = center(g)
    assert z.members.tolist() == center_members(g), g.label
    assert centrality_failure(g, z.members) is None, g.label
    assert alpha(g, z) == a_z, g.label
    assert average_order(g, z) == avg_z, g.label
    report = full_report(g)
    assert (report.alpha_z, report.avg_order_z, report.center_order) == (
        a_z, avg_z, z_order), g.label
    # exp(G/Z) from the divisor descent on G's table, against the rebuilt G/Z
    quotient = quotient_by_central(g, z)
    assert report.quotient_exponent == group_exponent(quotient), g.label
    assert np.array_equal(quotient.table, quotient_table(g, z.members)), g.label
    assert per_coset_analysis(g, center(g)) == per_coset_findings(g), g.label
    # 2-central read off exp(G/Z), against the squares tested on the n^2
    # center; and the center's coset row, a totient sum, against |C(Z)|
    # from the rebuilt center's census
    assert report.two_central == bool(
        np.isin(np.diagonal(g.table), center_members(g)).all()), g.label
    assert report.proof_steps[0].coset_sum == a_z * z_order, g.label

    assert four_abelian_failure(g) == four_abelian_witness(g), g.label
    assert structural_condition(g, center(g)) == structural(g), g.label


@pytest.mark.parametrize("spec", corpus_specs(SweepConfig(max_order=64)))
def test_census_matches_oracle_on_corpus(spec):
    assert_matches_oracle(build_group(spec))


small_specs = st.sampled_from([
    "cyclic:2", "cyclic:4", "cyclic:6", "abelian:2,2", "dihedral:6",
    "dihedral:8", "quaternion:8", "quaternion:12", "symmetric:3",
    "heisenberg:3",
])


@settings(max_examples=25, deadline=None)
@given(small_specs, small_specs)
def test_census_matches_oracle_on_products(left, right):
    assert_matches_oracle(direct_product(build_group(left), build_group(right)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["dihedral:16", "quaternion:16", "almost-extraspecial:16",
                        "symmetric:4", "extraspecial:32:-", "cyclic:24"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_census_matches_oracle_on_relabelings(spec, seed):
    g = build_group(spec)
    h = relabeled_copy(g, np.random.default_rng(seed).permutation(g.n))
    assert_matches_oracle(h)
    assert cyclic_subgroups(h).count == cyclic_subgroups(g).count
    assert alpha(h, center(h)) == alpha(g, center(g))



# The census walks the units of exp(G), not of n: exponents 1 and 2, where
# no unit generator is left, odd exponents, and mixed ones
@pytest.mark.parametrize("spec", [
    "cyclic:1", "abelian:2,2,2,2", "abelian:3,3,3", "heisenberg:5",
    "product:(quaternion:8)x(cyclic:9)", "symmetric:5",
])
def test_census_over_the_units_of_the_exponent_matches_oracle(spec):
    g = build_group(spec)
    e = group_exponent(g)
    assert e < g.n or g.n == 1, spec
    assert (unit_generators(e) == ()) == (e <= 2), spec
    for h in (g, relabeled_copy(g, np.random.default_rng(36).permutation(g.n))):
        sets = cyclic_subgroup_sets(h)
        census = cyclic_subgroups(h)
        assert census.by_order == by_order(sets), (spec, h.label)
        assert (np.flatnonzero(census.roots).tolist()
                == sorted(least_generator(h, c) for c in sets)), (spec, h.label)


@pytest.mark.parametrize("spec", [
    "product:(dihedral:8)x(cyclic:256)",  # |Z| = 512: the cosets' gather takes 16 blocks
    "product:(symmetric:3)x(cyclic:243)",  # Z cyclic of odd order
    # and, inside the 2-part T, the cosets of Z(T) = Z meet T
    "product:(product:(dihedral:8)x(cyclic:64))x(cyclic:3)",
])
def test_census_matches_oracle_with_a_large_center(spec):
    g = build_group(spec)
    assert len(center(g)) > 128
    assert_matches_oracle(g)


@pytest.mark.parametrize("spec", ["product:(dihedral:8)x(cyclic:3)",
                                  "product:(quaternion:8)x(cyclic:15)"])
def test_structural_cosets_match_oracle_on_relabeled_products(spec):
    # G = T x O with O central and odd: the cosets of Z(T) = Z meet T are
    # found inside T, since the least id of yZ can lie outside T once the
    # ids no longer list T's pairs first
    g = build_group(spec)
    assert_matches_oracle(reversed_ids(g))
    for seed in range(3):
        assert_matches_oracle(relabeled_copy(g, np.random.default_rng(seed).permutation(g.n)))


def tampered(g, changes):
    ords = g.ord.copy()
    for x, o in changes.items():
        ords[x] = o
    return with_orders(g, ords)


def reversed_ids(g):
    """Relabel ids 1..n-1 in reverse, so a coset's least id of minimal
    order is not always the first of them in the order of Z."""
    return relabeled_copy(g, [0, *range(g.n - 1, 0, -1)])


@pytest.mark.parametrize("spec, changes", [
    ("dihedral:8", {4: 4}),  # reflection 4 really has order 2
    ("dihedral:8", {5: 1009}),  # common denominator 1008 > n
    ("quaternion:8", {1: 1009, 3: 997}),  # a central and a non-central element
    ("dihedral:16", {2: 3}),
    # phi of these primes has lcm over 2^80, so no int64 sum can hold it
    ("dihedral:8", {4: 2147483647, 5: 2147483629, 6: 2147483587, 7: 2147483579}),
    # central 22 really has order 2; every coset then names its y
    ("reversed:product:(dihedral:8)x(cyclic:4)", {22: 6}),
])
def test_per_coset_matches_oracle_on_tampered_orders(spec, changes):
    if spec.startswith("reversed:"):
        g = reversed_ids(build_group(spec.removeprefix("reversed:")))
    else:
        g = build_group(spec)
    fake = tampered(g, changes)
    found = per_coset_analysis(fake, center(fake))
    assert found == per_coset_findings(fake)
    assert found.findings
    z = center(fake)
    assert np.array_equal(quotient_by_central(fake, z).table, quotient_table(fake, z.members))
