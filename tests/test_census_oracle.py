"""The least-generator census and the values read off G's own arrays,
against the explicit-enumeration and rebuilt-subgroup oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from census_oracle import (
    by_order,
    cyclic_subgroup_sets,
    rebuilt_center_values,
    rebuilt_two_part_witness,
)
from cyclicdensity import (
    SweepConfig,
    alpha,
    average_order,
    build_group,
    center,
    corpus_specs,
    cyclic_subgroups,
    direct_product,
    full_report,
    group_exponent,
    quotient_by_central,
    relabeled_copy,
    structural_condition,
)


def assert_matches_oracle(g):
    census = cyclic_subgroups(g)
    sets = cyclic_subgroup_sets(g)
    assert census.count == len(sets), g.label
    assert census.by_order == by_order(sets), g.label
    assert int(census.roots.sum()) == census.count, g.label

    a_z, avg_z, z_order = rebuilt_center_values(g)
    z = center(g)
    assert alpha(g, z) == a_z, g.label
    assert average_order(g, z) == avg_z, g.label
    report = full_report(g)
    assert (report.alpha_z, report.avg_order_z, report.center_order) == (
        a_z, avg_z, z_order), g.label
    # exp(G/Z) from the power walk on G's table, against the rebuilt G/Z
    assert report.quotient_exponent == group_exponent(quotient_by_central(g, z)), g.label

    st_result = structural_condition(g)
    if st_result.holds or st_result.witness.startswith("coset of"):
        # (a) and (b) held, so step (c) decided the verdict
        expected = rebuilt_two_part_witness(st_result.two_part)
        assert st_result.witness == expected, g.label
        assert st_result.holds == (expected == ""), g.label


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

