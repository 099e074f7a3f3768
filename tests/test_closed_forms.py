"""Every default-sweep report against closed forms that never call the
library, so a fill that built the wrong group cannot pass as golden."""

from __future__ import annotations

import pytest

from closed_forms import forms
from cyclicdensity import SweepConfig, build_group, direct_product, full_report, run_sweep

FIELDS = ("cyclic_count", "center_order", "alpha_g", "alpha_z", "equality",
          "quotient_exponent")


def test_default_sweep_matches_the_closed_forms():
    result = run_sweep(SweepConfig())
    assert len(result.reports) == 975
    mismatches = [
        (r.label, field, getattr(r, field), want[field])
        for r in result.reports
        for want in [forms(r.label)]
        for field in FIELDS
        if getattr(r, field) != want[field]
    ]
    assert mismatches == []
    equal = [r.label for r in result.reports if forms(r.label)["equality"]]
    assert len(equal) == 775
    assert list(result.equality_labels) == equal


LARGE = ("cyclic:4096", "cyclic:3465", "abelian:64,64", "abelian:" + ",".join(["2"] * 12),
         "abelian:3,9,27", "dihedral:4096", "dihedral:2310", "quaternion:4096",
         "quaternion:1020", "extraspecial:2048:+", "extraspecial:2048:-",
         "almost-extraspecial:4096", "heisenberg:13", "heisenberg:11", "symmetric:5")


def test_catalog_reach_matches_the_closed_forms():
    # past the default sweep, up to the 4096 cap
    mismatches = [
        (spec, field, getattr(report, field), want[field])
        for spec in LARGE
        for report, want in [(full_report(build_group(spec)), forms(spec))]
        for field in FIELDS
        if getattr(report, field) != want[field]
    ]
    assert mismatches == []


# G x H with |G| and |H| coprime: each cyclic subgroup of the product is a
# product of cyclic subgroups, Z(G x H) = Z(G) x Z(H), and equality holds
# exactly when it holds for both factors.  The first two are T x O with T a
# 2-group and O odd and nontrivial, an equality shape no sweep group has.
COPRIME = (("almost-extraspecial:16", "cyclic:3"), ("almost-extraspecial:64", "abelian:3,3"),
           ("dihedral:8", "cyclic:3"), ("quaternion:8", "heisenberg:3"),
           ("almost-extraspecial:16", "heisenberg:3"), ("symmetric:3", "cyclic:5"),
           ("extraspecial:32:+", "cyclic:15"))


@pytest.mark.parametrize("left, right", COPRIME, ids=[f"{a}x{b}" for a, b in COPRIME])
def test_coprime_products_multiply_the_closed_forms(left, right):
    g, h = forms(left), forms(right)
    report = full_report(direct_product(build_group(left), build_group(right)))
    assert report.cyclic_count == g["cyclic_count"] * h["cyclic_count"]
    assert report.center_order == g["center_order"] * h["center_order"]
    assert report.equality == (g["equality"] and h["equality"])
    assert report.equality == ((left, right) in COPRIME[:2])
