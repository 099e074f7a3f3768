"""The seven findings of full_report that no valid table can produce, each
made to fire by an injected fault: a tampered g.ord, or one layer of verify
replaced by a wrong one.  equality-quotient and 2-central both read
exp(G/Z), so a fault that fires one fires the other too.  Each test pins
the finding's text and its place among the findings."""

import dataclasses
from fractions import Fraction

import numpy as np

from cyclicdensity import build_group, verify
from table_oracle import with_orders


def test_alpha_inequality_fires_when_alpha_of_the_center_is_too_small(monkeypatch):
    real = verify.alpha
    monkeypatch.setattr(verify, "alpha",
                        lambda g, z=None: real(g) if z is None else Fraction(1, 2))
    report = verify.full_report(build_group("dihedral:6"))
    assert report.findings == ("alpha-inequality: alpha(G) = 5/6 exceeds alpha(Z) = 1/2",)


def test_equality_equivalence_fires_when_the_parts_do_not_factor():
    # element 3 of Z_6 claims order 6: T = {0} and O = {0, 2, 4} meet in the
    # identity alone, but |T| |O| = 3, not 6, so the structural condition
    # fails where the densities are equal
    g = build_group("cyclic:6")
    ords = g.ord.copy()
    ords[3] = 6
    report = verify.full_report(with_orders(g, ords))
    assert report.findings[2] == (
        "equality-equivalence: equality is True but the structural condition is False "
        "(parts do not factor the group: |T| = 1, |O| = 3, |T meet O| = 1, |G| = 6)")
    assert len(report.findings) == 3


def test_equality_minimal_order_fires_for_a_coset_without_an_involution(monkeypatch):
    real = verify.per_coset_analysis

    def one_coset_of_order_4(g, z):
        pc = real(g, z)
        steps = list(pc.per_coset)
        steps[2] = dataclasses.replace(steps[2], k=4)
        return dataclasses.replace(pc, per_coset=tuple(steps))

    monkeypatch.setattr(verify, "per_coset_analysis", one_coset_of_order_4)
    report = verify.full_report(build_group("almost-extraspecial:16"))
    assert report.equality
    assert report.findings == ("equality-minimal-order: equality holds yet 1 non-center "
                               "cosets have minimal order 4, expected 2",)


def test_equality_quotient_fires_for_a_quotient_exponent_of_3(monkeypatch):
    # 3, not 4: the bound is exp(G/Z) > 2, and > 3 would pass it
    monkeypatch.setattr(verify, "_element_orders", lambda table, mask: np.array([1, 3]))
    report = verify.full_report(build_group("dihedral:4"))
    assert report.equality and report.quotient_exponent == 3
    assert not report.two_central
    assert report.findings == ("equality-quotient: equality holds yet exp(G/Z) = 3 > 2",
                               "2-central: equality holds yet some square is not central")


def test_2_central_fires_when_a_square_is_not_central(monkeypatch):
    # a coset of order 4 in G/Z: its squares lie outside Z, and a square is
    # central exactly when exp(G/Z) <= 2
    monkeypatch.setattr(verify, "_element_orders",
                        lambda table, mask: np.array([1, 2, 4, 4]))
    report = verify.full_report(build_group("almost-extraspecial:16"))
    assert report.equality and not report.two_central
    assert report.findings == ("equality-quotient: equality holds yet exp(G/Z) = 4 > 2",
                               "2-central: equality holds yet some square is not central")


def test_odd_order_fires_when_a_non_abelian_odd_group_claims_equality(monkeypatch):
    # alpha(Z) read as alpha(G): heisenberg:3 then claims equality, and each
    # check of its consequences fails on the way, the odd-order one last
    real = verify.alpha
    monkeypatch.setattr(verify, "alpha", lambda g, z=None: real(g))
    report = verify.full_report(build_group("heisenberg:3"))
    assert report.equality and report.center_order < report.order
    assert report.findings[0].startswith("equality-equivalence: ")
    assert report.findings[1:] == (
        "equality-minimal-order: equality holds yet 8 non-center cosets have minimal order 3, "
        "expected 2",
        "equality-quotient: equality holds yet exp(G/Z) = 3 > 2",
        "2-central: equality holds yet some square is not central",
        "odd-order: equality holds for an odd-order non-abelian group")


def test_avg_order_inequality_fires_when_the_group_average_is_too_small(monkeypatch):
    real = verify.average_order
    monkeypatch.setattr(verify, "average_order",
                        lambda g, z=None: Fraction(1) if z is None else real(g, z))
    report = verify.full_report(build_group("dihedral:8"))
    assert not report.avg_inequality_holds
    assert report.findings == ("avg-order-inequality: o(G) = 1 is below o(Z) = 3/2",)
