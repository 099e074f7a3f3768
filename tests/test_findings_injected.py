"""The seven findings of full_report that no valid table can produce, each
made to fire by an injected fault: a tampered g.ord, or one layer of verify
replaced by a wrong one.  equality-quotient and 2-central both read
exp(G/Z), so a fault that fires one fires the other too.  Each test pins
the finding's text, its check, its witness and its place among the
findings; the last tests pin all thirteen checks in report order."""

import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest

from census_oracle import coset_partition
from cyclicdensity import Subgroup, build_group, verify
from table_oracle import center_members, relabeled_copy, with_orders

# every check full_report runs, in report order; the three per-coset
# checks are interleaved coset by coset, so they share one place
CHECKS = ("count-identity", "census-orders",
          ("order-identity", "totient-divisibility", "coset-inequality"),
          "alpha-inequality", "equality-equivalence", "equality-minimal-order",
          "equality-quotient", "2-central", "4-abelian", "odd-order", "avg-order-inequality")
RANK = {check: i for i, row in enumerate(CHECKS)
        for check in (row if isinstance(row, tuple) else (row,))}


def checks(report):
    return [f.check for f in report.findings]


def witnesses(report):
    return [f.witness for f in report.findings]


def alpha_of_the_center_too_small(mp):
    real = verify.alpha
    mp.setattr(verify, "alpha", lambda g, z=None: real(g) if z is None else Fraction(1, 2))
    return verify.full_report(build_group("dihedral:6"))


def parts_that_do_not_factor(mp):
    # element 3 of Z_6 claims order 6: T = {0} and O = {0, 2, 4} meet in the
    # identity alone, but |T| |O| = 3, not 6, so the structural condition
    # fails where the densities are equal
    g = build_group("cyclic:6")
    ords = g.ord.copy()
    ords[3] = 6
    return verify.full_report(with_orders(g, ords))


def a_coset_of_minimal_order_4(mp):
    real = verify.per_coset_analysis

    def one_coset_of_order_4(g, z):
        pc = real(g, z)
        steps = list(pc.per_coset)
        steps[2] = dataclasses.replace(steps[2], k=4)
        return dataclasses.replace(pc, per_coset=tuple(steps))

    mp.setattr(verify, "per_coset_analysis", one_coset_of_order_4)
    return verify.full_report(build_group("almost-extraspecial:16"))


def a_quotient_exponent_of_3(mp):
    # 3, not 4: the bound is exp(G/Z) > 2, and > 3 would pass it
    mp.setattr(verify, "_element_orders", lambda table, mask: np.array([1, 3]))
    return verify.full_report(build_group("dihedral:4"))


def a_quotient_coset_of_order_4(mp):
    # a coset of order 4 in G/Z: its squares lie outside Z, and a square is
    # central exactly when exp(G/Z) <= 2
    mp.setattr(verify, "_element_orders", lambda table, mask: np.array([1, 2, 4, 4]))
    return verify.full_report(build_group("almost-extraspecial:16"))


def odd_order_equality(mp):
    # alpha(Z) read as alpha(G): heisenberg:3 then claims equality, and each
    # check of its consequences fails on the way, the odd-order one last
    real = verify.alpha
    mp.setattr(verify, "alpha", lambda g, z=None: real(g))
    return verify.full_report(build_group("heisenberg:3"))


def group_average_too_small(mp):
    real = verify.average_order
    mp.setattr(verify, "average_order", lambda g, z=None: Fraction(1) if z is None else real(g, z))
    return verify.full_report(build_group("dihedral:8"))


def a_center_of_all_of_dihedral_16(mp):
    # a center of all of G forces alpha(G) = alpha(Z); dihedral:16 is not
    # 4-abelian, so the report scans for and prints the first pair
    mp.setattr(verify, "center", lambda g: Subgroup(g, np.ones(g.n, dtype=bool)))
    return verify.full_report(build_group("dihedral:16"))


def test_alpha_inequality_fires_when_alpha_of_the_center_is_too_small(monkeypatch):
    report = alpha_of_the_center_too_small(monkeypatch)
    assert report.findings == ("alpha-inequality: alpha(G) = 5/6 exceeds alpha(Z) = 1/2",)
    assert checks(report) == ["alpha-inequality"]
    assert witnesses(report) == [(Fraction(5, 6), Fraction(1, 2))]


def test_equality_equivalence_fires_when_the_parts_do_not_factor(monkeypatch):
    report = parts_that_do_not_factor(monkeypatch)
    assert report.findings[2] == (
        "equality-equivalence: equality is True but the structural condition is False "
        "(parts do not factor the group: |T| = 1, |O| = 3, |T meet O| = 1, |G| = 6)")
    assert len(report.findings) == 3
    assert checks(report) == ["count-identity", "census-orders", "equality-equivalence"]
    assert report.findings[2].witness == (
        True, False, "parts do not factor the group: |T| = 1, |O| = 3, |T meet O| = 1, |G| = 6")


def test_equality_minimal_order_fires_for_a_coset_without_an_involution(monkeypatch):
    report = a_coset_of_minimal_order_4(monkeypatch)
    assert report.equality
    assert report.findings == ("equality-minimal-order: equality holds yet 1 non-center "
                               "cosets have minimal order 4, expected 2",)
    assert checks(report) == ["equality-minimal-order"]
    assert witnesses(report) == [(1, 4)]


def test_equality_quotient_fires_for_a_quotient_exponent_of_3(monkeypatch):
    report = a_quotient_exponent_of_3(monkeypatch)
    assert report.equality and report.quotient_exponent == 3
    assert not report.two_central
    assert report.findings == ("equality-quotient: equality holds yet exp(G/Z) = 3 > 2",
                               "2-central: equality holds yet some square is not central")
    assert checks(report) == ["equality-quotient", "2-central"]
    assert witnesses(report) == [(3,), ()]


def test_2_central_fires_when_a_square_is_not_central(monkeypatch):
    report = a_quotient_coset_of_order_4(monkeypatch)
    assert report.equality and not report.two_central
    assert report.findings == ("equality-quotient: equality holds yet exp(G/Z) = 4 > 2",
                               "2-central: equality holds yet some square is not central")
    assert checks(report) == ["equality-quotient", "2-central"]
    assert witnesses(report) == [(4,), ()]


def test_odd_order_fires_when_a_non_abelian_odd_group_claims_equality(monkeypatch):
    report = odd_order_equality(monkeypatch)
    assert report.equality and report.center_order < report.order
    assert report.findings[0].startswith("equality-equivalence: ")
    assert report.findings[1:] == (
        "equality-minimal-order: equality holds yet 8 non-center cosets have minimal order 3, "
        "expected 2",
        "equality-quotient: equality holds yet exp(G/Z) = 3 > 2",
        "2-central: equality holds yet some square is not central",
        "odd-order: equality holds for an odd-order non-abelian group")
    assert checks(report) == ["equality-equivalence", "equality-minimal-order",
                              "equality-quotient", "2-central", "odd-order"]
    assert witnesses(report) == [
        (True, False, "element 1 has odd order 3 but is not central"), (8, 3), (3,), (), ()]


def test_avg_order_inequality_fires_when_the_group_average_is_too_small(monkeypatch):
    report = group_average_too_small(monkeypatch)
    assert not report.avg_inequality_holds
    assert report.findings == ("avg-order-inequality: o(G) = 1 is below o(Z) = 3/2",)
    assert checks(report) == ["avg-order-inequality"]
    assert witnesses(report) == [(Fraction(1), Fraction(3, 2))]


INJECTED = (alpha_of_the_center_too_small, parts_that_do_not_factor, a_coset_of_minimal_order_4,
            a_quotient_exponent_of_3, a_quotient_coset_of_order_4, odd_order_equality,
            group_average_too_small, a_center_of_all_of_dihedral_16)
# the tampered orders of test_verify and test_census_oracle; the last
# relabels ids 1..n-1 in reverse, so a coset's least id of minimal order is
# not always the first of them in the order of Z
TAMPERED = (("dihedral:8", {4: 4}), ("dihedral:8", {5: 1009}),
            ("quaternion:8", {1: 1009, 3: 997}), ("dihedral:16", {2: 3}),
            ("dihedral:8", {4: 2147483647, 5: 2147483629, 6: 2147483587, 7: 2147483579}),
            ("reversed:product:(dihedral:8)x(cyclic:4)", {22: 6}))


def tampered(spec, changes):
    g = build_group(spec.removeprefix("reversed:"))
    if spec.startswith("reversed:"):
        g = relabeled_copy(g, [0, *range(g.n - 1, 0, -1)])
    ords = g.ord.copy()
    for x, o in changes.items():
        ords[x] = o
    return with_orders(g, ords)


def assert_witness_printed(f):
    """f's text is its check, ": ", then each witness value in turn."""
    assert f.startswith(f.check + ": "), f
    at = len(f.check) + 2
    for value in f.witness:
        at = f.index(str(value), at) + len(str(value))


def test_every_check_fires_in_report_order_with_its_witness():
    cases = []
    for fault in INJECTED:
        with pytest.MonkeyPatch.context() as mp:
            cases.append((None, fault(mp)))
    cases += [(g, verify.full_report(g)) for g in (tampered(*case) for case in TAMPERED)]
    fired = set()
    for g, report in cases:
        assert report.findings, report.label
        ranks = [RANK[check] for check in checks(report)]
        assert ranks == sorted(ranks), report.findings
        for f in report.findings:
            assert type(f) is verify.Finding
            assert_witness_printed(f)
            if RANK[f.check] == 2:
                # each per-coset witness starts with the coset's minimal
                # representative y: its least id of least order k
                ys = dict(coset_partition(g, center_members(g))[2])
                assert f.witness[0] in ys, f
                if f.check == "order-identity":
                    assert ys[f.witness[0]] == f.witness[1], f
            if f.check == "4-abelian":
                t = build_group(report.label).table
                sq = t.diagonal()
                x, y = f.witness
                assert sq[sq][t[x, y]] != t[sq[sq][x], sq[sq][y]], f
        fired.update(checks(report))
    assert fired == set(RANK) and len(RANK) == 13


def test_a_report_with_findings_keeps_its_records_through_pickle():
    report = verify.full_report(tampered("dihedral:8", {4: 4}))
    assert checks(report) == ["count-identity", "census-orders", "order-identity"]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(report, protocol))
        assert copy == report
        assert [(type(f), f.check, f.witness) for f in copy.findings] == [
            (verify.Finding, f.check, f.witness) for f in report.findings]
