"""Checks for the density inequality alpha(G) <= alpha(Z(G)), its equality
characterization, the per-coset decomposition behind it, and the corollaries.

All is recomputed from the table save builders' closed-form orders and S,
proven by tests/test_builder_facts.py.  full_report() runs one ordered table
of named checks and collects a Finding for each failure: a str holding the
human-readable line, with the check's name and the values the line prints
as attributes.  A clean group always yields an empty findings tuple.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .arith import euler_phi
from .density import _members, alpha, average_order, census_matches_orders, cyclic_subgroups
from .errors import NotASubgroup
from .groups import (
    FiniteGroup,
    Subgroup,
    _central_cosets,
    _element_orders,
    _first_failure,
    _generators,
    _squares,
    center,
)


class Finding(str):
    """One failed check: str() is its line, "<check>: <text>"; check is the
    name before ": ", and witness the values the text prints, in order.  A
    plain str subclass, so it compares, prints and pickles as its line."""

    check: str
    witness: tuple


def _finding(check: str, template: str, *witness) -> Finding:
    """The finding of check whose text is template filled in with witness."""
    f = Finding(f"{check}: {template.format(*witness)}")
    f.check, f.witness = check, witness
    return f


@dataclass(frozen=True)
class CosetCheck:
    """Verified facts about one coset yZ: minimal order k, its totient sum,
    and the three per-coset proof obligations."""

    k: int
    coset_sum: Fraction
    order_identity: bool     # o(y x) == (k / gcd(k, o(x))) * o(x) for all x in Z
    divisibility: bool       # phi(o(x)) divides phi(o(y x)) for all x in Z
    coset_inequality: bool   # coset_sum <= center coset sum
    is_center: bool


@dataclass(frozen=True)
class PerCosetFindings:
    """Per-coset analysis for the partition of G by its center.

    per_coset entry 0 is the center coset; the rest are sorted by
    (k, coset_sum, flags) so the tuple is invariant under relabeling.
    """

    per_coset: tuple[CosetCheck, ...]
    total: Fraction
    findings: tuple[Finding, ...]


@dataclass(frozen=True)
class AlphaReport:
    """Everything the verifier established about one group.

    The verdicts inequality_holds, equality and avg_inequality_holds are
    derived from the rational fields on each read, so a report can never
    carry one that contradicts them.
    """

    label: str
    order: int
    center_order: int
    cyclic_count: int
    alpha_g: Fraction
    alpha_z: Fraction
    structural: bool
    quotient_exponent: int
    two_central: bool
    four_abelian: bool
    avg_order_g: Fraction
    avg_order_z: Fraction
    count_identity: bool
    proof_steps: tuple[CosetCheck, ...]
    findings: tuple[Finding, ...]

    def __post_init__(self):
        if self.center_order < 1 or self.order % self.center_order != 0:
            raise ValueError("center order must divide the group order")

    @property
    def inequality_holds(self) -> bool:
        return self.alpha_g <= self.alpha_z

    @property
    def equality(self) -> bool:
        return self.alpha_g == self.alpha_z

    @property
    def avg_inequality_holds(self) -> bool:
        return self.avg_order_g >= self.avg_order_z

    @property
    def clean(self) -> bool:
        return not self.findings


def _minimal_reps(ords: np.ndarray, cosets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per coset row: the least element order k, and the smallest id y of order k."""
    cords = ords[cosets]
    k = cords.min(axis=1)
    y = np.where(cords == k[:, None], cosets, ords.size).min(axis=1)
    return y, k


def per_coset_analysis(g: FiniteGroup, z: Subgroup) -> PerCosetFindings:
    """Check the three proof obligations on every coset of the center z,
    which the caller proves: full_report and the alpha command pass center(g).
    z must belong to g; a subgroup of another group raises InvalidArgument.

    For each coset with minimal representative y of order k, and every
    central x: the product order identity, totient divisibility, and the
    per-coset sum bound against the center's own sum.  The obligations are
    checked on whole m x |Z| arrays of products y x, and the sums of
    1/phi(o) are exact integer numerators over one common denominator L:
    int64 while no sum, at most n L, can reach 2^62, Python ints otherwise.
    The center's own sum is row 0's: that row is Z, so its representative
    y lies in Z and y Z = Z, whatever the orders are.
    """
    zmem = _members(g, z)
    # the distinct orders; return_counts keeps np.unique off its plain
    # route, whose first call imports numpy.ma
    orders = np.unique(g.ord, return_counts=True)[0]
    at = orders.searchsorted(g.ord)  # g.ord == orders[at]
    phis = [euler_phi(d) for d in orders.tolist()]
    ords = g.ord.astype(np.int64)
    y, k = _minimal_reps(ords, _central_cosets(g, z))
    prods = g[y[:, None], zmem]  # row i: y_i x for every central x
    ox, kk = ords[zmem], k[:, None]
    ok_identity = (ords[prods] == kk // np.gcd(kk, ox) * ox).all(axis=1).tolist()
    phi = np.array(phis, dtype=np.int64)
    ok_divides = (phi[at[prods]] % phi[at[zmem]] == 0).all(axis=1).tolist()
    # 1/phi(d) = (L // phi(d)) / L; a tampered g.ord can push L far beyond n
    L = math.lcm(*phis)
    numer = np.array([L // p for p in phis], dtype=np.int64 if L * g.n < 2 ** 62 else object)
    sums = numer[at[prods]].sum(axis=1).tolist()
    center_numer = sums[0]
    k, findings = k.tolist(), []
    if not (all(ok_identity) and all(ok_divides) and max(sums) <= center_numer):
        for yi, ki, s, ok_i, ok_d in zip(y.tolist(), k, sums, ok_identity, ok_divides):
            if not ok_i:
                findings.append(_finding("order-identity", "coset of {} (k = {}) violates o(y x) "
                                         "= (k / gcd(k, o(x))) o(x) for some central x", yi, ki))
            if not ok_d:
                findings.append(_finding("totient-divisibility", "coset of {} has some "
                                         "phi(o(x)) not dividing phi(o(y x))", yi))
            if s > center_numer:
                findings.append(_finding(
                    "coset-inequality", "coset of {} sums to {}, over the center sum {}",
                    yi, Fraction(s, L), Fraction(center_numer, L)))
    # the rest sorted by (k, coset_sum, flags); cosets with equal keys have
    # equal checks, so each key's check is made once
    rest = Counter(zip(k[1:], sums[1:], ok_identity[1:], ok_divides[1:]))
    steps = [CosetCheck(k[0], Fraction(sums[0], L), ok_identity[0], ok_divides[0],
                        sums[0] <= center_numer, True)]
    for (ki, s, ok_i, ok_d), count in sorted(rest.items()):
        steps += [CosetCheck(ki, Fraction(s, L), ok_i, ok_d, s <= center_numer, False)] * count
    return PerCosetFindings(tuple(steps), Fraction(sum(sums), L), tuple(findings))


def structural_condition(g: FiniteGroup, z: Subgroup) -> Optional[str]:
    """Decide the equality criterion from the table and the center z, which
    the caller proves (no isomorphism search).  The criterion holds when
    (a) odd-order elements are central and form a subgroup O,
    (b) 2-power-order elements form a subgroup T meeting O trivially with
        |T| * |O| = |G|,
    (c) every coset of Z(T) in T contains an element of order at most 2.
    Returns the witness of the first clause that fails, or None.

    With the orders the builder set (g.ord is g._table_ord), O and T
    are proven by count, with no closure scan.  Once (a) puts O in Z(G),
    which is abelian, O is closed: x y has order dividing lcm(o(x), o(y)).
    It holds every Sylow p-subgroup for odd p, so |O| is the odd part of n.
    T holds every Sylow 2-subgroup.  A closed T is a 2-group, so it is the
    Sylow 2-subgroup and |T| is the 2-part of n; a T of that order is one
    Sylow 2-subgroup, so it is closed (Sylow; Isaacs, Finite Group Theory,
    2008, ch. 1).  So T is closed exactly when |T| |O| = |G|, which the
    factor test reads off the two mask counts.  Under (a) that always
    holds: P O = G with O central makes a Sylow 2-subgroup P normal, and P
    is then T.  Orders a caller rebinds prove nothing, so O and then T are
    scanned for a closure witness.
    """
    _members(g, z)
    zbit, ords = z.bitmap, g.ord
    odd_mask = (ords % 2) == 1
    bad = np.nonzero(odd_mask & ~zbit)[0]
    if bad.size:
        x = int(bad[0])
        return f"element {x} has odd order {int(ords[x])} but is not central"
    two_mask = (ords & (ords - 1)) == 0
    if ords is not g._table_ord:
        for part, mask in (("odd", odd_mask), ("2-power", two_mask)):
            try:
                Subgroup(g, mask)
            except NotASubgroup as exc:
                return f"{part}-order elements do not form a subgroup: {exc}"
    t, o = int(two_mask.sum()), int(odd_mask.sum())
    overlap = int((two_mask & odd_mask).sum())
    if overlap != 1 or t * o != g.n:
        return (f"parts do not factor the group: |T| = {t}, "
                f"|O| = {o}, |T meet O| = {overlap}, |G| = {g.n}")
    # G = T x O with O central, so Z(T) = Z(G) meet T
    y, k = _minimal_reps(ords, _central_cosets(g, z, two_mask))
    bare = np.flatnonzero(k > 2)
    if bare.size:
        y, k = int(y[bare[0]]), int(k[bare[0]])
        return f"coset of {y} in the 2-part has minimal order {k}, no element of order <= 2"
    return None


def _four_abelian(g: FiniteGroup) -> bool:
    """True when (x y)^4 = x^4 y^4 for every pair, by a test of g's
    generating set S alone.

    With f(x) = x^4, the y with f(x y) = f(x) f(y) for all x contain 0 and
    are closed under products: f(x y y') = f(x y) f(y') = f(x) f(y) f(y')
    and f(y y') = f(y) f(y') (take x = 0).  So checking y over S is exact;
    the premise is associativity.
    """
    sq = _squares(g)
    f4, s = sq[sq], _generators(g)
    return np.array_equal(f4[g[:, s]], g[f4[:, None], f4[s]])


def four_abelian_failure(g: FiniteGroup) -> Optional[tuple[int, int]]:
    """The first (x, y) in row-major order with (x y)^4 != x^4 y^4, or None.

    A group that passes the generator test of _four_abelian is 4-abelian;
    only one that fails it scans the pairs, a block of rows at a time.
    """
    sq = _squares(g)
    f4 = sq[sq]
    return None if _four_abelian(g) else _first_failure(g.n, g.n, 4 * g.n, lambda lo, hi: (
        f4[g[lo:hi, :]] != g[np.ix_(f4[lo:hi], f4)]))


def full_report(g: FiniteGroup) -> AlphaReport:
    """Run every check on one group and fold the results into an AlphaReport.

    The center is proven once here and passed to each check about it.
    alpha(G) is the census count over n; the count identity |C(G)| = sum
    of 1/phi(o(x)) reads the totient sum off the per-coset sums, which
    cover every element once.  Every square is central exactly when
    exp(G/Z) <= 2, so two_central is read off the quotient orders.  The
    4-abelian verdict is the generator test; the pairs are scanned for the
    first failing one only when a finding prints it, that is when equality
    holds in a group that is not 4-abelian.

    The findings come from one ordered table of (check, function) rows.
    Each function takes its check's finding factory, the check bound to
    _finding, and returns the findings of that check; the per-coset row
    returns those per_coset_analysis made.  Each row reads the facts above
    and looks up module functions when it runs; the minimal-order counts
    are made only under equality."""
    census = cyclic_subgroups(g)
    z = center(g)
    a_g, a_z = Fraction(census.count, g.n), alpha(g, z)
    avg_g, avg_z = average_order(g), average_order(g, z)
    pc = per_coset_analysis(g, z)
    count_ok = pc.total == census.count
    eq = a_g == a_z
    why = structural_condition(g, z)
    structural = why is None
    # the coset xZ has order min{k : x^k in Z}, so exp(G/Z) is their lcm
    # (a set, not np.unique, whose first plain call imports numpy.ma)
    qexp = math.lcm(*set(_element_orders(g, z.bitmap).tolist()))
    four = _four_abelian(g)

    rows = (
        ("count-identity", lambda f: () if count_ok else (f(
            "enumeration finds {} cyclic subgroups, totient sum gives {}", census.count, pc.total),)),
        ("census-orders", lambda f: () if census_matches_orders(g) else (f(
            "subgroup counts by order disagree with the phi(d)-generators-per-subgroup identity"),)),
        ("per-coset", lambda f: pc.findings),
        ("alpha-inequality", lambda f: (
            f("alpha(G) = {} exceeds alpha(Z) = {}", a_g, a_z),) if a_g > a_z else ()),
        ("equality-equivalence", lambda f: () if eq == structural else (
            f("equality is {} but the structural condition is {} ({})", eq, structural, why) if why
            else f("equality is {} but the structural condition is {}", eq, structural),)),
        ("equality-minimal-order", lambda f: [
            f("equality holds yet {} non-center cosets have minimal order {}, expected 2", count, k)
            for k, count in sorted(Counter(c.k for c in pc.per_coset[1:] if c.k != 2).items())
        ] if eq else ()),
        ("equality-quotient", lambda f: (
            f("equality holds yet exp(G/Z) = {} > 2", qexp),) if eq and qexp > 2 else ()),
        ("2-central", lambda f: (
            f("equality holds yet some square is not central"),) if eq and qexp > 2 else ()),
        ("4-abelian", lambda f: (f("equality holds yet (x y)^4 != x^4 y^4 for (x, y) = ({}, {})",
                                   *four_abelian_failure(g)),) if eq and not four else ()),
        ("odd-order", lambda f: (f("equality holds for an odd-order non-abelian group"),)
         if eq and g.n % 2 == 1 and len(z) < g.n else ()),
        ("avg-order-inequality", lambda f: (
            f("o(G) = {} is below o(Z) = {}", avg_g, avg_z),) if avg_g < avg_z else ()),
    )

    return AlphaReport(
        label=g.label,
        order=g.n,
        center_order=len(z),
        cyclic_count=census.count,
        alpha_g=a_g,
        alpha_z=a_z,
        structural=structural,
        quotient_exponent=qexp,
        two_central=qexp <= 2,
        four_abelian=four,
        avg_order_g=avg_g,
        avg_order_z=avg_z,
        count_identity=count_ok,
        proof_steps=pc.per_coset,
        findings=tuple(f for check, run in rows for f in run(partial(_finding, check))),
    )


__all__ = [
    "Finding",
    "CosetCheck",
    "PerCosetFindings",
    "AlphaReport",
    "per_coset_analysis",
    "structural_condition",
    "four_abelian_failure",
    "full_report",
]
