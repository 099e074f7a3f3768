"""Slow reference routes that the fast census and the center/2-part values
are checked against.

cyclic_subgroup_sets() enumerates every <x> as an explicit element set:
an n x n membership matrix filled by a lockstep power walk, deduplicated
row-wise.  The center and 2-part routes rebuild those subgroups as
standalone groups and recount them, instead of reading them off G.

coset_partition() labels each element by the least member of its coset
under a central subgroup Z, from the n x |Z| gather of every product g*z,
and per_coset_findings() adds up the per-coset totient sums one Fraction
per element; they check the one-pass coset walk of the library.
structural() decides the equality criterion with the n^2 center and
closure routes of table_oracle and the rebuilt 2-part.  Every center here
is table_oracle's, not the library's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from cyclicdensity import Subgroup
from cyclicdensity.arith import euler_phi
from cyclicdensity.verify import CosetCheck, PerCosetFindings
from table_oracle import center_members, closure_failure


def cyclic_subgroup_sets(g) -> frozenset[frozenset[int]]:
    """All cyclic subgroups of g as frozensets of element ids."""
    n = g.n
    ar = np.arange(n, dtype=np.int32)
    member = np.zeros((n, n), dtype=bool)  # member[x, y] <=> y lies in <x>
    member[:, 0] = True
    cur = ar.copy()
    while (cur != 0).any():
        member[ar, cur] = True
        cur = g.table[cur, ar]
    rows = np.unique(member, axis=0)
    return frozenset(frozenset(int(y) for y in np.nonzero(row)[0]) for row in rows)


def by_order(sets) -> dict[int, int]:
    out: dict[int, int] = {}
    for s in sets:
        out[len(s)] = out.get(len(s), 0) + 1
    return out


def least_generator(g, members: frozenset[int]) -> int:
    """Smallest x whose powers are exactly the given cyclic subgroup."""
    for x in sorted(members):
        powers, cur = {0}, x
        while cur != 0:
            powers.add(cur)
            cur = int(g.table[cur, x])
        if powers == members:
            return x
    raise ValueError("set is not a cyclic subgroup")


def rebuilt_center_values(g) -> tuple[Fraction, Fraction, int]:
    """alpha(Z), o(Z) and |Z| with Z(G) rebuilt as a group of its own."""
    zg = Subgroup(g, center_members(g)).as_group()
    return (Fraction(len(cyclic_subgroup_sets(zg)), zg.n),
            Fraction(int(zg.ord.sum()), zg.n), zg.n)


def rebuilt_two_part_witness(two_part: Subgroup) -> Optional[str]:
    """Step (c) of the structural criterion on the 2-part T rebuilt as a
    group: the first coset of Z(T) whose minimal order exceeds 2, or None."""
    tg = two_part.as_group()
    _, _, reps = coset_partition(tg, center_members(tg))
    for y, k in reps:
        if k > 2:
            return (f"coset of {int(two_part.members[y])} in the 2-part "
                    f"has minimal order {k}, no element of order <= 2")
    return None


def coset_partition(g, zmem):
    """Cosets of the central subgroup with members zmem, labelled by the
    minimum of each row of g.table[:, zmem].

    Returns coset_of (index of each element's coset, ordered by smallest
    member), the cosets as sorted tuples, and each coset's minimal
    representative (y, k): its least element order k and the smallest id
    y of that order.
    """
    cmin = g.table[:, zmem].min(axis=1)
    _, coset_of = np.unique(cmin, return_inverse=True)
    cosets = [[] for _ in range(int(coset_of.max()) + 1)]
    for x in range(g.n):
        cosets[coset_of[x]].append(x)
    reps = []
    for coset in cosets:
        k = min(int(g.ord[x]) for x in coset)
        reps.append((min(x for x in coset if g.ord[x] == k), k))
    return coset_of, [tuple(c) for c in cosets], reps


def quotient_table(g, zmem) -> np.ndarray:
    """Cayley table of G/Z on coset ids ordered by smallest member."""
    coset_of, cosets, _ = coset_partition(g, zmem)
    firsts = [c[0] for c in cosets]
    return coset_of[g.table[np.ix_(firsts, firsts)]]


def per_coset_findings(g) -> PerCosetFindings:
    """The three per-coset proof obligations on the cosets of Z(G), with
    one exact Fraction per element and one scalar check per central x."""
    zmem = center_members(g)
    _, _, reps = coset_partition(g, zmem)
    zords = [int(v) for v in g.ord[zmem]]
    center_sum = sum(Fraction(1, euler_phi(o)) for o in zords)
    checks, findings, total = [], [], Fraction(0)
    for i, (y, k) in enumerate(reps):
        prod_orders = [int(g.ord[g.table[y, x]]) for x in zmem]
        coset_sum = sum(Fraction(1, euler_phi(o)) for o in prod_orders)
        ok_identity = all(oyx == (k // math.gcd(k, ox)) * ox
                          for ox, oyx in zip(zords, prod_orders))
        ok_divides = all(euler_phi(oyx) % euler_phi(ox) == 0
                         for ox, oyx in zip(zords, prod_orders))
        ok_bound = coset_sum <= center_sum
        if not ok_identity:
            findings.append(
                f"order-identity: coset of {y} (k = {k}) violates "
                f"o(y x) = (k / gcd(k, o(x))) o(x) for some central x")
        if not ok_divides:
            findings.append(
                f"totient-divisibility: coset of {y} has some phi(o(x)) "
                f"not dividing phi(o(y x))")
        if not ok_bound:
            findings.append(
                f"coset-inequality: coset of {y} sums to {coset_sum}, "
                f"over the center sum {center_sum}")
        checks.append(CosetCheck(
            k=k, coset_sum=coset_sum, order_identity=ok_identity,
            divisibility=ok_divides, coset_inequality=ok_bound, is_center=(i == 0)))
        total += coset_sum
    rest = sorted(checks[1:], key=lambda c: (c.k, c.coset_sum, c.order_identity,
                                             c.divisibility, c.coset_inequality))
    return PerCosetFindings(
        per_coset=(checks[0], *rest), total=total, findings=tuple(findings))


def structural(g) -> Optional[str]:
    """The witness of the first clause of the equality criterion that
    fails, or None, with the center and every closure taken by table_oracle."""
    zbit = np.zeros(g.n, dtype=bool)
    zbit[center_members(g)] = True
    ords = g.ord
    odd_mask = (ords % 2) == 1
    bad = np.nonzero(odd_mask & ~zbit)[0]
    if bad.size:
        x = int(bad[0])
        return f"element {x} has odd order {int(ords[x])} but is not central"
    odd = np.nonzero(odd_mask)[0]
    why = closure_failure(g, odd)
    if why is not None:
        return f"odd-order elements do not form a subgroup: {why}"
    two_mask = (ords & (ords - 1)) == 0
    two = np.nonzero(two_mask)[0]
    why = closure_failure(g, two)
    if why is not None:
        return f"2-power-order elements do not form a subgroup: {why}"
    overlap = int((two_mask & odd_mask).sum())
    if overlap != 1 or two.size * odd.size != g.n:
        return (f"parts do not factor the group: |T| = {two.size}, "
                f"|O| = {odd.size}, |T meet O| = {overlap}, |G| = {g.n}")
    return rebuilt_two_part_witness(Subgroup(g, two))
