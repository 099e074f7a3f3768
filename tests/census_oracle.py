"""Slow reference routes that the fast census and the center/2-part values
are checked against.

cyclic_subgroup_sets() enumerates every <x> as an explicit element set:
an n x n membership matrix filled by a lockstep power walk, deduplicated
row-wise.  The center and 2-part routes rebuild those subgroups as
standalone groups and recount them, instead of reading them off G.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cyclicdensity import Subgroup, center, coset_partition


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
    zg = center(g).as_group()
    return (Fraction(len(cyclic_subgroup_sets(zg)), zg.n),
            Fraction(int(zg.ord.sum()), zg.n), zg.n)


def rebuilt_two_part_witness(two_part: Subgroup) -> str:
    """Step (c) of the structural criterion on the 2-part T rebuilt as a
    group: the first coset of Z(T) whose minimal order exceeds 2, or ""."""
    tg = two_part.as_group()
    for rep in coset_partition(tg, center(tg)).reps:
        if rep.k > 2:
            return (f"coset of {int(two_part.members[rep.y])} in the 2-part "
                    f"has minimal order {rep.k}, no element of order <= 2")
    return ""
