"""Cyclic-subgroup census and the density invariants derived from it.

alpha() names each cyclic subgroup by its least generator.  The count has
a second, deliberately independent route, the sum of 1/phi(o(x)) over the
elements, which verify.per_coset_analysis makes coset by coset; their
agreement is itself one of the identities under test, so neither is
implemented in terms of the other.
A cyclic subgroup lies in a subgroup H (such as the center) exactly when
its generators do, so the invariants of H are read off G's census.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .arith import euler_phi, unit_generators
from .errors import InvalidArgument
from .groups import FiniteGroup, Subgroup, _powers


@dataclass(frozen=True, eq=False)
class CyclicCensus:
    """Cyclic subgroups of a group; roots[x] holds when x is the least id
    generating <x>, so the roots name the cyclic subgroups one to one."""

    count: int
    by_order: dict[int, int]  # subgroup order -> how many cyclic subgroups
    roots: np.ndarray  # read-only bool mask over element ids


def cyclic_subgroups(g: FiniteGroup) -> CyclicCensus:
    """Census of the cyclic subgroups by least generator: a minimum over
    orbits of the unit group (Z/e)^*, e = exp(G), in O(n) memory, with no
    power walk.

    The orders are the ones the builder set (g._table_ord), derived from
    the table or known by construction, never g.ord, which a caller may
    rebind; e is their lcm.
    Every o(x) divides e, and the units mod e map onto the units mod o(x),
    so the orbit of x under x -> x^u is the set of generators of <x>.  For
    each generator u of (Z/e)^*, of order m, pi = x -> x^u and
    ceil(log2 m) steps key = min(key, key[pi]), pi = pi[pi] cover each
    cycle of pi, whose length divides m.  As (Z/e)^* is abelian, its
    generators in turn cover each orbit of a group table.  At e <= 2 there
    is no generator: each x is the one generator of <x>.
    """
    if g._census is not None:
        return g._census
    n, ords = g.n, g._table_ord
    key = ids = np.arange(n, dtype=np.int32)
    # a memoryview yields the orders as ints without tolist()'s list of n
    for u, m in unit_generators(math.lcm(*set(memoryview(ords)))):
        pi = _powers(g, ids, u)
        for _ in range((m - 1).bit_length()):  # ceil(log2 m) doublings
            key = np.minimum(key, key[pi])
            pi = pi[pi]
    roots = key == ids
    roots.setflags(write=False)
    counts = np.bincount(ords[roots]).tolist()  # orders divide n: at most n + 1 bins
    by_order = {d: c for d, c in enumerate(counts) if c}
    g._census = CyclicCensus(sum(counts), by_order, roots)
    return g._census


def _members(g: FiniteGroup, sub: Optional[Subgroup]) -> Union[slice, np.ndarray]:
    """An index of g's per-id arrays that selects sub's ids, or all of them."""
    if sub is None:
        return slice(None)
    if sub.parent is not g:
        raise InvalidArgument("subgroup does not belong to this group")
    return sub.members


def alpha(g: FiniteGroup, sub: Optional[Subgroup] = None) -> Fraction:
    """Cyclic-subgroup density |C(G)| / |G| from the census; with sub, the
    density |C(H)| / |H| of that subgroup, from the census roots in H."""
    roots = cyclic_subgroups(g).roots[_members(g, sub)]
    return Fraction(int(roots.sum()), roots.size)


def average_order(g: FiniteGroup, sub: Optional[Subgroup] = None) -> Fraction:
    """Mean element order o(G) = (1/|G|) * sum of o(x); over sub when given."""
    ords = g.ord[_members(g, sub)]
    return Fraction(int(ords.sum(dtype=np.int64)), ords.size)


def census_matches_orders(g: FiniteGroup) -> bool:
    """Cross-check: each order-d cyclic subgroup owns phi(d) generators, so
    by_order[d] * phi(d) must equal the number of elements of order d."""
    want = {d: k * euler_phi(d) for d, k in cyclic_subgroups(g).by_order.items()}
    # a memoryview yields each order as an int that lives only while it is
    # counted; tolist() would hold n of them at once (0.12 MB at n = 4096)
    return Counter(memoryview(g.ord)) == want


__all__ = [
    "CyclicCensus",
    "cyclic_subgroups",
    "alpha",
    "average_order",
    "census_matches_orders",
]
