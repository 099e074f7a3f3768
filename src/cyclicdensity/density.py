"""Cyclic-subgroup census and the density invariants derived from it.

Two deliberately independent routes to the same quantity: alpha() names
each cyclic subgroup by its least generator, alpha_via_totient() sums
1/phi(o(x)) over elements.  Their agreement is itself one of the
identities under test, so neither is implemented in terms of the other.
A cyclic subgroup lies in a subgroup H (such as the center) exactly when
its generators do, so the invariants of H are read off G's census.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import euler_phi
from .errors import InvalidArgument, NotClosed
from .groups import FiniteGroup, Subgroup, _element_orders, _power_walk, _walk_budget


@dataclass(frozen=True, eq=False)
class CyclicCensus:
    """Cyclic subgroups of a group; roots[x] holds when x is the least id
    generating <x>, so the roots name the cyclic subgroups one to one."""

    count: int
    by_order: dict[int, int]  # subgroup order -> how many cyclic subgroups
    roots: np.ndarray  # read-only bool mask over element ids


def cyclic_subgroups(g: FiniteGroup) -> CyclicCensus:
    """Census of the cyclic subgroups by least generator, in O(n) memory.

    Orders come from the table by divisor descent, never from g.ord.  A
    sieve walks the powers of only the ids not yet covered, in batches of
    the least of them that fit the walk budget (rows x largest order).  A
    walked x finds min{x^k : k <= o(x), gcd(k, o(x)) = 1}, the least
    generator of <x>, and covers every generator x^k of <x>.  An id is
    covered only once a generator of its cyclic subgroup has been walked,
    so when all are covered each cyclic subgroup's least generator is found.
    """
    if g._census is not None:
        return g._census
    n = g.n
    ords = _element_orders(g.table, np.arange(n) == 0)[0]
    if not ords.all():
        raise NotClosed(f"powers of element {int(ords.argmin())} never reach the identity")
    dist, lrow = np.unique(ords, return_inverse=True)
    ks = np.arange(n + 1)
    usable = (np.gcd(ks, dist[:, None]) == 1) & (ks <= dist[:, None])
    key = np.arange(n, dtype=np.int32)
    covered = ks == n  # id n stands in for the unusable columns

    def visit(k, ids, block, prev):
        gens = np.where(usable[lrow[ids], k:k + block.shape[1]], block, n)
        key[ids] = np.minimum(key[ids], gens.min(axis=1))
        covered[gens] = True
        return ords[ids] >= k + block.shape[1]

    roots = np.zeros(n, dtype=bool)
    while not covered.all():
        ids = np.flatnonzero(~covered)
        fits = np.maximum.accumulate(ords[ids]) * np.arange(1, ids.size + 1) <= _walk_budget(n)
        ids = ids[:max(1, int(fits.sum()))]
        _power_walk(g.table, visit, ids)
        roots[key[ids]] = True
    roots.setflags(write=False)
    orders, counts = np.unique(ords[roots], return_counts=True)
    by_order = {int(d): int(c) for d, c in zip(orders, counts)}
    g._census = CyclicCensus(int(counts.sum()), by_order, roots)
    return g._census


def _members(g: FiniteGroup, sub: Optional[Subgroup]) -> np.ndarray:
    if sub is None:
        return np.arange(g.n)
    if sub.parent is not g:
        raise InvalidArgument("subgroup does not belong to this group")
    return sub.members


def alpha(g: FiniteGroup, sub: Optional[Subgroup] = None) -> Fraction:
    """Cyclic-subgroup density |C(G)| / |G| from the census; with sub, the
    density |C(H)| / |H| of that subgroup, from the census roots in H."""
    members = _members(g, sub)
    return Fraction(int(cyclic_subgroups(g).roots[members].sum()), members.size)


def alpha_via_totient(g: FiniteGroup) -> Fraction:
    """The same density via the identity |C(G)| = sum over x of 1/phi(o(x))."""
    orders, counts = np.unique(g.ord, return_counts=True)
    total = sum(
        Fraction(int(c), euler_phi(int(d))) for d, c in zip(orders, counts)
    )
    return total / g.n


def subgroup_count_identity_check(g: FiniteGroup) -> tuple[bool, str]:
    """Check |C(G)| = sum of 1/phi(o(x)), both sides computed independently,
    with a report quoting both sides.

    The string spells out the enumerated count and the totient sum so a
    failure is self-describing; on agreement it records the common value.
    """
    enumerated = cyclic_subgroups(g).count
    via_totient = alpha_via_totient(g) * g.n
    if Fraction(enumerated) == via_totient:
        return True, f"both routes count {enumerated} cyclic subgroups"
    return False, (
        f"enumeration finds {enumerated} cyclic subgroups, "
        f"totient sum gives {via_totient}"
    )


def average_order(g: FiniteGroup, sub: Optional[Subgroup] = None) -> Fraction:
    """Mean element order o(G) = (1/|G|) * sum of o(x); over sub when given."""
    ords = g.ord[_members(g, sub)]
    return Fraction(int(ords.sum(dtype=np.int64)), ords.size)


def census_matches_orders(g: FiniteGroup) -> bool:
    """Cross-check: each order-d cyclic subgroup owns phi(d) generators, so
    by_order[d] * phi(d) must equal the number of elements of order d."""
    census = cyclic_subgroups(g)
    orders, counts = np.unique(g.ord, return_counts=True)
    have = {int(d): int(c) for d, c in zip(orders, counts)}
    want = {d: k * euler_phi(d) for d, k in census.by_order.items()}
    return have == want


__all__ = [
    "CyclicCensus",
    "cyclic_subgroups",
    "alpha",
    "alpha_via_totient",
    "subgroup_count_identity_check",
    "average_order",
    "census_matches_orders",
]
