"""Slow reference routes that the generating-set checks are compared
against: each compares every product of the whole table (or of the member
set), and names the first failing pair in row-major order.

center_members() keeps the elements whose row equals their column,
closure_failure() gathers the |H| x |H| products of a member set,
centrality_failure() compares the rows of Z with the transposed columns,
and four_abelian_witness() compares (x y)^4 with x^4 y^4 for all n^2 pairs.

The helpers after them serve only tests: group_exponent(),
relabeled_copy(), with_orders() (a fresh copy of a group whose g.ord claims
other orders), and verify_group_invariants(), which re-derives every
invariant of a group from its raw table, with prove_orders() naming the
first stored order that the lockstep walk of power_oracle contradicts.
require_central() (which raises NotCentral, an error no library code needs) and
quotient_by_central() build G/Z as a group of its own, the form the report
replaced by reading exp(G/Z) off G's table.  extraspecial_chain()
and almost_extraspecial_chain() build those families as the group-level
chain of central products that the catalog's bilinear-cocycle fill
replaced, by central_product_mod_involution() and central_involution().

Last come the catalog fills that the block-bounded builders replaced:
abelian_fold_table() (a fold over every factor that keeps each partial
product alive), heisenberg_int64_table() (one int64 n^2 expression) and
symmetric_lehmer_table() (the Lehmer rank of every composition by d
comparison passes).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

import power_oracle
from cyclicdensity import (
    GroupError,
    InvalidArgument,
    NoIdentityAtZero,
    NotClosed,
    Subgroup,
    build_group,
    center,
    validate_table_with_report,
)
from cyclicdensity.groups import (
    FiniteGroup,
    _build,
    _central_cosets,
    _check_associativity,
    _generators,
)


def center_members(g) -> list[int]:
    t = g.table
    return np.nonzero((t == t.T).all(axis=1))[0].tolist()


def closure_failure(g, members) -> Optional[str]:
    """Why the member set (containing 0) is not a subgroup, with the text
    Subgroup raises; None when it is one."""
    arr = np.unique(np.asarray(members, dtype=np.int32))
    inside = np.zeros(g.n, dtype=bool)
    inside[arr] = True
    outside = ~inside[g.table[np.ix_(arr, arr)]]
    if outside.any():
        i, j = np.argwhere(outside)[0]
        a, b = int(arr[i]), int(arr[j])
        return f"set is not closed: {a}*{b} = {int(g.table[a, b])} is outside it"
    inv = power_oracle.inverses(g.table)[arr]
    if not inside[inv].all():
        return f"inverse of {int(arr[~inside[inv]][0])} is outside the set"
    if g.n % arr.size:
        return f"closed set of {arr.size} elements does not divide the order {g.n}"
    return None


def centrality_failure(g, zmem) -> Optional[str]:
    """The first (z, b) over Z x G with z b != b z, in NotCentral's text."""
    rows = g.table[zmem]
    cols = g.table[:, zmem].T
    if np.array_equal(rows, cols):
        return None
    i, b = np.argwhere(rows != cols)[0]
    return f"element {int(zmem[i])} does not commute with {int(b)}"


def four_abelian_witness(g) -> Optional[tuple[int, int]]:
    ar = np.arange(g.n)
    sq = g.table[ar, ar]
    f4 = sq[sq]
    mismatch = f4[g.table] != g.table[np.ix_(f4, f4)]
    if mismatch.any():
        x, y = np.argwhere(mismatch)[0]
        return int(x), int(y)
    return None


def group_exponent(g: FiniteGroup) -> int:
    """Least common multiple of all element orders."""
    return math.lcm(*(int(v) for v in np.unique(g.ord)))


def relabeled_copy(g: FiniteGroup, perm: Sequence[int], label: Optional[str] = None) -> FiniteGroup:
    """Isomorphic copy under a permutation of ids (perm[old] = new)."""
    sigma = np.asarray(perm, dtype=np.int32)
    if sigma.shape != (g.n,) or not np.array_equal(np.sort(sigma), np.arange(g.n)):
        raise InvalidArgument(f"perm must be a permutation of 0..{g.n - 1}")
    inv_sigma = np.empty(g.n, dtype=np.int32)
    inv_sigma[sigma] = np.arange(g.n, dtype=np.int32)
    table = sigma[g.table][np.ix_(inv_sigma, inv_sigma)]
    return validate_table_with_report(table, label or f"{g.label} (relabeled)")[0]


def with_orders(g: FiniteGroup, ords: np.ndarray, label: Optional[str] = None) -> FiniteGroup:
    """A fresh validated copy of g whose g.ord is rebound to ords.  The
    census and the generating set still read the orders _build derived from
    the table; every check that reads g.ord sees ords."""
    h = validate_table_with_report(g.table, label or f"tampered:{g.label}")[0]
    h.ord = ords
    return h


def verify_group_invariants(g: FiniteGroup) -> None:
    """Re-derive every structural invariant from the raw table; raises on failure.

    Checks Latin-square rows and columns, identity at 0, associativity,
    two-sided inverses, and each stored order against divisor descent.
    """
    n = g.n
    t = g.table
    ar = np.arange(n, dtype=np.int32)
    if not ((t[0] == ar).all() and (t[:, 0] == ar).all()):
        raise NoIdentityAtZero("identity is not at id 0")
    if not (np.array_equal(np.sort(t, axis=1), np.tile(ar, (n, 1)))
            and np.array_equal(np.sort(t, axis=0), np.tile(ar[:, None], (1, n)))):
        raise NotClosed("some row or column is not a permutation")
    _check_associativity(t)
    power_oracle.inverses(t)  # NoInverse names the least x with no two-sided inverse
    prove_orders(t, g.ord)  # the orders of a group divide n


def prove_orders(table: np.ndarray, ords: np.ndarray) -> None:
    """Raise NotClosed unless ords holds the element orders of table, naming
    the first mismatch that walking x^1, x^2, ... of all x in lockstep meets
    (least k, then least x), else an x whose powers never reach 0."""
    n = table.shape[0]
    true = power_oracle.element_orders(table, np.arange(n) == 0)
    true = np.where(true >= 1, true, n + 1)  # n + 1: never
    rec = np.where((ords >= 1) & (ords <= n), ords, n + 1)
    k = np.where(true != rec, np.minimum(true, rec), n + 1)
    x = int(k.argmin())
    if k[x] <= n:
        raise NotClosed(f"element {x} has recorded order {int(ords[x])}, but x^{int(k[x])} "
                        f"is {'' if true[x] == k[x] else 'not '}the identity")
    if true.max() > n:
        raise NotClosed(f"powers of element {int(true.argmax())} never reach the identity")


class NotCentral(GroupError):
    """A supposed central subgroup contains a non-central element."""


def require_central(g: FiniteGroup, z: Subgroup) -> None:
    """Raise NotCentral unless z commutes with all of g, which holds when
    it commutes with g's generating set (the premise is associativity)."""
    if z.parent is not g:
        raise InvalidArgument("subgroup does not belong to this group")
    s, zmem = _generators(g), z.members
    if not np.array_equal(g.table[zmem[:, None], s], g.table[s[:, None], zmem].T):
        i, b = np.argwhere(g.table[zmem] != g.table[:, zmem].T)[0]
        raise NotCentral(f"element {int(zmem[i])} does not commute with {int(b)}")


def quotient_by_central(g: FiniteGroup, z: Subgroup, label: Optional[str] = None) -> FiniteGroup:
    """Quotient group G/Z for central Z, on coset ids ordered by smallest member."""
    require_central(g, z)
    cosets = _central_cosets(g, z)
    reps = cosets[:, 0]  # smallest members, since zmem[0] is the identity
    coset_of = np.empty(g.n, dtype=np.int64)
    coset_of[cosets] = np.arange(reps.size, dtype=np.int64)[:, None]
    qtable = coset_of[g.table[reps[:, None], reps]]
    return _build(qtable.astype(np.uint16), label or f"({g.label})/Z")


def central_involution(g: FiniteGroup) -> int:
    """The one central involution of g; ValueError if it has none or several."""
    invs = np.flatnonzero(center(g).bitmap & (g.ord == 2))
    if invs.size != 1:
        raise ValueError(f"{g.label!r} has {invs.size} central involutions, need exactly one")
    return int(invs[0])


def central_product_mod_involution(g: FiniteGroup, h: FiniteGroup, zg: int, zh: int,
                                   label: Optional[str] = None) -> FiniteGroup:
    """Central product G o H as a group: G x H modulo <(zg, zh)> for central
    involutions zg and zh, which may sit at any id.  With (a, b) as id
    a * |H| + b, the least of each coset {(a, b), (a zg, b zh)} has
    a < a zg; those number the quotient in id order.  The ids are computed
    in int64 and cast to the builder's table type only at the end."""
    for grp, z in ((g, zg), (h, zh)):
        if not (0 <= z < grp.n and grp.ord[z] == 2 and grp.table[z, z] == 0
                and center(grp).bitmap[z]):
            raise ValueError(f"{z} is not a central involution of {grp.label!r}")
    gt, ht = g.table.astype(np.int64), h.table.astype(np.int64)
    nh, pg, ph = h.n, gt[:, zg], ht[:, zh]
    reps = (np.arange(g.n) < pg).nonzero()[0]
    rank = np.empty(g.n, dtype=np.int64)
    rank[reps] = np.arange(reps.size)
    ga = gt[reps[:, None], reps]
    flip = pg[ga] < ga  # (a a', b b') is not least: its coset is (a a' zg, b b' zh)
    out = np.where(flip[:, None, :, None], ph[ht][None, :, None, :], ht[None, :, None, :])
    out += (rank[np.where(flip, pg[ga], ga)] * nh)[:, None, :, None]
    n = reps.size * nh
    return _build(out.reshape(n, n).astype(np.uint16), label or f"({g.label})o({h.label})")


def extraspecial_chain(order: int, sign: str) -> FiniteGroup:
    """extraspecial:ORDER:SIGN as the group-level chain built it: dihedral:8
    (quaternion:8 for minus type) times m - 1 more dihedral:8 factors, each
    partial product built as a group and its central involution found."""
    g = build_group("quaternion:8" if sign == "-" else "dihedral:8")
    for _ in range((order.bit_length() - 2) // 2 - 1):
        d8 = build_group("dihedral:8")
        g = central_product_mod_involution(g, d8, central_involution(g), central_involution(d8))
    return g


def almost_extraspecial_chain(order: int) -> FiniteGroup:
    """almost-extraspecial:ORDER as extraspecial_chain(order / 2, '+') o cyclic:4."""
    e = extraspecial_chain(order // 2, "+")
    return central_product_mod_involution(e, build_group("cyclic:4"), central_involution(e), 2)


def abelian_fold_table(orders: Sequence[int]) -> np.ndarray:
    """Z_n1 + Z_n2 + ... by folding from the right from the trivial table,
    each partial product alive while the next is built, in int64: (a, b)
    of Z_n times the accumulated table T of order m is a * m + b."""
    table = np.zeros((1, 1), dtype=np.int64)
    for n in reversed(orders):
        ar, m = np.arange(n, dtype=np.int64), table.shape[0]
        cyc = (ar[:, None] + ar[None, :]) % n
        table = (cyc[:, None, :, None] * m + table[None, :, None, :]).reshape(n * m, n * m)
    return table


def heisenberg_int64_table(p: int) -> np.ndarray:
    """(a, b, c) -> c*p^2 + a*p + b with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'),
    as one int64 expression over all n^2 pairs."""
    idx = np.arange(p ** 3, dtype=np.int64)
    c, rem = np.divmod(idx, p * p)
    a, b = np.divmod(rem, p)
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    t = ((c1 + c2 + a1 * b2) % p) * p * p + ((a1 + a2) % p) * p + (b1 + b2) % p
    return t.astype(np.int32)


def symmetric_lehmer_table(degree: int) -> np.ndarray:
    """S_degree on permutations in lexicographic order; the product of ids i
    and j is the Lehmer rank of x -> p_i[p_j[x]], summed over d passes that
    count the smaller entries after each position."""
    perms = np.array(list(itertools.permutations(range(degree))), dtype=np.int64)
    fact = [math.factorial(degree - 1 - j) for j in range(degree)]
    comp = perms[:, perms]  # comp[i, j, x] = perms[i][perms[j][x]]
    rank = np.zeros(comp.shape[:2], dtype=np.int64)
    for j in range(degree):
        rank += (comp[:, :, j + 1:] < comp[:, :, j:j + 1]).sum(axis=2) * fact[j]
    return rank.astype(np.int32)
