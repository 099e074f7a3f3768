"""Finite groups as dense Cayley tables, plus the structural operations
(center, cosets of a central subgroup, direct products) that the density
checks are built on.

Element ids are 0..n-1 with the identity always at 0.  Tables loaded from
external sources are re-indexed to honor that convention.  Every table
holds its ids as _ID (uint16), so no group has an order over MAX_ORDER.

Each group carries one generating set S, and the center works from it in
O(n |S|) instead of comparing all n^2 products.  A builder that knows S by
construction hands it to _build with the element orders (the catalog's
abelian, dihedral and quaternion fills, and direct_product from its
factors); any other group takes the greedy set of _generate.  That assumes
an associative table: _validate proves it for imported tables (and S is
the set its test found), and the catalog builds its tables associative by
construction.
A member set is proven closed by its |H|^2 products, a block at a time,
or, when it is all of its parent, with no gather at all.  What a builder
proves is not checked again, and _first_failure is the one scan for a
first witness.  Every pass over rows, here and in the catalog's fills,
takes its blocks from _blocks, which sizes them by what a row costs.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .arith import factorize
from .errors import (
    InvalidArgument,
    NoIdentityAtZero,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    NotClosed,
    SizeLimitExceeded,
)

DEFAULT_SIZE_CAP = 4096
SIZE_CAP_ENV = "CYCLIC_DENSITY_MAX_ORDER"


def size_cap() -> int:
    """Effective size cap: the env override or the 4096 default."""
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidArgument(f"{SIZE_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise InvalidArgument(f"{SIZE_CAP_ENV} must be >= 1, got {cap}")
    return cap


_ID = np.uint16  # the type of every table's ids
# every id and n itself fit in _ID (n is the fill for "no id"); index
# arithmetic such as x * n + y runs in int32 or intp, never in _ID
MAX_ORDER = int(np.iinfo(_ID).max)


@functools.cache
def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, read once per process; None where the
    platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_cap(n: int, max_size: Optional[int], what: str) -> None:
    """Refuse an order n over MAX_ORDER, over the size cap (max_size, else
    size_cap()), or whose 2n^2-byte table exceeds physical memory, before
    anything the size of a table is allocated."""
    if max_size is not None and max_size < 1:
        raise InvalidArgument(f"max_size must be >= 1, got {max_size}")
    if n > MAX_ORDER:
        raise SizeLimitExceeded(f"{what} has order {n}, over {MAX_ORDER}, "
                                f"the most that 16-bit table ids can number")
    cap = size_cap() if max_size is None else max_size
    if n > cap:
        raise SizeLimitExceeded(f"{what} has order {n}, over the cap {cap}")
    memory = _physical_memory()
    if memory is not None and 2 * n * n > memory:
        raise SizeLimitExceeded(f"{what} has order {n}: its table of {2 * n * n} bytes "
                                f"exceeds the {memory} bytes of physical memory")


class FiniteGroup:
    """Immutable finite group on ids 0..n-1, identity at 0.

    table is a read-only, C-contiguous (n, n) array of _ID ids and ord an
    int32 vector of element orders.  Only the builders construct a group:
    validate_table_with_report, build_group, direct_product and
    Subgroup.as_group.  They set the orders the census reads, derived from
    the table or known by construction, which a group constructed directly
    lacks; the constructor checks nothing and is not public API.
    """

    __slots__ = ("n", "table", "ord", "label", "_gens", "_census", "_table_ord", "__weakref__")

    def __init__(self, table: np.ndarray, ord_: np.ndarray, label: str,
                 gens: Optional[np.ndarray] = None):
        self.n = int(table.shape[0])
        self.table = table
        self.ord = ord_
        self.label = label
        self._gens = gens  # the builder's generating set, else filled lazily by _generators
        for arr in (table, ord_) if gens is None else (table, ord_, gens):
            arr.setflags(write=False)
        self._census = None  # filled lazily by density.cyclic_subgroups

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, n={self.n})"


class Subgroup:
    """Sorted subset of a parent group, verified closed under product, which
    in a finite group makes it a subgroup: it holds each a^-1 = a^(o(a)-1),
    so its order divides the parent's.  All of the parent is closed as it
    stands; a proper subset when _first_failure, scanning its |H|^2
    products a block of rows at a time, finds none outside it, so its cost
    grows as |H|^2.  A row of |H| products costs 4|H| entries: the bitmap
    lookup copies its ids to intp, 4 times their bytes."""

    __slots__ = ("parent", "members", "bitmap")

    def __init__(self, parent: FiniteGroup, members: Union[Iterable[int], np.ndarray]):
        """members: ids in any order, or a bool mask over the parent's ids."""
        if isinstance(members, np.ndarray) and members.dtype == bool:
            if members.shape != (parent.n,):
                raise NotASubgroup(f"mask of shape {members.shape} does not cover "
                                   f"the {parent.n} ids of the parent")
            arr = members.nonzero()[0].astype(np.int32)
        else:
            ids = list(members)
            for a in ids:  # before the int32 cast, which would truncate or overflow
                if not _is_int(a):
                    raise NotASubgroup(f"member {a!r} is not an integer")
                if not 0 <= a < parent.n:
                    raise NotASubgroup(f"member {a} outside parent of order {parent.n}")
            arr = np.unique(np.asarray(ids, dtype=np.int32))
        if arr.size == 0 or arr[0] != 0:
            raise NotASubgroup("a subgroup must contain the identity 0")
        bitmap = np.zeros(parent.n, dtype=bool)
        bitmap[arr] = True
        if arr.size < parent.n:
            pair = _first_failure(arr.size, arr.size, 4 * arr.size, lambda lo, hi: (
                ~bitmap[parent.table[arr[lo:hi, None], arr]]))
            if pair is not None:
                a, b = int(arr[pair[0]]), int(arr[pair[1]])
                raise NotASubgroup(f"set is not closed: {a}*{b} = {int(parent.table[a, b])} "
                                   "is outside it", witness=(a, b))
        arr.setflags(write=False)
        bitmap.setflags(write=False)
        self.parent, self.members, self.bitmap = parent, arr, bitmap

    def __len__(self) -> int:
        return int(self.members.size)

    def as_group(self, label: Optional[str] = None) -> FiniteGroup:
        """Standalone group on re-indexed members (identity stays at 0)."""
        pos = np.zeros(self.parent.n, dtype=_ID)  # ids outside the members are never read
        pos[self.members] = np.arange(len(self), dtype=_ID)
        table = pos[self.parent.table[np.ix_(self.members, self.members)]]
        return _build(table, label or f"subgroup of {self.parent.label}")

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self)} of {self.parent.label!r})"


def _is_int(v) -> bool:
    """True for an integer id: a Python or NumPy integer, but not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _as_table(raw, max_size: Optional[int], label: str) -> np.ndarray:
    """A C-ordered _ID copy of a caller's table, made once its shape has met
    the size cap: an integer array is read as it is; any other entry type
    must hold only integers, or NotClosed names the first that is not, and
    so must the entries <= 1 of a list, where a bool reads as 0 or 1."""
    try:
        arr = np.asarray(raw)
    except (ValueError, TypeError):
        raise NotClosed("table must be a square matrix of integers")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotClosed(f"table must be a nonempty square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    _check_cap(n, max_size, f"table {label!r}")
    if arr.dtype.kind not in "iu":  # a float, str or bool entry, or an int past int64
        suspects = np.ndindex(arr.shape)
    elif isinstance(raw, (list, tuple)):  # np.asarray reads a bool in a list as 0 or 1
        rows, cols = np.nonzero(arr <= 1)
        suspects = zip(rows.tolist(), cols.tolist())
    else:
        suspects = ()
    for a, b in suspects:
        if not _is_int(v := raw[a][b]):
            raise NotClosed(f"entry table[{a}][{b}] = {v!r} is not an integer")
    if arr.min() < 0 or arr.max() >= n:
        a, b = np.argwhere((arr < 0) | (arr >= n))[0]
        raise NotClosed(f"entry table[{a}][{b}] = {int(arr[a, b])} is outside [0, {n})")
    return np.array(arr, dtype=_ID, order="C")


def _find_identity(table: np.ndarray) -> int:
    """The two-sided identity: the first row equal to 0..n-1, if its column is
    too.  No later row can be: a left identity f beside a two-sided e is f = f e = e."""
    n = table.shape[0]
    ar = np.arange(n, dtype=table.dtype)
    e = _first_failure(n, 1, n, lambda lo, hi: (table[lo:hi] == ar).all(axis=1))
    if e is None or not (table[:, e[0]] == ar).all():
        raise NoIdentityAtZero("no element acts as a two-sided identity")
    return e[0]


def _swap_to_zero(table: np.ndarray, e: int) -> np.ndarray:
    """Relabel table in place by the transposition (0 e): map the values a block
    of rows at a time, then swap rows and columns 0 and e; returns the map."""
    n = table.shape[0]
    sigma = np.arange(n, dtype=table.dtype)
    sigma[e], sigma[0] = 0, e
    for lo, hi in _blocks(n, n):
        table[lo:hi] = sigma.take(table[lo:hi])
    table[[0, e]] = table[[e, 0]]
    table[:, [0, e]] = table[:, [e, 0]]
    return sigma


def _generate(table: np.ndarray, check: Optional[Callable[[int], None]] = None) -> np.ndarray:
    """Greedy generating set of a group table, or of a table that Light's
    test, as check, is still proving associative.

    The least id not yet reached becomes the next generator c, and check(c)
    runs before c is used.  The reached set R then grows to R<c>: it is
    multiplied on the right by c, c^2, c^4, ... (each the square of the
    last) while that adds ids, and the ids added since c are then
    multiplied by every generator, layer by layer, until a layer adds none.
    So a cyclic group of order n takes about log2 n steps, not n.

    Every reached id is a product of generators, so in a group table the
    reached set is the subgroup they generate, and the loop ends when it is
    the whole group.  Each new generator at least doubles that subgroup, so
    a group needs at most log2 n of them.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached[c := int(reached.argmin())]:  # argmin is 0 once all are reached
        if check is not None:
            check(c)
        gens.append(c)
        added, power = [], c
        while power:  # the identity as a power adds nothing
            products = table[reached.nonzero()[0], power]  # in a group, each once
            fresh = products[~reached[products]]
            if not fresh.size:
                break
            reached[fresh] = True
            added.append(fresh)
            power = int(table[power, power])
        fresh = np.concatenate(added)
        while fresh.size:  # x g = x' g' repeats a product: keep each once
            new = np.zeros(n, dtype=bool)
            new[table[fresh[:, None], gens]] = True
            fresh = (new & ~reached).nonzero()[0]
            reached[fresh] = True
    out = np.array(gens, dtype=np.intp)
    out.setflags(write=False)
    return out


def _check_associativity(table: np.ndarray) -> np.ndarray:
    """Exact associativity check (Light's test) for a table whose two-sided
    identity sits at 0; raises NotAssociative with a witness triple, and
    returns the greedy generating set it checked.

    R = {c : (ab)c = a(bc) for all a, b} contains the identity 0 and is
    closed under products in any magma: for c, d in R,
    (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).  So once every
    generator of _generate passes, every id it reaches lies in R, and when
    those cover all n ids the table is associative.  Each generator is
    checked a block of rows at a time, so the first bad block holds the
    row-major first witness.  A group needs at most log2 n generators; a
    non-group magma may need up to n, which costs O(n^3), no worse than
    checking every triple.

    take copies each block's ids to intp, 4 times the block's bytes, so a
    row of n products costs 2n entries and a block holds _ROW_BLOCK / 2:
    that copy is then 2^17 / n^2 of the table.
    """
    n = table.shape[0]

    def light(c: int) -> None:
        col = table[:, c]
        # (a*b)*c = col[table[a, b]] and a*(b*c) = table[a, col[b]]; entries are < n
        bad = _first_failure(n, n, 2 * n, lambda lo, hi: (
            col.take(table[lo:hi], mode="clip") != table[lo:hi].take(col, axis=1, mode="clip")))
        if bad is not None:
            a, b = bad
            raise NotAssociative(f"({a}*{b})*{c} = {int(col[table[a, b]])} but "
                                 f"{a}*({b}*{c}) = {int(table[a, col[b]])}", triple=(a, b, c))

    return _generate(table, check=light)


_ROW_BLOCK = 1 << 16  # entries per block of a pass over rows, by measurement:
# at n = 1024 Light's test took 25% less time in 2^16 blocks than in one pass, 8% in 2^14


def _blocks(rows: int, cost: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) for rows 0..rows-1 in blocks of max(1, _ROW_BLOCK // cost)
    rows, where a row costs cost entries: the one block rule of every pass
    over the rows of a table or of a gather from one."""
    step = max(1, _ROW_BLOCK // cost)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _first_failure(rows: int, width: int, cost: int,
                   bad: Callable[[int, int], np.ndarray]) -> Optional[tuple[int, int]]:
    """Row-major first True entry (i, j) of a rows x width bool matrix, or
    None; bad(lo, hi) builds its rows lo..hi-1, in the _blocks of a row
    that costs cost entries, until a block holds one.  A test of whole rows
    has width 1."""
    for lo, hi in _blocks(rows, cost):
        block = bad(lo, hi)
        if block.any():
            i, j = divmod(int(block.argmax()), width)
            return lo + i, j
    return None


def _powers(table: np.ndarray, xs: np.ndarray, e: int) -> np.ndarray:
    """x^e for every x in xs, by square-and-multiply on the bits of e >= 0.

    A square x x is read off the diagonal, the view table.ravel()[::n + 1],
    by one gather of xs.size ids; a multiply gathers x y at x * n + y, in
    int32 while n^2 <= 2^31 and in intp above, never in the table's type.
    The multiply names that type itself, as uint16 ids times a Python int n
    stay uint16.  The result holds ids in the table's type, or is xs itself
    for e = 1.
    """
    n, flat, out = table.shape[0], table.ravel(), xs if e else np.zeros_like(xs)
    diag = flat[::n + 1]
    at = np.int32 if n * n <= 2 ** 31 else np.intp  # x * n + y is below n^2
    for bit in bin(e)[3:]:
        out = diag[out]
        if bit == "1":
            out = flat.take(np.multiply(out, n, dtype=at) + xs)
    return out


def _element_orders(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For every x, the least k >= 1 with x^k in mask; mask is {0} or a
    central subgroup Z, and its x have k = 1.  If some x^n misses mask the
    table is no group: those x get 0 and the other entries mean nothing.

    Divisor descent (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, 1.4): for each p^a exactly dividing n, with y = x^(n/p^a),
    the least b <= a with y^(p^b) in mask makes p^b the p-part of k.  Once
    in mask a power stays there, so b is the count of misses, the j < a with
    y^(p^j) outside mask, added up one step y -> y^p at a time.  The
    premise is that every x^n lies in mask: as mask is a subgroup, the j
    with x^j in mask are then the multiples of k, so k is the product of
    the p^b and divides n.
    """
    n = table.shape[0]
    xs = (~mask).nonzero()[0].astype(np.int32)
    ords = np.ones(n, dtype=np.int32)
    for p, a in factorize(n).items() if xs.size else ():  # mask = all ids: all ones
        y, miss = _powers(table, xs, n // p ** a), 0
        for _ in range(a):
            miss += ~mask[y]
            y = _powers(table, y, p)
        hit = mask[y]  # y is now x^n
        if not hit.all():
            ords[xs[~hit]] = 0
            break
        ords[xs] *= p ** miss
    return ords


def _build(table: np.ndarray, label: str, ord_: Optional[np.ndarray] = None,
           gens: Optional[np.ndarray] = None) -> FiniteGroup:
    """Internal builder for a table with a two-sided identity at 0 that is
    associative: _validate proves both for an imported table, and every
    other builder writes its table so.  Only here is _table_ord set, which
    the census reads.  A builder that knows the element orders by
    construction passes them as ord_ (int32) and its generating set as gens
    (intp), made read-only with the table; otherwise it derives the orders
    from the table and names a non-unit, and _generators finds a set.  It
    proves nothing its callers proved: x^n = e makes x^(n-1) the two-sided
    inverse of x.  A table that is not C-contiguous, or of any type but
    _ID, is an internal fault.

    In a finite monoid the units are exactly the rows holding 0 (Howie,
    Fundamentals of Semigroup Theory, 1995, ch. 1), so when some x^n is not
    0 the first row without 0 is the first id whose powers never reach it.
    If every row holds 0, the caller broke the premise: the table is not
    associative, or its identity is not at 0.
    """
    n = table.shape[0]
    if table.dtype != _ID or not table.flags.c_contiguous:
        raise ValueError(f"table for {label!r} is not a C-contiguous table of "
                         f"{np.dtype(_ID)} ids")
    if ord_ is None:
        ord_ = _element_orders(table, np.arange(n) == 0)
        if not ord_.all():
            lacks = _first_failure(n, 1, n, lambda lo, hi: table[lo:hi].all(axis=1))
            if lacks is not None:
                raise NoInverse(f"element {lacks[0]} has no two-sided inverse", element=lacks[0])
            raise ValueError(f"{label!r} is no group with identity 0: every row holds 0, "
                             f"but x^{n} is not 0 for x = {int(ord_.argmin())}")
    group = FiniteGroup(table, ord_, label, gens)
    group._table_ord = ord_  # the census reads this, not g.ord, which a caller may rebind
    return group


def validate_table_with_report(
    raw,
    label: str = "table",
    *,
    max_size: Optional[int] = None,
) -> tuple[FiniteGroup, list[int]]:
    """Validate a raw Cayley table and wrap it as a group.

    Also returns the old->new re-index map applied to move the identity to
    id 0 (the identity map when it was already there).  raw, a nested list
    or an array of any integer type, is copied into an _ID table once its
    order has met the size cap, and _validate proves the copy a group."""
    return _validate(_as_table(raw, max_size, label), label)


def _validate(table: np.ndarray, label: str) -> tuple[FiniteGroup, list[int]]:
    """Prove a C-contiguous _ID table with entries in [0, n) a group: find
    its identity and relabel the table in place to put it at 0, run Light's
    test, and build; returns the group and the old->new map.  The table
    loader calls it on the table it has parsed."""
    n = table.shape[0]
    e = _find_identity(table)
    sigma = _swap_to_zero(table, e) if e else np.arange(n, dtype=np.int32)
    group = _build(table, label, gens=_check_associativity(table))
    return group, [int(v) for v in sigma]


def _generators(g: FiniteGroup) -> np.ndarray:
    """g's generating set: the one its builder proved, else the greedy set
    of _generate, found once per group."""
    if g._gens is None:
        g._gens = _generate(g.table)
    return g._gens


def center(g: FiniteGroup) -> Subgroup:
    """Subgroup of elements commuting with everything, proven on each call.

    Z(G) is the centralizer of a generating set S: an x with xs = sx for
    every s in S commutes with every product of them, by associativity.
    """
    s = _generators(g)
    return Subgroup(g, (g.table[:, s] == g.table[s].T).all(axis=1))


def _central_cosets(g: FiniteGroup, z: Subgroup, u: Optional[np.ndarray] = None) -> np.ndarray:
    """Cosets of W = Z meet U, for Z central and U a subgroup given as a
    bool mask over g's ids (all of g by default): rows g.table[y, W], W in
    increasing id order, ordered by their least member y, so row 0 is
    table[0, W] = W.  y starts a row when it is the least id of yW, the
    minimum of its |W| products y w, gathered a block of rows at a time, a
    row costing |W| entries, so that no gather holds more than
    max(_ROW_BLOCK, |W|) ids; one coset (W = U, as when Z = G) needs none.
    The rows partition U when z belongs to g and u is a subgroup of it, as
    the callers prove.
    """
    members = np.arange(g.n) if u is None else u.nonzero()[0]
    w = z.members if u is None else (z.bitmap & u).nonzero()[0]
    starts = members[:1]
    if w.size < members.size:
        least = np.concatenate([g.table[members[lo:hi, None], w].min(axis=1)
                                for lo, hi in _blocks(members.size, w.size)])
        starts = members[least == members]
    return g.table[starts[:, None], w]


def _product_of_tables(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Cayley table of the direct product, pairs (a, b) encoded as a * n2 + b,
    in _ID whatever integer types the factors hold: a * n2 and the sum are
    computed in _ID, where every id of a product of order <= MAX_ORDER fits."""
    n1, n2 = t1.shape[0], t2.shape[0]
    out = np.empty((n1, n2, n1, n2), dtype=_ID)
    high = np.multiply(t1, n2, dtype=_ID, casting="unsafe")  # entries of t1 are below n1
    np.add(high[:, None, :, None], t2[None, :, None, :], out=out, dtype=_ID, casting="unsafe")
    return out.reshape(n1 * n2, n1 * n2)


def direct_product(g: FiniteGroup, h: FiniteGroup, *, max_size: Optional[int] = None,
                   label: Optional[str] = None) -> FiniteGroup:
    """Direct product with pairs (a, b) encoded as a * |H| + b.  (a, b) has
    order lcm(o(a), o(b)), read off the factors' table orders, and
    (s, 0) for s in S_G with (0, s) for s in S_H generate it."""
    _check_cap(g.n * h.n, max_size, f"product of {g.label!r} and {h.label!r}")
    return _build(_product_of_tables(g.table, h.table), label or f"product:({g.label})x({h.label})",
                  np.lcm(g._table_ord[:, None], h._table_ord).ravel(),
                  np.concatenate([_generators(g) * h.n, _generators(h)]))


__all__ = [
    "DEFAULT_SIZE_CAP",
    "SIZE_CAP_ENV",
    "MAX_ORDER",
    "size_cap",
    "FiniteGroup",
    "Subgroup",
    "validate_table_with_report",
    "center",
    "direct_product",
]
