"""Slow reference routes that the generating-set checks are compared
against: each compares every product of the whole table (or of the member
set), and names the first failing pair in row-major order.

center_members() keeps the elements whose row equals their column,
closure_failure() gathers the |H| x |H| products of a member set,
centrality_failure() compares the rows of Z with the transposed columns,
and four_abelian_witness() compares (x y)^4 with x^4 y^4 for all n^2 pairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


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
    if not inside[g.inv[arr]].all():
        return f"inverse of {int(arr[~inside[g.inv[arr]]][0])} is outside the set"
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


def four_abelian_witness(g) -> tuple[bool, Optional[tuple[int, int]]]:
    ar = np.arange(g.n)
    sq = g.table[ar, ar]
    f4 = sq[sq]
    mismatch = f4[g.table] != g.table[np.ix_(f4, f4)]
    if mismatch.any():
        x, y = np.argwhere(mismatch)[0]
        return False, (int(x), int(y))
    return True, None
