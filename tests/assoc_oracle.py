"""Slow reference routes for validation's n^2 steps.

check_associativity_full() scans every triple (a, b, c) of the table in
blocks of rows.  The other three are the whole-table forms the blocked
validation steps replaced: light_unblocked() checks each generator of
Light's test with two n^2 gathers, find_identity_two_masks() compares
every row and every column with 0..n-1, and swap_to_zero_gather() relabels
by the transposition (0 e) with one n^2 gather.
"""

from __future__ import annotations

import numpy as np

from cyclicdensity import NoIdentityAtZero, NotAssociative
from cyclicdensity.groups import _generate

# Element budget per temporary in the blocked scan (~32 MB).
_BLOCK_ELEMENTS = 1 << 23


def check_associativity_full(table: np.ndarray) -> None:
    """Raise NotAssociative with the first failing triple in row-major order."""
    n = table.shape[0]
    block = max(1, _BLOCK_ELEMENTS // (n * n))
    for start in range(0, n, block):
        rows = table[start : start + block]
        lhs = table[rows]  # lhs[i,b,c] = (a_i * b) * c
        rhs = rows[:, table]  # rhs[i,b,c] = a_i * (b * c)
        if not np.array_equal(lhs, rhs):
            i, b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
            a = start + i
            raise NotAssociative(
                f"({a}*{b})*{c} = {int(lhs[i, b, c])} but {a}*({b}*{c}) = {int(rhs[i, b, c])}",
                triple=(a, b, c),
            )


def light_unblocked(table: np.ndarray) -> np.ndarray:
    """Light's test on the greedy generating set, each generator c checked
    over the whole table at once; returns the generators it checked."""
    n = table.shape[0]

    def light(c: int) -> None:
        col = table[:, c]
        left = col.take(table)  # left[a, b] = (a*b)*c
        right = table.take(col, axis=1)  # right[a, b] = a*(b*c)
        bad = left != right
        if bad.any():
            a, b = divmod(int(bad.argmax()), n)
            raise NotAssociative(
                f"({a}*{b})*{c} = {int(left[a, b])} but {a}*({b}*{c}) = {int(right[a, b])}",
                triple=(a, b, c),
            )

    return _generate(table, check=light)


def find_identity_two_masks(table: np.ndarray) -> int:
    """The least id whose row and column both equal 0..n-1."""
    n = table.shape[0]
    ar = np.arange(n, dtype=np.int32)
    two_sided = (table == ar[None, :]).all(axis=1) & (table == ar[:, None]).all(axis=0)
    hits = np.nonzero(two_sided)[0]
    if hits.size == 0:
        raise NoIdentityAtZero("no element acts as a two-sided identity")
    return int(hits[0])


def swap_to_zero_gather(table: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """A new table relabeled so e becomes 0, and the old->new map."""
    n = table.shape[0]
    sigma = np.arange(n, dtype=np.int32)
    sigma[e], sigma[0] = 0, e
    return np.ascontiguousarray(sigma[table][np.ix_(sigma, sigma)]), sigma
