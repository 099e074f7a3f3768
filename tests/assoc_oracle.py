"""Slow reference route that the exact associativity check is compared
against: every triple (a, b, c) of the table, scanned in blocks of rows."""

from __future__ import annotations

import numpy as np

from cyclicdensity import NotAssociative

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
