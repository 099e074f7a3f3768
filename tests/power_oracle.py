"""Slow reference routes that the divisor descent, the builder's inverses
and the unit-orbit census of the library are checked against.

element_orders() and least_generators() advance every power walk in
lockstep, one exponent per step (x^(k+1) = x * x^k), and drop each element
once it is done; element_orders() gives 0 for an x whose powers never reach
the mask, and least_generators() proves each stored order on the way with
the NotClosed texts of table_oracle.prove_orders.  inverses() pairs every x
with a y such that x y = y x = 0 through the n^2 mask table == 0 and its
transpose.
"""

from __future__ import annotations

import numpy as np

from cyclicdensity import NoInverse, NotClosed


def element_orders(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For every x, the least k >= 1 with x^k in mask, or 0 if there is none."""
    n = table.shape[0]
    out = np.zeros(n, dtype=np.int32)
    xs = np.arange(n, dtype=np.int32)
    cur = xs.copy()  # cur holds x^k
    flat = table.ravel()
    row = xs.astype(np.intp) * n  # x^(k+1) = x * x^k = flat[row + cur]
    for k in range(1, n + 1):
        hit = mask[cur]
        if hit.any():
            out[xs[hit]] = k
            live = ~hit
            xs, row, cur = xs[live], row[live], cur[live]
            if not xs.size:
                return out
        cur = flat.take(row + cur)
    return out


def least_generators(table: np.ndarray, ords: np.ndarray) -> np.ndarray:
    """key[x] = min{x^k : 1 <= k <= o(x), gcd(k, o(x)) = 1} with o = ords,
    proving that x^k is the identity exactly at k = o(x)."""
    n = table.shape[0]
    key = np.arange(n, dtype=np.int32)
    xs, cur, kx, o = key.copy(), key.copy(), key.copy(), ords.astype(np.int64)
    flat = table.ravel()
    row = xs.astype(np.intp) * n
    for k in range(1, n + 1):
        done = o == k
        bad = np.flatnonzero((cur == 0) != done)
        if bad.size:
            i = int(bad[0])
            raise NotClosed(f"element {int(xs[i])} has recorded order {int(o[i])}, "
                            f"but x^{k} is {'' if cur[i] == 0 else 'not '}the identity")
        if done.any():
            key[xs[done]] = kx[done]  # kx: least generator met so far
            live = ~done
            xs, o, row, cur, kx = xs[live], o[live], row[live], cur[live], kx[live]
            if not xs.size:
                return key
        cur = flat.take(row + cur)
        np.minimum(kx, cur, out=kx, where=np.gcd(k + 1, o) == 1)
    raise NotClosed(f"powers of element {int(xs[0])} never reach the identity")


def inverses(table: np.ndarray) -> np.ndarray:
    """inv[x] with x inv[x] = inv[x] x = 0; NoInverse names the least x
    that has none."""
    n = table.shape[0]
    eq0 = table == 0
    both = eq0 & eq0.T
    inv = np.argmax(both, axis=1).astype(np.int32)
    ok = both[np.arange(n), inv]
    if not ok.all():
        a = int(np.nonzero(~ok)[0][0])
        raise NoInverse(f"element {a} has no two-sided inverse", element=a)
    return inv
