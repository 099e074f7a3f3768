"""Near-group tables: loops (Latin squares with a two-sided identity at id 0)
that only an associativity check can tell from a group.  Nothing is
imported from the library.

- cayley_dickson_loop(k): the signed basis units +-e_i of the 2^k-dimensional
  Cayley-Dickson algebra, of order 2^(k+1), with the doubling product
  (a, b)(c, d) = (a c - d* b, d a + b c*), where * conjugates (e_0* = e_0,
  e_i* = -e_i for i > 0).  Orders 4 and 8 are C4 and Q8; order 16 is the
  octonion loop, which is Moufang but not associative, and so is every
  larger one (J. C. Baez, "The octonions", Bull. AMS 39, 2002).
- intercalates(table): the 2 x 2 subsquares {a, b} x {c, d} with
  a c = b d and a d = b c, none of a, b, c, d the identity 0; swap(table, q)
  exchanges the two symbols of one, which keeps a Latin square with the
  same identity row and column.  A group table has one exactly when the
  group has an involution: x = b^-1 a then satisfies x = x^-1.
- cycle_switches(table): rows a, b (neither the identity) and one cycle of
  the column permutation that sends c to the column where row b holds
  table[a, c], other than the cycle through column 0; switch(table, q)
  exchanges rows a and b on that cycle's columns, which keeps a Latin
  square with the same identity row and column.  In a group the cycles are
  the cosets <b^-1 a> c, so an odd-order group, which has no intercalate,
  has switches wherever n / o(b^-1 a) > 1 (I. M. Wanless, "Cycle switches
  in Latin squares", Graphs Combin. 20, 2004).  An intercalate is a switch
  on a 2-cycle.
"""

from __future__ import annotations

import numpy as np


def cayley_dickson_signs(k: int) -> np.ndarray:
    """s[i, j] in {1, -1} with e_i e_j = s[i, j] e_(i xor j) in dimension 2^k.

    Write e_i for i < h = 2^(k-1) as (e_i, 0) and e_(h+i) as (0, e_i); the
    doubling product then gives the four blocks
    (e_i, 0)(e_j, 0) = (e_i e_j, 0),   (e_i, 0)(0, e_j) = (0, e_j e_i),
    (0, e_i)(e_j, 0) = (0, e_i e_j*),  (0, e_i)(0, e_j) = (-e_j* e_i, 0).
    """
    s = np.ones((1, 1), dtype=np.int8)
    for _ in range(k):
        conj = np.where(np.arange(s.shape[0]) == 0, 1, -1).astype(np.int8)
        s = np.block([[s, s.T], [s * conj[None, :], -s.T * conj[None, :]]])
    return s


def cayley_dickson_loop(k: int) -> np.ndarray:
    """Cayley table of the 2^(k+1) signed units: id i is +e_i and id N + i
    is -e_i, N = 2^k, so +e_0 is the identity at id 0."""
    n = 1 << k
    s = cayley_dickson_signs(k)
    idx = np.arange(n)
    unit = idx[:, None] ^ idx[None, :]
    neg = (s < 0).astype(np.int64)
    half = np.block([[neg, 1 - neg], [1 - neg, neg]])  # sign bits of +-e_i +-e_j
    return np.tile(unit, (2, 2)) + n * half


def intercalates(table: np.ndarray) -> np.ndarray:
    """Every intercalate avoiding id 0 as rows (a, b, c, d), a < b, c < d,
    in lexicographic order."""
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    col_of = np.argsort(t, axis=1)  # col_of[b, v]: the column where row b holds v
    c = np.arange(1, n)
    found = []
    for a in range(1, n):
        for b in range(a + 1, n):
            d = col_of[b, t[a, c]]  # b d = a c
            keep = (c < d) & (t[a, d] == t[b, c])
            found += [(a, b, int(ci), int(di)) for ci, di in zip(c[keep], d[keep])]
    return np.array(found, dtype=np.int64).reshape(-1, 4)


def swap(table: np.ndarray, q) -> np.ndarray:
    """A copy of table with the two symbols of the intercalate q exchanged."""
    a, b, c, d = (int(v) for v in q)
    return switch(table, (a, b, (c, d)))


def _cycle(step: list[int], c: int) -> list[int]:
    cycle = [c]
    while step[cycle[-1]] != c:
        cycle.append(step[cycle[-1]])
    return cycle


def cycle_switches(table: np.ndarray) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every row cycle switch avoiding id 0 as (a, b, cols), 0 < a < b, with
    cols a cycle from its least column, in lexicographic order of (a, b) and
    then of that column."""
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    col_of = np.argsort(t, axis=1)
    found = []
    for a in range(1, n):
        for b in range(a + 1, n):
            step = col_of[b, t[a]].tolist()  # row b holds t[a, c] in column step[c]
            seen = set(_cycle(step, 0))
            for c in range(1, n):
                if c not in seen:
                    cycle = _cycle(step, c)
                    seen.update(cycle)
                    found.append((a, b, tuple(cycle)))
    return found


def switch(table: np.ndarray, q) -> np.ndarray:
    """A copy of table with rows a and b exchanged on the columns of q = (a, b, cols)."""
    a, b, cols = q
    t = np.array(table, dtype=np.int64)
    out, cols = t.copy(), list(cols)
    out[a, cols], out[b, cols] = t[b, cols], t[a, cols]
    return out


def fails(table: np.ndarray, triple) -> bool:
    """True when (a b) c != a (b c) in table."""
    a, b, c = (int(v) for v in triple)
    return table[table[a, b], c] != table[a, table[b, c]]
