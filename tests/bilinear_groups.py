"""Class-2 2-groups from bilinear forms, with closed forms for what the
verifier reports on them.  Nothing is imported from the library.

For a k x k matrix B over F_2, G(B) = F_2^k x C_2 with the product
(x, a)(y, b) = (x ^ y, a ^ b ^ beta(x, y)), beta(x, y) = x^T B y.  A
bilinear beta is a 2-cocycle, so the product is associative (F. R. Beyl &
J. Tappe, *Group Extensions, Representations, and the Schur
Multiplicator*, LNM 958, 1982); (x, a) has id 2x + a, so the identity
(0, 0) is id 0, and G has order 2^(k+1).

With q(x) = beta(x, x) and R the radical of B + B^T:

- (x, a)^2 = (0, q(x)), so (x, a) has order 4 exactly when q(x) = 1, and
  its two elements (x, 0), (x, 1) then share one cyclic subgroup; every
  other x != 0 gives two subgroups of order 2.  So
  |C(G)| = 2 + 2 #{x != 0 : q(x) = 0} + #{x : q(x) = 1}.
- (x, a) and (y, b) commute exactly when beta(x, y) = beta(y, x), so
  Z(G) = R x C_2, and G is abelian exactly when R = F_2^k.
- Equality alpha(G) = alpha(Z) holds exactly when G is abelian or q is not
  zero on R.  On R, q is additive.  If q is not zero on R, it takes both
  values on every coset x + R, which is clause (c) of the criterion.  If q
  is zero on R, it is constant on each coset, and a non-abelian G has some
  q(x) = 1, whose coset holds no involution.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def form(b: np.ndarray) -> np.ndarray:
    """The (2^k, 2^k) 0/1 table of beta(x, y) = x^T B y over F_2, x and y
    read as k-bit integers, bit i the i-th coordinate."""
    k = b.shape[0]
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return (bits @ b @ bits.T) & 1


def bilinear_table(b: np.ndarray) -> np.ndarray:
    """Cayley table of G(B) in the ids 2x + a."""
    beta = form(b)
    ids = np.arange(2 << b.shape[0])
    x, a = ids >> 1, ids & 1
    return 2 * (x[:, None] ^ x) + (a[:, None] ^ a ^ beta[x[:, None], x])


def closed_forms(b: np.ndarray) -> dict:
    """cyclic_count, alpha_g, center_order, abelian and equality of G(B)."""
    beta = form(b)
    q = np.diagonal(beta)
    radical = ~(beta ^ beta.T).any(axis=1)
    order = 2 * beta.shape[0]
    cyclic = 2 + 2 * int((q[1:] == 0).sum()) + int(q.sum())
    abelian = bool(radical.all())
    return {
        "cyclic_count": cyclic,
        "alpha_g": Fraction(cyclic, order),
        "center_order": 2 * int(radical.sum()),
        "abelian": abelian,
        "equality": abelian or bool(q[radical].any()),
    }


def relabeled(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """table with its ids renamed by a random permutation, the identity too."""
    perm = rng.permutation(table.shape[0])
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out
