"""Closed forms for every number the default sweep reports, from the spec
string alone: no table is built and nothing is imported from the library.

forms(spec) returns cyclic_count = |C(G)|, center_order = |Z(G)|,
alpha_g = |C(G)|/|G|, alpha_z = |C(Z)|/|Z|, equality (alpha_g == alpha_z)
and quotient_exponent = exp(G/Z(G)) for these families:

- abelian Z_n1 x ... x Z_nk (and cyclic:n, one factor): #{x : x^e = 1} is
  the product of gcd(e, n_i), Moebius inversion over the divisors d of
  lcm(n_i) gives the number of elements of order d, and each cyclic
  subgroup of order d has phi(d) generators (L. Toth, Bull. Math. Soc. Sci.
  Math. Roumanie 55(103), 2012).  Z = G and G/Z is trivial.
- dihedral:2m: |C| = tau(m) + m, since <r> has tau(m) subgroups and each
  of the m reflections spans its own; Z is <r^(m/2)> for even m >= 4 and
  trivial for odd m; G/Z is dihedral of order m, or G itself.
- quaternion:4m: |C| = tau(2m) + m (the tau(2m) subgroups of <a>, and the
  m subgroups <a^i b> of order 4); Z = <a^m> of order 2 and G/Z is
  dihedral of order 2m.
- extraspecial 2^(1+2m) of sign e: Z = <z> of order 2 and G/Z is
  elementary abelian; its 2^(2m) + e 2^m - 1 involutions and the other
  non-identity elements, of order 4 and two to a cyclic subgroup, give
  |C| = 3 * 2^(2m-1) + e 2^(m-1).
- almost-extraspecial:n: |C| = 3n/4, Z is cyclic of order 4, and G/Z is
  elementary abelian.
- heisenberg:p: every non-identity element has order p, so
  |C| = 1 + (p^3 - 1)/(p - 1) = p^2 + p + 2; Z has order p and G/Z is
  elementary abelian of order p^2.
- symmetric:3, 4, 5: |C| = 5, 17 and 67 (OEIS A051625), Z is trivial and
  exp(S_n) = lcm(1..n).
"""

from __future__ import annotations

import math
from fractions import Fraction


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def abelian_cyclic_count(orders: tuple[int, ...]) -> int:
    """|C(G)| of Z_n1 x ... x Z_nk by Toth's count."""
    solutions = lambda e: math.prod(math.gcd(e, n) for n in orders)  # noqa: E731
    total = 0
    for d in _divisors(math.lcm(*orders)):
        of_order_d = sum(_mobius(d // e) * solutions(e) for e in _divisors(d))
        total += of_order_d // _phi(d)
    return total


def forms(spec: str) -> dict:
    """The six closed-form values of the group a spec string names."""
    family, _, body = spec.partition(":")
    if family in ("cyclic", "abelian"):
        orders = tuple(int(v) for v in body.split(","))
        n = math.prod(orders)
        count = abelian_cyclic_count(orders)
        return _values(n, count, n, count, 1)
    if family == "dihedral":
        n = int(body)
        m = n // 2
        if m == 2:  # dihedral:4 is Z_2 x Z_2
            return _values(4, 4, 4, 4, 1)
        center = 2 if m % 2 == 0 else 1
        qexp = math.lcm(m // 2, 2) if center == 2 else math.lcm(m, 2)
        return _values(n, len(_divisors(m)) + m, center, center, qexp)
    if family == "quaternion":
        n = int(body)
        m = n // 4
        return _values(n, len(_divisors(2 * m)) + m, 2, 2, math.lcm(m, 2))
    if family == "extraspecial":
        order, sign = body.split(":")
        n, e = int(order), 1 if sign == "+" else -1
        m = (n.bit_length() - 2) // 2  # n = 2^(1+2m)
        count = 3 * 2 ** (2 * m - 1) + e * 2 ** (m - 1)
        return _values(n, count, 2, 2, 2)
    if family == "almost-extraspecial":
        n = int(body)
        return _values(n, 3 * n // 4, 4, 3, 2)  # Z_4 has 3 cyclic subgroups
    if family == "heisenberg":
        p = int(body)
        return _values(p ** 3, p * p + p + 2, p, 2, p)
    if family == "symmetric":
        k = int(body)
        count = {3: 5, 4: 17, 5: 67}[k]
        return _values(math.factorial(k), count, 1, 1, math.lcm(*range(1, k + 1)))
    raise ValueError(f"no closed form for {spec!r}")


def _values(n: int, count: int, center: int, center_count: int, qexp: int) -> dict:
    alpha_g, alpha_z = Fraction(count, n), Fraction(center_count, center)
    return {
        "cyclic_count": count,
        "center_order": center,
        "alpha_g": alpha_g,
        "alpha_z": alpha_z,
        "equality": alpha_g == alpha_z,
        "quotient_exponent": qexp,
    }
