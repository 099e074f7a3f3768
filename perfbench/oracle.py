"""Closed-form cyclic-subgroup counts, computed from divisor counts alone.

These never call the library, so they check its census from outside:
    cyclic:n                 tau(n)
    dihedral:2m              tau(m) + m       (m reflections, each its own <s>)
    quaternion:4m            tau(2m) + m      (<a^i b> = {a^i b, a^(i+m) b, ...})
    heisenberg:p             p^2 + p + 2      (exponent p: 1 + (p^3 - 1)/(p - 1))
    almost-extraspecial:2^k  alpha = 3/4
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


def tau(n: int) -> int:
    """Number of positive divisors of n, by trial division."""
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def closed_form_count(label: str) -> Optional[int]:
    """|C(G)| for the families with a closed form; None for the rest."""
    family, _, param = label.partition(":")
    if not param.isdigit():
        return None
    n = int(param)
    if family == "cyclic":
        return tau(n)
    if family == "dihedral":
        return tau(n // 2) + n // 2
    if family == "quaternion":
        return tau(n // 2) + n // 4
    if family == "heisenberg":
        return n * n + n + 2
    return None


def closed_form_alpha(label: str) -> Optional[Fraction]:
    """alpha(G) for the families with a closed form; None for the rest."""
    family, _, param = label.partition(":")
    if family == "almost-extraspecial":
        return Fraction(3, 4)
    count = closed_form_count(label)
    if count is None:
        return None
    n = int(param)
    order = n ** 3 if family == "heisenberg" else n
    return Fraction(count, order)


def check_report(label: str, cyclic_count: int, alpha_g: str) -> list[str]:
    """Mismatches between one reported verdict and the closed forms."""
    problems = []
    want_count = closed_form_count(label)
    if want_count is not None and cyclic_count != want_count:
        problems.append(f"{label}: cyclic_count {cyclic_count}, closed form {want_count}")
    want_alpha = closed_form_alpha(label)
    if want_alpha is not None and Fraction(alpha_g) != want_alpha:
        problems.append(f"{label}: alpha_g {alpha_g}, closed form {want_alpha}")
    return problems
