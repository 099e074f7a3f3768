"""The default-sweep corpus written out family by family, as
sweep.corpus_specs enumerated it before it read each family's parameters
off catalog._FAMILIES: every rule restated as its own range or loop.

corpus(config) returns the sorted spec strings.  The abelian types are the
recursive enumeration the sweep used before catalog._rule_params listed
them, over prime powers found by trial division; nothing here comes from
cyclicdensity.
"""

from __future__ import annotations

import math


def is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


def _prime_powers(limit: int) -> list[int]:
    out = []
    for p in range(2, limit + 1):
        if is_prime(p):
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    return sorted(out)


def _abelian_param_lists(limit: int) -> list[tuple[int, ...]]:
    """Non-decreasing multisets of prime powers with product <= limit: one
    per isomorphism type of nontrivial abelian group."""
    pps = _prime_powers(limit)
    out: list[tuple[int, ...]] = []

    def rec(start: int, budget: int, acc: list[int]) -> None:
        for i in range(start, len(pps)):
            q = pps[i]
            if q > budget:
                break
            acc.append(q)
            out.append(tuple(acc))
            rec(i, budget // q, acc)
            acc.pop()

    rec(0, limit, [])
    return out


def corpus(config) -> tuple[str, ...]:
    lim = config.max_order
    fams = set(config.families)
    specs: list[str] = []
    if "cyclic" in fams:
        specs += [f"cyclic:{n}" for n in range(1, lim + 1)]
    if "abelian" in fams:
        specs += [f"abelian:{','.join(map(str, t))}" for t in _abelian_param_lists(lim)]
    if "dihedral" in fams:
        specs += [f"dihedral:{n}" for n in range(4, lim + 1, 2)]
    if "quaternion" in fams:
        specs += [f"quaternion:{n}" for n in range(8, lim + 1, 4)]
    if "symmetric" in fams:
        k = 3  # degrees 1 and 2 duplicate cyclic:1 and cyclic:2
        while k <= 7 and math.factorial(k) <= lim:
            specs.append(f"symmetric:{k}")
            k += 1
    if "extraspecial" in fams:
        order = 8
        while order <= lim:
            specs += [f"extraspecial:{order}:+", f"extraspecial:{order}:-"]
            order *= 4
    if "almost-extraspecial" in fams:
        order = 16
        while order <= lim:
            specs.append(f"almost-extraspecial:{order}")
            order *= 4
    if "heisenberg" in fams:
        p = 3
        while p ** 3 <= lim:
            if is_prime(p):
                specs.append(f"heisenberg:{p}")
            p += 2
    specs += [f"table:{path}" for path in config.include_tables]
    return tuple(sorted(specs))
