"""The default-sweep corpus written out family by family, as
sweep.corpus_specs enumerated it before it read each family's parameters
off catalog._FAMILIES: every rule restated as its own range or loop.

corpus(config) returns the sorted spec strings.  Abelian types come from
sweep._abelian_param_lists, which the enumeration still uses.
"""

from __future__ import annotations

import math

from cyclicdensity.arith import is_prime
from cyclicdensity.sweep import _abelian_param_lists


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
