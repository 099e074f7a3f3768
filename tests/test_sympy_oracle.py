"""full_report against sympy's own facts on permutation groups that no
catalog family builds: A4, A5, S5, the transitive subgroups of S4 and S5,
those of S6 up to order 120 (all but A6 and S6), D10 x C3, six metacyclic
groups <a, b | a^m, b^k a^-s, b a b^-1 a^-r>, and the groups G = T x O of
the paper's equality shape with O nontrivial and T non-abelian: T the
central product C4 o D8 and O one of C3, C5 and C9.  Q8 x C3 and D8 x C3
have that shape up to the last clause of the criterion, which they fail.
sympy finds the permutations of a presented group by coset enumeration.

Each group's Cayley table is written in a seeded shuffle of its elements
with the identity off id 0, so it reaches full_report through
validate_table_with_report's identity search, relabeling and Light's test.
Every expected value comes from sympy: the order, |Z| by center(), |C(G)|
as the sum of 1/phi(o(x)), alpha(Z), the average orders of G and Z,
exp(G/Z) as the lcm over x of the least k with x^k in Z, and whether
alpha(G) = alpha(Z), which both the equality and the structural verdict
must match.
"""

from __future__ import annotations

import functools
import math
import random
import zlib
from fractions import Fraction

import numpy as np
import pytest
from sympy import totient
from sympy.combinatorics.fp_groups import FpGroup
from sympy.combinatorics.free_groups import free_group
from sympy.combinatorics.galois import (
    S4TransitiveSubgroups,
    S5TransitiveSubgroups,
    S6TransitiveSubgroups,
)
from sympy.combinatorics.group_constructs import DirectProduct
from sympy.combinatorics.named_groups import (
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    SymmetricGroup,
)

from cyclicdensity import center, full_report, validate_table_with_report
from cyclicdensity.verify import structural_condition


def presented(names: str, relators, order: int):
    """<names | relators(*generators)> as a permutation group of the given
    order."""
    free, *gens = free_group(names)
    perms = FpGroup(free, relators(*gens))._to_perm_group()[0]
    assert perms.order() == order
    return perms


def metacyclic(m: int, k: int, s: int, r: int):
    """<a, b | a^m, b^k a^-s, b a b^-1 a^-r>, of order m k when r^k = 1 and
    s (r - 1) = 0 mod m (Hempel, Comm. Algebra 28, 2000)."""
    return presented("a, b", lambda a, b: [a ** m, b ** k * a ** -s,
                                           b * a * b ** -1 * a ** -r], m * k)


@functools.cache  # its coset enumeration is most of a test's time
def c4_d8():
    """The central product C4 o D8 = <a, x, y | a^4, x^2, y^2, (x y)^2 a^-2,
    [a, x], [a, y]>, of order 16."""
    return presented("a, x, y", lambda a, x, y: [
        a ** 4, x ** 2, y ** 2, (x * y) ** 2 * a ** -2,
        a ** -1 * x ** -1 * a * x, a ** -1 * y ** -1 * a * y], 16)


# (m, k, s, r): C7 : C3, Q16, SD16, M16, C9 : C3 and the Frobenius group F20
METACYCLIC = [(7, 3, 0, 2), (8, 2, 4, 7), (8, 2, 0, 3), (8, 2, 0, 5), (9, 3, 0, 4), (5, 4, 0, 2)]

GROUPS = {
    "A4": lambda: AlternatingGroup(4),
    "A5": lambda: AlternatingGroup(5),
    "S5": lambda: SymmetricGroup(5),
    **{f"S4-{m.name}": m.get_perm_group for m in S4TransitiveSubgroups},
    **{f"S5-{m.name}": m.get_perm_group for m in S5TransitiveSubgroups},
    **{f"S6-{m.name}": m.get_perm_group for m in S6TransitiveSubgroups
       if m.name not in ("A6", "S6")},
    "D10xC3": lambda: DirectProduct(DihedralGroup(5), CyclicGroup(3)),
    **{"metacyclic:" + ",".join(map(str, p)): lambda p=p: metacyclic(*p) for p in METACYCLIC},
    **{f"C4oD8xC{q}": lambda q=q: DirectProduct(c4_d8(), CyclicGroup(q)) for q in (3, 5, 9)},
    "Q8xC3": lambda: DirectProduct(metacyclic(4, 2, 2, 3), CyclicGroup(3)),
    "D8xC3": lambda: DirectProduct(DihedralGroup(4), CyclicGroup(3)),
}


def shuffled_table(elems: list, seed: int) -> tuple[np.ndarray, int]:
    """The Cayley table of elems in a seeded shuffle, and the id it gives
    the identity, which is never 0."""
    random.Random(seed).shuffle(elems)
    e = next(i for i, x in enumerate(elems) if x.is_Identity)
    if e == 0:
        elems[0], elems[1] = elems[1], elems[0]
        e = 1
    index = {x: i for i, x in enumerate(elems)}
    return np.array([[index[x * y] for y in elems] for x in elems]), e


def sympy_facts(group) -> dict:
    elems = list(group.generate())
    z = set(group.center().generate())

    def count_and_mean(xs) -> tuple[int, Fraction]:
        count = sum(Fraction(1, int(totient(x.order()))) for x in xs)
        assert count.denominator == 1
        return int(count), Fraction(sum(x.order() for x in xs), len(xs))

    c_g, o_g = count_and_mean(elems)
    c_z, o_z = count_and_mean(z)
    qexp = math.lcm(*(next(k for k in range(1, x.order() + 1) if x ** k in z) for x in elems))
    return {"order": group.order(), "center_order": len(z), "cyclic_count": c_g,
            "alpha_z": Fraction(c_z, len(z)), "avg_order_g": o_g, "avg_order_z": o_z,
            "quotient_exponent": qexp, "two_central": all(x ** 2 in z for x in elems)}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_full_report_matches_sympy(name):
    group = GROUPS[name]()
    # a seed per name, which adding a group does not shift
    table, e = shuffled_table(list(group.generate()), seed=zlib.crc32(name.encode()))
    g, reindex = validate_table_with_report(table, name)
    assert reindex[e] == 0 and reindex[0] == e
    report = full_report(g)
    want = sympy_facts(group)
    assert {k: getattr(report, k) for k in want} == want
    assert report.alpha_g == Fraction(want["cyclic_count"], want["order"])
    equal = Fraction(want["cyclic_count"], want["order"]) == want["alpha_z"]
    assert report.equality == report.structural == equal
    assert report.findings == ()
    if name.startswith("C4oD8"):
        assert equal
    elif name in ("Q8xC3", "D8xC3"):  # clauses (a) and (b) hold, (c) fails
        assert structural_condition(g, center(g)).startswith("coset of ")
