"""The fast paths a sweep group takes, against the routes they replace.

A group whose table orders hold an element of order n takes that element
as its whole generating set S; the center and the 4-abelian check must
read the same off it as off the greedy set of _generate.  Orders that a
caller rebinds must not reach that path: only _build sets the table
orders it reads.
Subgroup proves closure alone, as closure forces inverses in a finite
group and a subgroup's order divides |G|: every set it accepts, across the
corpus, holds the oracle's inverses of its members and has such an order.
_central_cosets checks no partition, as the cosets of a subgroup W of a
subgroup U partition U.  full_report names the 4-abelian witness when
equality holds, and per_coset_analysis sums in int64 only while no sum can
overflow it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import power_oracle
from census_oracle import per_coset_findings
from cyclicdensity import (
    NotASubgroup,
    Subgroup,
    SweepConfig,
    build_group,
    center,
    four_abelian_failure,
    full_report,
    verify,
)
from cyclicdensity.sweep import corpus_specs
from cyclicdensity.verify import per_coset_analysis
from cyclicdensity.groups import (
    _ROW_BLOCK,
    FiniteGroup,
    _central_cosets,
    _generate,
    _generators,
)
from table_oracle import four_abelian_witness, with_orders


def with_greedy_generators(spec: str) -> FiniteGroup:
    """A fresh build of spec whose generating set is _generate's."""
    g = build_group(spec)
    g._gens = _generate(g.table)
    return g


def test_order_n_generator_matches_the_greedy_set_on_the_sweep():
    checked = 0
    for spec in corpus_specs(SweepConfig()):
        g = build_group(spec)
        s = _generators(g)
        if s.size != 1 or g.ord[s[0]] != g.n:
            assert not (g.ord == g.n).any(), spec  # a group with one takes it
            continue
        slow = with_greedy_generators(spec)
        assert center(g).members.tolist() == center(slow).members.tolist(), spec
        assert four_abelian_failure(g) == four_abelian_failure(slow), spec
        checked += 1
    assert checked >= 256  # every cyclic:n spec, and the coprime abelian ones


def test_rebound_orders_do_not_choose_the_generator():
    g = build_group("dihedral:8")
    ords = g.ord.copy()
    ords[1] = 8  # the rotation r, of order 4, claims order 8
    g.ord = ords
    assert center(g).members.tolist() == [0, 2]


def candidate_sets(g: FiniteGroup, rng: np.random.Generator):
    """Member sets to hand Subgroup: the center, the 2-part and the odd
    part, random subsets holding 0, the subgroups that random ids and pairs
    of ids generate, and all of g."""
    yield center(g).members
    yield (g.ord & (g.ord - 1)) == 0
    yield g.ord % 2 == 1
    for p in (0.1, 0.5, 0.9):
        mask = rng.random(g.n) < p
        mask[0] = True
        yield mask
    for k in (1, 1, 1, 1, 2, 2, 2, 2):
        h = np.zeros(g.n, dtype=bool)
        h[[0, *rng.integers(g.n, size=k)]] = True
        while not h[prods := g.table[np.ix_(ids := np.flatnonzero(h), ids)]].all():
            h[prods] = True
        yield h
    yield np.ones(g.n, dtype=bool)


def test_every_set_a_subgroup_accepts_holds_its_inverses():
    # Subgroup checks no inverses and no order: in a finite group a closed
    # set holding a holds a^(o(a)-1) = a^-1, so no set it accepts can lack
    # one, and a closed set is a subgroup, whose order divides |G|
    rng = np.random.default_rng(31)
    routes, rejected = Counter(), 0
    # sets over 128 ids, whose closure scan takes several blocks, need the
    # larger groups
    larger = ("cyclic:768", "abelian:2,256", "dihedral:512", "quaternion:512",
              "heisenberg:7", "product:(symmetric:5)x(cyclic:3)")
    for spec in corpus_specs(SweepConfig(max_order=64)) + larger:
        g = build_group(spec)
        inv = power_oracle.inverses(g.table)
        for members in candidate_sets(g, rng):
            try:
                h = Subgroup(g, members)
            except NotASubgroup:
                rejected += 1
                continue
            assert h.bitmap[inv[h.members]].all(), spec
            assert g.n % len(h) == 0, spec
            routes["whole group" if len(h) == g.n else "one scan block"
                   if 4 * len(h) ** 2 <= _ROW_BLOCK else "several blocks"] += 1
    # Subgroup accepts some sets of each size: the whole group, which needs
    # no scan, and proper subsets whose scan takes one block or several
    assert len(routes) == 3 and min(routes.values()) >= 10 and rejected >= 600, routes


def test_central_cosets_partition_the_subgroup_with_w_first():
    # the rows are the cosets y W, W = Z meet U, each named by its least y;
    # as W is a subgroup of U they partition U, and row 0 is table[0, W] = W
    rng = np.random.default_rng(32)
    checked = 0
    for spec in corpus_specs(SweepConfig(max_order=64)):
        g = build_group(spec)
        z = center(g)
        for members in [None, *candidate_sets(g, rng)]:
            try:
                u = None if members is None else Subgroup(g, members)
            except NotASubgroup:
                continue
            cosets = _central_cosets(g, z, u)
            umem = np.arange(g.n) if u is None else u.members
            assert np.array_equal(np.sort(cosets, axis=None), umem), spec
            assert np.array_equal(cosets[0], np.intersect1d(z.members, umem)), spec
            checked += 1
    assert checked >= 1000, checked


def test_the_witness_is_named_when_equality_holds_without_4_abelian(monkeypatch):
    # a center of all of G forces alpha(G) = alpha(Z); dihedral:16 is not
    # 4-abelian, so the report must scan for and print the first pair
    g = build_group("dihedral:16")
    monkeypatch.setattr(verify, "center", lambda g: Subgroup(g, np.ones(g.n, dtype=bool)))
    report = full_report(g)
    witness = four_abelian_witness(g)
    assert report.equality and not report.four_abelian and witness is not None
    assert (f"4-abelian: equality holds yet (x y)^4 != x^4 y^4 for (x, y) = {witness}"
            in report.findings)


def test_per_coset_sums_past_int64_match_the_oracle():
    # phi of these two primes has lcm L of about 2^61.6, so L * n is past
    # 2^62 and the center sum of cyclic:8, about 3.5 L, past 2^63
    g = build_group("cyclic:8")
    ords = g.ord.copy()
    ords[1], ords[3] = 1869493123, 1869493259
    fake = with_orders(g, ords)
    assert per_coset_analysis(fake, center(fake)) == per_coset_findings(fake)
