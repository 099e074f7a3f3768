"""The fast paths a sweep group takes, against the routes they replace.

A cyclic, abelian, dihedral or quaternion group takes the generating set
S its builder proves by construction (the one generator 1 of order n for
cyclic:n); the center and the 4-abelian check must read the same off it
as off the greedy set of _generate.  Orders that a caller rebinds must
not choose S: only _build sets the table orders.
Subgroup proves closure alone, as closure forces inverses in a finite
group and a subgroup's order divides |G|: every set it accepts, across the
corpus, holds the oracle's inverses of its members and has such an order.
_central_cosets checks no partition, as the cosets of a subgroup W of a
subgroup U partition U.  structural_condition proves the odd part O and
the 2-part T by count, with no closure scan, for the orders the builder
derived; orders a caller rebinds are scanned.  full_report scans for the
4-abelian witness only when equality holds and prints it, and
per_coset_analysis sums in int64 only while no sum can overflow it.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import numpy as np
import pytest

import power_oracle
from census_oracle import per_coset_findings, structural
from cyclicdensity import (
    NotASubgroup,
    Subgroup,
    SweepConfig,
    build_group,
    center,
    full_report,
    verify,
)
from cyclicdensity.sweep import corpus_specs
from cyclicdensity.groups import (
    _ROW_BLOCK,
    FiniteGroup,
    _central_cosets,
    _generate,
    _generators,
)
from cyclicdensity.verify import _four_abelian, per_coset_analysis, structural_condition
from table_oracle import center_members, four_abelian_witness, with_orders


def with_greedy_generators(spec: str) -> FiniteGroup:
    """A fresh build of spec whose generating set is _generate's."""
    g = build_group(spec)
    g._gens = _generate(g.table)
    return g


def test_order_n_generator_matches_the_greedy_set_on_the_sweep():
    # the builder's S against the greedy set: cyclic:n's is the generator 1,
    # of order n, and each reads the same centralizer and 4-abelian verdict
    checked = 0
    for spec in corpus_specs(SweepConfig()):
        g = build_group(spec)
        if g._gens is None:  # a family whose builder proves no S
            continue
        s, slow = _generators(g), with_greedy_generators(spec)
        if spec.startswith("cyclic:"):  # cyclic:1 needs no generator
            assert s.tolist() == [1][:g.n - 1] and (g.ord[s] == g.n).all(), spec
        assert center(g).members.tolist() == center(slow).members.tolist(), spec
        assert _four_abelian(g) == _four_abelian(slow), spec
        checked += 1
    assert checked == 961  # every cyclic, abelian, dihedral and quaternion spec


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
            cosets = _central_cosets(g, z, None if u is None else u.bitmap)
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


def subgroups_made(monkeypatch) -> list:
    """Record the member ids of every Subgroup constructed from now on,
    whether or not it proves closed; src/ hands Subgroup bool masks."""
    made, real = [], Subgroup.__init__

    def recording(self, parent, members):
        made.append(np.flatnonzero(members).tolist())
        real(self, parent, members)

    monkeypatch.setattr(Subgroup, "__init__", recording)
    return made


def test_a_sweep_report_makes_no_subgroup_but_its_center(monkeypatch):
    # with the builder's orders, O and T are proven by count: the center is
    # the one member set a report proves closed
    made = subgroups_made(monkeypatch)
    for spec in corpus_specs(SweepConfig()):
        g = build_group(spec)
        made.clear()
        full_report(g)
        assert made == [center_members(g)], spec


def test_structural_by_count_matches_the_oracle_past_the_sweep():
    # a seeded sample of each family of the corpus of orders 257 to 2048
    small = set(corpus_specs(SweepConfig()))
    families = defaultdict(list)
    for spec in corpus_specs(SweepConfig(max_order=2048)):
        if spec not in small:
            families[spec.split(":")[0]].append(spec)
    rng, reached = random.Random(36), Counter()
    for specs in families.values():
        for spec in rng.sample(specs, min(8, len(specs))):
            g = build_group(spec)
            why = structural_condition(g, center(g))
            assert why == structural(g), spec
            reached[why if why is None else why.split()[0]] += 1
    # clause (a) fails, the criterion holds, and clause (c) fails
    assert set(reached) == {"element", None, "coset"}, reached


@pytest.mark.parametrize("spec, changes", [
    ("cyclic:12", {}),
    ("product:(dihedral:8)x(cyclic:3)", {}),
    ("almost-extraspecial:16", {}),
    ("cyclic:12", {1: 4}),
    ("cyclic:12", {1: 3}),
    ("cyclic:12", {2: 5}),
])
def test_rebound_orders_scan_both_parts(monkeypatch, spec, changes):
    # orders a caller rebinds prove nothing, so O and then T are scanned,
    # even when they equal the builder's; the verdict and witness are the
    # oracle's, and for equal orders the count route's too
    g = build_group(spec)
    ords = g.ord.copy()
    for x, o in changes.items():
        ords[x] = o
    fake = with_orders(g, ords)
    z = center(fake)
    made = subgroups_made(monkeypatch)
    why = structural_condition(fake, z)
    made = made[:]  # the oracle makes Subgroups of its own
    assert why == structural(fake), (spec, changes)
    odd, two = np.flatnonzero(ords % 2 == 1), np.flatnonzero((ords & (ords - 1)) == 0)
    assert made == [odd.tolist(), two.tolist()][:len(made)], (spec, changes)
    if changes:
        assert len(made) == 1 + (not why.startswith("odd")), (spec, why)
    else:
        assert len(made) == 2 and why == structural_condition(g, center(g)), spec


@pytest.mark.parametrize("spec", ["dihedral:24", "quaternion:16"])
def test_the_4_abelian_pair_is_not_scanned_unless_printed(monkeypatch, spec):
    # neither group is 4-abelian or an equality case, so no finding prints
    # the first failing pair and the report must not look for it
    def refuse(g):
        raise AssertionError("the 4-abelian pair scan ran")

    monkeypatch.setattr(verify, "four_abelian_failure", refuse)
    report = full_report(build_group(spec))
    assert not report.four_abelian and not report.equality and report.clean
