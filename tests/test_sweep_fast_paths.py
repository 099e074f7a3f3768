"""The fast paths a sweep group takes, against the routes they replace.

A group whose table orders hold an element of order n takes that element
as its whole generating set S; the center and the 4-abelian check must
read the same off it as off the greedy set of _generate.  Orders that a
caller rebinds must not reach that path: only _build sets the table
orders it reads.
A Subgroup over all of its parent skips the closure gather but not the
inverse check.  full_report scans for a 4-abelian witness only under
equality, and per_coset_analysis sums in int64 only while no sum can
overflow it.
"""

from __future__ import annotations

import numpy as np

from census_oracle import per_coset_findings
from cyclicdensity import (
    Subgroup,
    SweepConfig,
    build_group,
    center,
    full_report,
    is_4_abelian_witness,
    verify,
)
from cyclicdensity.sweep import corpus_specs
from cyclicdensity.verify import per_coset_analysis
from cyclicdensity.groups import FiniteGroup, _generate, _generators
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
        assert is_4_abelian_witness(g) == is_4_abelian_witness(slow), spec
        checked += 1
    assert checked >= 256  # every cyclic:n spec, and the coprime abelian ones


def test_rebound_orders_do_not_choose_the_generator():
    g = build_group("dihedral:8")
    ords = g.ord.copy()
    ords[1] = 8  # the rotation r, of order 4, claims order 8
    g.ord = ords
    assert center(g).members.tolist() == [0, 2]


class RecordedReads(np.ndarray):
    """An array that records the keys it is indexed with."""

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def test_a_subgroup_over_the_whole_parent_still_checks_inverses():
    for spec in ("cyclic:6", "symmetric:4", "cyclic:256"):  # under and over 128 ids
        g = build_group(spec)
        inv = g.inv.view(RecordedReads)
        inv.reads = []
        fake = FiniteGroup(g.table, inv, g.ord, "recorded")
        whole = Subgroup(fake, np.ones(g.n, dtype=bool))
        assert len(whole) == g.n
        assert any(np.array_equal(k, np.arange(g.n)) for k in inv.reads), spec


def test_the_witness_is_named_when_equality_holds_without_4_abelian(monkeypatch):
    # a center of all of G forces alpha(G) = alpha(Z); dihedral:16 is not
    # 4-abelian, so the report must scan for and print the first pair
    g = build_group("dihedral:16")
    monkeypatch.setattr(verify, "center", lambda g: Subgroup(g, np.ones(g.n, dtype=bool)))
    report = full_report(g)
    ok, witness = four_abelian_witness(g)
    assert report.equality and not report.four_abelian and not ok
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
