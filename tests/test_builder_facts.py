"""The element orders and the generating set S that a builder hands _build
by construction, against the routes they replace.

The cyclic, abelian, dihedral and quaternion fills of the catalog return
both with their tables, and direct_product supplies both.  Their orders
must be those of the divisor descent on the table and of power_oracle's
lockstep walk; the center and the first 4-abelian failure read off their S
must be those read off the greedy set of _generate.  S must be a read-only
intp array whose products reach every id, by a closure taken here.  Every
other family, and every imported table, keeps the descent and the greedy
(or Light's) set.
"""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np
import pytest

import power_oracle
from cyclicdensity import (
    SweepConfig,
    build_group,
    catalog,
    center,
    four_abelian_failure,
    parse_group_spec,
)
from cyclicdensity.groups import FiniteGroup, _element_orders, _generate, _generators
from cyclicdensity.sweep import corpus_specs

FAMILIES = ("cyclic", "abelian", "dihedral", "quaternion")  # the builders with S


def generated(table: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Bool mask of the ids that products of elements of s reach from the
    identity: in a finite group, the subgroup s generates."""
    reached = np.zeros(table.shape[0], dtype=bool)
    reached[0] = True
    layer = np.zeros(1, dtype=np.intp)
    while layer.size:
        products = table[layer[:, None], s].ravel()
        layer = np.unique(products[~reached[products]])
        reached[layer] = True
    return reached


def assert_builder_facts(spec: str) -> FiniteGroup:
    """Check the orders and S that the build of spec supplies; returns the group."""
    g = build_group(spec)
    s, ords = g._gens, g._table_ord
    assert s is not None and s.dtype == np.intp and s.ndim == 1, spec
    assert not s.flags.writeable and not ords.flags.writeable, spec
    assert generated(g.table, s).all(), spec
    identity = np.arange(g.n) == 0
    assert ords.dtype == np.int32 and g.ord is ords, spec
    assert np.array_equal(ords, _element_orders(g, identity)), spec
    assert np.array_equal(ords, power_oracle.element_orders(g.table, identity)), spec
    slow = build_group(spec)
    slow._gens = _generate(slow.table)
    assert center(g).members.tolist() == center(slow).members.tolist(), spec
    assert four_abelian_failure(g) == four_abelian_failure(slow), spec
    return g


def test_builder_facts_on_the_sweep():
    supplied = 0
    for spec in corpus_specs(SweepConfig()):
        if spec.split(":")[0] in FAMILIES:
            assert_builder_facts(spec)
            supplied += 1
        else:  # symmetric, (almost-)extraspecial, Heisenberg: descent, no S yet
            g = build_group(spec)
            assert g._gens is None, spec
            assert np.array_equal(g._table_ord, _element_orders(g, np.arange(g.n) == 0))
    assert supplied == 961


@pytest.mark.parametrize("spec", ["cyclic:12", "abelian:2,2,4", "dihedral:24", "quaternion:16"])
def test_a_wrapped_fill_keeps_its_facts(monkeypatch, spec):
    # a fill returns its group's orders and S with its table, so a build
    # through a wrapper around it keeps them: no descent, no greedy S
    family = spec.split(":")[0]
    want = build_group(spec)
    *head, fill = catalog._FAMILIES[family]
    monkeypatch.setitem(catalog._FAMILIES, family, (*head, lambda *p: fill(*p)))
    g = build_group(spec)
    assert g._gens is not None and g._gens.tolist() == want._gens.tolist(), spec
    assert np.array_equal(g._table_ord, want._table_ord), spec


@pytest.mark.parametrize("spec", ["symmetric:4", "extraspecial:32:-", "extraspecial:8:+",
                                  "almost-extraspecial:64", "heisenberg:3"])
def test_the_other_fills_return_no_facts(spec):
    parsed = parse_group_spec(spec)
    table, ords, s = catalog._FAMILIES[parsed.family][3](*parsed.params)
    assert ords is None and s is None, spec
    assert np.array_equal(table, build_group(spec).table), spec


@pytest.mark.parametrize("spec", ["cyclic:4096", "dihedral:4096", "abelian:" + ",".join(["2"] * 12)])
def test_builder_facts_on_the_large_panel(spec):
    assert_builder_facts(spec)


def test_builder_facts_on_a_sample_past_the_sweep():
    # up to 8 seeded specs of each family at orders 257 to 4096
    small = set(corpus_specs(SweepConfig()))
    families = defaultdict(list)
    for spec in corpus_specs(SweepConfig(max_order=4096)):
        if spec not in small and spec.split(":")[0] in FAMILIES:
            families[spec.split(":")[0]].append(spec)
    rng = random.Random(39)
    assert sorted(families) == sorted(FAMILIES)
    for specs in families.values():
        for spec in rng.sample(specs, min(8, len(specs))):
            assert 256 < assert_builder_facts(spec).n <= 4096, spec


def test_builder_facts_of_products(tmp_path):
    # a factor imported from a table, whose S is the set Light's test found
    q8 = build_group("quaternion:8")
    perm = np.array([3, 0, 5, 1, 7, 2, 4, 6])  # the identity moves to id 3
    rows = np.empty_like(q8.table)
    rows[np.ix_(perm, perm)] = perm[q8.table]
    path = tmp_path / "q8.txt"
    path.write_text("8\n" + "\n".join(" ".join(map(str, r)) for r in rows.tolist()) + "\n")
    table = f"table:{path}"
    specs = [
        f"product:({table})x(dihedral:6)",
        f"product:(cyclic:3)x({table})",
        "product:(product:(cyclic:2)x(dihedral:6))x(quaternion:8)",
        "product:(abelian:2,2)x(product:(symmetric:3)x(cyclic:4))",
        "product:(cyclic:1)x(abelian:1,1)",
        "product:(abelian:1,1)x(dihedral:8)",
        "product:(heisenberg:3)x(cyclic:1)",
        "cyclic:1",
        "abelian:1,1",
        "abelian:3,1,4",
    ]
    for spec in specs:
        g = assert_builder_facts(spec)
        if spec.startswith("product:"):
            left, right = (build_group(p) for p in parse_group_spec(spec).params)
            want = [*(_generators(left) * right.n).tolist(), *_generators(right).tolist()]
            assert g._gens.tolist() == want, spec
    imported = build_group(table)
    assert imported._gens.tolist() == _generate(imported.table).tolist()
