"""Divisor-descent orders, the inverses x^(n-1) that x^n = e gives in a
group, the unit-orbit census and the order proof, against the lockstep
walks and the n^2 inverse pass of power_oracle; and the NoInverse contract
of the builder, whose row scan names the first non-unit of a monoid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import power_oracle
from cyclicdensity import (
    NoInverse,
    NotClosed,
    SweepConfig,
    build_group,
    center,
    cyclic_subgroups,
    direct_product,
    validate_table_with_report,
)
from cyclicdensity.sweep import corpus_specs
from cyclicdensity.arith import unit_generators
from cyclicdensity.groups import _build, _element_orders, _powers
from table_oracle import prove_orders, relabeled_copy


def assert_walks_agree(g):
    t, ident = g.table, np.arange(g.n) == 0
    ords, inv = _element_orders(t, ident), _powers(t, np.arange(g.n), g.n - 1)
    assert np.array_equal(ords, power_oracle.element_orders(t, ident)), g.label
    assert np.array_equal(ords, g.ord), g.label
    assert np.array_equal(inv, power_oracle.inverses(t)), g.label
    zmask = center(g).bitmap
    assert np.array_equal(_element_orders(t, zmask),
                          power_oracle.element_orders(t, zmask)), g.label
    roots = power_oracle.least_generators(t, ords) == np.arange(g.n)
    census = cyclic_subgroups(g)
    assert np.array_equal(census.roots, roots), g.label
    orders, counts = np.unique(ords[roots], return_counts=True)
    assert census.by_order == dict(zip(orders.tolist(), counts.tolist())), g.label


@pytest.mark.parametrize("spec", corpus_specs(SweepConfig(max_order=64)))
def test_walk_matches_oracle_on_corpus(spec):
    assert_walks_agree(build_group(spec))


def test_int32_powering_is_exact_at_the_cap():
    # cyclic:4096, the default cap, where the uint16 ids form the index
    # x * n + y in int32 (in uint16 it would wrap past 2^16); x^e is e * x
    # mod n.  (The intp branch, n > 46,340, would need a 4.3 GB table.)
    table, ids = build_group("cyclic:4096").table, np.arange(4096, dtype=np.int32)
    for e in (0, 1, 2, 4095) + tuple(u for u, _ in unit_generators(4096)):
        assert np.array_equal(_powers(table, ids, e), e * ids.astype(np.int64) % 4096), e


small_specs = st.sampled_from([
    "cyclic:2", "cyclic:4", "cyclic:6", "cyclic:9", "abelian:2,2", "dihedral:6",
    "dihedral:8", "quaternion:8", "quaternion:12", "symmetric:3", "heisenberg:3",
])


@settings(max_examples=25, deadline=None)
@given(small_specs, small_specs)
def test_walk_matches_oracle_on_products(left, right):
    assert_walks_agree(direct_product(build_group(left), build_group(right)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["dihedral:16", "quaternion:16", "almost-extraspecial:16",
                        "symmetric:4", "extraspecial:32:-", "cyclic:24", "cyclic:64"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_walk_matches_oracle_on_relabelings(spec, seed):
    g = build_group(spec)
    assert_walks_agree(relabeled_copy(g, np.random.default_rng(seed).permutation(g.n)))


@pytest.mark.parametrize("spec, seed", [("abelian:2,3,5,7,11", None), ("cyclic:4096", 9),
                                        ("dihedral:240", 5), ("quaternion:240", 6)])
def test_walk_matches_oracle_on_large_groups(spec, seed):
    # (Z/2310)^* and (Z/240)^* take four unit generators each, (Z/4096)^* a 5
    # of order 1024; dihedral:240 and quaternion:240 are non-abelian, and a
    # relabeling scatters the least generators over the ids
    g = build_group(spec)
    if seed is not None:
        g = relabeled_copy(g, np.random.default_rng(seed).permutation(g.n))
    assert_walks_agree(g)


def outcome(prove, table, ords):
    """The text an order proof raises, or None if it accepts the orders."""
    try:
        prove(table, ords)
    except NotClosed as exc:
        return str(exc)
    return None


def assert_same_outcome(table, ords):
    fast = outcome(prove_orders, table, ords)
    assert fast == outcome(power_oracle.least_generators, table, ords)
    return fast


@pytest.mark.parametrize("spec, changes", [
    ("dihedral:8", {4: 4}),
    ("dihedral:8", {4: 1}),
    ("dihedral:8", {4: 0}),
    ("dihedral:8", {4: -3}),
    ("dihedral:8", {5: 9}),  # order > n
    ("dihedral:8", {5: 1009, 6: 0}),
    ("cyclic:4", {1: 1, 2: 4}),
    ("cyclic:64", {0: 0}),
    ("cyclic:64", {63: 128, 1: 32}),
    ("cyclic:64", {2: 0, 3: 65}),
    ("quaternion:16", {1: 2147483647}),
])
def test_tampered_orders_raise_the_oracle_text(spec, changes):
    g = build_group(spec)
    ords = g.ord.copy()
    for x, o in changes.items():
        ords[x] = o
    assert isinstance(assert_same_outcome(g.table, ords), str)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["cyclic:12", "cyclic:64", "dihedral:16", "quaternion:16",
                        "abelian:2,4", "symmetric:4"]), st.data())
def test_randomly_tampered_orders_match_oracle(spec, data):
    g = build_group(spec)
    ords = g.ord.copy()
    for _ in range(data.draw(st.integers(1, 3), label="changes")):
        x = data.draw(st.integers(0, g.n - 1), label="x")
        ords[x] = data.draw(st.integers(-2, 2 * g.n + 2), label="order")
    assert_same_outcome(g.table, ords)


@pytest.mark.parametrize("ords", [[1, 2, 3], [1, 2, 0], [1, 2, 5], [1, 2, -1]])
def test_powers_that_never_reach_the_identity_raise_the_oracle_text(ords):
    # 2 * 2 = 2: no power of 2 is the identity
    table = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 2]], dtype=np.int32)
    assert "element 2" in assert_same_outcome(table, np.array(ords, dtype=np.int32))


@pytest.mark.parametrize("table", [
    [[0, 1, 2], [1, 0, 2], [2, 1, 0]],  # 1 * 1 = 2 * 2 = 0: orders 2 in a table of 3
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
])
def test_census_rejects_orders_that_do_not_divide_n(table):
    # not a group, nor associative: every row holds the identity and the
    # powers reach it, at an order n is no multiple of, so x^n misses it;
    # no census sees such a table, as the builder names the least such x
    # as an internal fault, not a GroupError
    n = len(table)
    table = np.array(table, dtype=np.uint16)
    ords = power_oracle.element_orders(table, np.arange(n) == 0)
    x = int(np.flatnonzero(n % ords)[0])
    with pytest.raises(ValueError,
                       match=f"is no group with identity 0: .* x\\^{n} .* for x = {x}$"):
        _build(table, "not-a-group")


def n2_verdict(table: np.ndarray):
    """The element the n^2 inverse pass names, or None if all have one."""
    try:
        power_oracle.inverses(table)
    except NoInverse as exc:
        return exc.element
    return None


def assert_no_inverse_as_oracle(table):
    table = np.ascontiguousarray(table, dtype=np.int32)
    want = n2_verdict(table)
    if want is None:
        g, _ = validate_table_with_report(table)
        assert np.array_equal(_powers(g.table, np.arange(g.n), g.n - 1),
                              power_oracle.inverses(g.table))
        return None
    with pytest.raises(NoInverse) as err:
        validate_table_with_report(table)
    assert err.value.element == want
    return want


def test_idempotent_monoid_names_the_oracle_element():
    assert assert_no_inverse_as_oracle([[0, 1], [1, 1]]) == 1


def test_max_monoid_names_the_oracle_element():
    ids = np.arange(5, dtype=np.int32)
    assert assert_no_inverse_as_oracle(np.maximum.outer(ids, ids)) == 1


@st.composite
def transformation_monoids(draw) -> np.ndarray:
    """Cayley table of the monoid that a few self-maps of {0..m-1} generate
    under composition, identity map at id 0, other ids shuffled."""
    m = draw(st.integers(2, 3))
    maps = st.tuples(*[st.integers(0, m - 1)] * m)
    gens = draw(st.lists(maps, min_size=1, max_size=3))
    elems, index = [tuple(range(m))], {tuple(range(m)): 0}
    for f in elems:  # grows while it is walked: breadth-first closure
        for s in gens:
            h = tuple(s[f[i]] for i in range(m))
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    n = len(elems)
    table = np.array([[index[tuple(b[a[i]] for i in range(m))] for b in elems]
                      for a in elems], dtype=np.int32)
    sigma = np.array([0, *draw(st.permutations(range(1, n)))], dtype=np.int32)
    inv = np.empty(n, dtype=np.int32)
    inv[sigma] = np.arange(n, dtype=np.int32)
    return sigma[table][np.ix_(inv, inv)]


@settings(max_examples=200, deadline=None)
@given(transformation_monoids())
def test_monoids_name_the_oracle_element(table):
    assert_no_inverse_as_oracle(table)


def test_one_sided_inverse_is_rejected():
    # 2 * 1 = 0, but 1 has no right inverse: 2^3 = 2 misses the identity,
    # and the row scan names 1, whose row [1, 2, 1] is the first to lack it
    table = np.array([[0, 1, 2], [1, 2, 1], [2, 0, 0]], dtype=np.uint16)
    assert not _element_orders(table, np.arange(3) == 0).all()
    with pytest.raises(NoInverse, match="^element 1 has no two-sided inverse$") as err:
        _build(table, "one-sided")
    assert err.value.element == 1
