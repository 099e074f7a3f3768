"""The exact associativity check (Light's test on a greedy generating set)
against the O(n^3) scan over every triple, and validation's blocked n^2
steps (Light's test, the identity search, the relabel) against their
whole-table forms, on tables large enough to span several blocks."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from assoc_oracle import (
    check_associativity_full,
    find_identity_two_masks,
    light_unblocked,
    swap_to_zero_gather,
)
from cyclicdensity import (
    NoIdentityAtZero,
    NoInverse,
    NotAssociative,
    SweepConfig,
    build_group,
    validate_table_with_report,
)
from cyclicdensity.sweep import corpus_specs
from cyclicdensity.groups import _ROW_BLOCK, _check_associativity, _find_identity, _swap_to_zero

SPECS = corpus_specs(SweepConfig(max_order=64))


@lru_cache(maxsize=None)
def corpus_table(spec: str) -> np.ndarray:
    return build_group(spec).table


def relabel_fixing_identity(table: np.ndarray, seed: int) -> np.ndarray:
    """The table under a seeded permutation of the ids 1..n-1."""
    n = table.shape[0]
    sigma = np.concatenate(([0], 1 + np.random.default_rng(seed).permutation(n - 1)))
    sigma = sigma.astype(np.int32)
    inv = np.empty(n, dtype=np.int32)
    inv[sigma] = np.arange(n, dtype=np.int32)
    return np.ascontiguousarray(sigma[table][np.ix_(inv, inv)])


def verdict(check, table: np.ndarray):
    """None if check accepts the table, else the triple it raised, which
    must be a real witness."""
    try:
        check(table)
    except NotAssociative as exc:
        a, b, c = exc.triple
        assert table[table[a, b], c] != table[a, table[b, c]], exc.triple
        return exc.triple
    return None


def assert_agree(table):
    table = np.ascontiguousarray(table, dtype=np.int32)
    fast = verdict(_check_associativity, table)
    slow = verdict(check_associativity_full, table)
    assert (fast is None) == (slow is None), (fast, slow)
    return fast


@pytest.mark.parametrize("seed, spec", enumerate(SPECS), ids=SPECS)
def test_agrees_on_relabeled_corpus(seed, spec):
    assert assert_agree(relabel_fixing_identity(corpus_table(spec), seed)) is None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPECS), st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_agrees_on_single_entry_perturbations(spec, seed, data):
    table = relabel_fixing_identity(corpus_table(spec), seed)
    n = table.shape[0]
    assume(n > 1)
    a = data.draw(st.integers(1, n - 1), label="a")
    b = data.draw(st.integers(1, n - 1), label="b")
    v = data.draw(st.integers(0, n - 2), label="v")
    table[a, b] = v if v < table[a, b] else v + 1
    assert_agree(table)


@st.composite
def magmas_with_identity(draw) -> np.ndarray:
    n = draw(st.integers(1, 6))
    table = np.empty((n, n), dtype=np.int32)
    table[0] = table[:, 0] = np.arange(n)
    cells = draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2,
                          max_size=(n - 1) ** 2))
    table[1:, 1:] = np.asarray(cells, dtype=np.int32).reshape(n - 1, n - 1)
    return table


@settings(max_examples=300, deadline=None)
@given(magmas_with_identity())
def test_agrees_on_small_magmas(table):
    assert_agree(table)


def test_max_is_associative_but_not_a_group():
    # x*y = max(x, y): a monoid whose every id needs its own generator
    ids = np.arange(5, dtype=np.int32)
    table = np.maximum.outer(ids, ids)
    assert assert_agree(table) is None
    with pytest.raises(NoInverse):
        validate_table_with_report(table)


# n > 256, so Light's test, the identity search and the relabel each take
# more than one block of _ROW_BLOCK entries
LARGE = ["heisenberg:7", "symmetric:6", "dihedral:512"]


def raised(check, table: np.ndarray):
    """The text and triple check raises on table, or None if it accepts."""
    try:
        check(table)
    except NotAssociative as exc:
        return str(exc), exc.triple
    return None


def perturbed(spec: str, seed: int, a: int, b: int, v: int) -> np.ndarray:
    """The relabeled table with entry (a, b) changed to the v-th other id."""
    table = relabel_fixing_identity(corpus_table(spec), seed)
    table[a, b] = v if v < table[a, b] else v + 1
    return table


@pytest.mark.parametrize("spec", LARGE)
def test_blocked_light_accepts_relabeled_large_tables_as_unblocked(spec):
    table = relabel_fixing_identity(corpus_table(spec), 11)
    assert table.shape[0] * table.shape[0] > _ROW_BLOCK
    assert np.array_equal(_check_associativity(table), light_unblocked(table))


@pytest.mark.parametrize("spec", LARGE)
@pytest.mark.parametrize("where", ["first row", "middle", "last row"])
def test_blocked_light_names_the_unblocked_witness(spec, where):
    n = build_group(spec).n
    a = {"first row": 1, "middle": n // 2, "last row": n - 1}[where]
    table = perturbed(spec, 5, a, n - a, 0)
    got = raised(_check_associativity, table)
    assert got is not None and got == raised(light_unblocked, table)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LARGE), st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_blocked_light_matches_unblocked_on_large_perturbations(spec, seed, data):
    n = build_group(spec).n
    a = data.draw(st.integers(1, n - 1), label="a")
    b = data.draw(st.integers(1, n - 1), label="b")
    table = perturbed(spec, seed, a, b, data.draw(st.integers(0, n - 2), label="v"))
    assert raised(_check_associativity, table) == raised(light_unblocked, table)


def identity_or_error(find, table: np.ndarray):
    try:
        return find(table)
    except NoIdentityAtZero as exc:
        return str(exc)


@st.composite
def magmas(draw) -> np.ndarray:
    """A random table with some left-identity rows and right-identity
    columns, and maybe a two-sided identity; a table has at most one."""
    n = draw(st.sampled_from([1, 2, 3, 7, 64, 257, 600]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, n, size=(n, n), dtype=np.int32)
    ar = np.arange(n, dtype=np.int32)
    ids = st.lists(st.integers(0, n - 1), max_size=3)
    for c in draw(ids):
        table[:, c] = ar
    for r in draw(ids):  # after the columns, so these rows stay whole
        table[r] = ar
    if draw(st.booleans()):
        e = draw(st.integers(0, n - 1))
        table[e] = table[:, e] = ar
    return table


@settings(max_examples=150, deadline=None)
@given(magmas())
def test_identity_search_matches_two_masks(table):
    assert identity_or_error(_find_identity, table) == \
        identity_or_error(find_identity_two_masks, table)


def test_identity_search_rejects_left_identities_that_are_not_right_ones():
    # x*y = y: every row is 0..n-1, every column constant
    n = 300
    table = np.tile(np.arange(n, dtype=np.int32), (n, 1))
    with pytest.raises(NoIdentityAtZero):
        _find_identity(table)
    with pytest.raises(NoIdentityAtZero):
        find_identity_two_masks(table)


@pytest.mark.parametrize("source", ["dihedral:12", "heisenberg:7", "magma:300"])
def test_in_place_relabel_matches_gather_for_every_position(source):
    if source.startswith("magma"):
        n = int(source.split(":")[1])
        table = np.random.default_rng(3).integers(0, n, size=(n, n), dtype=np.int32)
    else:
        table = relabel_fixing_identity(corpus_table(source), 3)
    for e in range(table.shape[0]):
        expected, sigma = swap_to_zero_gather(table, e)
        got = table.copy()
        assert np.array_equal(_swap_to_zero(got, e), sigma)
        assert np.array_equal(got, expected), e
