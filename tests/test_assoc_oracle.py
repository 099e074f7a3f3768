"""The exact associativity check (Light's test on a greedy generating set)
against the O(n^3) scan over every triple."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from assoc_oracle import check_associativity_full
from cyclicdensity import (
    NoInverse,
    NotAssociative,
    SweepConfig,
    build_group,
    corpus_specs,
    validate_table_with_report,
)
from cyclicdensity.groups import _check_associativity

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
