"""The failure paths of subgroup closure and of the generating-set checks
(centrality and the structural criterion on tampered orders) against the
n^2 table oracles, witness strings included."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from census_oracle import structural
from cyclicdensity import (
    NotASubgroup,
    Subgroup,
    SweepConfig,
    build_group,
    center,
    validate_table_with_report,
)
from cyclicdensity.sweep import corpus_specs
from cyclicdensity.verify import structural_condition
from cyclicdensity.groups import FiniteGroup, _generate
from table_oracle import (
    NotCentral,
    centrality_failure,
    closure_failure,
    require_central,
    with_orders,
)

SPECS = corpus_specs(SweepConfig(max_order=64))


@lru_cache(maxsize=None)
def group(spec: str):
    return build_group(spec)


def closure_verdict(g, members):
    """None if Subgroup accepts the set, else the text it raised."""
    try:
        Subgroup(g, members)
    except NotASubgroup as exc:
        return str(exc)
    return None


def powers(g, x: int) -> set[int]:
    out, cur = {0}, x
    while cur != 0:
        out.add(cur)
        cur = int(g.table[cur, x])
    return out


@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:8", "quaternion:8", "dihedral:12",
                                  "symmetric:4", "heisenberg:3", "extraspecial:32:+"])
def test_closure_matches_oracle_on_cyclic_products(spec):
    g = group(spec)
    cyclic = [powers(g, x) for x in range(g.n)]
    for x in range(g.n):
        assert closure_verdict(g, cyclic[x]) is None
        for y in range(g.n):
            # <x><y> is a subgroup exactly when it is closed
            product = {int(p) for p in g.table[np.ix_(sorted(cyclic[x]), sorted(cyclic[y]))].flat}
            for members in (product, cyclic[x] | {y}):
                assert closure_verdict(g, members) == closure_failure(g, sorted(members)), (
                    spec, x, y, sorted(members))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPECS), st.integers(min_value=0, max_value=2**32 - 1))
def test_closure_matches_oracle_on_random_sets(spec, seed):
    g = group(spec)
    rng = np.random.default_rng(seed)
    members = {0, *np.flatnonzero(rng.random(g.n) < rng.random()).tolist()}
    assert closure_verdict(g, members) == closure_failure(g, sorted(members)), (
        spec, sorted(members))


@pytest.mark.parametrize("spec", ["dihedral:512", "quaternion:512", "abelian:2,4,64"])
def test_closure_matches_oracle_on_large_sets(spec):
    # over 128 ids, Subgroup's closure scan takes several blocks of its |H|^2
    # products; a bool mask of the same ids gets the same verdict
    g = group(spec)
    rng = np.random.default_rng(0)
    verdicts = []
    for x, y in rng.integers(g.n, size=(40, 2)).tolist():
        product = {int(p) for p in g.table[np.ix_(sorted(powers(g, x)), sorted(powers(g, y)))].flat}
        for members in (product, product | {int(rng.integers(g.n))}, (product - {max(product)}) | {0}):
            if len(members) > 128:
                mask = np.zeros(g.n, dtype=bool)
                mask[sorted(members)] = True
                expected = closure_failure(g, sorted(members))
                assert closure_verdict(g, members) == closure_verdict(g, mask) == expected
                verdicts.append(expected is None)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("spec", [s for s in SPECS if len(center(group(s))) < group(s).n])
def test_centrality_matches_oracle_on_cyclic_subgroups(spec):
    g = group(spec)
    for x in range(g.n):
        sub = Subgroup(g, powers(g, x))
        expected = centrality_failure(g, sub.members)
        if expected is None:
            require_central(g, sub)
        else:
            with pytest.raises(NotCentral) as exc:
                require_central(g, sub)
            assert str(exc.value) == expected, (spec, x)


def with_order(g, x: int, o: int) -> FiniteGroup:
    ords = g.ord.copy()
    ords[x] = o
    return with_orders(g, ords)


# A group with a central odd part has a unique Sylow 2-subgroup, so no
# catalog group fails a closure; these tampered orders do.
@pytest.mark.parametrize("x, o, witness", [
    (1, 4, "2-power-order elements do not form a subgroup: "
           "set is not closed: 1*1 = 2 is outside it"),
    (1, 3, "odd-order elements do not form a subgroup: "
           "set is not closed: 1*1 = 2 is outside it"),
    # the first failing pair is not the least element times itself
    (2, 5, "odd-order elements do not form a subgroup: "
           "set is not closed: 2*4 = 6 is outside it"),
])
def test_structural_closure_witness_on_tampered_orders(x, o, witness):
    fake = with_order(build_group("cyclic:12"), x, o)
    assert structural_condition(fake, center(fake)) == structural(fake) == witness


def test_imported_table_keeps_the_generators_light_checked():
    g = build_group("dihedral:16")
    imported, _ = validate_table_with_report(g.table.tolist(), "d16")
    # set by the associativity check itself, before anything asks for it
    assert imported._gens is not None
    # the rotation 1 reaches ids 0..7, then the reflection 8 is least unreached
    assert imported._gens.tolist() == _generate(g.table).tolist() == [1, 8]
