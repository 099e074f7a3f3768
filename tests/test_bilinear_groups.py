"""The equality half of the paper on class-2 2-groups built from bilinear
forms (tests/bilinear_groups.py): seeded, relabeled tables of G(B) for
k = 2..7 (orders 8 to 256) go through validate_table_with_report and
full_report, and each report must match the closed forms.  The sweep to
order 2048 holds four non-abelian equality cases; this sample holds many.
A mismatch is a counterexample or a library fault: keep its B here."""

from __future__ import annotations

import numpy as np
import pytest

from bilinear_groups import bilinear_table, closed_forms, relabeled
from cyclicdensity import full_report, validate_table_with_report

SAMPLES = 40  # matrices B per k


@pytest.mark.parametrize("k", range(2, 8))
def test_reports_on_bilinear_groups_match_the_closed_forms(k):
    rng = np.random.default_rng([40, k])
    kinds = set()
    for i in range(SAMPLES):
        b = rng.integers(0, 2, size=(k, k))
        want = closed_forms(b)
        label = f"bilinear:{k}:{i}"
        g, _ = validate_table_with_report(relabeled(bilinear_table(b), rng), label)
        r = full_report(g)
        assert (r.order, r.cyclic_count, r.alpha_g, r.center_order, r.equality) == (
            2 << k, want["cyclic_count"], want["alpha_g"], want["center_order"],
            want["equality"]), (label, b.tolist())
        assert r.structural == r.equality and r.findings == (), (label, b.tolist())
        if r.equality:
            assert r.two_central and r.four_abelian and r.quotient_exponent <= 2, label
            assert all(c.k == 2 for c in r.proof_steps if not c.is_center), label
        kinds.add((want["abelian"], want["equality"]))
    # non-abelian groups on both sides of the criterion; at k = 2 a
    # non-abelian G(B) has R = 0, so it is D8 or Q8, and never equality
    assert (False, False) in kinds and ((False, True) in kinds) == (k > 2), kinds
