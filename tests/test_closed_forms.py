"""Every default-sweep report against closed forms that never call the
library, so a fill that built the wrong group cannot pass as golden."""

from __future__ import annotations

from closed_forms import forms
from cyclicdensity import SweepConfig, run_sweep

FIELDS = ("cyclic_count", "center_order", "alpha_g", "alpha_z", "equality",
          "quotient_exponent")


def test_default_sweep_matches_the_closed_forms():
    result = run_sweep(SweepConfig())
    assert len(result.reports) == 975
    mismatches = [
        (r.label, field, getattr(r, field), want[field])
        for r in result.reports
        for want in [forms(r.label)]
        for field in FIELDS
        if getattr(r, field) != want[field]
    ]
    assert mismatches == []
    equal = [r.label for r in result.reports if forms(r.label)["equality"]]
    assert len(equal) == 775
    assert list(result.equality_labels) == equal
