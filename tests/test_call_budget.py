"""A budget of NumPy calls per full_report, and per build_group, on a fixed
panel of small groups.

A sweep of small groups is bound by the fixed cost of each NumPy call, not
by the work inside it, so the number of calls per report is its cost
model.  The count is exact and repeatable: every call to a NumPy function
or array method made directly from the library's own code, as
sys.setprofile reports it, with array_function dispatchers left out.
Ufuncs and operators (np.minimum, a + b, a[i]) raise no profile event and
are not counted.  Each group has its own budget, so a regression names the
group instead of being averaged away.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import numpy as np
import pytest

import cyclicdensity
from cyclicdensity import build_group, full_report

PKG = os.path.dirname(cyclicdensity.__file__) + os.sep
NP = os.path.dirname(np.__file__) + os.sep

# Calls per report before the catalog and direct_product handed _build the
# element orders and generating set S they know by construction (numpy
# 2.4, CPython 3.11) -> the budget, which is the count after it; a group
# whose S is greedy saves the test for an element of order n.  Earlier
# changes took cyclic:12 from 129 calls to 68: an element of order n as
# the generating set, no closure gather for a center that is the whole
# group, squares read off the table's diagonal, no re-check that the rows
# of _central_cosets partition the subgroup, the structural parts proven
# by count, the census over the units of exp(G), and 2-centrality,
# alpha(G) and the center's totient sum read off facts the report has.
BUDGET = {
    "cyclic:12": 65,  # 68 before
    "abelian:2,2,4": 62,  # 83 before
    "dihedral:24": 68,  # 87 before
    "quaternion:16": 80,  # 98 before
    "symmetric:4": 93,  # 94 before
    "heisenberg:3": 85,  # 86 before
    "extraspecial:32:-": 105,  # 106 before
    "almost-extraspecial:64": 111,  # 112 before
}

# Calls per build_group before the same change -> the budget, which is the
# count after it: a cyclic, abelian, dihedral or quaternion build runs no
# descent, and the other families build as they did.  Earlier changes took
# cyclic:12 from 46 calls to 23: the descent counts misses instead of
# filling p-parts, a square is one gather, a circulant view comes from the
# ndarray constructor, not as_strided, and _build stopped re-proving the
# identity at 0 and the inverses x^(n-1), which its callers own.  A sweep
# builds every group it reports, so a build must not cost a small group a
# call.  Reading a rotation's order as h / gcd(i, h), not off a cyclic
# group's facts with their generating set, took dihedral:24 and
# quaternion:16 from 17 calls to 16.
BUILD_BUDGET = {
    "cyclic:12": 9,  # 23 before
    "abelian:2,2,4": 18,  # 28 before
    "dihedral:24": 16,  # 17 before
    "quaternion:16": 16,  # 17 before
    "symmetric:4": 26,  # 26 before
    "heisenberg:3": 19,  # 19 before
    "extraspecial:32:-": 18,  # 18 before
    "almost-extraspecial:64": 19,  # 19 before
}


def numpy_calls(fn) -> Counter:
    """NumPy calls made directly by library code while fn runs, per calling function."""
    count: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename.startswith(PKG):
            module = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__module__
            if module.startswith("numpy"):
                count[frame.f_code.co_name] += 1
        elif (event == "call" and frame.f_code.co_filename.startswith(NP)
              and not frame.f_code.co_name.endswith("_dispatcher")
              and frame.f_back is not None
              and frame.f_back.f_code.co_filename.startswith(PKG)):
            count[frame.f_back.f_code.co_name] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return count


@pytest.mark.parametrize("spec", sorted(BUDGET))
def test_full_report_stays_within_its_numpy_call_budget(spec):
    g = build_group(spec)  # fresh: the report pays for the center and the census
    calls = numpy_calls(lambda: full_report(g))
    assert sum(calls.values()) <= BUDGET[spec], (spec, calls.most_common(8))


@pytest.mark.parametrize("spec", sorted(BUILD_BUDGET))
def test_build_stays_within_its_numpy_call_budget(spec):
    calls = numpy_calls(lambda: build_group(spec))
    assert sum(calls.values()) <= BUILD_BUDGET[spec], (spec, calls.most_common(8))


def test_the_count_sees_numpy_calls():
    # a counter that saw nothing would pass every budget
    g = build_group("cyclic:12")
    calls = numpy_calls(lambda: full_report(g))
    assert calls["_powers"] > 0 and calls["per_coset_analysis"] > 0
