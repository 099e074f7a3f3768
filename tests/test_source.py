"""Source-level rules for the library under src/."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    # python -O strips asserts, so an invariant must be guarded by a raise
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/: {found}"


def test_no_random_sampling_in_src():
    # every verdict is exact: a sampled check would bring randomness back
    pattern = re.compile(r"^\s*(import random\b|from random import)|\b(np|numpy)\.random\b|default_rng")
    found = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not found, f"random sampling in src/: {found}"


def test_verify_path_rebuilds_no_group():
    # quantities of Z(G) and G/Z are read off G's own arrays
    pattern = re.compile(r"\b(quotient_by_central|as_group|_build)\b")
    found = [
        f"{name}:{lineno}"
        for name in ("verify.py", "density.py")
        for lineno, line in enumerate(
            (SRC / "cyclicdensity" / name).read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not found, f"group rebuilt on the verify path: {found}"


def test_census_walks_no_powers():
    # the census is a minimum over unit-group orbits; the power walk is only
    # the fallback of the order descent for tables that are no group
    pattern = re.compile(r"\b_power_walk\b")
    found = [
        f"density.py:{lineno}"
        for lineno, line in enumerate(
            (SRC / "cyclicdensity" / "density.py").read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not found, f"power walk in the census: {found}"
