"""Shared fixtures: one instance of each named group, built once per session."""

from __future__ import annotations

import pytest

from cyclicdensity import build_group


@pytest.fixture(scope="session")
def d8():
    return build_group("dihedral:8")


@pytest.fixture(scope="session")
def d16():
    return build_group("dihedral:16")


@pytest.fixture(scope="session")
def q8():
    return build_group("quaternion:8")


@pytest.fixture(scope="session")
def q16():
    return build_group("quaternion:16")


@pytest.fixture(scope="session")
def s3():
    return build_group("symmetric:3")


@pytest.fixture(scope="session")
def s4():
    return build_group("symmetric:4")


@pytest.fixture(scope="session")
def z4():
    return build_group("cyclic:4")


@pytest.fixture(scope="session")
def z12():
    return build_group("cyclic:12")


@pytest.fixture(scope="session")
def klein():
    return build_group("abelian:2,2")


@pytest.fixture(scope="session")
def pauli16():
    return build_group("almost-extraspecial:16")


@pytest.fixture(scope="session")
def es32_plus():
    return build_group("extraspecial:32:+")


@pytest.fixture(scope="session")
def es32_minus():
    return build_group("extraspecial:32:-")


@pytest.fixture(scope="session")
def heis3():
    return build_group("heisenberg:3")
