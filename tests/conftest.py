"""Shared fixtures: one instance of each named group, built once per session."""

from __future__ import annotations

import pytest

from cyclicdensity.catalog import (
    make_abelian,
    make_almost_extraspecial,
    make_cyclic,
    make_dihedral,
    make_extraspecial,
    make_heisenberg,
    make_quaternion,
    make_symmetric,
)


@pytest.fixture(scope="session")
def d8():
    return make_dihedral(8)


@pytest.fixture(scope="session")
def d16():
    return make_dihedral(16)


@pytest.fixture(scope="session")
def q8():
    return make_quaternion(8)


@pytest.fixture(scope="session")
def q16():
    return make_quaternion(16)


@pytest.fixture(scope="session")
def s3():
    return make_symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return make_symmetric(4)


@pytest.fixture(scope="session")
def z4():
    return make_cyclic(4)


@pytest.fixture(scope="session")
def z12():
    return make_cyclic(12)


@pytest.fixture(scope="session")
def klein():
    return make_abelian((2, 2))


@pytest.fixture(scope="session")
def pauli16():
    return make_almost_extraspecial(16)


@pytest.fixture(scope="session")
def es32_plus():
    return make_extraspecial(32, "+")


@pytest.fixture(scope="session")
def es32_minus():
    return make_extraspecial(32, "-")


@pytest.fixture(scope="session")
def heis3():
    return make_heisenberg(3)
