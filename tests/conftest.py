import importlib

import numpy as np
import pytest

from thetachar import enumerate_aronhold_sets
from thetachar.formats import sample_tau


@pytest.fixture(scope="session")
def tau1():
    return sample_tau(1)


@pytest.fixture(scope="session")
def tau2():
    return sample_tau(2)


@pytest.fixture(scope="session")
def aronhold_sets():
    return enumerate_aronhold_sets()


@pytest.fixture
def no_lattice(monkeypatch):
    """Make any theta series evaluation fail the test instead of allocating."""
    def refuse(g, radius):
        raise AssertionError(f"lattice of radius {radius} requested")

    # `thetachar.theta` as an attribute is the re-exported function, so the
    # submodule is looked up by name
    monkeypatch.setattr(importlib.import_module("thetachar.theta"), "_lattice", refuse)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
