import functools
import math

import numpy as np
import pytest

from kelvin import repro
from kelvin.model import BathSpec, CouplingScheme, ModelParams


@pytest.fixture(scope="session")
def reproduced():
    """`repro.run_target`, run once per target and session: the acceptance
    criteria and the golden record read the same results."""
    return functools.cache(repro.run_target)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_params():
    return ModelParams(12, 0.9)


@pytest.fixture
def local_scheme():
    return CouplingScheme.local(1.0, 1.0, g=0.05)


@pytest.fixture
def generic_scheme():
    return CouplingScheme(nn=1, lam={-1: 0.3, 0: 1.0, 1: -0.7},
                          mu={-1: 0.2, 0: 0.5, 1: 0.9}, g=0.25)


@pytest.fixture
def bath():
    return BathSpec(delta=1.1, cycle_time_mean=4.3)


def theta_grid():
    return [0.0, 0.3, math.pi / 4, 1.0, 1.3, math.pi / 2]
