import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so tier-1 stays
# deterministic and its wall time bounded
settings.register_profile("aknslab", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("aknslab")

from aknslab.spectral import Grid
from aknslab.profiles import gaussian


@pytest.fixture(scope="session")
def grid():
    return Grid(64.0, 256)


@pytest.fixture(scope="session")
def small_gaussian(grid):
    return gaussian(grid, 0.1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


l2 = Grid.l2_norm  # l2(grid, values), the grid L2 norm


def rel_l2(grid, values, reference):
    return l2(grid, values - reference) / max(l2(grid, reference), 1e-300)
