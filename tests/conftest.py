import os

import numpy as np
import pytest
from hypothesis import settings

from amalgam.grid import GridSpec

# The ci profile, loaded unless HYPOTHESIS_PROFILE names another, draws the same examples
# on every run, so a commit's result does not change from run to run.  HYPOTHESIS_PROFILE=
# explore draws new examples on each run.  Each test sets its own example count, and both
# profiles keep it.
settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def grid1d():
    return GridSpec(1, 16.0, 512)


@pytest.fixture
def grid2d():
    return GridSpec(2, 8.0, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
