import os
import struct

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


@pytest.fixture(scope="session")
def unpack_container():
    """A container's (grid, instants, (T, *shape) values), read with struct and
    np.fromfile alone, independently of grid.read_container."""
    def unpack(path):
        with open(path, "rb") as fh:
            n, length, npts, nslices = struct.unpack("<qdqq", fh.read(32))
        times = np.fromfile(path, dtype="<f8", count=nslices, offset=32)
        inter = np.fromfile(path, dtype="<f8", offset=32 + 8 * nslices)
        values = (inter[0::2] + 1j * inter[1::2]).reshape((nslices,) + (npts,) * n)
        return GridSpec(n, length, npts), times, values
    return unpack
