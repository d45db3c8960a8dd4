"""Initial-data profiles against where their construction puts them."""

import inspect

import numpy as np
import pytest

from besov_wave_lab.grid import make_grid
from besov_wave_lab.profiles import PROFILES, build_profile, profile_keys, saturating_low


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_saturating_low_peaks_at_the_origin(n, q):
    # saturating_low is the one spectrum built by hand.  Its (-1)^k per axis
    # moves the bump from the transform's origin, the first sample, to
    # x = 0, which is index N/2 on each axis.
    grid = make_grid(n, 32, 20.0)
    f = saturating_low(grid, q=q)
    peak = np.unravel_index(np.argmax(np.abs(f.values)), grid.shape)
    assert peak == (16,) * n
    assert all(x.flat[16] == 0.0 for x in grid.coords)
    assert f.values[peak] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_default_keys_build_the_bare_builder(name, n):
    # profile_keys reads the builder's own defaults, so building from them
    # is calling the builder with no keys, bit for bit, draws included.
    grid = make_grid(n, 32, 20.0)
    data = {"profile": name, **profile_keys(name)}
    built = build_profile(grid, data, np.random.default_rng(11))
    builder = PROFILES[name]
    if "rng" in inspect.signature(builder).parameters:
        bare = builder(grid, np.random.default_rng(11))
    else:
        bare = builder(grid)
    np.testing.assert_array_equal(built.values, bare.values)
