"""Test-side field construction from closed-form functions."""

import numpy as np

from besov_wave_lab.grid import GridField


def field_from_function(grid, func):
    """The field on grid whose samples are func at the grid coordinates."""
    return GridField(grid, np.broadcast_to(func(*grid.coords), grid.shape).copy())
