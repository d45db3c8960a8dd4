"""Spectral laboratory for the damped wave equation on a periodic torus."""

from besov_wave_lab.grid import (
    GridField,
    TorusGrid,
    dealiased_power,
    dealiased_product,
    make_grid,
)
from besov_wave_lab.littlewood_paley import DyadicBlocks, chi
from besov_wave_lab.norms import (
    ProblemParams,
    Trajectory,
    besov_seminorm,
    lebesgue_norm,
    x_norm,
)

__version__ = "0.1.0"
