"""Spectral laboratory for the damped wave equation on a periodic torus."""

from besov_wave_lab.grid import (
    GridField,
    SpectralField,
    TorusGrid,
    dealiased_power,
    dealiased_product,
    forward_transform,
    inverse_transform,
    make_grid,
)
from besov_wave_lab.littlewood_paley import DyadicBlocks, chi
from besov_wave_lab.norms import (
    BesovParams,
    ProblemParams,
    Trajectory,
    besov_seminorm,
    lebesgue_norm,
    x_norm,
)

__version__ = "0.1.0"
