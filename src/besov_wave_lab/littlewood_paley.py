"""Dyadic frequency decomposition built from a smooth radial cutoff.

The cutoff chi equals 1 on [0, 1], vanishes from 25/24 on, and is C-infinity
in between (a standard exp(-1/t) smooth step).  Annulus projections
chi_{2^j} = chi_{<=2^j} - chi_{<=2^(j-1)} telescope to a partition of unity
over the lattice; the DC mode is routed to a dedicated low block and is
excluded from all homogeneous seminorms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from besov_wave_lab.grid import GridField, TorusGrid, apply_symbol

__all__ = [
    "chi",
    "DyadicBlocks",
    "make_blocks",
]

TRANSITION_END = 25.0 / 24.0
_STEP_SCALE = 24.0


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) extended by 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def chi(t):
    """Radial cutoff profile: 1 for t <= 1, 0 for t >= 25/24, smooth between."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("cutoff argument must be nonnegative")
    out = np.ones_like(t)
    out[t >= TRANSITION_END] = 0.0
    mid = (t > 1.0) & (t < TRANSITION_END)
    if np.any(mid):
        up = _bump((TRANSITION_END - t[mid]) * _STEP_SCALE)
        down = _bump((t[mid] - 1.0) * _STEP_SCALE)
        out[mid] = up / (up + down)
    return float(out[0]) if scalar else out


@dataclass
class DyadicBlocks:
    """Family of dyadic projections on a fixed grid.

    j_min and j_max default to the range covering every nonzero lattice
    frequency: j_min = ceil(log2(2*pi/L)) - 1 and
    j_max = ceil(log2(pi*N/L)) + 1.  Multiplier arrays are cached per index.
    """

    grid: TorusGrid
    j_min: int
    j_max: int
    _cache: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.j_min > self.j_max:
            raise ValueError("j_min exceeds j_max")

    # -- multiplier arrays -------------------------------------------------

    def low_pass_multiplier(self, a: float) -> np.ndarray:
        if a <= 0:
            raise ValueError("cutoff scale must be positive")
        key = f"le:{a!r}"
        if key not in self._cache:
            self._cache[key] = chi(self.grid.freq_abs / a)
        return self._cache[key]

    def high_pass_multiplier(self, a: float) -> np.ndarray:
        return 1.0 - self.low_pass_multiplier(a)

    def block_multiplier(self, j: int) -> np.ndarray:
        key = f"ann:{j}"
        if key not in self._cache:
            self._cache[key] = self.low_pass_multiplier(
                2.0**j
            ) - self.low_pass_multiplier(2.0 ** (j - 1))
        return self._cache[key]

    def tilde_multiplier(self, j: int) -> np.ndarray:
        return (
            self.block_multiplier(j - 1)
            + self.block_multiplier(j)
            + self.block_multiplier(j + 1)
        )

    def low_block_multiplier(self) -> np.ndarray:
        """The block below j_min; on the default range it holds only DC."""
        return self.low_pass_multiplier(2.0 ** (self.j_min - 1))

    # -- projections -------------------------------------------------------

    def low_pass(self, f: GridField, a: float) -> GridField:
        return apply_symbol(self.low_pass_multiplier(a), f)

    def high_pass(self, f: GridField, a: float) -> GridField:
        return apply_symbol(self.high_pass_multiplier(a), f)

    def block(self, f: GridField, j: int) -> GridField:
        self._check_range(j)
        return apply_symbol(self.block_multiplier(j), f)

    def tilde(self, f: GridField, j: int) -> GridField:
        self._check_range(j)
        return apply_symbol(self.tilde_multiplier(j), f)

    def _check_range(self, j: int) -> None:
        if not (self.j_min <= j <= self.j_max):
            raise ValueError(
                f"dyadic index {j} outside representable range "
                f"[{self.j_min}, {self.j_max}]"
            )

    def indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def block_norms(self, f: GridField, p: float) -> np.ndarray:
        """L^p norm of every annulus block of f, indexed j_min..j_max.

        p = 2 goes through Parseval on the cached spectrum, which avoids
        one inverse transform per block.
        """
        if p == 2.0:
            power = self.grid.mode_weight * np.abs(f.spectrum.coeffs) ** 2
            weight = self.grid.freq_spacing**self.grid.n
            return np.array(
                [
                    math.sqrt(weight * float(np.sum(self.block_multiplier(j) ** 2 * power)))
                    for j in self.indices()
                ]
            )
        from besov_wave_lab.norms import lebesgue_norm

        return np.array(
            [lebesgue_norm(self.block(f, j), p) for j in self.indices()]
        )

    def partition_residual(self) -> float:
        """Max over nonzero lattice frequencies of |1 - (low + sum of blocks)|."""
        total = self.low_block_multiplier().copy()
        for j in self.indices():
            total = total + self.block_multiplier(j)
        nonzero = self.grid.freq_abs > 0
        return float(np.max(np.abs(1.0 - total[nonzero])))


def default_j_range(grid: TorusGrid) -> tuple[int, int]:
    j_min = math.ceil(math.log2(2.0 * np.pi / grid.box_length)) - 1
    j_max = (
        math.ceil(math.log2(np.pi * grid.points_per_axis / grid.box_length)) + 1
    )
    return j_min, j_max


def make_blocks(
    grid: TorusGrid,
    j_min: int | None = None,
    j_max: int | None = None,
) -> DyadicBlocks:
    lo, hi = default_j_range(grid)
    return DyadicBlocks(
        grid=grid,
        j_min=lo if j_min is None else j_min,
        j_max=hi if j_max is None else j_max,
    )
