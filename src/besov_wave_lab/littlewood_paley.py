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
from functools import cached_property

import numpy as np

from besov_wave_lab.grid import (
    GridField,
    TorusGrid,
    _signed_samples,
    apply_symbol,
    integer_power,
)

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
    j_max = ceil(log2(pi*N/L)) + 1.  Every multiplier but an arbitrary
    low-pass is read off one stacked array, the ladder, built on first use:
    an annulus is the difference of neighbouring rows.
    """

    grid: TorusGrid
    j_min: int
    j_max: int
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.j_min > self.j_max:
            raise ValueError("j_min exceeds j_max")

    # -- multiplier arrays -------------------------------------------------

    @cached_property
    def ladder(self) -> np.ndarray:
        """Low-pass multipliers chi(|xi| / 2^k) for k = j_min - 2 .. j_max + 1,
        stacked on axis 0."""
        xi = self.grid.freq_abs
        return np.stack([chi(xi / 2.0**k) for k in range(self.j_min - 2, self.j_max + 2)])

    @cached_property
    def annuli(self) -> np.ndarray:
        """Annulus multipliers ladder(j) - ladder(j - 1) for j = j_min..j_max."""
        return np.diff(self.ladder[1:-1], axis=0)

    @cached_property
    def signed_annuli(self) -> np.ndarray:
        """annuli times the grid's phase signs +-1 (exact), which _samples
        would otherwise apply to a complex copy of every block stack."""
        return self.grid._phase_signs * self.annuli

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """annuli**2 * mode_weight as (J, modes), block_norms' p = 2 weights."""
        return (self.annuli**2 * self.grid.mode_weight).reshape(len(self.annuli), -1)

    @cached_property
    def widened(self) -> np.ndarray:
        """Widened multipliers for j = j_min..j_max: annuli j - 1, j and j + 1
        summed, so 1 on the support of annulus j."""
        d = np.diff(self.ladder, axis=0)
        return d[:-2] + d[1:-1] + d[2:]

    def low_pass_multiplier(self, a: float) -> np.ndarray:
        if a <= 0:
            raise ValueError("cutoff scale must be positive")
        return chi(self.grid.freq_abs / a)

    def block_multiplier(self, j: int) -> np.ndarray:
        self._check_range(j)
        return self.annuli[j - self.j_min]

    def low_block_multiplier(self) -> np.ndarray:
        """The block below j_min; on the default range it holds only DC."""
        return self.ladder[1]

    # -- projections -------------------------------------------------------

    def low_pass(self, f: GridField, a: float) -> GridField:
        return apply_symbol(self.low_pass_multiplier(a), f)

    def high_pass(self, f: GridField, a: float) -> GridField:
        return apply_symbol(1.0 - self.low_pass_multiplier(a), f)

    def block(self, f: GridField, j: int) -> GridField:
        return apply_symbol(self.block_multiplier(j), f)

    def tilde(self, f: GridField, j: int) -> GridField:
        self._check_range(j)
        return apply_symbol(self.widened[j - self.j_min], f)

    def _check_range(self, j: int) -> None:
        if not (self.j_min <= j <= self.j_max):
            raise ValueError(
                f"dyadic index {j} outside representable range "
                f"[{self.j_min}, {self.j_max}]"
            )

    def indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def block_norms(self, coeffs: np.ndarray, p: float) -> np.ndarray:
        """L^p norm of every annulus block of the field with coefficient
        array coeffs, of shape (..., J) for blocks j_min..j_max and
        coefficient arrays stacked on leading axes, in one reduction over
        the stacked annuli.  For p = 2 that is Parseval, |coeffs|^2 against
        parseval_weights; else the annuli times coeffs go into a complex
        block stack the instance keeps while the stacked shape repeats, and
        its batched inverse transform, the only fresh stack, is reduced in
        place.  Integer powers go through integer_power, as in lebesgue_norm."""
        grid = self.grid
        rows = tuple(range(-grid.n, 0))
        if p == 2.0:
            power = (coeffs.real**2 + coeffs.imag**2).reshape(coeffs.shape[: -grid.n] + (-1,))
            sums = np.einsum("...k,jk->...j", power, self.parseval_weights)
            return np.sqrt(grid.freq_spacing**grid.n * sums)
        shape = coeffs.shape[: -grid.n] + self.signed_annuli.shape
        if self._work is None or self._work.shape != shape:
            self._work = np.empty(shape, dtype=complex)
        np.multiply(self.signed_annuli, np.expand_dims(coeffs, -grid.n - 1), out=self._work)
        samples = _signed_samples(grid, self._work, grid.points_per_axis)
        np.abs(samples, out=samples)
        if math.isinf(p):
            return np.max(samples, axis=rows)
        if p == int(p):
            samples = integer_power(samples, int(p))
        else:
            samples **= p
        # float_power has no SIMD loop: each root rounds as lebesgue_norm's does.
        return np.float_power(grid.spacing**grid.n * np.sum(samples, axis=rows), 1.0 / p)

    def partition_residual(self) -> float:
        """Max over nonzero lattice frequencies of |1 - (low + sum of blocks)|."""
        total = self.low_block_multiplier() + np.sum(self.annuli, axis=0)
        nonzero = self.grid.freq_abs > 0
        return float(np.max(np.abs(1.0 - total[nonzero])))


def default_j_range(grid: TorusGrid) -> tuple[int, int]:
    j_min = math.ceil(math.log2(2.0 * np.pi / grid.box_length)) - 1
    j_max = (
        math.ceil(math.log2(np.pi * grid.points_per_axis / grid.box_length)) + 1
    )
    return j_min, j_max


def make_blocks(grid: TorusGrid) -> DyadicBlocks:
    """The dyadic blocks of grid on its default range."""
    lo, hi = default_j_range(grid)
    return DyadicBlocks(grid=grid, j_min=lo, j_max=hi)
