"""Dyadic frequency decomposition built from a smooth radial cutoff.

The cutoff chi equals 1 on [0, 1], vanishes from 25/24 on, and is C-infinity
in between (a standard exp(-1/t) smooth step).  Annulus projections
chi_{2^j} = chi_{<=2^j} - chi_{<=2^(j-1)} telescope to a partition of unity
over the lattice; the DC mode is routed to a dedicated low block and is
excluded from all homogeneous seminorms.  The block range is the grid's,
default_j_range: the blocks j_min..j_max cover every nonzero frequency.

Block norms reduce through grid._power_sums, the one L^p power sum, and
for even p they are summed on the coarsest lattice that integrates them
exactly.  The M-point trapezoid rule integrates every trigonometric
polynomial of degree < M exactly (Trefethen & Weideman, SIAM Review 56
(2014) 385), and for even p, |f_j|^p = f_j^p has degree p*K_j when the
block's modes reach |k| = K_j on every axis.  So block j is sampled on the
coarsest M of N, N/2 and N/4 (M even) with p*K_j < M, and its L^p norm
there equals its N-point one up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from besov_wave_lab.grid import (
    GridField,
    TorusGrid,
    _kept,
    _leading_index,
    _power_sums,
    _samples,
    apply_symbol,
)

__all__ = [
    "chi",
    "DyadicBlocks",
    "make_blocks",
]

TRANSITION_END = 25.0 / 24.0
_STEP_SCALE = 24.0
# Divisors of N that give the coarser lattices an even-p block norm may be
# summed on.  Each lattice a call uses costs one transform call (~9 us
# however small), which N/8 and below no longer repay.
_COARSENINGS = (4, 2)


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

    The block range is the grid's, default_j_range(grid), which covers every
    nonzero lattice frequency: j_min = ceil(log2(2*pi/L)) - 1 and
    j_max = ceil(log2(pi*N/L)) + 1.  Every multiplier but an arbitrary
    low-pass is read off one stacked array, the ladder, built on first use:
    an annulus is the difference of neighbouring rows.
    """

    grid: TorusGrid
    j_min: int = field(init=False)
    j_max: int = field(init=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.j_min, self.j_max = default_j_range(self.grid)

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
        """The block below j_min, which holds only DC."""
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

    @cached_property
    def extents(self) -> np.ndarray:
        """K_j for j = j_min..j_max: the largest |k| on any axis where
        annulus j is nonzero (k the column on the last axis, min(i, N - i)
        for row i on a leading one), -1 for an annulus zero everywhere."""
        grid = self.grid
        k = np.abs(np.broadcast_arrays(*grid.freqs)) / grid.freq_spacing
        extent = np.rint(np.max(k, axis=0)).astype(int)
        rows = tuple(range(-grid.n, 0))
        return np.max(np.where(self.annuli != 0.0, extent, -1), axis=rows)

    @cached_property
    def mode_counts(self) -> np.ndarray:
        """m_j for j = j_min..j_max: mode_weight summed over the modes where
        annulus j is nonzero, the lattice modes block j can hold."""
        weight = np.broadcast_to(self.grid.mode_weight, self.grid.spectral_shape)
        rows = tuple(range(-self.grid.n, 0))
        return np.sum(np.where(self.annuli != 0.0, weight, 0.0), axis=rows)

    def nikolskii(self, p: float) -> np.ndarray:
        """Per-block constants hi_j = |T|^(1/p - 1/2) m_j^(1/2 - 1/p) (|T| =
        L^n) with ||f_j||_p <= hi_j ||f_j||_2 for 2 <= p <= inf (discrete
        Nikolskii): Cauchy-Schwarz on the Fourier series gives sup |f_j| <=
        (m_j / |T|)^(1/2) ||f_j||_2, and ||f_j||_p^p <= sup^(p-2) ||f_j||_2^2.
        It holds for any coefficient array: irfft keeps only the Hermitian
        part of a self-paired column, which Parseval counts whole."""
        if not p >= 2.0:
            raise ValueError(f"Nikolskii exponent must be >= 2, got {p}")
        volume = self.grid.box_length**self.grid.n
        return volume ** (1.0 / p - 0.5) * self.mode_counts ** (0.5 - 1.0 / p)

    def _plan(self, p: float) -> tuple["_BlockLattice", ...]:
        """The lattices block_norms sums the nonzero blocks on for exponent p,
        built on first use: for even p each block goes to the coarsest M of
        N, N/2 and N/4 (M even) with p*K_j < M, for any other p to N, and
        all such p share that one plan."""
        key = p if p % 2 == 0 else None
        if key not in self._plans:
            N, K = self.grid.points_per_axis, self.extents
            M = np.where(K >= 0, N, 0)
            if key is not None:
                for d in _COARSENINGS:
                    if N % (2 * d) == 0:
                        M = np.where((M == N) & (p * K < N // d), N // d, M)
            self._plans[key] = tuple(
                _BlockLattice.build(self, m, np.flatnonzero(M == m))
                for m in sorted(set(M[M > 0].tolist()), reverse=True)
            )
        return self._plans[key]

    def block_norms(self, coeffs: np.ndarray, p: float) -> np.ndarray:
        """L^p norm of every annulus block of the field with coefficient
        array coeffs, of shape (..., J) for blocks j_min..j_max and
        coefficient arrays stacked on leading axes.  For p = 2 that is
        Parseval, |coeffs|^2 against parseval_weights.  Otherwise each
        lattice of _plan(p) takes one batched inverse transform of its
        blocks: the restricted annuli times the restricted coeffs go into a
        complex block stack the lattice keeps (grid._kept, grown to its
        largest call), and the transform's output, the only fresh stack, is
        reduced in place by grid._power_sums, the one L^p power sum, with
        the lattice's weight (L/M)^n.  For even p a block sits on the
        coarsest lattice whose trapezoid rule integrates f_j^p exactly
        (Trefethen & Weideman 2014), so its norm is its N-point one up to
        rounding; blocks on N keep their bits.  An annulus zero on the
        whole lattice takes no transform and reads 0."""
        grid = self.grid
        if p == 2.0:
            power = (coeffs.real**2 + coeffs.imag**2).reshape(coeffs.shape[: -grid.n] + (-1,))
            sums = np.einsum("...k,jk->...j", power, self.parseval_weights)
            return np.sqrt(grid.freq_spacing**grid.n * sums)
        sums = np.zeros(coeffs.shape[: -grid.n] + (len(self.annuli),))
        for lattice in self._plan(p):
            weight = (grid.box_length / lattice.M) ** grid.n
            sums[..., lattice.rows] = _power_sums(lattice.samples(coeffs), p, grid.n, weight)
        # float_power has no SIMD loop: each root rounds as lebesgue_norms' does.
        return sums if math.isinf(p) else np.float_power(sums, 1.0 / p)

    def partition_residual(self) -> float:
        """Max over nonzero lattice frequencies of |1 - (low + sum of blocks)|."""
        total = self.low_block_multiplier() + np.sum(self.annuli, axis=0)
        nonzero = self.grid.freq_abs > 0
        return float(np.max(np.abs(1.0 - total[nonzero])))


@dataclass
class _BlockLattice:
    """The blocks rows that block_norms sums on M points per axis: their
    annuli restricted to that lattice, the index that restricts a
    coefficient array of the grid to it, and its kept buffer (grid._kept):
    the complex block stack the products go into."""

    grid: TorusGrid
    M: int
    rows: np.ndarray
    annuli: np.ndarray
    index: tuple
    buffers: dict = field(default_factory=dict)

    @classmethod
    def build(cls, blocks: DyadicBlocks, M: int, rows: np.ndarray) -> "_BlockLattice":
        grid, index = blocks.grid, (Ellipsis,)
        if M < grid.points_per_axis:
            # Last-axis columns 0..M/2, leading rows k mod N for |k| <= M/2.
            rows_mod_N = _leading_index(M, grid.points_per_axis, grid.n)
            index = (Ellipsis,) + rows_mod_N + (slice(0, M // 2 + 1),)
        return cls(grid, M, rows, blocks.annuli[rows][index], index)

    def samples(self, coeffs: np.ndarray) -> np.ndarray:
        """Fresh samples on M points per axis of the blocks rows of the
        fields with coefficient arrays coeffs, stacked as (..., rows, M^n)."""
        n = self.grid.n
        work = _kept(self.buffers, "blocks", coeffs.shape[:-n] + self.annuli.shape, complex)
        np.multiply(self.annuli, np.expand_dims(coeffs[self.index], -n - 1), out=work)
        return _samples(self.grid, work, self.M)


def default_j_range(grid: TorusGrid) -> tuple[int, int]:
    j_min = math.ceil(math.log2(2.0 * np.pi / grid.box_length)) - 1
    j_max = (
        math.ceil(math.log2(np.pi * grid.points_per_axis / grid.box_length)) + 1
    )
    return j_min, j_max


def make_blocks(grid: TorusGrid) -> DyadicBlocks:
    """The dyadic blocks of grid, on the grid's block range."""
    return DyadicBlocks(grid)
