"""Bony paraproducts, the product decomposition, and product estimates.

A product fg splits into the low-high paraproduct T_f g (low-pass of f at
scale 2^(j-2) against block j of g), its mirror T_g f, and the comparable-
frequency remainder R(f, g) collecting block pairs at most one index apart.
All pointwise products run on a zero-padded grid so the retained modes are
exact and the repartition identity holds to rounding.  Each paraproduct
reads the stacked multipliers of DyadicBlocks and sums its block products
on the padded lattice before one forward transform.  decomposition_residuals
and leibniz_ratios take ensembles of sample pairs stacked on leading axes;
decomposition_residual and leibniz_ratio are their one-pair calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from besov_wave_lab.grid import (
    GridField,
    TorusGrid,
    _coefficients,
    _samples,
    dealiased_pointwise,
    field_from_coeffs,
    require_finite,
)
from besov_wave_lab.littlewood_paley import DyadicBlocks, make_blocks
from besov_wave_lab.norms import _besov, lebesgue_norms

__all__ = [
    "para_T",
    "para_R",
    "decomposition_residual",
    "decomposition_residuals",
    "LeibnizConfig",
    "leibniz_ratio",
    "leibniz_ratios",
]


def _shared_blocks(
    f: GridField, g: GridField, blocks: DyadicBlocks | None
) -> DyadicBlocks:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return blocks if blocks is not None else make_blocks(f.grid)


def _fields(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Stacked field_from_coeffs, with its check, as samples."""
    return require_finite(_samples(grid, coeffs, grid.points_per_axis))


def _real_part(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """coeffs, overwritten with the coefficient arrays of the real fields
    they stand for, as their samples would give them back, checked finite.
    Last-axis columns 0 and N/2 pair mode k with -k on the leading axes,
    and a real field holds only their Hermitian part (c_k + conj(c_-k)) / 2;
    in 1-D, the real part of the DC and Nyquist entries.  Every other entry
    is its own."""
    N = grid.points_per_axis
    mirror = -np.arange(N) % N
    for column in (0, N // 2):
        paired = np.conj(coeffs[..., column])
        for axis in range(1 - grid.n, 0):
            paired = np.take(paired, mirror, axis=axis)
        coeffs[..., column] = 0.5 * (coeffs[..., column] + paired)
    return require_finite(coeffs, "spectral coefficients")


def _block_sum(grid: TorusGrid, a, f: np.ndarray, b, g: np.ndarray) -> np.ndarray:
    """Coefficients of the sum over j of (a_j f) * (b_j g) for multipliers a
    and b stacked on axis 0 and coefficient arrays f and g stacked on leading
    axes: every block product is summed on the padded lattice, which takes
    one batched inverse transform per factor and one forward transform."""
    lattice = "xyz"[: grid.n]
    summed = partial(np.einsum, f"...j{lattice},...j{lattice}->...{lattice}")
    a_f, b_g = (m * np.expand_dims(c, -grid.n - 1) for m, c in ((a, f), (b, g)))
    return dealiased_pointwise(grid, summed, 2, a_f, b_g)


def para_T(f: GridField, g: GridField, *, blocks: DyadicBlocks | None = None) -> GridField:
    """Low-high paraproduct: sum over j of (low-pass f at 2^(j-2)) * (block j of g)."""
    blocks, fc, gc = _shared_blocks(f, g, blocks), f.spectrum, g.spectrum
    # Ladder rows k = j - 2 for j = j_min..j_max.
    return field_from_coeffs(f.grid, _block_sum(f.grid, blocks.ladder[:-3], fc, blocks.annuli, gc))


def para_R(f: GridField, g: GridField, *, blocks: DyadicBlocks | None = None) -> GridField:
    """Comparable-frequency remainder: block pairs with |j - k| <= 1."""
    blocks, fc, gc = _shared_blocks(f, g, blocks), f.spectrum, g.spectrum
    return field_from_coeffs(f.grid, _block_sum(f.grid, blocks.annuli, fc, blocks.widened, gc))


def decomposition_residuals(blocks: DyadicBlocks, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """decomposition_residual of every pair of samples f, g on blocks.grid
    stacked on leading axes."""
    grid = blocks.grid
    fc, gc = _coefficients(grid, f), _coefficients(grid, g)
    product = _fields(grid, dealiased_pointwise(grid, np.multiply, 2, fc, gc))
    low, annuli = blocks.ladder[:-3], blocks.annuli
    recomposed = (
        _fields(grid, _block_sum(grid, low, fc, annuli, gc))
        + _fields(grid, _block_sum(grid, low, gc, annuli, fc))
        + _fields(grid, _block_sum(grid, annuli, fc, blocks.widened, gc))
    )
    denom = lebesgue_norms(grid, product, 2.0)
    gap = lebesgue_norms(grid, require_finite(product - recomposed), 2.0)
    return np.divide(gap, denom, out=np.zeros_like(gap), where=denom != 0.0)


def decomposition_residual(
    f: GridField, g: GridField, *, blocks: DyadicBlocks | None = None
) -> float:
    """Relative L^2 gap between the alias-free fg and T_f g + T_g f + R(f, g)."""
    blocks = _shared_blocks(f, g, blocks)
    return float(decomposition_residuals(blocks, f.values, g.values))


@dataclass(frozen=True)
class LeibnizConfig:
    """Exponent tuple for the product estimate in homogeneous Besov norms.

    Requires 1/r = 1/p1 + 1/q1 = 1/p2 + 1/q2 with r, q1, q2 finite; the
    summability index is fixed to 2.
    """

    alpha: float
    r: float
    p1: float
    q1: float
    p2: float
    q2: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for name in ("r", "q1", "q2"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("r", "p1", "q1", "p2", "q2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for p_name, q_name in (("p1", "q1"), ("p2", "q2")):
            p, q = getattr(self, p_name), getattr(self, q_name)
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            if abs(1.0 / self.r - (inv_p + 1.0 / q)) > 1e-12:
                raise ValueError(
                    f"Hoelder relation 1/r = 1/{p_name} + 1/{q_name} violated"
                )


def leibniz_ratios(
    blocks: DyadicBlocks, f: np.ndarray, g: np.ndarray, cfg: LeibnizConfig
) -> np.ndarray:
    """leibniz_ratio of every pair of samples f, g on blocks.grid stacked on
    leading axes; raises if both bound terms vanish for any pair."""
    grid = blocks.grid
    fc, gc = _coefficients(grid, f), _coefficients(grid, g)
    # The product's spectrum is that of the real field fg.
    product = _real_part(grid, dealiased_pointwise(grid, np.multiply, 2, fc, gc))
    num = _besov(blocks, product, cfg.alpha, cfg.r, 2.0)
    den = _besov(blocks, fc, cfg.alpha, cfg.p1, 2.0) * lebesgue_norms(
        grid, g, cfg.q1
    ) + _besov(blocks, gc, cfg.alpha, cfg.p2, 2.0) * lebesgue_norms(grid, f, cfg.q2)
    if np.any(den == 0.0):
        raise ValueError("product-estimate ratio undefined: both bound terms vanish")
    return num / den


def leibniz_ratio(
    f: GridField,
    g: GridField,
    cfg: LeibnizConfig,
    *,
    blocks: DyadicBlocks | None = None,
) -> float:
    """||fg||_{B^a_{r,2}} over the cross-term bound; raises if both terms vanish."""
    return float(leibniz_ratios(_shared_blocks(f, g, blocks), f.values, g.values, cfg))
