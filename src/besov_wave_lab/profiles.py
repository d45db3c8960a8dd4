"""Named initial-data profiles for decay studies and solver runs."""

from __future__ import annotations

import numpy as np

from besov_wave_lab.grid import GridField, TorusGrid, field_from_coeffs
from besov_wave_lab.littlewood_paley import chi

__all__ = [
    "gaussian",
    "positive_bump",
    "slow_decay",
    "single_mode",
    "band_limited_random",
    "saturating_low",
    "build_profile",
]


def gaussian(grid: TorusGrid, width: float = 1.0, amplitude: float = 1.0) -> GridField:
    r2 = np.zeros(grid.shape)
    for x in grid.coords:
        r2 = r2 + x**2
    return GridField(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))


# A positive bump is just a Gaussian; the alias keeps experiment configs readable.
positive_bump = gaussian


def slow_decay(
    grid: TorusGrid,
    r: float,
    eps: float = 0.05,
    amplitude: float = 1.0,
    support_fraction: float = 0.3,
) -> GridField:
    """<x>^(-n/r - eps), smoothly truncated to |x| <= support_fraction * L.

    The truncation keeps the far field empty so box-confinement monitors
    stay meaningful over long horizons.
    """
    r2 = np.zeros(grid.shape)
    for x in grid.coords:
        r2 = r2 + x**2
    radius = np.sqrt(r2)
    power = -(grid.n / r + eps)
    profile = (1.0 + r2) ** (power / 2.0)
    cutoff_scale = support_fraction * grid.box_length * 24.0 / 25.0
    window = chi(radius / cutoff_scale)
    return GridField(grid, amplitude * profile * window)


def single_mode(
    grid: TorusGrid, xi_target: float, amplitude: float = 1.0
) -> GridField:
    """cos(xi * x1) with xi snapped to the nearest nonzero lattice frequency."""
    axis = grid.axis_freqs
    positive = axis[axis > 0]
    xi = positive[np.argmin(np.abs(positive - xi_target))]
    return GridField(grid, amplitude * np.cos(xi * np.broadcast_to(grid.coords[0], grid.shape)))


def _shaped_noise(
    grid: TorusGrid,
    rng: np.random.Generator,
    shape_fn,
    zero_mean: bool = True,
    normalize: bool = True,
) -> GridField:
    noise = rng.standard_normal(grid.shape)
    spec = np.fft.rfftn(noise)
    # The radial shape on rfftn's half lattice (last-axis modes 0..N/2).
    shape = shape_fn(grid.freq_abs[..., : spec.shape[-1]])
    if zero_mean:
        shape = shape.copy()
        shape[(0,) * grid.n] = 0.0
    vals = np.fft.irfftn(spec * shape)
    if normalize:
        scale = np.sqrt(np.sum(vals**2) * grid.spacing**grid.n)
        if scale > 0:
            vals = vals / scale
    return GridField(grid, vals)


def band_limited_random(
    grid: TorusGrid,
    rng: np.random.Generator,
    xi_lo: float,
    xi_hi: float,
    spectrum_slope: float = 0.0,
    zero_mean: bool = True,
) -> GridField:
    """Random-phase field with |spectrum| ~ |xi|^(-slope) on [xi_lo, xi_hi].

    Hermitian symmetry comes free from shaping white real noise, so the
    samples are exactly real; the L^2 norm is normalized to 1.
    """
    if not 0 < xi_lo < xi_hi:
        raise ValueError("need 0 < xi_lo < xi_hi")

    def shape_fn(xi):
        mask = (xi >= xi_lo) & (xi <= xi_hi)
        out = np.zeros_like(xi)
        out[mask] = xi[mask] ** (-spectrum_slope)
        return out

    return _shaped_noise(grid, rng, shape_fn, zero_mean=zero_mean)


def saturating_low(
    grid: TorusGrid,
    q: float,
    envelope_width: float = 0.5,
    amplitude: float = 1.0,
) -> GridField:
    """Low-frequency data saturating the L^q -> L^p decay bound.

    The spectrum is |xi|^(-n(1 - 1/q)) under a Gaussian envelope with the
    DC mode removed; for q = 1 this is a plain Gaussian spectral bump.
    real and even, so the samples are real.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    xi = grid.freq_abs
    power = -grid.n * (1.0 - 1.0 / q)
    coeffs = np.zeros(grid.shape, dtype=complex)
    nonzero = xi > 0
    coeffs[nonzero] = xi[nonzero] ** power * np.exp(
        -(xi[nonzero] ** 2) / (2.0 * envelope_width**2)
    )
    f = field_from_coeffs(grid, coeffs)
    peak = f.max_abs()
    return f * (amplitude / peak) if peak > 0 else f


def build_profile(name: str, grid: TorusGrid, params: dict, rng: np.random.Generator) -> GridField:
    """Profile factory used by experiment configs."""
    name = name.replace("_", "-")
    if name == "gaussian" or name == "positive-bump":
        return gaussian(
            grid,
            width=float(params.get("width", 1.0)),
            amplitude=float(params.get("amplitude", 1.0)),
        )
    if name == "slow-decay":
        return slow_decay(
            grid,
            r=float(params.get("r", 4.0)),
            eps=float(params.get("eps", 0.05)),
            amplitude=float(params.get("amplitude", 1.0)),
            support_fraction=float(params.get("support_fraction", 0.3)),
        )
    if name == "single-mode":
        return single_mode(
            grid,
            xi_target=float(params.get("xi", 1.0)),
            amplitude=float(params.get("amplitude", 1.0)),
        )
    if name == "random-band":
        return band_limited_random(
            grid,
            rng,
            xi_lo=float(params.get("xi_lo", 0.5)),
            xi_hi=float(params.get("xi_hi", 4.0)),
            spectrum_slope=float(params.get("spectrum_slope", 0.0)),
        ) * float(params.get("amplitude", 1.0))
    if name == "saturating-low":
        return saturating_low(
            grid,
            q=float(params.get("q", 1.0)),
            envelope_width=float(params.get("envelope_width", 0.5)),
            amplitude=float(params.get("amplitude", 1.0)),
        )
    raise ValueError(f"unknown data profile '{name}'")
