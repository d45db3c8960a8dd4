"""Named initial-data profiles for decay studies and solver runs."""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from besov_wave_lab.grid import GridField, TorusGrid, _irfft, _rfft, field_from_coeffs
from besov_wave_lab.littlewood_paley import chi

__all__ = [
    "gaussian",
    "slow_decay",
    "single_mode",
    "band_limited_random",
    "band_limited_samples",
    "saturating_low",
    "PROFILES",
    "profile_keys",
    "build_profile",
]


def gaussian(grid: TorusGrid, width: float = 1.0, amplitude: float = 1.0) -> GridField:
    r2 = sum(x**2 for x in grid.coords)
    return GridField(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))


def slow_decay(
    grid: TorusGrid,
    r: float = 4.0,
    eps: float = 0.05,
    amplitude: float = 1.0,
    support_fraction: float = 0.3,
) -> GridField:
    """<x>^(-n/r - eps), smoothly truncated to |x| <= support_fraction * L.

    The truncation keeps the far field empty so box-confinement monitors
    stay meaningful over long horizons.
    """
    r2 = sum(x**2 for x in grid.coords)
    radius = np.sqrt(r2)
    power = -(grid.n / r + eps)
    profile = (1.0 + r2) ** (power / 2.0)
    cutoff_scale = support_fraction * grid.box_length * 24.0 / 25.0
    window = chi(radius / cutoff_scale)
    return GridField(grid, amplitude * profile * window)


def single_mode(grid: TorusGrid, xi: float = 1.0, amplitude: float = 1.0) -> GridField:
    """cos(xi * x1) with xi snapped to the nearest nonzero lattice frequency."""
    axis = grid.axis_freqs
    positive = axis[axis > 0]
    xi = positive[np.argmin(np.abs(positive - xi))]
    return GridField(grid, amplitude * np.cos(xi * np.broadcast_to(grid.coords[0], grid.shape)))


def band_limited_samples(
    grid: TorusGrid,
    noise: np.ndarray,
    xi_lo: float,
    xi_hi: float,
    spectrum_slope: float | np.ndarray,
) -> np.ndarray:
    """Samples of band_limited_random's fields for white-noise samples
    stacked on leading axes, with one spectrum slope or one per field."""
    if not 0 < xi_lo < xi_hi:
        raise ValueError("need 0 < xi_lo < xi_hi")
    xi, axes = grid.freq_abs, tuple(range(-grid.n, 0))
    band = (xi >= xi_lo) & (xi <= xi_hi)  # never the mean: xi_lo > 0
    slopes = np.asarray(spectrum_slope)
    shapes = np.zeros(slopes.shape + xi.shape)
    shapes[..., band] = xi[band] ** (-spectrum_slope if slopes.ndim == 0 else -slopes[:, None])
    vals = _irfft(grid.n, _rfft(grid.n, noise) * shapes)
    scale = np.sqrt(np.sum(vals**2, axis=axes) * grid.spacing**grid.n)
    return vals / np.expand_dims(np.where(scale > 0, scale, 1.0), axes)


def band_limited_random(
    grid: TorusGrid,
    rng: np.random.Generator,
    xi_lo: float = 0.5,
    xi_hi: float = 4.0,
    spectrum_slope: float = 0.0,
    amplitude: float = 1.0,
) -> GridField:
    """Random-phase field with |spectrum| ~ |xi|^(-slope) on [xi_lo, xi_hi].

    Hermitian symmetry comes free from shaping white real noise, so the
    samples are exactly real; the mean is zero and the L^2 norm is
    normalized to amplitude.
    """
    noise = rng.standard_normal(grid.shape)
    samples = band_limited_samples(grid, noise, xi_lo, xi_hi, spectrum_slope)
    return GridField(grid, samples * amplitude)


def saturating_low(
    grid: TorusGrid,
    q: float = 1.0,
    envelope_width: float = 0.5,
    amplitude: float = 1.0,
) -> GridField:
    """Low-frequency data saturating the L^q -> L^p decay bound.

    The spectrum is |xi|^(-n(1 - 1/q)) under a Gaussian envelope with the
    DC mode removed; for q = 1 this is a plain Gaussian spectral bump,
    real and even, so the samples are real.  The factor (-1)^k per axis
    moves the bump from the transform's origin, the first sample -L/2, to
    x = 0.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    xi = grid.freq_abs
    power = -grid.n * (1.0 - 1.0 / q)
    coeffs = np.zeros(grid.spectral_shape, dtype=complex)
    nonzero = xi > 0
    coeffs[nonzero] = xi[nonzero] ** power * np.exp(
        -(xi[nonzero] ** 2) / (2.0 * envelope_width**2)
    )
    signs = 1.0 - 2.0 * (sum(np.indices(grid.spectral_shape, sparse=True)) % 2)
    f = field_from_coeffs(grid, signs * coeffs)
    peak = f.max_abs()
    return f * (amplitude / peak) if peak > 0 else f


# Config name -> builder, whose parameters but grid and rng are the [data]
# keys, defaults included.  A positive bump is a Gaussian: blow-up configs read well.
PROFILES: dict[str, Callable[..., GridField]] = {
    "gaussian": gaussian,
    "positive-bump": gaussian,
    "slow-decay": slow_decay,
    "single-mode": single_mode,
    "random-band": band_limited_random,
    "saturating-low": saturating_low,
}


def _builder(name: str) -> Callable[..., GridField]:
    """The builder of profile name ('_' may stand for '-')."""
    return PROFILES[name.replace("_", "-")]


def profile_keys(name: str) -> dict[str, float]:
    """The [data] keys and defaults of profile name: its builder's parameters but grid and rng."""
    params = inspect.signature(_builder(name)).parameters
    return {key: param.default for key, param in params.items() if key not in ("grid", "rng")}


def build_profile(grid: TorusGrid, data: dict, rng: np.random.Generator) -> GridField:
    """The profile named by data["profile"], with data's value for every one
    of its keys; rng goes only to a builder that takes it."""
    builder = _builder(data["profile"])
    keys = [key for key in inspect.signature(builder).parameters if key != "grid"]
    return builder(grid, **{key: rng if key == "rng" else data[key] for key in keys})
