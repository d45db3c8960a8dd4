"""Periodic torus discretization and Fourier-multiplier machinery.

The torus [-L/2, L/2)^n stands in for whole space; frequencies live on the
lattice 2*pi*k/L with k per-axis in [-N/2, N/2).  Transforms carry the
symmetric (2*pi)^(-n/2) normalization with the quadrature weight dx^n
absorbed into the forward transform, so discrete norms converge to their
continuum counterparts as N and L grow.

Fields are real, so half of their Hermitian coefficients carry everything:
the one coefficient format is rfftn's half spectrum, of shape
spectral_shape = (N,)*(n-1) + (N//2+1,) (FFT order on the leading axes,
modes 0..N/2 on the last), which freqs, freq_abs and mode_weight share.
Every transform is a real one (rfftn/irfftn).  Every padded
pointwise product goes through one alias-free kernel, dealiased_pointwise:
coefficient arrays in, one inverse transform per input on the zero-padded
lattice, the op on the real samples, one forward transform, truncation
back.  _samples is the one map from coefficients to samples on any
lattice, field_from_coeffs the one way from coefficients to a GridField,
and integer_power the one pointwise power (by repeated squaring, not libm
pow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

__all__ = [
    "TorusGrid",
    "GridField",
    "SpectralField",
    "make_grid",
    "forward_transform",
    "inverse_transform",
    "field_from_coeffs",
    "apply_symbol",
    "dealiased_pointwise",
    "dealiased_product",
    "dealiased_power",
    "integer_power",
    "pad_factor_for_power",
    "refine_field",
    "outer_shell_fraction",
]

# Interior fraction of each axis; |x| beyond 0.9*(L/2) counts as the outer shell.
OUTER_SHELL_START = 0.9


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the torus [-L/2, L/2)^n.

    Frequencies are 2*pi*k/L for integer k in [-N/2, N/2) per axis.  N
    must be even so the lattice is symmetric up to the Nyquist mode.
    Spectral arrays cover the half lattice, of shape spectral_shape.
    """

    n: int
    points_per_axis: int
    box_length: float

    def __post_init__(self) -> None:
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension n must be 1, 2 or 3, got {self.n}")
        if self.points_per_axis < 8 or self.points_per_axis % 2 != 0:
            raise ValueError(
                f"points per axis must be even and >= 8, got {self.points_per_axis}"
            )
        if not (self.box_length > 0 and math.isfinite(self.box_length)):
            raise ValueError(f"box length must be positive, got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.n

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """rfftn's half lattice: (N,)*(n-1) + (N//2+1,)."""
        N = self.points_per_axis
        return (N,) * (self.n - 1) + (N // 2 + 1,)

    @property
    def num_points(self) -> int:
        return self.points_per_axis**self.n

    @property
    def freq_spacing(self) -> float:
        return 2.0 * np.pi / self.box_length

    @property
    def max_freq(self) -> float:
        """Largest |xi| on the lattice (corner mode)."""
        return math.sqrt(self.n) * np.pi * self.points_per_axis / self.box_length

    @property
    def min_freq(self) -> float:
        """Smallest nonzero |xi| on the lattice."""
        return self.freq_spacing

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return -self.box_length / 2 + self.spacing * np.arange(self.points_per_axis)

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the grid shape."""
        x = self.axis_coords
        return tuple(
            x.reshape((1,) * d + (-1,) + (1,) * (self.n - d - 1)) for d in range(self.n)
        )

    @cached_property
    def axis_freqs(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    @cached_property
    def freqs(self) -> tuple[np.ndarray, ...]:
        """Frequency arrays broadcast to the spectral shape: FFT order on the
        leading axes, modes 0..N/2 on the last."""
        last = 2.0 * np.pi * np.fft.rfftfreq(self.points_per_axis, d=self.spacing)
        axes = [self.axis_freqs] * (self.n - 1) + [last]
        return tuple(
            xi.reshape((1,) * d + (-1,) + (1,) * (self.n - d - 1))
            for d, xi in enumerate(axes)
        )

    @cached_property
    def freq_abs(self) -> np.ndarray:
        out = np.zeros(self.spectral_shape)
        for xi in self.freqs:
            out = out + xi**2
        return np.sqrt(out)

    @cached_property
    def mode_weight(self) -> np.ndarray:
        """Lattice modes each half-spectrum entry stands for, in sums of
        |c|^2: 2 on last-axis columns 1..N/2-1 (the mode and its mirror),
        1 on columns 0 and N/2, which pair with themselves."""
        weight = np.full(self.spectral_shape[-1], 2.0)
        weight[[0, -1]] = 1.0
        weight.flags.writeable = False
        return weight

    @cached_property
    def _phase_signs(self) -> np.ndarray:
        # Relates samples at x_j = -L/2 + j*dx to the FFT's x_j = j*dx origin:
        # exp(i*(L/2)*xi_k) = (-1)^k per axis, and k = index mod N, N even.
        return 1.0 - 2.0 * (sum(np.indices(self.spectral_shape, sparse=True)) % 2)

    def zeros(self) -> "GridField":
        return GridField(self, np.zeros(self.shape))

    def field(self, values: np.ndarray) -> "GridField":
        return GridField(self, np.asarray(values, dtype=float))

    def field_from_function(self, func: Callable[..., np.ndarray]) -> "GridField":
        return GridField(self, np.broadcast_to(func(*self.coords), self.shape).copy())


def make_grid(n: int, N: int, L: float) -> TorusGrid:
    """Build a torus grid with n axes, N points per axis and box length L."""
    return TorusGrid(n=n, points_per_axis=N, box_length=float(L))


@dataclass(frozen=True)
class GridField:
    """Real samples on a torus grid, immutable after construction."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def spectrum(self) -> "SpectralField":
        return forward_transform(self)

    def __add__(self, other: "GridField") -> "GridField":
        self._check_same_grid(other)
        return GridField(self.grid, self.values + other.values)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_same_grid(other)
        return GridField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridField":
        return GridField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "GridField":
        return GridField(self.grid, -self.values)

    def _check_same_grid(self, other: "GridField") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a real field on the half lattice."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != self.grid.spectral_shape:
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match the spectral shape "
                f"{self.grid.spectral_shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("spectral coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)


def forward_transform(f: GridField) -> SpectralField:
    """Discrete analogue of the symmetric-normalization Fourier transform."""
    grid = f.grid
    scale = (2.0 * np.pi) ** (-grid.n / 2) * grid.spacing**grid.n
    return SpectralField(grid, scale * grid._phase_signs * np.fft.rfftn(f.values))


def inverse_transform(F: SpectralField) -> GridField:
    """Invert forward_transform."""
    return field_from_coeffs(F.grid, F.coeffs)


def field_from_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> GridField:
    """The real field on grid whose coefficient array is coeffs."""
    return GridField(grid, _samples(grid, coeffs, grid.points_per_axis))


def apply_symbol(symbol: np.ndarray, f: GridField) -> GridField:
    """Apply a real symbol array to f, such as m(grid.freq_abs) for a radial
    multiplier m.  It must be finite and broadcast to the spectral shape."""
    coeffs = f.spectrum.coeffs
    if not np.all(np.isfinite(symbol)):
        raise ValueError("multiplier produced non-finite values on the lattice")
    try:
        product = np.multiply(symbol, coeffs, out=np.empty_like(coeffs))
    except ValueError:
        raise ValueError(
            f"symbol of shape {np.shape(symbol)} does not broadcast to the "
            f"spectral shape {coeffs.shape}"
        ) from None
    return field_from_coeffs(f.grid, product)


def pad_factor_for_power(p: int) -> int:
    """Zero-padding factor that makes the truncated p-th power alias-free."""
    if p < 2:
        raise ValueError("power must be at least 2")
    return math.ceil((p + 1) / 2)


def integer_power(v: np.ndarray, p: int) -> np.ndarray:
    """v**p for an integer p >= 1 by repeated squaring: about log2(p)
    multiplications instead of libm pow per element, agreeing with v**p to
    a few ulp per multiplication.  Overflow gives +-inf as v**p does.  For
    p = 1 the result is v itself."""
    if p < 1:
        raise ValueError(f"power must be a positive integer, got {p}")
    out = None
    while True:
        if p & 1:
            out = v if out is None else out * v
        p >>= 1
        if p == 0:
            return out
        v = v * v


@lru_cache(maxsize=64)
def _leading_index(N: int, M: int, n: int) -> tuple[np.ndarray, ...]:
    """Open-mesh index, on the M-point lattice, of the modes k of the
    N-point lattice (FFT order) along every axis but the last."""
    k = np.fft.fftfreq(N, 1.0 / N).astype(int) % M
    k.flags.writeable = False
    return np.ix_(*[k] * (n - 1))


def _samples(grid: TorusGrid, coeffs: np.ndarray, M: int) -> np.ndarray:
    """Real samples on the M-point lattice over grid's box of a coefficient
    array of grid, unvalidated: non-finite coefficients give non-finite ones.
    For M > N the coefficients are padded by the Nyquist rule of
    dealiased_pointwise."""
    n, N = grid.n, grid.points_per_axis
    signed = grid._phase_signs * coeffs
    if M > N:
        h = N // 2
        padded = np.zeros((M,) * (n - 1) + (M // 2 + 1,), dtype=complex)
        padded[_leading_index(N, M, n) + (slice(0, h + 1),)] = signed
        padded[..., h] *= 0.5
        for axis in range(n - 1):
            row = (slice(None),) * axis + (M - h,)
            padded[row] *= 0.5
            padded[(slice(None),) * axis + (h,)] = padded[row]
        signed = padded
    scale = (2.0 * np.pi) ** (-n / 2) * grid.freq_spacing**n * M**n
    return scale * np.fft.irfftn(signed)


def dealiased_pointwise(
    grid: TorusGrid, op: Callable[..., np.ndarray], factor: int, *coeffs: np.ndarray
) -> np.ndarray:
    """Coefficients on grid of op applied pointwise to the fields with
    coefficient arrays coeffs, zero-padded to M = factor * N points per
    axis: degree-d products are alias-free for factor >= (d + 1) / 2
    (Orszag 1971).  The signs (-1)^k that put the sample origin at -L/2
    agree on both lattices for every shared mode, so the grid's cached ones
    serve and no padded grid is built.

    Nyquist rule.  A coarse mode at k_i = +-N/2 pairs with itself, and for
    M > N the padded lattice has both -N/2 and +N/2.  Padding splits it
    evenly between the two:
      - copy the half spectrum in, leading axes at k mod M;
      - halve the last-axis column N/2 (irfftn supplies its mirror -N/2);
      - for each leading axis in turn, halve the row at -N/2 (index
        M - N/2) and copy it to +N/2 (index N/2).
    So a mode at a corner of the lattice is split between all its images.
    Truncation takes the padded rows at k mod M and last-axis columns
    0..N/2, so index N/2 holds the padded result's +N/2 coefficient on the
    last axis and its -N/2 coefficient on the leading ones: a product with
    1 keeps half of a mode for each axis on which it sits at Nyquist
    (cos(8x) * 1 -> cos(8x)/2 on N = 16, L = 2*pi).  For M = N nothing is
    split and irfftn takes the real part of the self-paired entries, so the
    samples are those of the real field the coefficients stand for.
    """
    N = grid.points_per_axis
    M = factor * N
    # An overflow here is a blow-up, which the time loops read off the samples.
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.fft.rfftn(op(*(_samples(grid, c, M) for c in coeffs)))
    scale = (2.0 * np.pi) ** (-grid.n / 2) * (grid.box_length / M) ** grid.n
    truncated = half[_leading_index(N, M, grid.n) + (slice(0, N // 2 + 1),)]
    return scale * grid._phase_signs * truncated


def dealiased_product(f: GridField, g: GridField, factor: int = 2) -> GridField:
    """f * g by dealiased_pointwise; factor 2 makes it alias-free."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    coeffs = dealiased_pointwise(
        f.grid, np.multiply, factor, f.spectrum.coeffs, g.spectrum.coeffs
    )
    return field_from_coeffs(f.grid, coeffs)


def dealiased_power(f: GridField, p: int) -> GridField:
    """f**p computed pointwise on a grid padded by ceil((p+1)/2)."""
    power = partial(integer_power, p=p)
    factor = pad_factor_for_power(p)
    coeffs = dealiased_pointwise(f.grid, power, factor, f.spectrum.coeffs)
    return field_from_coeffs(f.grid, coeffs)


def refine_field(f: GridField, factor: int = 2) -> GridField:
    """Spectral interpolation onto a grid with factor times the resolution."""
    grid = f.grid
    fine = make_grid(grid.n, factor * grid.points_per_axis, grid.box_length)
    return GridField(fine, _samples(grid, f.spectrum.coeffs, fine.points_per_axis))


def outer_shell_fraction(f: GridField) -> float:
    """Fraction of the squared mass carried by the outer 10% of each axis."""
    grid = f.grid
    half = grid.box_length / 2
    outer = np.zeros(grid.shape, dtype=bool)
    for x in grid.coords:
        outer = outer | (np.abs(x) > OUTER_SHELL_START * half)
    total = float(np.sum(f.values**2))
    if total == 0.0:
        return 0.0
    return float(np.sum(f.values[outer] ** 2)) / total
