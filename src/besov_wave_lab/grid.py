"""Periodic torus discretization and Fourier-multiplier machinery.

The torus [-L/2, L/2)^n stands in for whole space; frequencies live on the
lattice 2*pi*k/L with k per-axis in [-N/2, N/2).  Transforms carry the
symmetric (2*pi)^(-n/2) normalization with the quadrature weight dx^n
absorbed into the forward transform, so discrete norms converge to their
continuum counterparts as N and L grow.

Every transform is a real one (rfftn/irfftn): coefficient arrays stay full
(N,)*n in FFT order, and _complete rebuilds them from a half spectrum by
Hermitian completion.  Every padded pointwise product goes through one
alias-free kernel, dealiased_pointwise: coefficient arrays in, one inverse
transform per input on the zero-padded lattice, the op on the real samples,
one forward transform, truncation back.  _samples is the one map from
coefficients to samples on any lattice, field_from_coeffs the one way from
coefficients to a GridField, and integer_power the one pointwise power (by
repeated squaring, not libm pow).
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
    "apply_multiplier",
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

    Frequencies are 2*pi*k/L for integer k in [-N/2, N/2) per axis, stored
    in FFT order.  N must be even so the lattice is symmetric up to the
    Nyquist mode.
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
        """Frequency arrays broadcast to the grid shape, FFT order."""
        xi = self.axis_freqs
        return tuple(
            xi.reshape((1,) * d + (-1,) + (1,) * (self.n - d - 1)) for d in range(self.n)
        )

    @cached_property
    def freq_abs(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for xi in self.freqs:
            out = out + xi**2
        return np.sqrt(out)

    @cached_property
    def _phase_signs(self) -> np.ndarray:
        # Relates samples at x_j = -L/2 + j*dx to the FFT's x_j = j*dx origin:
        # exp(i*(L/2)*xi_k) = (-1)^k per axis, and k = index mod N, N even.
        return 1.0 - 2.0 * (sum(np.indices(self.shape, sparse=True)) % 2)

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
    """Complex Fourier coefficients on the frequency lattice, FFT order."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("spectral coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def hermitian_defect(self) -> float:
        """Max |coeffs(-k) - conj(coeffs(k))| over the lattice."""
        reflected = self.coeffs
        for axis in range(self.grid.n):
            reflected = np.roll(np.flip(reflected, axis=axis), 1, axis=axis)
        return float(np.max(np.abs(reflected - np.conj(self.coeffs))))


def forward_transform(f: GridField) -> SpectralField:
    """Discrete analogue of the symmetric-normalization Fourier transform."""
    grid = f.grid
    scale = (2.0 * np.pi) ** (-grid.n / 2) * grid.spacing**grid.n
    half = np.fft.rfftn(f.values)
    N = grid.points_per_axis
    return SpectralField(grid, scale * grid._phase_signs * _complete(half, N, N))


def inverse_transform(F: SpectralField, *, hermitian_tol: float = 1e-10) -> GridField:
    """Invert forward_transform; the input must be Hermitian-symmetric
    (relative defect below hermitian_tol), so that the samples are real."""
    scale_ref = float(np.max(np.abs(F.coeffs)))
    defect = F.hermitian_defect()
    if defect > hermitian_tol * max(scale_ref, 1e-300):
        raise ValueError(f"spectrum is not Hermitian-symmetric (defect {defect:.3e})")
    return field_from_coeffs(F.grid, F.coeffs)


def field_from_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> GridField:
    """The real field on grid whose coefficient array is coeffs."""
    return GridField(grid, _samples(grid, coeffs, grid.points_per_axis))


def apply_multiplier(m: Callable[[np.ndarray], np.ndarray], f: GridField) -> GridField:
    """Apply the radial Fourier multiplier m(|xi|) to f.

    m receives the array of frequency magnitudes and must return finite
    real values at every lattice point.
    """
    grid = f.grid
    symbol = np.asarray(m(grid.freq_abs), dtype=float)
    return apply_symbol(symbol, f)


def apply_symbol(symbol: np.ndarray, f: GridField) -> GridField:
    """Apply a precomputed real symbol array (grid-shaped) to f."""
    grid = f.grid
    symbol = np.broadcast_to(symbol, grid.shape)
    if not np.all(np.isfinite(symbol)):
        raise ValueError("multiplier produced non-finite values on the lattice")
    return field_from_coeffs(grid, symbol * f.spectrum.coeffs)


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
def _leading_index(N: int, M: int, n: int, sign: int) -> tuple[np.ndarray, ...]:
    """Open-mesh index, on the M-point lattice, of the modes sign * k of
    the N-point lattice (FFT order) along every axis but the last."""
    k = sign * np.fft.fftfreq(N, 1.0 / N).astype(int) % M
    k.flags.writeable = False
    return np.ix_(*[k] * (n - 1))


def _samples(grid: TorusGrid, coeffs: np.ndarray, M: int) -> np.ndarray:
    """Real samples on the M-point lattice over grid's box of a coefficient
    array of grid, unvalidated: non-finite coefficients give non-finite ones.

    The samples are those of the Hermitian part (c(k) + conj(c(-k)))/2 of
    the coefficients placed on the M-point lattice, which is what the real
    part of a complex inverse transform gives.  irfftn reads only its half
    (last-axis modes 0..M/2), built here from each mode and its mirror.  So
    for M > N a coarse mode k_i = -N/2, which has no partner +N/2 among the
    coarse modes, is split evenly between -N/2 and +N/2 (in 1-D: c/2 at
    -N/2, which irfftn implies, and conj(c)/2 at +N/2); for M = N it pairs
    with itself and is kept whole.
    """
    n, N = grid.n, grid.points_per_axis
    h = N // 2
    # Last-axis modes 0..D-1 sit on the half lattice as they are; for M = N
    # that includes -N/2, stored at index N/2 = M/2.
    D = h + (M == N)
    signed = grid._phase_signs * coeffs
    half = np.zeros((M,) * (n - 1) + (M // 2 + 1,), dtype=complex)
    half[_leading_index(N, M, n, 1) + (slice(0, D),)] = signed[..., :D]
    # Mirror terms: last-axis index d gets the conjugate of the mode at -d
    # (other axes negated too), held at index 0 for d = 0 and N - d for
    # d = 1..N/2.
    mirror = _leading_index(N, M, n, -1)
    half[mirror + (0,)] += np.conj(signed[..., 0])
    half[mirror + (slice(1, h + 1),)] += np.conj(signed[..., : h - 1 : -1])
    # Half of the transform's scale: half holds twice the Hermitian part.
    scale = 0.5 * (2.0 * np.pi) ** (-n / 2) * grid.freq_spacing**n * M**n
    return scale * np.fft.irfftn(half)


def _complete(half: np.ndarray, N: int, M: int) -> np.ndarray:
    """Coefficients (FFT order) of the N-point lattice's modes from rfftn's
    half spectrum of a real array on the M-point lattice, M >= N: mode k is
    half[k mod M] where the last index k mod M is at most M/2, and
    conj(half[-k mod M]) elsewhere, as the samples are real."""
    n = half.ndim
    D = N // 2 + (M == N)
    out = np.empty((N,) * n, dtype=complex)
    out[..., :D] = half[_leading_index(N, M, n, 1) + (slice(0, D),)]
    mirror = _leading_index(N, M, n, -1) + (slice(N - D, 0, -1),)
    out[..., D:] = np.conj(half[mirror])
    return out


def dealiased_pointwise(
    grid: TorusGrid, op: Callable[..., np.ndarray], factor: int, *coeffs: np.ndarray
) -> np.ndarray:
    """Coefficients on grid of op applied pointwise to the fields with
    coefficient arrays coeffs, zero-padded to M = factor * N points per
    axis: degree-d products are alias-free for factor >= (d + 1) / 2
    (Orszag 1971).  The signs (-1)^k that put the sample origin at -L/2
    agree on both lattices for every shared mode, so the grid's cached ones
    serve and no padded grid is built.

    Nyquist modes: the input samples split each unpaired coarse mode
    k_i = -N/2 evenly between -N/2 and +N/2 of the padded lattice (see
    _samples), as the real part of a complex inverse transform does.  On
    the way back no Hermitian projection is made: a coarse mode k_i = -N/2
    gets the padded result's coefficient at -N/2, so the output may be
    unpaired there.  A GridField built from the output takes its Hermitian
    part; a time loop that feeds the output back in keeps it.  For resolved
    data it sits at the rounding floor and moves reports only at rounding
    level.
    """
    N = grid.points_per_axis
    M = factor * N
    # An overflow here is a blow-up, which the time loops read off the samples.
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.fft.rfftn(op(*(_samples(grid, c, M) for c in coeffs)))
    scale = (2.0 * np.pi) ** (-grid.n / 2) * (grid.box_length / M) ** grid.n
    return scale * grid._phase_signs * _complete(half, N, M)


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
