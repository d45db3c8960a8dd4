"""Periodic torus discretization and Fourier-multiplier machinery.

The torus [-L/2, L/2)^n stands in for whole space; frequencies live on the
lattice 2*pi*k/L with k per-axis in [-N/2, N/2).  Transforms carry the
symmetric (2*pi)^(-n/2) normalization with the quadrature weight dx^n
absorbed into the forward transform, so discrete norms converge to their
continuum counterparts as N and L grow.

Fields are real, so half of their Hermitian coefficients carry everything:
the one coefficient format is (2*pi)^(-n/2) dx^n times rfftn's half
spectrum of the samples as stored, of shape spectral_shape =
(N,)*(n-1) + (N//2+1,) (FFT order on the leading axes, modes 0..N/2 on
the last), which freqs, freq_abs and mode_weight share.  Its origin is
the first sample, -L/2, so a coefficient's phase differs by (-1)^k per
axis from the continuum transform's about x = 0.  Nothing reads that
phase: every multiplier is a real symbol of xi and every pointwise op acts
on samples.
Every transform is a real one and goes through one helper pair, _rfft and
_irfft: rfft/irfft on the last axis for n = 1, rfftn/irfftn on the
trailing n axes otherwise (the same bits, without the n-D wrapper).  Every
padded pointwise product goes through one alias-free kernel,
dealiased_pointwise: coefficient arrays in, one inverse transform per
input onto the lattice of M = f N points per axis, the op on the real
samples, one forward transform, truncation back.  For n >= 2 the
transforms run on the zero-padded M-point lattice.  In 1-D they are
decimated: f twiddled N-point transforms, one per residue r of the sample
index mod f, stacked as rows, which pocketfft runs together for less than
one M-point transform.  Its input spectra, sample stacks and forward
spectrum are kept buffers, with the lattice's constants, one set per
grid, lattice and stacked shape (TorusGrid._lattices), written in place
by the transforms; what it returns is always a fresh array.
_power_kernel resolves a power's set once, for a time loop that takes
many.  _samples maps coefficients to samples on any lattice but the
kernel's, which samples its own (twiddled rows in 1-D, a padded _irfft
into its kept buffer for n >= 2), and _coefficients is its inverse on
the grid's own lattice, field_from_coeffs the one way from coefficients
to a GridField, integer_power the one pointwise power (by repeated
squaring, not libm pow), _power the one alias-free power and
_power_sums the one L^p power sum of samples.

Stacked inputs.  _samples, _coefficients and dealiased_pointwise transform
only the trailing n axes, so coefficient or sample arrays stacked on any
leading axes (an ensemble of fields, a stack of dyadic blocks) go through
in one call, and each slice comes out bit for bit what it gives alone.
A GridField holds one unstacked array of samples, and its spectrum is the
read-only coefficient array of them.  The node-batched callers stack the
time nodes of a trajectory: solver.picard_solve's powers u^p, and the
block norms of norms.x_norm and solver.decay_study.  _node_chunks cuts
their nodes into chunks of STACK_POINTS real lattice points per stacked
transform, whole nodes each, so a chunk costs one transform call per
lattice however many nodes it holds.
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
    "make_grid",
    "field_from_coeffs",
    "require_finite",
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
# Real lattice points that one stacked transform of a node-batched caller
# fills with whole nodes (see _node_chunks): 4 nodes of u^p on M = 8192
# padded points, 1 on M = 40960, 8 nodes of block norms at N = 4096, 4 at
# N = 8192.  A row of a stacked transform costs less than a call of its own
# (an 8192-point rfft: 91 us alone, 50 us a row in a stack of 4, on a
# 2-core Xeon), and a fixed budget bounds the stacks' memory whatever the
# number of nodes.
STACK_POINTS = 2**15


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
    def freq_spacing(self) -> float:
        return 2.0 * np.pi / self.box_length

    @property
    def max_freq(self) -> float:
        """Largest |xi| on the lattice (corner mode)."""
        return math.sqrt(self.n) * np.pi * self.points_per_axis / self.box_length

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
    def _axes(self) -> tuple[int, ...]:
        """The trailing n axes, which a field's arrays stacked on leading
        axes reduce over."""
        return tuple(range(-self.n, 0))

    @cached_property
    def _sup_scale(self) -> float:
        """(2*pi)^(-n/2) * dxi^n: every sample of the field with half
        spectrum c is at most _sup_scale * sum(mode_weight * |c|) in size."""
        return (2.0 * np.pi) ** (-self.n / 2) * self.freq_spacing**self.n

    @cached_property
    def _lattices(self) -> dict[tuple, "_Lattice"]:
        """dealiased_pointwise's kept buffers, by padded points per axis,
        stacked shape and number of inputs, the one used last at the end."""
        return {}

    @cached_property
    def _twiddles(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """dealiased_pointwise's 1-D twiddle tables (_twiddle_tables), by
        lattice points M."""
        return {}

    @cached_property
    def _steps(self) -> dict[float, tuple]:
        """solver._step_weights' kept weights, by time step."""
        return {}

    def zeros(self) -> "GridField":
        return GridField(self, np.zeros(self.shape))

    def field(self, values: np.ndarray) -> "GridField":
        return GridField(self, np.asarray(values, dtype=float))


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
        values = require_finite(values).copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The read-only coefficient array of the samples."""
        coeffs = _coefficients(self.grid, self.values)
        coeffs.flags.writeable = False
        return coeffs

    def __add__(self, other: "GridField") -> "GridField":
        self._check_same_grid(other)
        return GridField(self.grid, self.values + other.values)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_same_grid(other)
        return GridField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridField":
        return GridField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def _check_same_grid(self, other: "GridField") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def require_finite(values: np.ndarray, what: str = "field values") -> np.ndarray:
    """values, after raising ValueError if any entry is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    return values


def field_from_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> GridField:
    """The real field on grid whose coefficient array is coeffs."""
    return GridField(grid, _samples(grid, coeffs, grid.points_per_axis))


def apply_symbol(symbol: np.ndarray, f: GridField) -> GridField:
    """Apply a real symbol array to f, such as m(grid.freq_abs) for a radial
    multiplier m.  It must be finite and broadcast to the spectral shape."""
    coeffs = f.spectrum
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
    a few ulp per multiplication.  Overflow gives +-inf as v**p does.  v is
    overwritten, so pass an array that is yours to give up: the result is
    v itself for a power of two (or p = 1), and other powers take one
    array besides it."""
    if p < 1:
        raise ValueError(f"power must be a positive integer, got {p}")
    out = None
    while True:
        if p & 1:
            out = v if out is None else np.multiply(out, v, out=out)
        p >>= 1
        if p == 0:
            return out
        v = np.multiply(v, v, out=None if v is out else v)


def _power_sums(samples: np.ndarray, p: float, n: int, weight: float) -> np.ndarray:
    """weight times the sum of |samples|^p over the trailing n axes, or max |samples| for
    p = inf; samples is overwritten, so pass an array that is yours to give up."""
    axes = tuple(range(-n, 0))
    if p % 2 != 0:  # an even power squares the sign away, bit for bit
        np.abs(samples, out=samples)
    if math.isinf(p):
        return np.max(samples, axis=axes)
    samples = integer_power(samples, int(p)) if p == int(p) else np.power(samples, p, out=samples)
    return weight * np.sum(samples, axis=axes)


def _node_chunks(nodes: int, points: int) -> list[slice]:
    """Slices of nodes in order, STACK_POINTS // points of them a chunk (at
    least one), for a caller that stacks nodes of points real lattice
    points each."""
    size = max(1, STACK_POINTS // points)
    return [slice(start, min(start + size, nodes)) for start in range(0, nodes, size)]


@lru_cache(maxsize=64)
def _leading_index(N: int, M: int, n: int) -> tuple[np.ndarray, ...]:
    """Open-mesh index, on the M-point lattice, of the modes k of the
    N-point lattice (FFT order) along every axis but the last."""
    k = np.fft.fftfreq(N, 1.0 / N).astype(int) % M
    k.flags.writeable = False
    return np.ix_(*[k] * (n - 1))


def _rfft(n: int, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of real values over their trailing n axes, into out if
    given.  Looked up on np.fft at each call, so a wrapper set there counts."""
    if n == 1:
        return np.fft.rfft(values, out=out)
    return np.fft.rfftn(values, axes=tuple(range(-n, 0)), out=out)


def _irfft(n: int, half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _rfft on an even lattice, into out if given."""
    if n == 1:
        return np.fft.irfft(half, out=out)
    return np.fft.irfftn(half, axes=tuple(range(-n, 0)), out=out)


def _coefficients(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Coefficient arrays of samples on grid, stacked as the samples are:
    the discrete analogue of the symmetric-normalization Fourier transform,
    with its origin at the first sample.  Non-finite coefficients raise
    ValueError, and so do non-finite samples, whose sum is the mean mode."""
    scale = (2.0 * np.pi) ** (-grid.n / 2) * grid.spacing**grid.n
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = scale * _rfft(grid.n, values)
    return require_finite(coeffs, "spectral coefficients")


def _samples(grid: TorusGrid, coeffs: np.ndarray, M: int) -> np.ndarray:
    """Real samples on the M-point lattice over grid's box of a coefficient
    array of grid, in a fresh array, under an errstate that ignores
    overflow and invalid: non-finite coefficients give non-finite samples.
    Coefficient arrays stacked on leading axes give samples stacked the
    same way, each slice bit for bit what it gives alone.  For M > N the
    coefficients are padded by the Nyquist rule of dealiased_pointwise.
    For M < N, coeffs must be the M-point half lattice already (modes
    |k| < M/2 taken from grid's, as DyadicBlocks.block_norms restricts
    them); it is transformed as it is."""
    n, N = grid.n, grid.points_per_axis
    with np.errstate(over="ignore", invalid="ignore"):
        if M > N:
            padded = np.zeros(coeffs.shape[:-n] + (M,) * (n - 1) + (M // 2 + 1,), dtype=complex)
            coeffs = _pad_into(padded, coeffs, _pad_index(N, M, n), n)
        out = _irfft(n, coeffs)
        out *= _inverse_scale(grid, M)
        return out


def _pad_index(N: int, M: int, n: int) -> tuple:
    """Index, in the M-point half lattice, of the N-point one: rows at k
    mod M on the leading axes and columns 0..N/2 on the last."""
    return (Ellipsis,) + _leading_index(N, M, n) + (slice(0, N // 2 + 1),)


def _inverse_scale(grid: TorusGrid, M: int) -> float:
    """(2 pi)^(-n/2) dxi^n M^n: irfftn's samples on the M-point lattice
    over grid's box times this are the field's."""
    n = grid.n
    return (2.0 * np.pi) ** (-n / 2) * grid.freq_spacing**n * M**n


def _pad_into(padded: np.ndarray, coeffs: np.ndarray, index: tuple, n: int) -> np.ndarray:
    """padded, holding coeffs at index (_pad_index's) by the Nyquist rule of
    dealiased_pointwise.  It must hold zeros wherever no mode lands; every
    entry written here is rewritten on each call."""
    h = coeffs.shape[-1] - 1  # N/2
    padded[index] = coeffs
    padded[..., h] *= 0.5
    for axis in range(n - 1):
        # Row -h is M - h, the -N/2 row of the leading axis.
        after = (slice(None),) * (n - 1 - axis)
        padded[(Ellipsis, -h) + after] *= 0.5
        padded[(Ellipsis, h) + after] = padded[(Ellipsis, -h) + after]
    return padded


def _twiddle_tables(grid: TorusGrid, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D kernel's read-only tables on the M = f N point lattice, each
    of shape (f, N/2+1), built on the first call for grid and M and kept in
    grid._twiddles: the inverse (2 pi)^(-1/2) dxi N e^(2 pi i k r / M) and
    the forward (2 pi)^(-1/2) (L / M) e^(-2 pi i k r / M)."""
    tables = grid._twiddles.get(M)
    if tables is None:
        N = grid.points_per_axis
        kr = np.arange(M // N)[:, None] * np.arange(N // 2 + 1) % M
        phase = np.exp(2j * np.pi / M * kr)
        forward_scale = (2.0 * np.pi) ** -0.5 * grid.box_length / M
        tables = grid._twiddles[M] = (_inverse_scale(grid, N) * phase, forward_scale * phase.conj())
        for table in tables:
            table.flags.writeable = False
    return tables


def _rows(values: np.ndarray, f: int) -> np.ndarray:
    """values on M = f N points read as f rows of N: entry r N + m of the
    last axis is row r, column m."""
    return values.reshape(values.shape[:-1] + (f, -1))


@dataclass
class _Lattice:
    """dealiased_pointwise's kept set on the lattice of M = f N points per
    axis: one sample stack per input, the spectrum the inverse transforms
    read, the forward half spectrum of the op's samples (None until the
    first call), and the lattice's constants.
      - n = 1, decimated: twiddled holds an input's twiddled rows, of
        shape stack + (f, N/2+1), and padded and index are None; inverse
        and forward are _twiddle_tables', which every set on the lattice
        shares.  A sample stack is the irfft's f rows of N points read as
        M: entry r N + m holds the point x_(f m + r).
      - n >= 2, padded: padded is the padded half spectrum (None for
        M = N, where nothing is padded) and twiddled is None, index the
        grid's half lattice in it (_pad_index: where coefficients are
        copied in and the result is truncated from), and inverse and
        forward the transforms' scales."""

    n: int
    samples: tuple[np.ndarray, ...]
    inverse: float | np.ndarray
    forward: float | np.ndarray
    padded: np.ndarray | None = None
    twiddled: np.ndarray | None = None
    index: tuple | None = None
    half: np.ndarray | None = None

    def apply(self, op: Callable[..., np.ndarray], *coeffs: np.ndarray) -> np.ndarray:
        """dealiased_pointwise's result for op on coeffs, in a fresh array.
        The caller holds an errstate that ignores overflow and invalid."""
        n = self.n
        for c, samples in zip(coeffs, self.samples):
            if n == 1:
                twiddled = np.multiply(c[..., None, :], self.inverse, out=self.twiddled)
                _irfft(1, twiddled, out=_rows(samples, len(self.inverse)))
            else:
                if self.padded is not None:
                    c = _pad_into(self.padded, c, self.index, n)
                _irfft(n, c, out=samples)
                samples *= self.inverse
        result = op(*self.samples)
        if n == 1:
            result = _rows(result, len(self.forward))
        # op may reduce leading axes, so the kept forward spectrum is reused
        # only when it has the result's stacking.
        reuse = self.half is not None and self.half.shape[:-n] == result.shape[:-n]
        self.half = _rfft(n, result, out=self.half if reuse else None)
        if n > 1:
            # C order, as for one field: sums over a field's samples run in memory order.
            return np.multiply(self.forward, self.half[self.index], order="C")
        self.half *= self.forward
        # Row by row, so every slice of a stack sums its rows in one order.
        out = self.half[..., 0, :].copy()
        for r in range(1, len(self.forward)):
            out += self.half[..., r, :]
        return out


def _lattice(grid: TorusGrid, M: int, stack: tuple[int, ...], inputs: int) -> _Lattice:
    """grid's kept set on the M-point lattice for inputs coefficient
    arrays stacked as stack.  The two sets used last are kept, so a caller
    that alternates two stackings builds each once; a third key drops the
    set used least recently before its own is built."""
    n, N = grid.n, grid.points_per_axis
    key = (M, stack, inputs)
    kept = grid._lattices.pop(key, None)
    if kept is None:
        if len(grid._lattices) == 2:
            del grid._lattices[next(iter(grid._lattices))]
        samples = tuple(np.empty(stack + (M,) * n) for _ in range(inputs))
        if n == 1:
            inverse, forward = _twiddle_tables(grid, M)
            kept = _Lattice(
                n=1,
                samples=samples,
                inverse=inverse,
                forward=forward,
                twiddled=np.empty(stack + inverse.shape, dtype=complex),
            )
        else:
            half_shape = stack + (M,) * (n - 1) + (M // 2 + 1,)
            kept = _Lattice(
                n=n,
                samples=samples,
                inverse=_inverse_scale(grid, M),
                forward=(2.0 * np.pi) ** (-n / 2) * (grid.box_length / M) ** n,
                padded=np.zeros(half_shape, dtype=complex) if M > N else None,
                index=_pad_index(N, M, n),
            )
    grid._lattices[key] = kept
    return kept


def dealiased_pointwise(
    grid: TorusGrid, op: Callable[..., np.ndarray], factor: int, *coeffs: np.ndarray
) -> np.ndarray:
    """Coefficients on grid of op applied pointwise to the fields with
    coefficient arrays coeffs, sampled on M = factor * N points per axis:
    degree-d products are alias-free for factor >= (d + 1) / 2 (Orszag
    1971).  Coefficient arrays may be stacked on leading axes, all alike:
    op gets samples stacked the same way, which it may overwrite, and must
    return samples whose trailing n axes are the M-point lattice (it may
    reduce or keep the leading ones), and each output slice is bit for bit
    what its own inputs give alone.  Both lattices start at the same first
    sample, the transform's origin, so a shared mode has one coefficient on
    both and no padded grid is built.  op must act on each point alone
    (pointwise, or a reduction over leading axes): in 1-D the points come
    in decimated order (below).

    Transforms.  With c_k the coefficients, k = 0..N/2, and the lattice
    x_j = -L/2 + j L / M:
      - n = 1, decimated.  Row r = 0..f-1 of the samples is
        y_r[m] = u(x_(f m + r)) = irfft_N(c_k e^(2 pi i k r / M)) times
        (2 pi)^(-1/2) dxi N, one _irfft over (..., f, N/2+1), and the
        sample stack op gets is those rows read as M points: entry r N + m
        holds x_(f m + r).  The result's coefficients are
        sum_r e^(-2 pi i k r / M) rfft_N(y_r)[k] times (2 pi)^(-1/2) L / M,
        one _rfft over (..., f, N), summed over r row by row.  Both scales
        sit in the twiddle tables, built once per grid and M
        (_twiddle_tables).  No M-point transform or padded spectrum is
        formed.
      - n >= 2, padded.  The coefficients are copied into a zero M-point
        half spectrum by the Nyquist rule below, transformed back by one
        _irfft, and the op's samples forward by one _rfft, truncated to
        the grid's half lattice.  pocketfft already runs the leading-axis
        passes over many rows, and decimating showed no gain (a power
        at 256^2, factor 3, p = 5 read 9.0-9.8 ms padded, 9.3-10.1 ms
        with every axis decimated, on a 2-core Xeon).

    Kept sets.  The input spectrum (padded or twiddled), the sample stacks
    op gets and the forward spectrum of what it returns live in
    grid._lattices, one set per M, stacking and number of inputs, of which
    the two used last are kept: a caller that alternates two stackings on
    one lattice builds each set once.  Each set also carries its lattice's
    constants (_Lattice).  A call looks its set up and applies it; a time
    loop that takes many powers resolves its set once (_power_kernel).
    The transforms write into the buffers.  The returned array is always
    fresh, so nothing a caller holds aliases them.  op must not call this
    kernel on the same lattice, and the buffers are not shared between
    threads: the CLI's --jobs runs sweeps in processes, each with its own.

    Nyquist rule.  A coarse mode at k_i = +-N/2 pairs with itself, and for
    M > N the padded lattice has both -N/2 and +N/2.  Padding splits it
    evenly between the two:
      - copy the half spectrum in, leading axes at k mod M;
      - halve the last-axis column N/2 (irfftn supplies its mirror -N/2);
      - for each leading axis in turn, halve the row at -N/2 (index
        M - N/2) and copy it to +N/2 (index N/2).
    So a mode at a corner of the lattice is split between all its images.
    Every entry these steps write is rewritten on each call, so the kept
    padded spectrum is the one a fresh zero array would give.  Truncation
    takes the padded rows at k mod M and last-axis columns 0..N/2, so index
    N/2 holds the padded result's +N/2 coefficient on the last axis and its
    -N/2 coefficient on the leading ones: a product with 1 keeps half of a
    mode for each axis on which it sits at Nyquist (cos(8x) * 1 ->
    cos(8x)/2 on N = 16, L = 2*pi).  In 1-D the twiddles carry the same
    rule: entry N/2 goes in whole, and irfft_N keeps only the real part,
    Re(c e^(i pi r / f)) (-1)^m, which is the split pair's
    (c e^(i pi (f m + r) / f) + conj(c) e^(-i pi (f m + r) / f)) / 2.  The
    forward sum at k = N/2 is the padded result's +N/2 coefficient.  For
    M = N nothing is split and the inverse transform takes the real part
    of the self-paired entries, so the samples are those of the real field
    the coefficients stand for.
    """
    n = grid.n
    kept = _lattice(grid, factor * grid.points_per_axis, coeffs[0].shape[:-n], len(coeffs))
    # An overflow here is a blow-up, which the time loops read off the samples.
    with np.errstate(over="ignore", invalid="ignore"):
        return kept.apply(op, *coeffs)


def dealiased_product(f: GridField, g: GridField) -> GridField:
    """f * g by dealiased_pointwise, padded by 2, which makes it alias-free."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    coeffs = dealiased_pointwise(f.grid, np.multiply, 2, f.spectrum, g.spectrum)
    return field_from_coeffs(f.grid, coeffs)


def _power(grid: TorusGrid, coeffs: np.ndarray, p: int) -> np.ndarray:
    """Alias-free coefficients of u^p from those of u, padded by
    pad_factor_for_power(p); an overflow shows in the samples."""
    power = partial(integer_power, p=p)
    return dealiased_pointwise(grid, power, pad_factor_for_power(p), coeffs)


def _power_kernel(grid: TorusGrid, p: int) -> Callable[[np.ndarray], np.ndarray]:
    """_power(grid, ., p) for one unstacked coefficient array, bit for bit,
    its kept set resolved once here rather than on every call.  Calls
    must hold an errstate that ignores overflow and invalid, as the time
    loops do."""
    kept = _lattice(grid, pad_factor_for_power(p) * grid.points_per_axis, (), 1)
    return partial(kept.apply, partial(integer_power, p=p))


def dealiased_power(f: GridField, p: int) -> GridField:
    """f**p computed pointwise on a grid padded by ceil((p+1)/2)."""
    return field_from_coeffs(f.grid, _power(f.grid, f.spectrum, p))


def refine_field(f: GridField) -> GridField:
    """Spectral interpolation onto a grid with twice the resolution."""
    grid = f.grid
    fine = make_grid(grid.n, 2 * grid.points_per_axis, grid.box_length)
    return GridField(fine, _samples(grid, f.spectrum, fine.points_per_axis))


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
