"""Transform correctness against closed-form oracles and algebraic identities."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve

from besov_wave_lab.grid import (
    GridField,
    _coefficients,
    _irfft,
    _rfft,
    _samples,
    apply_symbol,
    dealiased_pointwise,
    dealiased_power,
    dealiased_product,
    field_from_coeffs,
    integer_power,
    make_grid,
    outer_shell_fraction,
    pad_factor_for_power,
    refine_field,
)
from besov_wave_lab import grid as grid_module
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.paraproduct import decomposition_residuals
from fields import field_from_function, hermitian_part

RNG = np.random.default_rng(1234)


class TestMakeGrid:
    def test_integer_lattice_for_2pi_box(self):
        grid = make_grid(1, 8, 2 * np.pi)
        assert sorted(np.rint(grid.axis_freqs).astype(int)) == list(range(-4, 4))
        assert np.allclose(sorted(grid.axis_freqs), np.arange(-4, 4))

    def test_min_nonzero_frequency(self):
        grid = make_grid(2, 16, 32 * np.pi)
        assert grid.freq_spacing == pytest.approx(1 / 16)

    def test_rejects_odd_N(self):
        with pytest.raises(ValueError):
            make_grid(1, 7, 1.0)

    def test_rejects_bad_dimension_and_box(self):
        with pytest.raises(ValueError):
            make_grid(4, 16, 1.0)
        with pytest.raises(ValueError):
            make_grid(1, 16, -2.0)

    def test_spacing_times_N_is_L(self):
        grid = make_grid(1, 48, 7.3)
        assert grid.spacing * grid.points_per_axis == pytest.approx(7.3, rel=1e-15)

    def test_max_frequency_per_axis(self):
        grid = make_grid(1, 64, 16.0)
        assert np.max(np.abs(grid.axis_freqs)) == pytest.approx(np.pi * 64 / 16.0)


class TestForwardTransform:
    def test_constant_field_is_dc_only(self):
        grid = make_grid(1, 32, 5.0)
        mags = np.abs(grid.field(np.ones(grid.shape)).spectrum)
        dc = mags[0]
        assert dc > 0
        assert np.max(mags[1:]) < 1e-14 * dc

    def test_cosine_mass_at_plus_minus_one(self):
        # The half spectrum holds +1; its mirror -1 is implied.
        grid = make_grid(1, 64, 2 * np.pi)
        mags = np.abs(field_from_function(grid, np.cos).spectrum)
        hot = np.argmax(mags)
        assert grid.freqs[0][hot] == pytest.approx(1.0)
        assert np.sum(mags) == pytest.approx(mags[hot], rel=1e-12)

    def test_gaussian_matches_continuum_transform(self):
        # F[exp(-x^2/2)] = exp(-xi^2/2) under the symmetric convention.
        grid = make_grid(1, 128, 40.0)
        F = field_from_function(grid, lambda x: np.exp(-(x**2) / 2)).spectrum
        # The coefficients' origin is the first sample, -L/2; (-1)^k moves it to 0.
        F = (1.0 - 2.0 * (np.arange(F.size) % 2)) * F
        xi = grid.freqs[0]
        mask = np.abs(xi) <= 4.0
        expected = np.exp(-(xi[mask] ** 2) / 2)
        assert np.max(np.abs(F[mask] - expected)) < 1e-8


class TestInverseTransform:
    def test_round_trip_random(self):
        grid = make_grid(1, 128, 11.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        back = field_from_coeffs(grid, f.spectrum)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_dc_delta_gives_constant(self):
        grid = make_grid(1, 32, 8.0)
        coeffs = np.zeros(grid.spectral_shape, dtype=complex)
        coeffs[0] = 3.7
        f = field_from_coeffs(grid, coeffs)
        expected = 3.7 * (2 * np.pi) ** (-0.5) * grid.freq_spacing
        assert np.allclose(f.values, expected, rtol=1e-12)


def apply_multiplier(m, f):
    """The radial multiplier m(|xi|) applied to f."""
    return apply_symbol(m(f.grid.freq_abs), f)


class TestApplyMultiplier:
    def test_identity_multiplier(self):
        grid = make_grid(1, 64, 9.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        out = apply_multiplier(lambda xi: np.ones_like(xi), f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_bracket_power_zero_is_identity(self):
        grid = make_grid(1, 64, 9.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        out = apply_multiplier(lambda xi: (1 + xi**2) ** 0.0, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_laplacian_eigenvalue_on_sine(self):
        # |xi|^2 acting on sin(x) equals -d^2/dx^2 sin(x) = sin(x).
        grid = make_grid(1, 64, 2 * np.pi)
        f = field_from_function(grid, np.sin)
        out = apply_multiplier(lambda xi: xi**2, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_rejects_non_finite_multiplier(self):
        grid = make_grid(1, 16, 4.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="finite"):
                apply_multiplier(lambda xi: 1.0 / xi, f)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_symbol_off_the_spectral_shape(self, n):
        # A grid-shaped symbol, or one that would widen the product, is not
        # a multiplier on the half lattice.
        grid = make_grid(n, 16, 4.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        for shape in (grid.shape, (2,) + grid.spectral_shape):
            with pytest.raises(ValueError, match="spectral shape"):
                apply_symbol(np.ones(shape), f)
        scalar = apply_symbol(np.float64(2.0), f)
        assert np.max(np.abs(scalar.values - 2.0 * f.values)) < 1e-12

    def test_linearity(self):
        grid = make_grid(1, 64, 5.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        g = grid.field(RNG.standard_normal(grid.shape))
        m = lambda xi: np.exp(-(xi**2))
        lhs = apply_multiplier(m, 2.0 * f + 3.0 * g)
        rhs = 2.0 * apply_multiplier(m, f) + 3.0 * apply_multiplier(m, g)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_composition(self):
        grid = make_grid(2, 32, 5.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        m1 = lambda xi: np.cos(xi)
        m2 = lambda xi: 1.0 / (1 + xi**2)
        lhs = apply_multiplier(m1, apply_multiplier(m2, f))
        rhs = apply_multiplier(lambda xi: m1(xi) * m2(xi), f)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


class TestParseval:
    @pytest.mark.parametrize("n,N", [(1, 128), (2, 32)])
    def test_parseval_random_ensemble(self, n, N):
        grid = make_grid(n, N, 6.0)
        weight_x = grid.spacing**n
        weight_xi = grid.freq_spacing**n
        for _ in range(100):
            f = grid.field(RNG.standard_normal(grid.shape))
            l2_x = np.sqrt(weight_x * np.sum(f.values**2))
            power = grid.mode_weight * np.abs(f.spectrum) ** 2
            l2_xi = np.sqrt(weight_xi * np.sum(power))
            assert l2_x == pytest.approx(l2_xi, rel=1e-12)


EVEN_N = st.integers(4, 12).map(lambda half: 2 * half)
BOXES = st.floats(0.5, 200.0)
SEEDS = st.integers(0, 2**32 - 1)


def _full_spectrum(f):
    """The coefficients of f on the whole lattice, FFT order, from a complex
    transform: the test's own view of the forward transform."""
    grid = f.grid
    scale = (2.0 * np.pi) ** (-grid.n / 2) * grid.spacing**grid.n
    return scale * np.fft.fftn(f.values)


class TestTransformProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), N=EVEN_N, L=BOXES, seed=SEEDS)
    def test_round_trip(self, n, N, L, seed):
        grid = make_grid(n, N, L)
        f = grid.field(np.random.default_rng(seed).standard_normal(grid.shape))
        full = _full_spectrum(f)
        assert np.max(np.abs(f.spectrum - full[..., : N // 2 + 1])) < 1e-12 * np.max(
            np.abs(full)
        )
        back = field_from_coeffs(grid, f.spectrum)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), N=EVEN_N, L=BOXES, seed=SEEDS)
    def test_parseval(self, n, N, L, seed):
        grid = make_grid(n, N, L)
        f = grid.field(np.random.default_rng(seed).standard_normal(grid.shape))
        l2_x = np.sqrt(grid.spacing**n * np.sum(f.values**2))
        l2_xi = np.sqrt(grid.freq_spacing**n * np.sum(np.abs(_full_spectrum(f)) ** 2))
        assert l2_x == pytest.approx(l2_xi, rel=1e-12)
        power = grid.mode_weight * np.abs(f.spectrum) ** 2
        assert np.sqrt(grid.freq_spacing**n * np.sum(power)) == pytest.approx(
            l2_xi, rel=1e-12
        )


SAMPLES = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-20, 1e20), st.floats(-1e20, -1e-20)),
    min_size=1,
    max_size=40,
)


class TestIntegerPower:
    @settings(max_examples=100, deadline=None)
    @given(values=SAMPLES, p=st.integers(2, 12))
    def test_matches_pow(self, values, p):
        v = np.array(values)
        expected = v**p
        got = integer_power(v, p)
        assert np.all(np.abs(got - expected) <= 4e-15 * p * np.abs(expected))

    def test_overflow_gives_signed_inf(self):
        v = np.array([1e200, -1e200, 0.0, -2.0])
        with np.errstate(over="ignore"):
            odd = integer_power(v.copy(), 3)
            even = integer_power(v.copy(), 4)
        assert np.array_equal(odd, [np.inf, -np.inf, 0.0, -8.0])
        assert np.array_equal(even, [np.inf, np.inf, 0.0, 16.0])

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            integer_power(np.ones(3), 0)


class TestFieldValidation:
    def test_rejects_nan(self):
        grid = make_grid(1, 16, 1.0)
        vals = np.zeros(grid.shape)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridField(grid, vals)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_samples_have_no_coefficients(self, n, bad):
        # _coefficients checks only the coefficients: the mean mode is the
        # sum of the samples, so one non-finite sample (here in the second
        # field of a stack) fails that check, with no warning on the way.
        # The ensembles hand their samples to it unchecked.
        grid = make_grid(n, 16, 5.0)
        vals = np.random.default_rng(3).standard_normal((2,) + grid.shape)
        vals[(1,) + (5,) * n] = bad
        with pytest.raises(ValueError, match="finite"):
            _coefficients(grid, vals)
        with pytest.raises(ValueError, match="finite"):
            decomposition_residuals(make_blocks(grid), vals, vals[::-1])

    def test_values_immutable(self):
        grid = make_grid(1, 16, 1.0)
        f = grid.field(np.ones(grid.shape))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestDealiasing:
    def test_pad_factors(self):
        assert pad_factor_for_power(2) == 2
        assert pad_factor_for_power(3) == 2
        assert pad_factor_for_power(9) == 5

    def test_product_of_low_band_fields_is_plain_product(self):
        # Both spectra in the lower quarter: no aliasing either way.
        grid = make_grid(1, 64, 2 * np.pi)
        f = field_from_function(grid, lambda x: np.cos(3 * x))
        g = field_from_function(grid, lambda x: np.sin(5 * x))
        plain = grid.field(f.values * g.values)
        deal = dealiased_product(f, g)
        assert np.max(np.abs(plain.values - deal.values)) < 1e-12

    def test_product_near_nyquist_is_alias_free(self):
        # cos(20x)*cos(25x) = (cos(45x) + cos(5x))/2; on N=64/L=2pi the 45
        # mode exceeds Nyquist 32 and must drop, leaving exactly cos(5x)/2.
        grid = make_grid(1, 64, 2 * np.pi)
        f = field_from_function(grid, lambda x: np.cos(20 * x))
        g = field_from_function(grid, lambda x: np.cos(25 * x))
        deal = dealiased_product(f, g)
        expected = field_from_function(grid, lambda x: 0.5 * np.cos(5 * x))
        assert np.max(np.abs(deal.values - expected.values)) < 1e-12
        plain = grid.field(f.values * g.values)
        assert np.max(np.abs(plain.values - expected.values)) > 0.4

    def test_nyquist_mode_is_split_on_the_padded_lattice(self):
        # On N=16/L=2pi, cos(8x) samples to (-1)^j: one self-paired mode at
        # Nyquist.  The padded samples split it into cos(8x) with half the
        # coefficient at each of +-8, and truncation keeps only one of them,
        # so the product halves it: cos(8x)*1 -> cos(8x)/2 and
        # cos(8x)^2 -> 1/2.  In 2-D the mode sits on a leading axis (a row
        # of the half spectrum) or on the last axis (its column N/2).
        for n, axis in ((1, 0), (2, 0), (2, 1)):
            grid = make_grid(n, 16, 2 * np.pi)
            f = field_from_function(grid, lambda *x: np.cos(8 * x[axis]) + 0 * sum(x))
            index = [0] * n
            index[axis] = 8
            assert f.spectrum[tuple(index)] != 0
            one = grid.field(np.ones(grid.shape))
            halved = dealiased_product(f, one)
            assert np.max(np.abs(halved.values - 0.5 * f.values)) < 1e-12
            assert np.max(np.abs(dealiased_product(f, f).values - 0.5)) < 1e-12

    def test_corner_mode_is_split_between_all_its_images(self):
        # cos(8x)cos(8y) on N=16/L=2pi sits at Nyquist on both axes: padding
        # puts a quarter of it at each of (+-8, +-8), so refinement is exact
        # and a product with 1 keeps one quarter.
        grid = make_grid(2, 16, 2 * np.pi)
        corner = lambda x, y: np.cos(8 * x) * np.cos(8 * y)
        f = field_from_function(grid, corner)
        fine = refine_field(f)
        exact = field_from_function(fine.grid, corner)
        assert np.max(np.abs(fine.values - exact.values)) < 1e-12
        one = grid.field(np.ones(grid.shape))
        quartered = dealiased_product(f, one)
        assert np.max(np.abs(quartered.values - 0.25 * f.values)) < 1e-12

    def test_power_alias_free(self):
        # cos(12x)^3 = (3 cos(12x) + cos(36x))/4; only cos(12x) survives
        # truncation at Nyquist 16 on N=32.
        grid = make_grid(1, 32, 2 * np.pi)
        f = field_from_function(grid, lambda x: np.cos(12 * x))
        cubed = dealiased_power(f, 3)
        expected = field_from_function(grid, lambda x: 0.75 * np.cos(12 * x))
        assert np.max(np.abs(cubed.values - expected.values)) < 1e-12

    def test_overflow_is_a_non_finite_field_not_a_warning(self):
        # 1e200 squared or cubed overflows the padded samples.  The kernel and
        # the inverse transform carry the non-finite values through without a
        # floating-point warning, and the field built from them is rejected.
        grid = make_grid(1, 16, 2 * np.pi)
        f = grid.field(np.full(grid.shape, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="field values must be finite"):
                dealiased_product(f, f)
            with pytest.raises(ValueError, match="field values must be finite"):
                dealiased_power(f, 3)


def _nyquist_free_field(grid, seed):
    """A random real field whose coefficients vanish on every Nyquist plane."""
    rng = np.random.default_rng(seed)
    coeffs = grid.field(rng.standard_normal(grid.shape)).spectrum.copy()
    half = grid.points_per_axis // 2
    for axis in range(grid.n):
        index = [slice(None)] * grid.n
        index[axis] = half
        coeffs[tuple(index)] = 0.0
    return field_from_coeffs(grid, coeffs)


def _truncated_convolution(*fields):
    """Half-spectrum coefficients of the product of the fields: the full
    discrete convolution of their whole-lattice spectra, with no aliasing
    by construction, truncated to the half lattice (modes [-N/2, N/2) in
    FFT order on the leading axes, 0..N/2 on the last)."""
    grid = fields[0].grid
    N, n = grid.points_per_axis, grid.n
    acc = np.fft.fftshift(_full_spectrum(fields[0]))
    weight = (2.0 * np.pi) ** (-n / 2) * grid.freq_spacing**n
    for f in fields[1:]:
        acc = weight * convolve(acc, np.fft.fftshift(_full_spectrum(f)), method="direct")
    # Index i of acc holds mode i - len(fields) * N / 2 per axis.
    lo = (len(fields) - 1) * N // 2
    leading = np.fft.ifftshift(acc[(slice(lo, lo + N),) * (n - 1)], axes=range(n - 1))
    return leading[..., lo + N // 2 : lo + N + 1]


GRIDS = st.one_of(
    st.builds(
        make_grid, n=st.sampled_from([1, 2]), N=st.sampled_from([8, 12, 16, 24]), L=BOXES
    ),
    st.builds(make_grid, n=st.just(3), N=st.just(8), L=BOXES),
)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid=GRIDS, seed=SEEDS)
    def test_product_is_truncated_convolution(self, grid, seed):
        f = _nyquist_free_field(grid, seed)
        g = _nyquist_free_field(grid, seed + 1)
        exact = _truncated_convolution(f, g)
        scale = np.max(np.abs(exact))
        kernel = dealiased_pointwise(
            grid, np.multiply, 2, f.spectrum, g.spectrum
        )
        assert np.max(np.abs(kernel - exact)) <= 1e-12 * scale
        out = dealiased_product(f, g).spectrum
        assert np.max(np.abs(out - hermitian_part(grid, exact))) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, p=st.integers(2, 4))
    def test_power_is_truncated_convolution(self, grid, seed, p):
        f = _nyquist_free_field(grid, seed)
        exact = _truncated_convolution(*([f] * p))
        scale = np.max(np.abs(exact))
        out = dealiased_power(f, p).spectrum
        assert np.max(np.abs(out - hermitian_part(grid, exact))) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        N=st.sampled_from([8, 10, 16]),
        factor=st.integers(1, 5),
        seed=SEEDS,
    )
    def test_pad_then_truncate_is_identity(self, n, N, factor, seed):
        # Any coefficients, Nyquist planes zeroed: the identity op on the
        # padded samples returns their Hermitian part, the part the samples
        # carry.
        grid = make_grid(n, N, 3.0)
        rng = np.random.default_rng(seed)
        shape = grid.spectral_shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for axis in range(n):
            index = [slice(None)] * n
            index[axis] = N // 2
            coeffs[tuple(index)] = 0.0
        out = dealiased_pointwise(grid, np.positive, factor, coeffs)
        expected = hermitian_part(grid, coeffs)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestStackedSamples:
    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=10, deadline=None)
    @given(N=st.sampled_from([8, 10, 16]), depth=st.integers(1, 4), seed=SEEDS)
    def test_stack_equals_slices_bit_for_bit(self, n, factor, N, depth, seed):
        # Coefficient arrays stacked on two leading axes, on the grid's own
        # lattice (factor 1) and on padded ones; the kernel with an op that
        # keeps the stacking axis, and the transform back from samples.
        grid = make_grid(n, N, 3.0)
        rng = np.random.default_rng(seed)
        shape = (depth, 2) + grid.spectral_shape
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        M = factor * N
        out = _samples(grid, stack, M)
        assert out.shape == (depth, 2) + (M,) * n
        for i in np.ndindex(depth, 2):
            assert np.array_equal(out[i], _samples(grid, stack[i], M))
        kernel = dealiased_pointwise(grid, np.multiply, factor, stack[:, 0], stack[:, 1])
        back = _coefficients(grid, _samples(grid, stack, N))
        assert kernel.shape == (depth,) + grid.spectral_shape
        for i in range(depth):
            alone = dealiased_pointwise(grid, np.multiply, factor, stack[i, 0], stack[i, 1])
            assert np.array_equal(kernel[i], alone)
            assert np.array_equal(back[i], _coefficients(grid, _samples(grid, stack[i], N)))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _padded_pointwise(grid, op, factor, *coeffs):
    """dealiased_pointwise by the padded transform, from fresh arrays and
    np.fft.rfftn/irfftn, with the Nyquist rule written out (for factor 1
    nothing is padded, so nothing is split)."""
    n, N, h = grid.n, grid.points_per_axis, grid.points_per_axis // 2
    M, axes = factor * N, tuple(range(-grid.n, 0))
    rows = np.ix_(*[np.fft.fftfreq(N, 1.0 / N).astype(int) % M] * (n - 1))
    samples = []
    for c in coeffs:
        padded = np.zeros(c.shape[:-n] + (M,) * (n - 1) + (M // 2 + 1,), dtype=complex)
        padded[(Ellipsis,) + rows + (slice(0, h + 1),)] = c
        padded[..., h] *= 0.5 if M > N else 1.0
        for axis in range(n - 1 if M > N else 0):
            after = (slice(None),) * (n - 1 - axis)
            padded[(Ellipsis, M - h) + after] *= 0.5
            padded[(Ellipsis, h) + after] = padded[(Ellipsis, M - h) + after]
        v = np.fft.irfftn(padded, axes=axes)
        v *= (2.0 * np.pi) ** (-n / 2) * grid.freq_spacing**n * M**n
        samples.append(v)
    half = np.fft.rfftn(op(*samples), axes=axes)
    scale = (2.0 * np.pi) ** (-n / 2) * (grid.box_length / M) ** n
    return np.multiply(scale, half[(Ellipsis,) + rows + (slice(0, h + 1),)], order="C")


def _fresh_pointwise(grid, op, factor, *coeffs):
    """dealiased_pointwise from fresh arrays and np.fft's transforms: the
    reference for the kept buffers.  In 1-D, the decimated transform,
    written out: f = factor rows of N points, twiddled."""
    if grid.n > 1:
        return _padded_pointwise(grid, op, factor, *coeffs)
    N, h = grid.points_per_axis, grid.points_per_axis // 2
    M = factor * N
    phase = np.exp(2j * np.pi / M * (np.arange(factor)[:, None] * np.arange(h + 1) % M))
    inverse = (2.0 * np.pi) ** -0.5 * grid.freq_spacing * N * phase
    forward = (2.0 * np.pi) ** -0.5 * grid.box_length / M * phase.conj()
    samples = [np.fft.irfft(c[..., None, :] * inverse).reshape(c.shape[:-1] + (M,)) for c in coeffs]
    result = op(*samples)
    rows = np.fft.rfft(result.reshape(result.shape[:-1] + (factor, N))) * forward
    out = rows[..., 0, :].copy()
    for r in range(1, factor):
        out += rows[..., r, :]
    return out


class TestDecimatedKernel:
    """In 1-D the kernel samples the M = f N point lattice by f twiddled
    N-point transforms, not one padded M-point transform: the same
    coefficients to rounding, with the Nyquist rule in the twiddles."""

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.sampled_from([8, 10, 12, 16]),
        factor=st.integers(1, 6),
        depth=st.integers(1, 4),
        seed=SEEDS,
    )
    def test_matches_the_padded_transform(self, N, factor, depth, seed):
        # Random spectra, so the Nyquist entry and the imaginary part of the
        # mean mode are nonzero; N = 10 has N/2 odd.  Each slice of a stack
        # is bit for bit the call on its own inputs.
        grid = make_grid(1, N, 3.0)
        rng = np.random.default_rng(seed)
        shape = (depth, 2, N // 2 + 1)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for op, coeffs in [
            (np.multiply, (stack[:, 0], stack[:, 1])),
            (partial(integer_power, p=3), (stack[:, 0],)),
            (np.positive, (stack[:, 1],)),
        ]:
            out = dealiased_pointwise(grid, op, factor, *coeffs)
            expected = _padded_pointwise(grid, op, factor, *coeffs)
            assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
            for i in range(depth):
                alone = dealiased_pointwise(grid, op, factor, *(c[i] for c in coeffs))
                assert _same_bits(out[i], alone)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("point", [0, 5, 13])
    def test_a_non_finite_sample_gives_non_finite_coefficients(self, bad, point):
        # The escape gates read an overflow off the coefficients, whichever
        # of the f rows the non-finite sample sits in, with no warning.
        grid = make_grid(1, 8, 3.0)
        coeffs = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)

        def spoiled(v):
            v[point] = bad
            return v

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dealiased_pointwise(grid, spoiled, 2, coeffs)
        assert not np.any(np.isfinite(out))

    def test_sets_share_one_table_pair_and_hold_no_padded_spectrum(self):
        # Two stackings on one lattice, then a third key that drops the
        # first set, then the first stacking again: four sets built, one
        # table pair for M = 3N, read-only, and none for n = 2.
        grid = make_grid(1, 16, 3.0)
        spectra = RNG.standard_normal((2, 9)) + 1j * RNG.standard_normal((2, 9))
        cube = partial(integer_power, p=3)
        for coeffs, factor in [(spectra[0], 3), (spectra, 3), (spectra, 2), (spectra[0], 3)]:
            dealiased_pointwise(grid, cube, factor, coeffs)
        assert list(grid._lattices) == [(32, (2,), 1), (48, (), 1)]
        assert list(grid._twiddles) == [48, 32]
        inverse, forward = grid._twiddles[48]
        assert inverse.shape == forward.shape == (3, 9)
        assert not inverse.flags.writeable and not forward.flags.writeable
        single = grid._lattices[48, (), 1]
        assert single.inverse is inverse and single.forward is forward
        for kept in grid._lattices.values():
            assert kept.padded is None and kept.index is None
            assert kept.twiddled.shape == kept.samples[0].shape[:-1] + kept.inverse.shape
        plane = make_grid(2, 8, 3.0)
        dealiased_pointwise(plane, cube, 3, np.ones(plane.spectral_shape, dtype=complex))
        assert plane._lattices[24, (), 1].twiddled is None and not plane._twiddles


class TestKeptLattice:
    """dealiased_pointwise writes into buffers kept on the grid; nothing
    that it or _samples returns may alias them, and no call may see what
    the one before it left there."""

    @pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
    def test_consecutive_calls_match_fresh_buffers(self, n, N):
        grid = make_grid(n, N, 5.0)
        rng = np.random.default_rng(7)

        def spectra(*stack):
            shape = stack + grid.spectral_shape
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        cube = partial(integer_power, p=3)
        lattice = "xy"[:n]
        summed = partial(np.einsum, f"...j{lattice},...j{lattice}->...{lattice}")
        calls = [
            (cube, spectra()),
            (cube, spectra()),
            (np.multiply, spectra(3), spectra(3)),
            (np.multiply, spectra(3), spectra(3)),
            (cube, spectra(5)),
            (cube, spectra()),
            (np.multiply, spectra(), spectra()),
            (summed, spectra(2, 4), spectra(2, 4)),
            (cube, spectra(5)),
        ]
        outputs = []
        for op, *coeffs in calls:
            got = dealiased_pointwise(grid, op, 2, *coeffs)
            expected = _fresh_pointwise(grid, op, 2, *coeffs)
            assert _same_bits(got, expected)
            buffers = [
                b
                for kept in grid._lattices.values()
                for b in (kept.padded, kept.twiddled, kept.half) + kept.samples
                if b is not None
            ]
            for out in outputs + [got]:
                assert not any(np.shares_memory(out, b) for b in buffers)
            outputs.append(got)
            samples = _samples(grid, coeffs[0], 2 * N)
            assert not any(np.shares_memory(samples, b) for b in buffers)
            before = samples.copy()
            dealiased_pointwise(grid, cube, 2, coeffs[0])
            assert _same_bits(samples, before)
        # Later calls left the earlier outputs alone.
        for (op, *coeffs), out in zip(calls, outputs):
            assert _same_bits(out, _fresh_pointwise(grid, op, 2, *coeffs))

    @pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
    def test_each_stacking_builds_its_lattice_once(self, monkeypatch, n, N):
        # decomposition_residuals alternates (b,) products and (b, J) block
        # sums on one padded lattice, then a shorter last chunk.  Each
        # stacking keeps its own buffers, built on its first call, the two
        # used last stay, and every call has a fresh grid's bits.
        rng = np.random.default_rng(11)
        shape = make_grid(n, N, 5.0).spectral_shape

        def spectra(*stack):
            return rng.standard_normal(stack + shape) + 1j * rng.standard_normal(stack + shape)

        lattice = "xy"[:n]
        summed = partial(np.einsum, f"...j{lattice},...j{lattice}->...{lattice}")
        calls = [(np.multiply, spectra(3), spectra(3)), (summed, spectra(3, 4), spectra(3, 4))]
        calls = 3 * calls + [(np.multiply, spectra(2), spectra(2))]
        fresh = [dealiased_pointwise(make_grid(n, N, 5.0), op, 2, *c) for op, *c in calls]
        built = []
        original = grid_module._Lattice

        def counted(**kwargs):
            built.append(kwargs["samples"])
            return original(**kwargs)

        monkeypatch.setattr(grid_module, "_Lattice", counted)
        grid = make_grid(n, N, 5.0)
        for (op, *coeffs), expected in zip(calls, fresh):
            assert _same_bits(dealiased_pointwise(grid, op, 2, *coeffs), expected)
        assert len(built) == 3
        assert list(grid._lattices) == [(2 * N, (3, 4), 2), (2 * N, (2,), 2)]

    @pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
    def test_an_unpadded_lattice_splits_no_nyquist_mode(self, n, N):
        # For M = N the kept set pads nothing, so the identity op gives the
        # coefficients of the samples with their Nyquist entries whole,
        # where a split would halve them.
        grid = make_grid(n, N, 5.0)
        rng = np.random.default_rng(3)
        shape = grid.spectral_shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = dealiased_pointwise(grid, np.positive, 1, coeffs)
        expected = _coefficients(grid, _samples(grid, coeffs, N))
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert grid._lattices[N, (), 1].padded is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transform_helpers_match_nd_transforms(self, n):
        rng = np.random.default_rng(n)
        axes = tuple(range(-n, 0))
        values = rng.standard_normal((3,) + (8,) * n)
        half = np.fft.rfftn(values, axes=axes)
        assert _same_bits(_rfft(n, values), half)
        assert _same_bits(_irfft(n, half), np.fft.irfftn(half, axes=axes))
        out = np.empty_like(values)
        assert _irfft(n, half, out=out) is out
        assert _same_bits(out, np.fft.irfftn(half, axes=axes))


class TestRefineAndMonitor:
    def test_refine_preserves_band_limited_samples(self):
        grid = make_grid(1, 32, 2 * np.pi)
        f = field_from_function(grid, lambda x: np.cos(3 * x) + 0.5 * np.sin(7 * x))
        fine = refine_field(f)
        assert fine.grid.points_per_axis == 64
        assert np.max(np.abs(fine.values[::2] - f.values)) < 1e-12

    def test_outer_shell_fraction(self):
        grid = make_grid(1, 256, 100.0)
        centered = field_from_function(grid, lambda x: np.exp(-(x**2)))
        assert outer_shell_fraction(centered) < 1e-12
        edge = field_from_function(grid, lambda x: np.exp(-((np.abs(x) - 50.0) ** 2)))
        assert outer_shell_fraction(edge) > 0.5
        assert outer_shell_fraction(grid.zeros()) == 0.0
