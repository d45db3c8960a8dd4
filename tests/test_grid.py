"""Transform correctness against closed-form oracles and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve

from besov_wave_lab.grid import (
    GridField,
    SpectralField,
    apply_symbol,
    dealiased_pointwise,
    dealiased_power,
    dealiased_product,
    field_from_coeffs,
    forward_transform,
    integer_power,
    inverse_transform,
    make_grid,
    outer_shell_fraction,
    pad_factor_for_power,
    refine_field,
)

RNG = np.random.default_rng(1234)


class TestMakeGrid:
    def test_integer_lattice_for_2pi_box(self):
        grid = make_grid(1, 8, 2 * np.pi)
        assert sorted(np.rint(grid.axis_freqs).astype(int)) == list(range(-4, 4))
        assert np.allclose(sorted(grid.axis_freqs), np.arange(-4, 4))

    def test_min_nonzero_frequency(self):
        grid = make_grid(2, 16, 32 * np.pi)
        assert grid.min_freq == pytest.approx(1 / 16)

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
        F = forward_transform(grid.field(np.ones(grid.shape)))
        mags = np.abs(F.coeffs)
        dc = mags[0]
        assert dc > 0
        assert np.max(mags[1:]) < 1e-14 * dc

    def test_cosine_mass_at_plus_minus_one(self):
        # The half spectrum holds +1; its mirror -1 is implied.
        grid = make_grid(1, 64, 2 * np.pi)
        F = forward_transform(grid.field_from_function(np.cos))
        mags = np.abs(F.coeffs)
        hot = np.argmax(mags)
        assert grid.freqs[0][hot] == pytest.approx(1.0)
        assert np.sum(mags) == pytest.approx(mags[hot], rel=1e-12)

    def test_gaussian_matches_continuum_transform(self):
        # F[exp(-x^2/2)] = exp(-xi^2/2) under the symmetric convention.
        grid = make_grid(1, 128, 40.0)
        F = forward_transform(grid.field_from_function(lambda x: np.exp(-(x**2) / 2)))
        xi = grid.freqs[0]
        mask = np.abs(xi) <= 4.0
        expected = np.exp(-(xi[mask] ** 2) / 2)
        assert np.max(np.abs(F.coeffs[mask] - expected)) < 1e-8


class TestInverseTransform:
    def test_round_trip_random(self):
        grid = make_grid(1, 128, 11.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_dc_delta_gives_constant(self):
        grid = make_grid(1, 32, 8.0)
        coeffs = np.zeros(grid.spectral_shape, dtype=complex)
        coeffs[0] = 3.7
        f = inverse_transform(SpectralField(grid, coeffs))
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
        f = grid.field_from_function(np.sin)
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
            power = grid.mode_weight * np.abs(f.spectrum.coeffs) ** 2
            l2_xi = np.sqrt(weight_xi * np.sum(power))
            assert l2_x == pytest.approx(l2_xi, rel=1e-12)


EVEN_N = st.integers(4, 12).map(lambda half: 2 * half)
BOXES = st.floats(0.5, 200.0)
SEEDS = st.integers(0, 2**32 - 1)


def _full_spectrum(f):
    """The coefficients of f on the whole lattice, FFT order, from a complex
    transform: the test's own view of the forward transform."""
    grid = f.grid
    signs = 1.0 - 2.0 * (sum(np.indices(grid.shape, sparse=True)) % 2)
    scale = (2.0 * np.pi) ** (-grid.n / 2) * grid.spacing**grid.n
    return scale * signs * np.fft.fftn(f.values)


class TestTransformProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), N=EVEN_N, L=BOXES, seed=SEEDS)
    def test_round_trip(self, n, N, L, seed):
        grid = make_grid(n, N, L)
        f = grid.field(np.random.default_rng(seed).standard_normal(grid.shape))
        F = forward_transform(f)
        full = _full_spectrum(f)
        assert np.max(np.abs(F.coeffs - full[..., : N // 2 + 1])) < 1e-12 * np.max(
            np.abs(full)
        )
        back = inverse_transform(F)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), N=EVEN_N, L=BOXES, seed=SEEDS)
    def test_parseval(self, n, N, L, seed):
        grid = make_grid(n, N, L)
        f = grid.field(np.random.default_rng(seed).standard_normal(grid.shape))
        l2_x = np.sqrt(grid.spacing**n * np.sum(f.values**2))
        l2_xi = np.sqrt(grid.freq_spacing**n * np.sum(np.abs(_full_spectrum(f)) ** 2))
        assert l2_x == pytest.approx(l2_xi, rel=1e-12)
        power = grid.mode_weight * np.abs(f.spectrum.coeffs) ** 2
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
            odd = integer_power(v, 3)
            even = integer_power(v, 4)
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
        f = grid.field_from_function(lambda x: np.cos(3 * x))
        g = grid.field_from_function(lambda x: np.sin(5 * x))
        plain = grid.field(f.values * g.values)
        deal = dealiased_product(f, g)
        assert np.max(np.abs(plain.values - deal.values)) < 1e-12

    def test_product_near_nyquist_is_alias_free(self):
        # cos(20x)*cos(25x) = (cos(45x) + cos(5x))/2; on N=64/L=2pi the 45
        # mode exceeds Nyquist 32 and must drop, leaving exactly cos(5x)/2.
        grid = make_grid(1, 64, 2 * np.pi)
        f = grid.field_from_function(lambda x: np.cos(20 * x))
        g = grid.field_from_function(lambda x: np.cos(25 * x))
        deal = dealiased_product(f, g)
        expected = grid.field_from_function(lambda x: 0.5 * np.cos(5 * x))
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
            f = grid.field_from_function(lambda *x: np.cos(8 * x[axis]) + 0 * sum(x))
            index = [0] * n
            index[axis] = 8
            assert f.spectrum.coeffs[tuple(index)] != 0
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
        f = grid.field_from_function(corner)
        fine = refine_field(f)
        exact = fine.grid.field_from_function(corner)
        assert np.max(np.abs(fine.values - exact.values)) < 1e-12
        one = grid.field(np.ones(grid.shape))
        quartered = dealiased_product(f, one)
        assert np.max(np.abs(quartered.values - 0.25 * f.values)) < 1e-12

    def test_power_alias_free(self):
        # cos(12x)^3 = (3 cos(12x) + cos(36x))/4; only cos(12x) survives
        # truncation at Nyquist 16 on N=32.
        grid = make_grid(1, 32, 2 * np.pi)
        f = grid.field_from_function(lambda x: np.cos(12 * x))
        cubed = dealiased_power(f, 3)
        expected = grid.field_from_function(lambda x: 0.75 * np.cos(12 * x))
        assert np.max(np.abs(cubed.values - expected.values)) < 1e-12


def _nyquist_free_field(grid, seed):
    """A random real field whose coefficients vanish on every Nyquist plane."""
    rng = np.random.default_rng(seed)
    coeffs = grid.field(rng.standard_normal(grid.shape)).spectrum.coeffs.copy()
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


def _hermitian_part(grid, coeffs):
    """The half spectrum a real field keeps of coeffs: the last-axis
    columns 0 and N/2 pair with themselves under k -> -k on the leading
    axes, and become their Hermitian part there."""
    out = coeffs.copy()
    for column in (0, -1):
        kept = coeffs[..., column]
        reflected = kept
        for axis in range(grid.n - 1):
            reflected = np.roll(np.flip(reflected, axis=axis), 1, axis=axis)
        out[..., column] = 0.5 * (kept + np.conj(reflected))
    return out


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
            grid, np.multiply, 2, f.spectrum.coeffs, g.spectrum.coeffs
        )
        assert np.max(np.abs(kernel - exact)) <= 1e-12 * scale
        out = dealiased_product(f, g).spectrum
        assert np.max(np.abs(out.coeffs - _hermitian_part(grid, exact))) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(grid=GRIDS, seed=SEEDS, p=st.integers(2, 4))
    def test_power_is_truncated_convolution(self, grid, seed, p):
        f = _nyquist_free_field(grid, seed)
        exact = _truncated_convolution(*([f] * p))
        scale = np.max(np.abs(exact))
        out = dealiased_power(f, p).spectrum
        assert np.max(np.abs(out.coeffs - _hermitian_part(grid, exact))) <= 1e-12 * scale

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
        expected = _hermitian_part(grid, coeffs)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestRefineAndMonitor:
    def test_refine_preserves_band_limited_samples(self):
        grid = make_grid(1, 32, 2 * np.pi)
        f = grid.field_from_function(lambda x: np.cos(3 * x) + 0.5 * np.sin(7 * x))
        fine = refine_field(f)
        assert fine.grid.points_per_axis == 64
        assert np.max(np.abs(fine.values[::2] - f.values)) < 1e-12

    def test_outer_shell_fraction(self):
        grid = make_grid(1, 256, 100.0)
        centered = grid.field_from_function(lambda x: np.exp(-(x**2)))
        assert outer_shell_fraction(centered) < 1e-12
        edge = grid.field_from_function(lambda x: np.exp(-((np.abs(x) - 50.0) ** 2)))
        assert outer_shell_fraction(edge) > 0.5
        assert outer_shell_fraction(grid.zeros()) == 0.0
