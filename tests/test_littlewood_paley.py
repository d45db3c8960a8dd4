"""Cutoff profile and dyadic projection properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_wave_lab import littlewood_paley
from besov_wave_lab.grid import make_grid
from besov_wave_lab.littlewood_paley import (
    TRANSITION_END,
    DyadicBlocks,
    chi,
    default_j_range,
    make_blocks,
)
from besov_wave_lab.norms import lebesgue_norm
from besov_wave_lab.profiles import band_limited_random
from fields import count_transforms, field_from_function

RNG = np.random.default_rng(7)


class TestChi:
    def test_plateau_values(self):
        assert chi(0.0) == 1.0
        assert chi(0.5) == 1.0
        assert chi(1.0) == 1.0
        assert chi(TRANSITION_END) == 0.0
        assert chi(2.0) == 0.0

    def test_transition_monotone_in_unit_interval(self):
        v = chi(1.02)
        assert 0.0 < v < 1.0
        assert v >= chi(1.03)
        ts = np.linspace(0.999, TRANSITION_END + 1e-3, 400)
        vals = chi(ts)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi(-0.1)

    @pytest.mark.parametrize("junction", [1.0, TRANSITION_END])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_smooth_across_junctions(self, junction, order):
        # The profile glues infinitely flat onto its plateaus: central
        # finite differences of orders 1..4 vanish at both junctions and
        # stay finite throughout the transition.
        stencils = {
            1: (np.array([-0.5, 0.0, 0.5]), np.array([-1, 0, 1])),
            2: (np.array([1.0, -2.0, 1.0]), np.array([-1, 0, 1])),
            3: (np.array([-0.5, 1.0, 0.0, -1.0, 0.5]), np.array([-2, -1, 0, 1, 2])),
            4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), np.array([-2, -1, 0, 1, 2])),
        }
        weights, offsets = stencils[order]
        h = 1e-4
        at_junction = np.dot(weights, chi(junction + offsets * h)) / h**order
        assert abs(at_junction) < 1e-6
        h = 1e-3
        for c in np.linspace(1.0 + 3 * h, TRANSITION_END - 3 * h, 25):
            val = np.dot(weights, chi(c + offsets * h)) / h**order
            assert np.isfinite(val)


class TestBlockStructure:
    def test_default_range_covers_lattice(self):
        grid = make_grid(1, 256, 64.0)
        lo, hi = default_j_range(grid)
        assert 2.0 ** (hi) >= grid.max_freq
        assert 2.0 ** (lo - 1) * TRANSITION_END < grid.freq_spacing

    def test_annulus_support(self):
        grid = make_grid(1, 256, 64.0)
        blocks = make_blocks(grid)
        j = 2
        mult = blocks.block_multiplier(j)
        xi = grid.freq_abs
        outside = (xi < 2.0 ** (j - 1)) | (xi > TRANSITION_END * 2.0**j)
        assert np.all(mult[outside] == 0.0)

    def test_low_block_holds_only_dc(self):
        grid = make_grid(1, 256, 64.0)
        blocks = make_blocks(grid)
        low = blocks.low_block_multiplier()
        assert low[0] == 1.0
        assert np.all(low[1:] == 0.0)

    def test_out_of_range_index_rejected(self):
        grid = make_grid(1, 64, 16.0)
        blocks = make_blocks(grid)
        f = grid.field(RNG.standard_normal(grid.shape))
        with pytest.raises(ValueError, match="outside"):
            blocks.block(f, blocks.j_max + 1)


GRID_ARGS = dict(
    n=st.sampled_from([1, 2, 3]),
    N=st.integers(4, 16).map(lambda half: 2 * half),
    L=st.floats(0.5, 200.0),
)


class TestPartition:
    @pytest.mark.parametrize(
        "n,N,L", [(1, 256, 64.0), (1, 256, 13.0), (2, 64, 10.0)]
    )
    def test_partition_residual_tiny(self, n, N, L):
        blocks = make_blocks(make_grid(n, N, L))
        assert blocks.partition_residual() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**GRID_ARGS)
    def test_partition_residual_tiny_on_random_grids(self, n, N, L):
        blocks = make_blocks(make_grid(n, N, L))
        assert blocks.partition_residual() < 1e-12

    def test_truncated_range_detected(self, monkeypatch):
        # A range two blocks short of the grid's leaves the top frequencies
        # uncovered, and the residual shows it.
        grid = make_grid(1, 256, 64.0)
        lo, hi = default_j_range(grid)
        monkeypatch.setattr(littlewood_paley, "default_j_range", lambda g: (lo, hi - 2))
        crippled = make_blocks(grid)
        assert crippled.j_max == hi - 2
        assert crippled.partition_residual() > 0.9

    def test_defective_user_cutoff_detected(self, monkeypatch):
        # A profile whose plateau misses 1 cannot telescope to a partition,
        # and the residual shows it.
        monkeypatch.setattr(littlewood_paley, "chi", lambda t: 0.99 * chi(t))
        blocks = DyadicBlocks(make_grid(1, 256, 64.0))
        assert blocks.partition_residual() > 1e-3


class TestBlockNorms:
    @settings(max_examples=40, deadline=None)
    @given(**GRID_ARGS, seed=st.integers(0, 2**32 - 1))
    def test_parseval_norms_match_block_fields(self, n, N, L, seed):
        # block_norms reduces all blocks at once (p = 2 through Parseval on
        # the half lattice, any other p over one batched inverse transform
        # per lattice); the oracle transforms every block back on its own
        # and takes its quadrature L^p norm.  For odd and infinite p both
        # reduce the same samples with the same powers, so they agree bit
        # for bit; for even p a block may be summed on a coarser lattice,
        # exact up to rounding.  Coefficient arrays stacked on a leading
        # axis give each row's norms bit for bit.
        grid = make_grid(n, N, L)
        f = grid.field(np.random.default_rng(seed).standard_normal(grid.shape))
        blocks = make_blocks(grid)
        stack = np.stack([2.0 * f.spectrum, f.spectrum])
        for p in (1.0, 2.0, 3.0, 4.0, np.inf):
            direct = [lebesgue_norm(blocks.block(f, j), p) for j in blocks.indices()]
            batched = blocks.block_norms(f.spectrum, p)
            np.testing.assert_allclose(
                batched, direct, rtol=1e-12, atol=1e-15 * max(direct)
            )
            if p == 4.0:
                np.testing.assert_allclose(batched, direct, rtol=1e-13, atol=0.0)
            elif p != 2.0:
                np.testing.assert_array_equal(batched, direct)
            np.testing.assert_array_equal(blocks.block_norms(stack, p)[1], batched)


class TestExactLattices:
    """Even-p block norms are summed on the coarsest of N, N/2 and N/4
    points whose trapezoid rule integrates f_j^p exactly: p*K_j < M."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        N=st.integers(4, 32).map(lambda half: 2 * half),
        L=st.floats(0.5, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norms_match_the_grid_quadrature(self, n, N, L, seed):
        grid = make_grid(n, N, L)
        f = grid.field(np.random.default_rng(seed).standard_normal(grid.shape))
        blocks = make_blocks(grid)
        stack = np.stack([f.spectrum, -0.5 * f.spectrum, 3.0j * f.spectrum])
        for p in (4.0, 6.0, 1.0, 3.0, 2.5, np.inf):
            direct = np.array([lebesgue_norm(blocks.block(f, j), p) for j in blocks.indices()])
            batched = blocks.block_norms(f.spectrum, p)
            np.testing.assert_allclose(batched, direct, rtol=1e-13, atol=0.0)
            on_grid = np.ones(len(direct), dtype=bool)
            for lattice in blocks._plan(p):
                if lattice.M < N:
                    assert p % 2 == 0 and lattice.M % 2 == 0
                    assert np.all(p * blocks.extents[lattice.rows] < lattice.M)
                    on_grid[lattice.rows] = False
            np.testing.assert_array_equal(batched[on_grid], direct[on_grid])
            for row in range(len(stack)):
                np.testing.assert_array_equal(
                    blocks.block_norms(stack, p)[row], blocks.block_norms(stack[row], p)
                )

    def test_plan_takes_the_coarsest_exact_lattice(self):
        grid = make_grid(1, 4096, 400.0)
        blocks = make_blocks(grid)
        K = blocks.extents
        assert K[-1] == -1  # j_max holds no lattice mode
        for p in (4.0, 6.0):
            lattices = blocks._plan(p)
            assert [lat.M for lat in lattices] == [4096, 2048, 1024]
            for lat in lattices:
                # Exact on M, and not on the next coarser lattice.
                if lat.M < 4096:
                    assert np.all(p * K[lat.rows] < lat.M)
                if lat.M > 1024:
                    assert np.all(p * K[lat.rows] >= lat.M // 2)
            on = np.concatenate([lat.rows for lat in lattices])
            assert sorted(on) == list(np.flatnonzero(K >= 0))
        for p in (1.0, 3.0, 2.5, np.inf):
            assert [lat.M for lat in blocks._plan(p)] == [4096]
        # Every exponent but an even one shares one plan and its workspace.
        assert blocks._plan(3.0) is blocks._plan(np.inf)

    def test_aliased_lattice_is_wrong(self):
        # Block j = 3 of cos(8x) on N = 64, L = 2*pi is cos(8x) itself, so
        # K_j = 8 and 4*K_j = N/2.  On N/2 points cos(8x)^4 = 3/8 + cos(16x)/2
        # + cos(32x)/8 aliases its last term onto the mean: the sum reads
        # 1/2 where the integral is 3/8.  block_norms keeps it on N.
        grid = make_grid(1, 64, 2 * np.pi)
        f = field_from_function(grid, lambda x: np.cos(8 * x))
        blocks = make_blocks(grid)
        j = 3
        row = j - blocks.j_min
        assert blocks.extents[row] == 8
        exact = lebesgue_norm(blocks.block(f, j), 4.0)
        assert exact == pytest.approx((2 * np.pi * 3 / 8) ** 0.25, rel=1e-14)
        half = littlewood_paley._BlockLattice.build(blocks, 32, np.array([row]))
        samples = half.samples(f.spectrum)
        aliased = (2 * np.pi / 32 * np.sum(samples**4)) ** 0.25
        assert aliased == pytest.approx((2 * np.pi / 2) ** 0.25, rel=1e-14)
        assert blocks.block_norms(f.spectrum, 4.0)[row] == exact


def nikolskii_spectrum(grid, kind, rng, amplitude):
    """A half spectrum on grid, scaled to amplitude: the raw coefficients
    of real samples (a band-limited random field, a Gaussian of random
    width and centre, or a spike at one sample, every phase aligned there),
    or random complex entries, whose self-paired columns are not Hermitian."""
    if kind == "raw":
        shape = grid.spectral_shape
        return amplitude * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if kind == "random":
        xi_hi = 0.8 * np.pi * grid.points_per_axis / grid.box_length
        return band_limited_random(grid, rng, grid.freq_spacing, xi_hi, 0.0, amplitude).spectrum
    if kind == "gaussian":
        width = grid.box_length * rng.uniform(0.02, 0.2)
        centre = rng.uniform(-0.25, 0.25, grid.n) * grid.box_length
        r2 = sum((x - c) ** 2 for x, c in zip(grid.coords, centre))
        return grid.field(amplitude * np.exp(-r2 / (2.0 * width**2))).spectrum
    spike = np.zeros(grid.shape)
    spike[tuple(rng.integers(0, grid.points_per_axis, grid.n))] = amplitude
    return grid.field(spike).spectrum


class TestBracket:
    """DyadicBlocks.nikolskii(p) brackets block norms from above:
    ||f_j||_p <= hi_j ||f_j||_2 for every block of any half spectrum and
    2 <= p <= inf (discrete Nikolskii)."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        half=st.integers(4, 64),
        L=st.floats(1.0, 200.0),
        p=st.sampled_from([2.5, 3.0, 4.0, 8.0]),
        kind=st.sampled_from(["random", "gaussian", "spike", "raw"]),
        exponent=st.floats(-120.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_norms_lie_in_the_bracket(self, n, half, L, p, kind, exponent, seed):
        # The samples keep only the Hermitian part of a self-paired column,
        # which Parseval counts whole, and an underflowing |f|^p only
        # lowers the L^p norm: neither can break the bound.
        grid = make_grid(n, 2 * half if n == 1 else 2 * (half // 4 + 4), L)
        blocks = make_blocks(grid)
        coeffs = nikolskii_spectrum(grid, kind, np.random.default_rng(seed), 10.0**exponent)
        l2, lp = blocks.block_norms(coeffs, 2.0), blocks.block_norms(coeffs, p)
        assert np.all(lp <= blocks.nikolskii(p) * l2 * (1.0 + 1e-12))

    @pytest.mark.parametrize("n, N, L", [(1, 64, 20.0), (2, 16, 7.0)])
    def test_constants(self, n, N, L):
        # m_j counts the lattice modes where annulus j is nonzero, each
        # half-spectrum entry standing for mode_weight of them; at p = inf
        # hi_j is the Cauchy-Schwarz bound (m_j / L^n)^(1/2), at p = 2 it
        # is 1 (Parseval).
        grid = make_grid(n, N, L)
        blocks = make_blocks(grid)
        full = np.fft.fftfreq(N, 1.0 / N)
        ks = np.stack(np.meshgrid(*[full] * n, indexing="ij"), axis=-1).reshape(-1, n)
        xi = 2.0 * np.pi / L * np.sqrt(np.sum(ks**2, axis=-1))
        for row, j in enumerate(blocks.indices()):
            annulus = littlewood_paley.chi(xi / 2.0**j) - littlewood_paley.chi(xi / 2.0 ** (j - 1))
            assert blocks.mode_counts[row] == np.count_nonzero(annulus)
        m = blocks.mode_counts
        np.testing.assert_allclose(blocks.nikolskii(np.inf), np.sqrt(m / L**n), rtol=1e-15)
        np.testing.assert_allclose(blocks.nikolskii(4.0), (m / L**n) ** 0.25, rtol=1e-15)
        np.testing.assert_array_equal(blocks.nikolskii(2.0), 1.0)

    def test_rejects_an_exponent_below_two(self):
        with pytest.raises(ValueError, match="must be >= 2"):
            make_blocks(make_grid(1, 64, 10.0)).nikolskii(1.5)


def _second_call_peak(blocks, coeffs, p):
    """tracemalloc peak of a second block_norms call on a 1-D grid, in real
    block stacks of the whole input (J x N per coefficient array)."""
    blocks.block_norms(coeffs, p)
    tracemalloc.start()
    try:
        blocks.block_norms(coeffs, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = coeffs.size // coeffs.shape[-1]
    return peak / (8.0 * len(blocks.annuli) * rows * blocks.grid.points_per_axis)


class TestBlockNormMemory:
    # A call holds no block stack but the inverse transforms' output: the
    # p != 2 workspaces are kept from the first call and the power squares
    # that output in place, and p = 2 contracts the spectrum without one.
    # For p = 4 the blocks summed on N/2 or N/4 points hold less.
    @pytest.mark.parametrize("N, L, lead", [(4096, 400.0, ()), (256, 32.0, (9,))])
    def test_second_call_peak(self, N, L, lead):
        grid = make_grid(1, N, L)
        f = grid.field(RNG.standard_normal(grid.shape))
        coeffs = np.broadcast_to(f.spectrum, lead + f.spectrum.shape).copy()
        blocks = make_blocks(grid)
        for p in (2.5, np.inf):
            assert _second_call_peak(blocks, coeffs, p) <= 1.5, p
        assert _second_call_peak(blocks, coeffs, 4.0) <= 0.75
        assert _second_call_peak(blocks, coeffs, 2.0) <= 0.25


class TestBlockNormWork:
    # The benchmark's B^0_{4,2} grids: a p = 4 call transforms at most half
    # the points of one J x N block stack (all of them before blocks were
    # summed on N/2 and N/4 points).
    @pytest.mark.parametrize("N, L", [(4096, 400.0), (8192, 800.0)])
    def test_p4_call_transforms_at_most_half_a_stack(self, monkeypatch, N, L):
        grid = make_grid(1, N, L)
        blocks = make_blocks(grid)
        coeffs = grid.field(RNG.standard_normal(grid.shape)).spectrum
        counts = count_transforms(monkeypatch, N)
        blocks.block_norms(coeffs, 4.0)
        assert sum(counts.values()) == 3
        assert sum(counts.points.values()) <= 0.5 * len(blocks.annuli) * N


class TestBlockNormWorkspace:
    def test_interleaved_shapes_match_fresh_blocks(self):
        # The workspace kept between calls is replaced when the stacked
        # shape changes and never shows in a result.
        for n, N, L in ((1, 256, 32.0), (2, 16, 8.0)):
            grid = make_grid(n, N, L)
            one = grid.field(RNG.standard_normal(grid.shape)).spectrum
            three = np.stack([one, -2.0 * one, 0.5j * one])
            blocks = make_blocks(grid)
            for coeffs in (one, three, one, three[1]):
                for p in (1.0, 3.0, 4.0, 2.5, np.inf, 2.0):
                    got = blocks.block_norms(coeffs, p)
                    np.testing.assert_array_equal(got, make_blocks(grid).block_norms(coeffs, p))

    def test_returned_arrays_are_the_callers(self):
        grid = make_grid(1, 256, 32.0)
        coeffs = grid.field(RNG.standard_normal(grid.shape)).spectrum
        blocks = make_blocks(grid)
        for p in (1.0, 4.0, 2.5, np.inf, 2.0):
            expected = blocks.block_norms(coeffs, p).copy()
            blocks.block_norms(coeffs, p)[:] = -1.0
            np.testing.assert_array_equal(blocks.block_norms(coeffs, p), expected)
        # The input is never written either.
        before = coeffs.copy()
        blocks.block_norms(coeffs, 4.0)
        np.testing.assert_array_equal(coeffs, before)


class TestProjections:
    def setup_method(self):
        self.grid = make_grid(1, 256, 32.0)
        self.blocks = make_blocks(self.grid)
        self.f = self.grid.field(RNG.standard_normal(self.grid.shape))

    def test_tilde_widening_identity(self):
        for j in self.blocks.indices():
            if j - 1 < self.blocks.j_min or j + 1 > self.blocks.j_max:
                continue
            bj = self.blocks.block(self.f, j)
            widened = self.blocks.tilde(bj, j)
            assert np.max(np.abs(widened.values - bj.values)) < 1e-12

    def test_complementary_cutoffs_sum_to_identity(self):
        a = 3.0
        total = self.blocks.low_pass(self.f, a) + self.blocks.high_pass(self.f, a)
        assert np.max(np.abs(total.values - self.f.values)) < 1e-12

    def test_single_mode_hits_at_most_adjacent_blocks(self):
        # Spectrum at |xi_0| = 2^{j0}: annuli two or more indices away vanish.
        j0 = 2
        target = 2.0**j0
        axis = self.grid.axis_freqs
        idx = np.argmin(np.abs(axis - target))
        vals = np.cos(axis[idx] * self.grid.axis_coords)
        mode = self.grid.field(vals)
        for j in self.blocks.indices():
            if abs(j - j0) >= 2:
                proj = self.blocks.block(mode, j)
                assert proj.max_abs() < 1e-12

    def test_almost_orthogonality(self):
        for j in self.blocks.indices():
            for k in self.blocks.indices():
                if abs(j - k) >= 2:
                    double = self.blocks.block(self.blocks.block(self.f, j), k)
                    assert lebesgue_norm(double, 2.0) < 1e-14

    def test_projections_commute(self):
        j = 3
        a = 1.7
        p1 = self.blocks.low_pass(self.blocks.block(self.f, j), a)
        p2 = self.blocks.block(self.blocks.low_pass(self.f, a), j)
        assert np.max(np.abs(p1.values - p2.values)) < 1e-12

    def test_reconstruction(self):
        from besov_wave_lab.grid import apply_symbol

        total = apply_symbol(self.blocks.low_block_multiplier(), self.f)
        for j in self.blocks.indices():
            total = total + self.blocks.block(self.f, j)
        assert np.max(np.abs(total.values - self.f.values)) < 1e-12
