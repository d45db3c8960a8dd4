"""Cutoff profile and dyadic projection properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_wave_lab.grid import make_grid
from besov_wave_lab.littlewood_paley import (
    TRANSITION_END,
    CutoffProfile,
    DyadicBlocks,
    chi,
    default_j_range,
    make_blocks,
)
from besov_wave_lab.norms import lebesgue_norm

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
        assert 2.0 ** (lo - 1) * TRANSITION_END < grid.min_freq

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

    def test_truncated_range_detected(self):
        grid = make_grid(1, 256, 64.0)
        lo, hi = default_j_range(grid)
        crippled = DyadicBlocks(grid=grid, j_min=lo, j_max=hi - 2)
        assert crippled.partition_residual() > 0.9

    def test_defective_user_cutoff_detected(self):
        # A profile whose plateau misses 1 cannot telescope to a partition,
        # and the residual shows it.
        class Leaky(CutoffProfile):
            def eval(self, t):
                return 0.99 * chi(t)

        grid = make_grid(1, 256, 64.0)
        lo, hi = default_j_range(grid)
        blocks = DyadicBlocks(grid=grid, j_min=lo, j_max=hi, cutoff=Leaky())
        assert blocks.partition_residual() > 1e-3


class TestBlockNorms:
    @settings(max_examples=40, deadline=None)
    @given(**GRID_ARGS, seed=st.integers(0, 2**32 - 1))
    def test_parseval_norms_match_block_fields(self, n, N, L, seed):
        # p = 2 sums |c|^2 over the half lattice; the oracle transforms
        # every block back and takes its quadrature L^2 norm.
        grid = make_grid(n, N, L)
        f = grid.field(np.random.default_rng(seed).standard_normal(grid.shape))
        blocks = make_blocks(grid)
        direct = [lebesgue_norm(blocks.block(f, j), 2.0) for j in blocks.indices()]
        np.testing.assert_allclose(
            blocks.block_norms(f, 2.0), direct, rtol=1e-12, atol=1e-15 * max(direct)
        )


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
