"""Paraproduct support arithmetic, the repartition identity, product estimates."""

import numpy as np
import pytest

from besov_wave_lab.grid import apply_symbol, dealiased_product, make_grid
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.norms import besov_seminorm, lebesgue_norm
from besov_wave_lab.paraproduct import (
    LeibnizConfig,
    decomposition_residual,
    leibniz_ratio,
    para_R,
    para_T,
)
from besov_wave_lab.profiles import band_limited_random

RNG = np.random.default_rng(21)


def make_pair(grid, rng, lo1, hi1, lo2, hi2, slope=0.3):
    f = band_limited_random(grid, rng, lo1, hi1, slope)
    g = band_limited_random(grid, rng, lo2, hi2, slope)
    return f, g


class TestParaT:
    def setup_method(self):
        self.grid = make_grid(1, 256, 32.0)
        self.blocks = make_blocks(self.grid)

    def test_zero_factor(self):
        f = band_limited_random(self.grid, RNG, 0.5, 4.0, 0.2)
        out = para_T(f, self.grid.zeros(), blocks=self.blocks)
        assert out.max_abs() == 0.0

    def test_same_annulus_kills_low_high_pairing(self):
        # With both spectra in one annulus, the low-pass factor vanishes on
        # every block where the second factor lives.
        f, g = make_pair(self.grid, np.random.default_rng(4), 2.2, 3.8, 2.2, 3.8)
        out = para_T(f, g, blocks=self.blocks)
        scale = lebesgue_norm(dealiased_product(f, g), 2.0)
        assert lebesgue_norm(out, 2.0) < 1e-12 * max(scale, 1.0)

    def test_separated_spectra_recover_full_product(self):
        # f three octaves below g: the paraproduct with f low captures fg,
        # the reversed one vanishes.
        f, g = make_pair(self.grid, np.random.default_rng(5), 0.15, 0.4, 4.0, 10.0)
        product = dealiased_product(f, g)
        tfg = para_T(f, g, blocks=self.blocks)
        tgf = para_T(g, f, blocks=self.blocks)
        scale = lebesgue_norm(product, 2.0)
        assert lebesgue_norm(tfg - product, 2.0) / scale < 1e-10
        assert lebesgue_norm(tgf, 2.0) / scale < 1e-10

    def test_bilinearity(self):
        rng = np.random.default_rng(6)
        f1, g = make_pair(self.grid, rng, 0.3, 2.0, 1.0, 8.0)
        f2 = band_limited_random(self.grid, rng, 0.3, 2.0, 0.3)
        lhs = para_T(2.0 * f1 + 3.0 * f2, g, blocks=self.blocks)
        rhs = 2.0 * para_T(f1, g, blocks=self.blocks) + 3.0 * para_T(
            f2, g, blocks=self.blocks
        )
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


class TestParaR:
    def setup_method(self):
        self.grid = make_grid(1, 256, 32.0)
        self.blocks = make_blocks(self.grid)

    def test_symmetry(self):
        f, g = make_pair(self.grid, np.random.default_rng(7), 0.5, 6.0, 0.5, 6.0)
        ab = para_R(f, g, blocks=self.blocks)
        ba = para_R(g, f, blocks=self.blocks)
        assert np.max(np.abs(ab.values - ba.values)) < 1e-12

    def test_separated_spectra_vanish(self):
        f, g = make_pair(self.grid, np.random.default_rng(8), 0.15, 0.4, 4.0, 10.0)
        out = para_R(f, g, blocks=self.blocks)
        scale = lebesgue_norm(dealiased_product(f, g), 2.0)
        assert lebesgue_norm(out, 2.0) / scale < 1e-10

    def test_zero_factor(self):
        g = band_limited_random(self.grid, RNG, 0.5, 4.0, 0.2)
        assert para_R(self.grid.zeros(), g, blocks=self.blocks).max_abs() == 0.0

    def test_single_annulus_square_lives_in_remainder(self):
        f = band_limited_random(self.grid, np.random.default_rng(9), 2.2, 3.8, 0.0)
        square = dealiased_product(f, f)
        rem = para_R(f, f, blocks=self.blocks)
        scale = lebesgue_norm(square, 2.0)
        assert lebesgue_norm(rem - square, 2.0) / scale < 1e-10


class TestDecomposition:
    def setup_method(self):
        self.grid = make_grid(1, 256, 32.0)
        self.blocks = make_blocks(self.grid)

    def test_random_band_limited_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            f, g = make_pair(self.grid, rng, 0.3, 6.0, 0.3, 6.0, slope=0.4)
            assert decomposition_residual(f, g, blocks=self.blocks) < 1e-10

    def test_two_dimensional_pair(self):
        grid = make_grid(2, 64, 16.0)
        blocks = make_blocks(grid)
        rng = np.random.default_rng(11)
        f, g = make_pair(grid, rng, 0.5, 4.0, 0.5, 4.0)
        assert decomposition_residual(f, g, blocks=blocks) < 1e-10

    def test_single_mode_pair(self):
        grid = make_grid(1, 128, 2 * np.pi)
        blocks = make_blocks(grid)
        f = grid.field_from_function(lambda x: np.cos(3 * x))
        assert decomposition_residual(f, f, blocks=blocks) < 1e-12

    def test_zero_product(self):
        assert decomposition_residual(self.grid.zeros(), self.grid.zeros()) == 0.0

    def test_aliasing_detector_flags_top_band_energy(self):
        # Energy near Nyquist wraps around without padding: the unpadded
        # recomposition must disagree with the alias-free product.
        ny = self.grid.max_freq
        rng = np.random.default_rng(12)
        f = band_limited_random(self.grid, rng, 0.55 * ny, 0.95 * ny, 0.0)
        g = band_limited_random(self.grid, rng, 0.55 * ny, 0.95 * ny, 0.0)
        assert decomposition_residual(f, g, blocks=self.blocks, dealias=False) > 1e-3
        assert decomposition_residual(f, g, blocks=self.blocks, dealias=True) < 1e-10


def vj_truncate(f, j, *, blocks):
    """Symmetric dyadic truncation: the sum of blocks k with -j <= k <= j."""
    ks = range(max(-j, blocks.j_min), min(j, blocks.j_max) + 1)
    return apply_symbol(sum(blocks.block_multiplier(k) for k in ks), f)


class TestVjTruncation:
    def test_exact_once_band_is_covered(self):
        grid = make_grid(1, 256, 32.0)
        blocks = make_blocks(grid)
        rng = np.random.default_rng(13)
        f, g = make_pair(grid, rng, 0.6, 3.5, 0.6, 3.5)
        product = dealiased_product(f, g)
        for j in range(2, 6):
            vf, vg = vj_truncate(f, j, blocks=blocks), vj_truncate(g, j, blocks=blocks)
            gap = lebesgue_norm(dealiased_product(vf, vg) - product, 2.0)
            if 2.0**j >= 4.0 and 2.0**-j <= 0.3:
                assert gap < 1e-12
        # Severe truncation must lose mass.
        v0f, v0g = vj_truncate(f, 0, blocks=blocks), vj_truncate(g, 0, blocks=blocks)
        assert lebesgue_norm(dealiased_product(v0f, v0g) - product, 2.0) > 1e-3


class TestLeibniz:
    def setup_method(self):
        self.grid = make_grid(1, 256, 32.0)
        self.blocks = make_blocks(self.grid)
        self.cfg = LeibnizConfig(alpha=0.7, r=2.0, p1=4.0, q1=4.0, p2=4.0, q2=4.0)

    def test_config_validates_hoelder(self):
        with pytest.raises(ValueError, match="Hoelder"):
            LeibnizConfig(alpha=0.5, r=2.0, p1=3.0, q1=4.0, p2=4.0, q2=4.0)
        with pytest.raises(ValueError, match="finite"):
            LeibnizConfig(alpha=0.5, r=np.inf, p1=np.inf, q1=np.inf, p2=np.inf, q2=np.inf)

    def test_symmetric_case_equals_halved_ratio(self):
        f = band_limited_random(self.grid, np.random.default_rng(14), 0.5, 6.0, 0.4)
        ratio = leibniz_ratio(f, f, self.cfg, blocks=self.blocks)
        square = dealiased_product(f, f)
        direct = besov_seminorm(square, 0.7, 2.0, blocks=self.blocks) / (
            2.0
            * besov_seminorm(f, 0.7, 4.0, blocks=self.blocks)
            * lebesgue_norm(f, 4.0)
        )
        assert ratio == pytest.approx(direct, rel=1e-12)

    def test_zero_pair_signalled(self):
        with pytest.raises(ValueError, match="undefined"):
            leibniz_ratio(self.grid.zeros(), self.grid.zeros(), self.cfg)

    def test_ensemble_ratio_bounded(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(50):
            f, g = make_pair(self.grid, rng, 0.4, 8.0, 0.4, 8.0, slope=0.6)
            worst = max(worst, leibniz_ratio(f, g, self.cfg, blocks=self.blocks))
        assert 0.0 < worst < 50.0
