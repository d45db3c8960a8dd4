"""Norm evaluators against block arithmetic, Parseval, and scaling oracles."""

import math

import numpy as np
import pytest

from besov_wave_lab.grid import apply_symbol, make_grid
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.norms import (
    ProblemParams,
    Trajectory,
    besov_seminorm,
    interpolation_check,
    interpolation_exponents,
    lebesgue_norm,
    time_bracket,
    x_norm,
    x_weight,
    y_norm,
)
from besov_wave_lab.profiles import band_limited_random, saturating_low

RNG = np.random.default_rng(42)


def annulus_field(grid, j0, rng=RNG, width_frac=0.6):
    """Random real field with spectrum inside the dyadic annulus at 2^j0."""
    lo = 2.0 ** (j0 - 1) * 1.05
    hi = 2.0**j0 * width_frac + 2.0 ** (j0 - 1) * 0.45
    return band_limited_random(grid, rng, lo, max(hi, lo * 1.3), 0.0)


class TestLebesgue:
    def test_constant_box_measure(self):
        grid = make_grid(1, 64, 10.0)
        one = grid.field(np.ones(grid.shape))
        assert lebesgue_norm(one, 1.0) == pytest.approx(10.0, rel=1e-13)

    def test_l2_equals_spectral_l2(self):
        grid = make_grid(1, 128, 7.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        spec = np.sqrt(
            grid.freq_spacing * np.sum(grid.mode_weight * np.abs(f.spectrum.coeffs) ** 2)
        )
        assert lebesgue_norm(f, 2.0) == pytest.approx(spec, rel=1e-12)

    def test_sup_norm_is_max_sample(self):
        grid = make_grid(1, 64, 4.0)
        f = grid.field_from_function(lambda x: np.exp(-(x**2)))
        assert lebesgue_norm(f, math.inf) == np.max(np.abs(f.values))

    def test_rejects_p_below_one(self):
        grid = make_grid(1, 16, 1.0)
        with pytest.raises(ValueError):
            lebesgue_norm(grid.zeros(), 0.5)


class TestBesov:
    def test_zero_field(self):
        grid = make_grid(1, 64, 8.0)
        assert besov_seminorm(grid.zeros(), 1.0, 2.0) == 0.0

    def test_single_annulus_block_arithmetic(self):
        # Mass confined to one annulus: only blocks j0-1..j0+1 contribute,
        # and shifting s by one multiplies the norm by 2^j0 up to a factor 2.
        grid = make_grid(1, 256, 16.0)
        blocks = make_blocks(grid)
        j0 = 2
        f = annulus_field(grid, j0)
        norms = blocks.block_norms(f, 2.0)
        js = np.array(list(blocks.indices()))
        active = js[norms > 1e-12 * norms.max()]
        assert set(active) <= {j0 - 1, j0, j0 + 1}
        s0 = besov_seminorm(f, 1.0, 2.0, blocks=blocks)
        s1 = besov_seminorm(f, 2.0, 2.0, blocks=blocks)
        ratio = s1 / s0
        assert 2.0** (j0 - 1) <= ratio <= 2.0 ** (j0 + 1)

    def test_embedding_into_lebesgue_q4(self):
        # ||f||_{L^4} <= C ||f||_{B^0_{4,2}} with a stable constant across
        # two independent 100-field ensembles.
        grid = make_grid(1, 128, 12.0)
        blocks = make_blocks(grid)
        maxima = []
        for half in range(2):
            rng = np.random.default_rng(100 + half)
            ratios = []
            for _ in range(100):
                f = band_limited_random(grid, rng, 0.7, 12.0, 0.4)
                den = besov_seminorm(f, 0.0, 4.0, blocks=blocks)
                if den > 0:
                    ratios.append(lebesgue_norm(f, 4.0) / den)
            maxima.append(max(ratios))
        assert maxima[0] > 0
        assert abs(maxima[0] - maxima[1]) / maxima[0] < 0.2


def sobolev_norm(f, s, p):
    """L^p norm of <grad>^s f: the oracle the Besov seminorm is held to."""
    lift = (1.0 + f.grid.freq_abs**2) ** (s / 2.0)
    return lebesgue_norm(apply_symbol(lift, f), p)


class TestSobolev:
    def test_s_zero_equals_lebesgue(self):
        grid = make_grid(1, 64, 6.0)
        f = grid.field(RNG.standard_normal(grid.shape))
        assert sobolev_norm(f, 0.0, 3.0) == pytest.approx(
            lebesgue_norm(f, 3.0), rel=1e-12
        )

    def test_single_mode_bracket_power(self):
        grid = make_grid(1, 64, 2 * np.pi)
        f = grid.field_from_function(np.cos)  # |xi| = 1
        assert sobolev_norm(f, 2.0, 2.0) == pytest.approx(
            2.0 * lebesgue_norm(f, 2.0), rel=1e-12
        )

    def test_high_mode_ratio_is_bracket(self):
        grid = make_grid(1, 128, 2 * np.pi)
        f = grid.field_from_function(lambda x: np.cos(9 * x))
        ratio = sobolev_norm(f, 1.0, 2.0) / sobolev_norm(f, 0.0, 2.0)
        assert ratio == pytest.approx(np.sqrt(1 + 81.0), rel=1e-12)

    def test_bernstein_consistency_across_scales(self):
        # On single-annulus fields <xi>^s tracks |xi|^s: the Sobolev/Besov
        # ratio stays inside one fixed window over resolved scales.
        grid = make_grid(1, 512, 16.0)
        blocks = make_blocks(grid)
        s = 1.5
        ratios = []
        for j0 in range(1, 5):
            f = annulus_field(grid, j0)
            ratios.append(
                sobolev_norm(f, s, 2.0) / besov_seminorm(f, s, 2.0, blocks=blocks)
            )
        assert min(ratios) > 0.3
        assert max(ratios) / min(ratios) < 4.0


class TestProblemParams:
    def test_derived_quantities(self):
        pp = ProblemParams(n=1, r=4.0, s=5.0, p_nl=9)
        assert pp.beta == 0.0
        assert pp.eta == pytest.approx((5 - 1) / 2 + 0.5 * (9 / 4 - 0.5))
        assert pp.sigma2 == 4.0
        assert 1.0 < pp.sigma1 < pp.sigma2
        assert pp.fujita == 9.0

    def test_sigma2_low_smoothness_branch(self):
        pp = ProblemParams(n=3, r=3.0, s=1.2, p_nl=2)
        assert 2 * pp.s < pp.n
        assert pp.sigma2 == pytest.approx(min(3.0, 6.0 / (2 * (3 - 2.4))))

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            ProblemParams(n=1, r=2.0, s=1.0, p_nl=2)
        with pytest.raises(ValueError):
            ProblemParams(n=1, r=4.0, s=1.0, p_nl=1)


def constant_trajectory(grid, f, times):
    return Trajectory(np.asarray(times, dtype=float), tuple(f for _ in times))


class TestXNorm:
    def setup_method(self):
        self.grid = make_grid(1, 128, 16.0)
        self.blocks = make_blocks(self.grid)
        self.pp = ProblemParams(n=1, r=4.0, s=2.0, p_nl=3)
        self.f = band_limited_random(self.grid, np.random.default_rng(5), 0.5, 8.0, 0.3)

    def test_zero_trajectory(self):
        traj = constant_trajectory(self.grid, self.grid.zeros(), [0.0, 1.0])
        assert x_norm(traj, self.pp) == 0.0

    def test_single_time_reduces_to_sum_of_norms(self):
        traj = constant_trajectory(self.grid, self.f, [0.0])
        expected = besov_seminorm(self.f, 2.0, 2.0, blocks=self.blocks) + besov_seminorm(
            self.f, 0.0, 4.0, blocks=self.blocks
        )
        assert x_norm(traj, self.pp, blocks=self.blocks) == pytest.approx(
            expected, rel=1e-12
        )

    def test_stationary_trajectory_weight_at_endpoint(self):
        times = np.linspace(0.0, 10.0, 6)
        traj = constant_trajectory(self.grid, self.f, times)
        bs = besov_seminorm(self.f, 2.0, 2.0, blocks=self.blocks)
        br = besov_seminorm(self.f, 0.0, 4.0, blocks=self.blocks)
        expected = float(x_weight(10.0, self.pp)) * bs + br
        assert x_norm(traj, self.pp, blocks=self.blocks) == pytest.approx(
            expected, rel=1e-12
        )

    def test_positive_homogeneity_power_of_two_exact(self):
        traj = constant_trajectory(self.grid, self.f, [0.0, 2.0])
        assert x_norm(traj.scaled(4.0), self.pp, blocks=self.blocks) == 4.0 * x_norm(
            traj, self.pp, blocks=self.blocks
        )


class TestYNorm:
    def setup_method(self):
        self.grid = make_grid(1, 128, 16.0)
        self.blocks = make_blocks(self.grid)

    def test_zero_trajectory(self):
        pp = ProblemParams(n=1, r=4.0, s=1.5, p_nl=3)
        traj = constant_trajectory(self.grid, self.grid.zeros(), [0.0, 1.0])
        assert y_norm(traj, pp) == 0.0

    def test_branch_selection_low_frequency_source(self):
        # A purely low-frequency source has no high-pass part: the
        # smoothness term vanishes for s <= 1 but not for s > 1.
        f = band_limited_random(self.grid, np.random.default_rng(9), 0.3, 0.45, 0.0)
        traj = constant_trajectory(self.grid, f, [0.0])
        pp_low = ProblemParams(n=1, r=4.0, s=0.8, p_nl=3)
        pp_high = ProblemParams(n=1, r=4.0, s=1.5, p_nl=3)
        gamma_term = max(
            besov_seminorm(f, 0.0, g, blocks=self.blocks)
            for g in np.geomspace(pp_low.sigma1, pp_low.sigma2, 8)
        )
        assert y_norm(traj, pp_low, blocks=self.blocks) == pytest.approx(
            gamma_term, rel=1e-12
        )
        assert y_norm(traj, pp_high, blocks=self.blocks) > y_norm(
            traj, pp_low, blocks=self.blocks
        )

    def test_single_time_zero_weights_are_one(self):
        f = band_limited_random(self.grid, np.random.default_rng(11), 0.5, 6.0, 0.2)
        pp = ProblemParams(n=1, r=4.0, s=1.5, p_nl=3)
        traj = constant_trajectory(self.grid, f, [0.0])
        direct = besov_seminorm(f, 0.5, 2.0, blocks=self.blocks) + max(
            besov_seminorm(f, 0.0, g, blocks=self.blocks)
            for g in np.geomspace(pp.sigma1, pp.sigma2, 8)
        )
        assert y_norm(traj, pp, blocks=self.blocks) == pytest.approx(direct, rel=1e-12)


class TestInterpolation:
    def setup_method(self):
        self.grid = make_grid(1, 256, 32.0)
        self.blocks = make_blocks(self.grid)
        self.pp = ProblemParams(n=1, r=4.0, s=2.0, p_nl=3)

    def test_theta_endpoints_give_ratio_one(self):
        f = band_limited_random(self.grid, np.random.default_rng(2), 0.4, 10.0, 0.5)
        for theta in (0.0, 1.0):
            q, alpha = interpolation_exponents(1, 4.0, 2.0, theta)
            ratio = interpolation_check(
                f, self.pp, q, alpha, theta, blocks=self.blocks
            )
            assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_rejects_off_scaling_tuple(self):
        f = band_limited_random(self.grid, np.random.default_rng(3), 0.4, 10.0, 0.5)
        with pytest.raises(ValueError, match="scaling identity"):
            interpolation_check(f, self.pp, 3.0, 0.2, 0.5, blocks=self.blocks)

    def test_midpoint_ensemble_constant_bounded(self):
        theta = 0.5
        q, alpha = interpolation_exponents(1, 4.0, 2.0, theta)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            f = band_limited_random(self.grid, rng, 0.4, 12.0, rng.uniform(0.0, 1.0))
            worst = max(
                worst,
                interpolation_check(f, self.pp, q, alpha, theta, blocks=self.blocks),
            )
        assert 0.0 < worst < 10.0


def test_time_bracket():
    assert time_bracket(0.0) == 1.0
    assert time_bracket(1.0) == pytest.approx(np.sqrt(2.0))
