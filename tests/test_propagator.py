"""Propagator symbol and flow against independent ODE/quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from besov_wave_lab.grid import apply_symbol, make_grid
from besov_wave_lab.littlewood_paley import DyadicBlocks, make_blocks
from besov_wave_lab.norms import lebesgue_norm, time_bracket
from besov_wave_lab.profiles import band_limited_random, saturating_low, single_mode
from besov_wave_lab.propagator import (
    DELTA_BAND,
    apply_D,
    damped_L,
    damped_dtL,
    fit_high_growth,
    fit_power_law,
    flow_matrix,
    linear_solution,
    verify_block_estimate,
    verify_block_estimates,
    verify_lp_lq,
)
from besov_wave_lab.reporting import Check

RNG = np.random.default_rng(3)


def mode_ode_oracle(xi: float, t: float) -> tuple[float, float]:
    """Independent adaptive integration of v'' + v' + xi^2 v = 0, v(0)=0, v'(0)=1."""
    sol = solve_ivp(
        lambda _, y: [y[1], -y[1] - xi**2 * y[0]],
        (0.0, t),
        [0.0, 1.0],
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    v, vdot = sol.y[0][-1], sol.y[1][-1]
    return v, vdot


class TestSymbol:
    def test_value_at_zero_frequency(self):
        for t in (0.5, 3.0, 10.0):
            assert damped_L(t, 0.0) == pytest.approx(1 - np.exp(-t), rel=1e-13)

    def test_removable_singularity_value(self):
        for t in (0.1, 1.0, 7.0):
            assert damped_L(t, 0.5) == pytest.approx(t * np.exp(-t / 2), rel=1e-13)

    def test_zero_time(self):
        xi = np.array([0.0, 0.3, 0.5, 0.7, 4.0])
        assert np.all(damped_L(0.0, xi) == 0.0)
        assert np.all(damped_dtL(0.0, xi) == 1.0)

    def test_negative_time_rejected(self):
        for fn in (flow_matrix, damped_L, damped_dtL):
            with pytest.raises(ValueError):
                fn(-1.0, 0.3)

    @pytest.mark.parametrize("t", [0.3, 2.0, 9.0])
    def test_branch_consistency_at_band_edges(self, t):
        # At the band edges the damped symbols agree with the damped closed
        # branch formulas evaluated at the same frequency.
        for xi in (0.5 - DELTA_BAND, 0.5 + DELTA_BAND):
            z = (xi - 0.5) * (xi + 0.5)
            damp = np.exp(-t / 2)
            if z < 0:
                w = np.sqrt(-z)
                closed_L, closed_dt = np.sinh(t * w) / w, np.cosh(t * w)
            else:
                w = np.sqrt(z)
                closed_L, closed_dt = np.sin(t * w) / w, np.cos(t * w)
            assert damped_L(t, xi) == pytest.approx(damp * closed_L, rel=1e-10)
            assert damped_dtL(t, xi) == pytest.approx(
                damp * (closed_dt - 0.5 * closed_L), rel=1e-10
            )

    def test_flow_matrix_entries(self):
        xi = np.linspace(0.0, 3.0, 301)
        e11, e12, e21, e22 = flow_matrix(2.5, xi)
        assert np.array_equal(e12, damped_L(2.5, xi))
        assert np.array_equal(e22, damped_dtL(2.5, xi))
        assert np.array_equal(e11, e22 + e12)
        assert np.array_equal(e21, -(xi**2) * e12)
        assert all(isinstance(e, float) for e in flow_matrix(2.5, 0.3))

    def test_series_fallback_for_large_time(self):
        # Inside the band at large t the series would need many terms; the
        # fallback branch must agree with the damped closed form.
        t = 200.0
        for xi in (0.5 - 0.5 * DELTA_BAND, 0.5 + 0.5 * DELTA_BAND):
            z = (xi - 0.5) * (xi + 0.5)
            if z < 0:
                w = np.sqrt(-z)
                expected = (np.exp(t * (w - 0.5)) - np.exp(-t * (w + 0.5))) / (2 * w)
            else:
                w = np.sqrt(z)
                expected = np.exp(-t / 2) * np.sin(t * w) / w
            assert damped_L(t, xi) == pytest.approx(expected, rel=1e-10)

    def test_damped_symbol_no_overflow_long_time(self):
        xi = np.linspace(0.0, 8.0, 2001)
        vals = damped_L(2000.0, xi)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        N=st.sampled_from([8, 16, 64]),
        k=st.integers(1, 4),
        offset=st.floats(1e-4, 0.9 * DELTA_BAND) | st.floats(-0.9 * DELTA_BAND, -1e-4),
        reach=st.floats(1.05, 3.0),
    )
    def test_stacked_times_match_one_time_at_a_time(self, n, N, k, offset, reach):
        # Mode k of the last axis sits in the band, at |xi| = 1/2 + offset,
        # and the step h reaches past the time where its series test flips,
        # so Gauss nodes on [0, h], as _step_weights takes them, meet the
        # band mode on both sides of it.  Each stacked row must be its own
        # call.
        grid = make_grid(n, N, 2.0 * np.pi * k / (0.5 + offset))
        xi = grid.freq_abs
        z = offset * (1.0 + offset)
        h = reach / math.sqrt(abs(z))
        times = 0.5 * h * (np.polynomial.legendre.leggauss(40)[0] + 1.0)
        series = times**2 * abs(z) <= 1.0
        assert np.any(np.abs(xi - 0.5) <= DELTA_BAND) and np.any(series) and not np.all(series)
        stacked = damped_L(times, xi)
        assert stacked.shape == times.shape + xi.shape
        for row, t in zip(stacked, times):
            assert row.tobytes() == damped_L(float(t), xi).tobytes()

    def test_stacked_times_are_checked(self):
        xi = np.array([0.2, 0.5, 3.0])
        assert damped_L(np.array([0.0]), xi).tolist() == [[0.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match="nonnegative"):
            damped_L(np.array([1.0, -1.0]), xi)

    @pytest.mark.parametrize("xi", [0.0, 0.1, 0.5 - 1e-3, 0.5, 0.5 + 1e-3, 1.0, 4.0])
    def test_mode_ode_residual(self, xi):
        # v(t) = exp(-t/2) L(t, xi) solves the mode equation; central
        # differences at h = 1e-4 leave residual below 1e-6.
        h = 1e-4
        for t in (0.5, 3.0, 17.0, 50.0):
            vm, v0, vp = (damped_L(t + k * h, xi) for k in (-1, 0, 1))
            vdd = (vp - 2 * v0 + vm) / h**2
            vd = (vp - vm) / (2 * h)
            assert abs(vdd + vd + xi**2 * v0) < 1e-6

    @pytest.mark.parametrize("xi", [0.1, 0.5, 0.5 + 1e-3, 2.0])
    def test_damped_symbols_match_ode_oracle(self, xi):
        t = 20.0
        v, vdot = mode_ode_oracle(xi, t)
        assert damped_L(t, xi) == pytest.approx(v, abs=1e-10)
        assert damped_dtL(t, xi) == pytest.approx(vdot, abs=1e-10)


# Frequencies with explicit weight on the zero mode, the threshold and the
# series band around it.
FREQS = st.one_of(
    st.just(0.0),
    st.just(0.5),
    st.floats(0.5 - 2e-3, 0.5 + 2e-3),
    st.floats(0.0, 6.0),
)
TIMES = st.floats(0.0, 120.0)


def _matrix(t: float, xi: float) -> np.ndarray:
    return np.array(flow_matrix(t, xi)).reshape(2, 2)


class TestFlowMatrix:
    @settings(max_examples=300, deadline=None)
    @given(t=TIMES, s=TIMES, xi=FREQS)
    @example(t=0.0, s=0.0, xi=0.5)
    @example(t=120.0, s=120.0, xi=0.0)
    @example(t=1e-3, s=60.0, xi=0.5 + 1e-3)
    def test_semigroup(self, t, s, xi):
        whole = _matrix(t + s, xi)
        split = _matrix(t, xi) @ _matrix(s, xi)
        assert np.max(np.abs(whole - split)) <= 1e-10 * np.max(np.abs(whole))

    @settings(max_examples=300, deadline=None)
    @given(t=TIMES, xi=FREQS)
    @example(t=120.0, xi=0.0)
    @example(t=120.0, xi=0.5)
    def test_wronskian(self, t, xi):
        # v'' + v' + xi^2 v = 0 has trace -1, so det E(t) = exp(-t).  At
        # xi = 0 the e22 entry is only accurate in absolute terms, so the
        # check is scaled by the matrix, not by exp(-t).
        m = _matrix(t, xi)
        assert abs(np.linalg.det(m) - np.exp(-t)) <= 1e-12 * np.max(np.abs(m)) ** 2


class TestFlow:
    def setup_method(self):
        self.grid = make_grid(1, 128, 20 * np.pi)

    def test_apply_D_at_zero_vanishes(self):
        g = self.grid.field(RNG.standard_normal(self.grid.shape))
        assert apply_D(0.0, g).max_abs() < 1e-14

    def test_apply_dtD_at_zero_is_identity(self):
        g = self.grid.field(RNG.standard_normal(self.grid.shape))
        out = apply_symbol(damped_dtL(0.0, self.grid.freq_abs), g)
        assert np.max(np.abs(out.values - g.values)) < 1e-12

    def test_low_mode_against_ode_oracle(self):
        g = single_mode(self.grid, 0.1)
        t = 20.0
        v, _ = mode_ode_oracle(0.1, t)
        out = apply_D(t, g)
        assert np.max(np.abs(out.values - v * g.values)) < 1e-9

    def test_time_derivative_against_central_difference(self):
        g = band_limited_random(self.grid, RNG, 0.2, 3.0, 0.3)
        t, h = 2.5, 1e-4
        fd = (1.0 / (2 * h)) * (apply_D(t + h, g) - apply_D(t - h, g))
        exact = apply_symbol(damped_dtL(t, self.grid.freq_abs), g)
        assert np.max(np.abs(fd.values - exact.values)) < 1e-7

    def test_high_mode_envelope_decay(self):
        g = single_mode(self.grid, 4.0)
        w = np.sqrt(16.0 - 0.25)
        ts = np.linspace(1.0, 30.0, 40)
        compensated = [lebesgue_norm(apply_D(t, g), 2.0) * np.exp(t / 2) for t in ts]
        bound = lebesgue_norm(g, 2.0) / w
        assert max(compensated) <= bound * 1.01
        assert max(compensated) >= bound * 0.5

    def test_linear_solution_initial_condition(self):
        u0 = band_limited_random(self.grid, RNG, 0.2, 3.0, 0.3)
        u1 = band_limited_random(self.grid, RNG, 0.2, 3.0, 0.3)
        out = linear_solution(u0, u1, 0.0)
        assert np.max(np.abs(out.values - u0.values)) < 1e-12

    def test_linear_solution_reduces_to_flow_on_second_slot(self):
        u1 = single_mode(self.grid, 0.4)
        out = linear_solution(self.grid.zeros(), u1, 3.0)
        direct = apply_D(3.0, u1)
        assert np.max(np.abs(out.values - direct.values)) < 1e-13

    def test_grid_mismatch_rejected(self):
        other = make_grid(1, 64, 10.0)
        with pytest.raises(ValueError, match="grids"):
            linear_solution(self.grid.zeros(), other.zeros(), 1.0)


class TestDecayFits:
    def test_heat_regime_l2_rate(self):
        # Mass-carrying low-frequency data decays in L^2 at the 1-D heat
        # rate t^(-1/4) once transients die out.
        grid = make_grid(1, 8192, 2000.0)
        g = saturating_low(grid, q=1.0)
        ts = np.geomspace(1.0, 500.0, 25)
        vals = np.array([lebesgue_norm(apply_D(t, g), 2.0) for t in ts])
        slope, _, _ = fit_power_law(ts, vals, window=(50.0, 500.0))
        assert slope == pytest.approx(-0.25, abs=0.025)

    def test_fit_power_law_recovers_synthetic_exponent(self):
        ts = np.geomspace(10.0, 1000.0, 30)
        vals = 3.0 * ts**-0.7
        slope, _, resid = fit_power_law(ts, vals, window=(100.0, 1000.0))
        assert slope == pytest.approx(-0.7, abs=0.01)
        assert resid < 0.01

    def test_fit_rejects_empty_window(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0]), np.array([0.0, 0.0]))


    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_high_growth_with_a_non_finite_sample_reads_nan(self, bad):
        # Samples C exp(-t/2) <t>^delta give back delta and C.  One
        # non-finite sample after t = 0, or a non-finite high_norm, admits
        # no such bound: an inf sample once read delta = 0, which passes
        # any cap, and a NaN one was dropped with the zeros.  All now read
        # NaN, which fails the check; an exact zero is still left out of
        # the fit.
        ts = np.linspace(0.0, 10.0, 11)
        vals = 2.0 * np.exp(-ts / 2.0) * time_bracket(ts) ** 0.5
        assert fit_high_growth(ts, vals, 1.0) == pytest.approx((0.5, 2.0))
        vals[6] = 0.0
        assert fit_high_growth(ts, vals, 1.0) == pytest.approx((0.5, 2.0))
        assert all(map(math.isnan, fit_high_growth(ts, vals, bad)))
        vals[6] = bad
        delta, const = fit_high_growth(ts, vals, 1.0)
        assert math.isnan(delta) and math.isnan(const)
        assert Check(delta, "<=", 10.0).status == "fail"


class TestVerifyLpLq:
    def test_zero_data(self):
        grid = make_grid(1, 128, 30.0)
        report = verify_lp_lq(
            grid.zeros(), 2.0, 1.0, 0.0, 0.0, np.geomspace(1.0, 30.0, 8)
        )
        table = report.tables["decay"]
        assert all(row[1] == 0.0 for row in table.rows)
        assert report.scalars["max_ratio"] == 0.0

    def test_parameter_validation(self):
        grid = make_grid(1, 64, 10.0)
        g = grid.zeros()
        ts = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            verify_lp_lq(g, 1.0, 1.0, 0.0, 0.0, ts)
        with pytest.raises(ValueError):
            verify_lp_lq(g, 2.0, 3.0, 0.0, 0.0, ts)
        with pytest.raises(ValueError):
            verify_lp_lq(g, 2.0, 1.0, 0.0, 1.0, ts)

    def test_low_frequency_rate_recovered(self):
        grid = make_grid(1, 8192, 2000.0)
        g = saturating_low(grid, q=1.0)
        ts = np.geomspace(5.0, 500.0, 20)
        report = verify_lp_lq(g, 2.0, 1.0, 0.0, 0.0, ts, fit_window=(50.0, 500.0))
        fitted = report.scalars["fitted_low_exponent"]
        expected = report.scalars["expected_low_exponent"]
        assert expected == pytest.approx(-0.25)
        assert abs(fitted - expected) < 0.1 * abs(expected)

    def test_fitted_intercept_stored(self):
        grid = make_grid(1, 1024, 400.0)
        g = saturating_low(grid, q=1.0)
        ts = np.geomspace(2.0, 100.0, 12)
        window = (10.0, 100.0)
        report = verify_lp_lq(g, 2.0, 1.0, 0.0, 0.0, ts, fit_window=window)
        lhs_low = report.tables["decay"].column("lhs_low")
        _, intercept, _ = fit_power_law(ts, np.array(lhs_low), window=window)
        assert report.scalars["fitted_low_intercept"] == intercept


class TestBlockEstimates:
    def test_zero_time_lhs_vanishes(self):
        grid = make_grid(1, 512, 100.0)
        blocks = make_blocks(grid)
        g = band_limited_random(grid, RNG, 0.1, 10.0, 0.4)
        report = verify_block_estimate(g, -2, np.array([0.0, 1.0, 5.0]), blocks=blocks)
        assert report.ratios[0] == 0.0

    def test_low_block_ratios_comparable_across_k(self):
        grid = make_grid(1, 2048, 1000.0)
        blocks = make_blocks(grid)
        g = band_limited_random(grid, np.random.default_rng(12), 0.02, 2.0, 0.0)
        ts = np.geomspace(0.1, 400.0, 30)
        maxima = [
            verify_block_estimate(g, k, ts, blocks=blocks).max_ratio
            for k in (-3, -2)
        ]
        assert max(maxima) / min(maxima) < 3.0

    def test_out_of_range_k(self):
        grid = make_grid(1, 64, 10.0)
        blocks = make_blocks(grid)
        with pytest.raises(ValueError, match="outside"):
            verify_block_estimate(
                grid.zeros(), blocks.j_max + 3, np.array([1.0]), blocks=blocks
            )

    @pytest.mark.parametrize("q, calls", [(2.0, 6 + 2), (4.0, 6 + 1)])
    def test_block_norms_once_per_time_and_exponent(self, monkeypatch, q, calls):
        # One table of the flowed data per time serves every k, and the
        # data's norms are taken once per exponent (q below, p above).
        grid = make_grid(1, 256, 50.0)
        blocks = make_blocks(grid)
        g = band_limited_random(grid, np.random.default_rng(4), 0.1, 5.0, 0.0)
        ts = np.geomspace(0.5, 20.0, 6)
        ks = (-2, -1, 1, 2)
        exponents = []
        block_norms = DyadicBlocks.block_norms

        def counted(self, coeffs, p):
            exponents.append(p)
            return block_norms(self, coeffs, p)

        monkeypatch.setattr(DyadicBlocks, "block_norms", counted)
        reports = verify_block_estimates(g, ks, ts, p=4.0, q=q, blocks=blocks)
        assert len(exponents) == calls
        assert [(r.k, r.side) for r in reports] == [
            (-2, "low"), (-1, "low"), (1, "high"), (2, "high")
        ]
        monkeypatch.undo()
        for r in reports:
            alone = verify_block_estimate(g, r.k, ts, p=4.0, q=q, blocks=blocks)
            assert alone.ratios.tobytes() == r.ratios.tobytes()
            assert alone.fitted_exponent == r.fitted_exponent
