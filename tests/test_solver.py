"""Duhamel recursion, Picard iteration, and the ETD oracle cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from besov_wave_lab.grid import SpectralField, inverse_transform, make_grid
from besov_wave_lab.norms import ProblemParams, Trajectory, lebesgue_norm
from besov_wave_lab.profiles import gaussian, single_mode, slow_decay
from besov_wave_lab.propagator import damped_L, linear_solution
from besov_wave_lab.solver import (
    SolverConfig,
    contraction_report,
    decay_study,
    duhamel_integral,
    etd_oracle,
    first_contraction_ratio,
    picard_solve,
    psi_apply,
    spectral_tail_fraction,
)

PP3 = ProblemParams(n=1, r=4.0, s=2.0, p_nl=3)
PP2 = ProblemParams(n=1, r=4.0, s=2.0, p_nl=2)


def small_gaussian_data(grid, amplitude):
    f = gaussian(grid, width=2.0, amplitude=amplitude)
    return f, f


def constant_source_integral(mode, nodes: int, t: float):
    """Samples of the trapezoid Duhamel integral at t of a source held at
    one field."""
    times = np.linspace(0.0, t, nodes)
    spectra = [mode.spectrum.coeffs for _ in times]
    return duhamel_integral(mode.grid, times, spectra)[-1]


class TestDuhamel:
    def setup_method(self):
        self.grid = make_grid(1, 128, 16 * np.pi)

    def test_zero_source(self):
        times = np.linspace(0.0, 4.0, 65)
        zero = self.grid.zeros().spectrum.coeffs
        out = duhamel_integral(self.grid, times, [zero for _ in times])
        assert len(out) == times.size
        assert all(np.max(np.abs(v)) == 0.0 for v in out)

    def test_constant_single_mode_source_against_quad_oracle(self):
        # Source held at one Fourier mode: the integral reduces to the
        # scalar integral of the damped kernel, done adaptively by quad.
        # Richardson extrapolation of the trapezoid rule on 129 and 257
        # nodes removes its h^2 error term.
        xi0 = 0.5  # exact threshold mode on this box
        mode = single_mode(self.grid, xi0)
        t = 4.0
        exact, err = quad(
            lambda tau: damped_L(t - tau, xi0), 0.0, t, epsabs=1e-12, epsrel=1e-12
        )
        assert err < 1e-10
        coarse = constant_source_integral(mode, 129, t)
        fine = constant_source_integral(mode, 257, t)
        extrapolated = (4.0 * fine - coarse) / 3.0
        assert np.max(np.abs(extrapolated - exact * mode.values)) < 1e-9

    def test_trapezoid_converges_second_order(self):
        xi0 = 0.5
        mode = single_mode(self.grid, xi0)
        t = 4.0
        exact, _ = quad(
            lambda tau: damped_L(t - tau, xi0), 0.0, t, epsabs=1e-13, epsrel=1e-13
        )
        errors = []
        for nodes in (17, 33):
            out = constant_source_integral(mode, nodes, t)
            errors.append(np.max(np.abs(out - exact * mode.values)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)

    def test_recursion_matches_direct_trapezoid_sum(self):
        # On uneven nodes the recursion equals the composite trapezoid sum
        # of e12(t_k - tau_j) F(tau_j) at every node t_k.
        grid = make_grid(1, 64, 20.0)
        rng = np.random.default_rng(7)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.6, 12))])
        fields = [grid.field(rng.standard_normal(grid.shape)) for _ in times]
        out = duhamel_integral(grid, times, [f.spectrum.coeffs for f in fields])
        for k, t in enumerate(times):
            taus = times[: k + 1]
            weights = np.zeros_like(taus)
            weights[:-1] += 0.5 * np.diff(taus)
            weights[1:] += 0.5 * np.diff(taus)
            acc = sum(
                w * damped_L(t - tau, grid.freq_abs) * f.spectrum.coeffs
                for tau, w, f in zip(taus, weights, fields)
            )
            direct = inverse_transform(SpectralField(grid, acc))
            scale = max(direct.max_abs(), 1e-30)
            assert np.max(np.abs(out[k] - direct.values)) <= 1e-12 * scale


class TestPicard:
    def setup_method(self):
        self.grid = make_grid(1, 256, 64.0)

    def test_zero_data_is_zero_in_one_iteration(self):
        cfg = SolverConfig.uniform(2.0, 17, picard_tol=1e-12)
        traj, diag = picard_solve(self.grid.zeros(), self.grid.zeros(), PP3, cfg)
        assert diag.converged
        assert diag.iterations == 1
        assert all(f.max_abs() == 0.0 for _, f in traj)

    def test_linear_mode_matches_linear_solution(self):
        # At amplitude 1e-7 the cubic term is ~1e-14 of the solution, so
        # Picard stops after one correction at the linear flow.  The bound
        # is 1e-12 at amplitude 0.3, scaled with the amplitude.
        amp = 1e-7
        cfg = SolverConfig.uniform(3.0, 25, picard_tol=1e-12)
        u0, u1 = small_gaussian_data(self.grid, amp)
        traj, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.converged and diag.iterations == 1
        for t, f in traj:
            ref = linear_solution(u0, u1, float(t))
            assert np.max(np.abs(f.values - ref.values)) < 1e-12 * amp / 0.3

    def test_initial_condition_exact(self):
        cfg = SolverConfig.uniform(2.0, 17, picard_tol=1e-8)
        u0, u1 = small_gaussian_data(self.grid, 0.02)
        traj, _ = picard_solve(u0, u1, PP3, cfg)
        assert np.max(np.abs(traj.fields[0].values - u0.values)) < 1e-12

    def test_small_data_contraction(self):
        cfg = SolverConfig.uniform(4.0, 33, picard_tol=1e-12, max_iters=12)
        u0, u1 = small_gaussian_data(self.grid, 0.05)
        traj, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.converged
        assert first_contraction_ratio(diag) < 0.5
        # Ratios settle monotonically once the iteration is in regime.
        settled = [r for r in diag.ratios[1:] if r > 0]
        assert all(b <= a * 1.05 for a, b in zip(settled, settled[1:]))

    def test_fixed_point_residual_with_refined_quadrature(self):
        tol = 1e-7
        cfg = SolverConfig.uniform(2.0, 33, picard_tol=tol, max_iters=15)
        u0, u1 = small_gaussian_data(self.grid, 0.01)
        traj, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.converged
        refined = psi_apply(traj, u0, u1, PP3, refine=2)
        diff = Trajectory(
            traj.times,
            tuple(a - b for a, b in zip(refined.fields, traj.fields)),
        )
        from besov_wave_lab.norms import x_norm

        assert x_norm(diff, PP3) < 2 * tol

    def test_first_correction_scales_with_amplitude_power(self):
        cfg = SolverConfig.uniform(2.0, 33, picard_tol=1e-14, max_iters=2)
        firsts = []
        for lam in (0.01, 0.02):
            u0, u1 = small_gaussian_data(self.grid, lam)
            _, diag = picard_solve(u0, u1, PP3, cfg)
            firsts.append(diag.diff_norms[0])
        assert firsts[1] / firsts[0] == pytest.approx(2.0**3, rel=0.05)

    def test_solves_inadmissible_parameters(self):
        # r = 6, s = 0.6, p = 2 keeps the sigma window open but fails the
        # lower power bound min(r/2, 1 + (r-2)/(2s)) = 3 > 2.  Admissibility
        # is the experiment layer's policy; the solver solves what it gets.
        bad = ProblemParams(n=1, r=6.0, s=0.6, p_nl=2)
        cfg = SolverConfig.uniform(1.0, 9)
        traj, diag = picard_solve(self.grid.zeros(), self.grid.zeros(), bad, cfg)
        assert len(traj) == 9
        assert diag.converged

    def test_blowup_flagged(self):
        grid = make_grid(1, 256, 40.0)
        u0 = gaussian(grid, width=2.0, amplitude=1.0)
        cfg = SolverConfig.uniform(8.0, 65, blowup_threshold=20.0, max_iters=30)
        traj, diag = picard_solve(u0, u0, PP2, cfg)
        assert diag.blown_up
        assert diag.escape_time is not None and diag.escape_time > 0


class TestEtdOracle:
    def setup_method(self):
        self.grid = make_grid(1, 256, 64.0)

    def test_linear_exactness(self):
        # At amplitude 1e-7 the cubic term is negligible; the bound is
        # 1e-10 at amplitude 0.3, scaled with the amplitude.
        amp = 1e-7
        u0, u1 = small_gaussian_data(self.grid, amp)
        traj, diag = etd_oracle(u0, u1, PP3, 0.25, 10.0)
        assert not diag.blown_up
        for t, f in traj:
            ref = linear_solution(u0, u1, float(t))
            assert np.max(np.abs(f.values - ref.values)) < 1e-10 * amp / 0.3

    def test_agreement_with_picard_small_data(self):
        u0, u1 = small_gaussian_data(self.grid, 0.05)
        cfg = SolverConfig.uniform(5.0, 81, picard_tol=1e-12, max_iters=12)
        traj_p, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.converged
        traj_e, _ = etd_oracle(
            u0, u1, PP3, 0.0125, 5.0, store_times=cfg.time_grid[1:]
        )
        common = set(np.round(traj_p.times, 9)) & set(np.round(traj_e.times, 9))
        assert len(common) > 40
        gaps = []
        lookup = {round(float(t), 9): f for t, f in traj_e}
        for t, f in traj_p:
            key = round(float(t), 9)
            if key in lookup and key > 0:
                ref = lookup[key]
                gaps.append(
                    lebesgue_norm(f - ref, 2.0) / max(lebesgue_norm(f, 2.0), 1e-300)
                )
        assert max(gaps) < 1e-4

    def test_second_order_in_dt(self):
        u0, u1 = small_gaussian_data(self.grid, 0.1)
        cfg = SolverConfig.uniform(2.0, 129, picard_tol=1e-13, max_iters=15)
        traj_p, _ = picard_solve(u0, u1, PP2, cfg)
        ref = traj_p.fields[-1]
        gaps = []
        for dt in (0.25, 0.125):
            traj_e, _ = etd_oracle(u0, u1, PP2, dt, 2.0, store_times=[2.0])
            gaps.append(lebesgue_norm(traj_e.fields[-1] - ref, 2.0))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.5)

    def test_blowup_flag_and_escape(self):
        grid = make_grid(1, 512, 40.0)
        u0 = gaussian(grid, width=2.0, amplitude=1.0)
        traj, diag = etd_oracle(
            u0, u0, PP2, 0.005, 20.0, blowup_threshold=50.0
        )
        assert diag.blown_up
        assert 0.0 < diag.escape_time < 20.0

    def test_overflow_is_an_escape(self):
        # With no cap only a non-finite sample can end the run; it is the
        # escape, and no field with it is stored.
        u0 = gaussian(self.grid, width=2.0, amplitude=5.0)
        pp9 = ProblemParams(n=1, r=4.0, s=5.0, p_nl=9)
        traj, diag = etd_oracle(u0, u0, pp9, 0.01, 2.0, blowup_threshold=math.inf)
        assert diag.blown_up
        assert 0.0 < diag.escape_time < 2.0
        assert traj.times[-1] < diag.escape_time

    def test_step_validation(self):
        u0 = self.grid.zeros()
        with pytest.raises(ValueError):
            etd_oracle(u0, u0, PP3, -0.1, 1.0)


class TestContractionReport:
    def test_amplitude_slope_matches_power(self):
        grid = make_grid(1, 256, 64.0)
        cfg = SolverConfig.uniform(2.0, 33, picard_tol=1e-15, max_iters=3)
        amps, diags = [], []
        for lam in (1e-3, 2e-3, 4e-3):
            u0, u1 = small_gaussian_data(grid, lam)
            _, diag = picard_solve(u0, u1, PP2, cfg)
            amps.append(lam)
            diags.append(diag)
        report = contraction_report(amps, diags, PP2)
        assert report.scalars["fitted_slope"] == pytest.approx(1.0, abs=0.2)

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            contraction_report([1.0], [None], PP2)

    def test_first_ratio_growth_within_linear_bound_at_short_horizons(self):
        # The contraction estimate carries one factor of T; the realized
        # ratio picks up a second power at small T because the kernel
        # vanishes linearly at zero elapsed time, so the growth exponent
        # lands in [1, 2] and stays inside the linear-in-T bound.
        grid = make_grid(1, 256, 64.0)
        horizons = [0.5, 1.0, 2.0]
        diags = []
        for T in horizons:
            cfg = SolverConfig.uniform(T, 33, picard_tol=1e-15, max_iters=3)
            u0, u1 = small_gaussian_data(grid, 2e-3)
            _, diag = picard_solve(u0, u1, PP2, cfg)
            diags.append(diag)
        report = contraction_report(horizons, diags, PP2, variable="horizon")
        slope = report.scalars["fitted_slope"]
        assert 1.0 <= slope <= 2.2
        ratios = [row[1] for row in report.tables["ratios"].rows]
        bound_const = max(r / T for r, T in zip(ratios, horizons))
        assert all(r <= bound_const * T * (1 + 1e-9) for r, T in zip(ratios, horizons))


class TestDecayStudy:
    def test_linear_flow_smoothness_decay_rate(self):
        grid = make_grid(1, 4096, 800.0)
        u1 = slow_decay(grid, r=4.0, eps=0.05)
        times = np.concatenate([[0.0], np.geomspace(1.0, 200.0, 25)])
        fields = tuple(linear_solution(grid.zeros(), u1, float(t)) for t in times)
        traj = Trajectory(times, fields)
        report = decay_study(traj, PP3, fit_window=(20.0, 200.0))
        fitted = report.scalars["fitted_smooth_exponent"]
        expected = report.scalars["expected_smooth_exponent"]
        assert expected == pytest.approx(-0.875)
        assert abs(fitted - expected) < 0.1 * abs(expected)
        assert report.verdicts["weighted_sup_bounded"] == "pass"

    def test_rejects_blown_up_runs(self):
        grid = make_grid(1, 64, 10.0)
        traj = Trajectory(np.array([0.0, 1.0]), (grid.zeros(), grid.zeros()))
        with pytest.raises(ValueError, match="blew up"):
            decay_study(traj, PP3, blown_up=True)

    def test_rejects_unconfined_runs(self):
        grid = make_grid(1, 256, 10.0)
        wide = grid.field(np.ones(grid.shape))
        traj = Trajectory(np.array([0.0, 1.0]), (wide, wide))
        with pytest.raises(ValueError, match="outer-shell"):
            decay_study(traj, PP3)

    def test_zero_trajectory_reports_zero_norms(self):
        grid = make_grid(1, 128, 20.0)
        times = np.array([0.0, 1.0, 2.0])
        traj = Trajectory(times, tuple(grid.zeros() for _ in times))
        report = decay_study(traj, PP3)
        assert report.scalars["weighted_sup"] == 0.0
        table = report.tables["decay"]
        assert all(row[1] == 0.0 and row[2] == 0.0 for row in table.rows)
        # Nothing to fit: the verdict is undetermined, so the study cannot pass.
        assert report.verdicts["weighted_sup_bounded"] == "undetermined"
        assert not report.passed()


class TestBlowupProbe:
    def test_zero_data_never_escapes(self):
        grid = make_grid(1, 128, 20.0)
        cfg = SolverConfig.uniform(2.0, 5, etd_dt=0.05, blowup_threshold=1.0)
        from besov_wave_lab.solver import blowup_probe

        report = blowup_probe(grid.zeros(), grid.zeros(), PP2, cfg)
        assert report.verdicts["escaped"] == "no-escape"


def test_spectral_tail_fraction_monitors_resolution():
    grid = make_grid(1, 128, 20.0)
    smooth = gaussian(grid, width=1.0)
    assert spectral_tail_fraction(smooth) < 1e-10
    rough = grid.field_from_function(lambda x: np.cos(15 * x))
    assert spectral_tail_fraction(rough) > 0.9


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    N=st.integers(4, 12).map(lambda half: 2 * half),
    L=st.floats(0.5, 200.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_tail_fraction_matches_whole_lattice_oracle(n, N, L, seed):
    # The oracle sums |fftn(f)|^2 over every lattice mode with |xi| at or
    # above half the corner frequency.
    grid = make_grid(n, N, L)
    rng = np.random.default_rng(seed)
    f = grid.field(rng.standard_normal(grid.shape) * rng.uniform(0.1, 10.0))
    power = np.abs(np.fft.fftn(f.values)) ** 2
    xi2 = sum(
        grid.axis_freqs.reshape((1,) * d + (-1,) + (1,) * (n - d - 1)) ** 2
        for d in range(n)
    )
    tail = power[np.sqrt(xi2) >= grid.max_freq / 2.0]
    expected = np.sum(tail) / np.sum(power)
    assert spectral_tail_fraction(f) == pytest.approx(expected, rel=1e-12)
