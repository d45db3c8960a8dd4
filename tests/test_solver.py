"""Duhamel recursion, Picard iteration, and the ETD oracle cross-checks."""

import collections
import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from besov_wave_lab.grid import (
    STACK_POINTS,
    _samples,
    field_from_coeffs,
    make_grid,
    pad_factor_for_power,
)
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.norms import (
    ProblemParams,
    Trajectory,
    _besov,
    _x_integrand,
    lebesgue_norm,
    x_norm,
    x_weight,
)
from besov_wave_lab.profiles import gaussian, single_mode, slow_decay
from fields import count_transforms, field_from_function, record_x_nodes, trajectory_fields
from besov_wave_lab.propagator import (
    DELTA_BAND,
    damped_dtL,
    damped_L,
    flow_matrix,
    linear_solution,
)
from besov_wave_lab import grid as grid_module
from besov_wave_lab import solver
from besov_wave_lab.reporting import Check
from besov_wave_lab.solver import (
    ETD_TOL,
    SolverConfig,
    _flow_recursion,
    _pair_norm,
    _escapes,
    _peaks,
    _power,
    _step_weights,
    _sup_bound,
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
    """Samples of the Duhamel integral at t of a source held at one field."""
    times = np.linspace(0.0, t, nodes)
    spectra = [mode.spectrum for _ in times]
    coeffs = duhamel_integral(mode.grid, times, spectra)[-1]
    return field_from_coeffs(mode.grid, coeffs).values


class TestDuhamel:
    def setup_method(self):
        self.grid = make_grid(1, 128, 16 * np.pi)

    def test_zero_source(self):
        times = np.linspace(0.0, 4.0, 65)
        zero = self.grid.zeros().spectrum
        out = duhamel_integral(self.grid, times, [zero for _ in times])
        assert len(out) == times.size
        assert all(np.max(np.abs(v)) == 0.0 for v in out)

    def test_constant_single_mode_source_against_quad_oracle(self):
        # Source held at one Fourier mode: the integral reduces to the
        # scalar integral of the damped kernel, done adaptively by quad.  A
        # constant source is linear on every step, so one run on 3 nodes
        # is exact to rounding.
        xi0 = 0.5  # exact threshold mode on this box
        mode = single_mode(self.grid, xi0)
        t = 4.0
        exact, err = quad(
            lambda tau: damped_L(t - tau, xi0), 0.0, t, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-13
        out = constant_source_integral(mode, 3, t)
        assert np.max(np.abs(out - exact * mode.values)) < 1e-13

    def test_converges_second_order_on_a_curved_source(self):
        # cos(3 tau) times one mode is not linear on any step; the error of
        # the piecewise-linear source falls by 4 per halving of the step.
        xi0 = 0.5
        mode = single_mode(self.grid, xi0)
        t = 4.0
        exact, _ = quad(
            lambda tau: damped_L(t - tau, xi0) * math.cos(3.0 * tau),
            0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        errors = []
        for nodes in (17, 33, 65):
            times = np.linspace(0.0, t, nodes)
            spectra = [math.cos(3.0 * tau) * mode.spectrum for tau in times]
            coeffs = duhamel_integral(self.grid, times, spectra)[-1]
            out = field_from_coeffs(self.grid, coeffs).values
            errors.append(np.max(np.abs(out - exact * mode.values)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)

    def test_recursion_matches_direct_weight_sum(self):
        # On uneven nodes the recursion equals the direct sum, over the
        # steps [tau_j, tau_j+1] before t_k, of that step's source weights
        # applied to F_j and F_j+1 - F_j and carried to t_k by the flow.
        grid = make_grid(1, 64, 20.0)
        xi = grid.freq_abs
        rng = np.random.default_rng(7)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.6, 12))])
        fields = [grid.field(rng.standard_normal(grid.shape)) for _ in times]
        f = [g.spectrum for g in fields]
        out = duhamel_integral(grid, times, f)
        for k, t in enumerate(times):
            acc = np.zeros(grid.spectral_shape, dtype=complex)
            for j in range(k):
                _, (i1u, i2u, i1v, i2v) = _step_weights(grid, times[j + 1] - times[j])
                a = i1u * f[j] + i2u * (f[j + 1] - f[j])
                b = i1v * f[j] + i2v * (f[j + 1] - f[j])
                e11, e12, _, _ = flow_matrix(t - times[j + 1], xi)
                acc += e11 * a + e12 * b
            direct = field_from_coeffs(grid, acc)
            scale = max(direct.max_abs(), 1e-30)
            values = field_from_coeffs(grid, out[k]).values
            assert np.max(np.abs(values - direct.values)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "xi",
        [0.25, 0.5 - 0.5 * DELTA_BAND, 0.5, 0.5 + 0.5 * DELTA_BAND, 2.0, 6.0],
        ids=["below", "band-low", "threshold", "band-high", "above", "far-above"],
    )
    def test_step_weights_against_quad(self, xi):
        # The weights Picard and the ETD oracle share, each against quad of
        # its kernel: e12, e12 (1 - s/h), e22 and e22 (1 - s/h) over [0, h].
        # They are what keeps the oracle an independent cross-check.
        grid = make_grid(1, 64, 8.0 * np.pi / xi)
        assert grid.freq_abs[4] == pytest.approx(xi, rel=1e-14)
        for h in (0.01, 0.025, 1.25, 10.0):
            _, weights = _step_weights(grid, h)
            kernels = (
                lambda s: damped_L(s, xi),
                lambda s: damped_L(s, xi) * (1.0 - s / h),
                lambda s: damped_dtL(s, xi),
                lambda s: damped_dtL(s, xi) * (1.0 - s / h),
            )
            for w, kernel in zip(weights, kernels, strict=True):
                exact, _ = quad(kernel, 0.0, h, epsabs=1e-14, epsrel=1e-11, limit=200)
                assert abs(w[4] - exact) <= 1e-9 * abs(exact)


class TestSolverConfig:
    # The config reader refuses NaN before a run; a Python caller meets
    # these guards, which ask x > 0 because NaN fails every comparison.
    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"picard_tol": math.nan}, "picard_tol must be positive, got nan"),
            ({"blowup_threshold": math.nan}, "blowup threshold must be positive, got nan"),
            ({"etd_dt": math.nan}, "etd_dt must be positive, got nan"),
        ],
    )
    def test_nan_setting_is_refused(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverConfig.uniform(2.0, 17, **kw)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
    def test_horizon_must_be_positive(self, T):
        # np.linspace(0, T, n) would reach the time-grid checks, which name
        # the grid rather than the horizon.
        with pytest.raises(ValueError, match=re.escape(f"horizon T must be positive, got {T}")):
            SolverConfig.uniform(T, 17)


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
        assert np.max(np.abs(trajectory_fields(traj)[0].values - u0.values)) < 1e-12

    def test_small_data_contraction(self):
        cfg = SolverConfig.uniform(4.0, 33, picard_tol=1e-12, max_iters=12)
        u0, u1 = small_gaussian_data(self.grid, 0.05)
        traj, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.converged
        assert first_contraction_ratio(diag) < 0.5
        # Ratios settle monotonically once the iteration is in regime.
        d = diag.diff_norms
        ratios = [b / a for a, b in zip(d, d[1:]) if a > 0]
        settled = [r for r in ratios[1:] if r > 0]
        assert all(b <= a * 1.05 for a, b in zip(settled, settled[1:]))

    def test_rising_differences_are_never_converged(self, monkeypatch):
        # A difference that grew did not contract: a run whose last ratio is
        # >= 1 is not converged, and runs on to max_iters.
        rising = iter([2e-9, 4e-9])
        monkeypatch.setattr(solver, "x_norm", lambda *args: next(rising))
        cfg = SolverConfig.uniform(2.0, 17, picard_tol=1e-9, max_iters=2)
        u0, u1 = small_gaussian_data(self.grid, 0.02)
        _, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.diff_norms[1] / diag.diff_norms[0] == 2.0 and diag.iterations == 2
        assert not diag.converged

    def test_convergence_is_the_last_difference_under_picard_tol(self):
        # The one convergence rule: global-decay's picard_converged check is
        # this record, and converged reads its status.
        cfg = SolverConfig.uniform(2.0, 17, picard_tol=1e-8, max_iters=15)
        u0, u1 = small_gaussian_data(self.grid, 0.02)
        _, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.convergence == Check(diag.diff_norms[-1], "<", 1e-8)
        assert diag.convergence.status == "pass" and diag.converged
        cfg = SolverConfig.uniform(2.0, 17, picard_tol=1e-8, max_iters=1)
        _, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.convergence == Check(diag.diff_norms[0], "<", 1e-8)
        assert diag.convergence.status == "fail" and not diag.converged

    def test_fixed_point_residual_with_refined_quadrature(self):
        tol = 1e-7
        cfg = SolverConfig.uniform(2.0, 33, picard_tol=tol, max_iters=15)
        u0, u1 = small_gaussian_data(self.grid, 0.01)
        traj, diag = picard_solve(u0, u1, PP3, cfg)
        assert diag.converged
        # One map application on the nodes doubled, with the source spectra
        # interpolated linearly, read back on the original nodes.
        grid, t = self.grid, traj.times
        fine_times = np.append(
            np.column_stack([t[:-1], t[:-1] + 0.5 * np.diff(t)]).ravel(), t[-1]
        )
        source = [_power(grid, f.spectrum, PP3.p_nl) for f in trajectory_fields(traj)]
        fine_source = [
            c for a, b in zip(source, source[1:]) for c in (a, 0.5 * a + 0.5 * b)
        ] + [source[-1]]
        refined = _flow_recursion(
            grid, fine_times, u0.spectrum, u1.spectrum, fine_source
        )[::2]
        assert x_norm(t, refined - traj.spectra, PP3, make_blocks(grid)) < 2 * tol

    def test_first_correction_scales_with_amplitude_power(self):
        cfg = SolverConfig.uniform(2.0, 33, picard_tol=1e-14, max_iters=2)
        firsts = []
        for lam in (0.01, 0.02):
            u0, u1 = small_gaussian_data(self.grid, lam)
            _, diag = picard_solve(u0, u1, PP3, cfg)
            firsts.append(diag.diff_norms[0])
        assert firsts[1] / firsts[0] == pytest.approx(2.0**3, rel=0.05)

    def test_solves_inadmissible_parameters(self):
        # r = 6, s = 0.6, p = 2 fails the lower power bound
        # min(r/2, 1 + (r-2)/(2s)) = 3 > 2.  Admissibility is
        # admissibility.require_lwp's policy, which the experiment layer
        # applies; ProblemParams checks only the domain, and the solver
        # solves what it gets.
        bad = ProblemParams(n=1, r=6.0, s=0.6, p_nl=2)
        cfg = SolverConfig.uniform(1.0, 9)
        traj, diag = picard_solve(self.grid.zeros(), self.grid.zeros(), bad, cfg)
        assert traj.times.size == 9
        assert diag.converged

    def test_blowup_flagged(self):
        grid = make_grid(1, 256, 40.0)
        u0 = gaussian(grid, width=2.0, amplitude=1.0)
        cfg = SolverConfig.uniform(8.0, 65, blowup_threshold=20.0, max_iters=30)
        traj, diag = picard_solve(u0, u0, PP2, cfg)
        assert diag.blown_up
        assert diag.escape_time is not None and diag.escape_time > 0


def sample_path_picard(u0, u1, pp, cfg):
    """Reference Picard loop on samples: every iterate the sum of the linear
    and correction samples, kept as the spectrum of those samples, and every
    difference a field whose X-norm is taken.  Returns the last iterate
    that stayed finite, the difference norms and the escape time (None
    without an escape)."""
    grid = u0.grid
    times = cfg.time_grid
    blocks = make_blocks(grid)

    def values(spectra):
        return [field_from_coeffs(grid, c).values for c in spectra]

    def trajectory(samples):
        return Trajectory(grid, times, tuple(grid.field(v).spectrum for v in samples))

    linear = values(_flow_recursion(grid, times, u0.spectrum, u1.spectrum))
    current = trajectory(linear)
    correction = [np.zeros(grid.shape)] * times.size
    diffs = []
    for _ in range(cfg.max_iters):
        source = [_power(grid, c, pp.p_nl) for c in current.spectra]
        update = values(duhamel_integral(grid, times, source))
        iterate = [a + b for a, b in zip(linear, update)]
        for t, v in zip(times, iterate):
            if _escapes(np.max(np.abs(v)), cfg.blowup_threshold):
                return current, diffs, float(t)
        steps = np.stack([grid.field(a - b).spectrum for a, b in zip(update, correction)])
        diffs.append(x_norm(times, steps, pp, blocks))
        current = trajectory(iterate)
        correction = update
        if diffs[-1] < cfg.picard_tol:
            break
    return current, diffs, None


class TestCoefficientPath:
    """picard_solve keeps its iterates as spectra; the sample-path loop
    above is its reference."""

    def assert_same_run(self, u0, pp, cfg):
        traj, diag = picard_solve(u0, u0, pp, cfg)
        ref, diffs, escape = sample_path_picard(u0, u0, pp, cfg)
        assert diag.escape_time == escape
        assert diag.blown_up == (escape is not None)
        np.testing.assert_allclose(diag.diff_norms, diffs, rtol=1e-10, atol=0.0)
        peak = max(f.max_abs() for f in trajectory_fields(ref))
        for f, g in zip(trajectory_fields(traj), trajectory_fields(ref), strict=True):
            assert np.max(np.abs(f.values - g.values)) <= 1e-12 * peak
        return diag

    def test_matches_sample_path(self):
        grid = make_grid(1, 256, 64.0)
        u0 = gaussian(grid, width=2.0, amplitude=0.05)
        cfg = SolverConfig.uniform(2.0, 33, picard_tol=1e-15, max_iters=3)
        diag = self.assert_same_run(u0, PP2, cfg)
        assert diag.iterations == 3 and not diag.blown_up

    def test_matches_sample_path_through_an_escape(self):
        grid = make_grid(1, 256, 40.0)
        u0 = gaussian(grid, width=2.0, amplitude=1.0)
        cfg = SolverConfig.uniform(8.0, 65, blowup_threshold=20.0, max_iters=30)
        diag = self.assert_same_run(u0, PP2, cfg)
        assert diag.blown_up and diag.iterations > 1

    def test_escape_in_the_first_iteration_returns_the_linear_solution(self):
        grid = make_grid(1, 256, 40.0)
        u0 = gaussian(grid, width=2.0, amplitude=1.0)
        cfg = SolverConfig.uniform(8.0, 65, blowup_threshold=2.0, max_iters=30)
        diag = self.assert_same_run(u0, PP2, cfg)
        assert diag.blown_up and diag.iterations == 1

    def test_transform_budget(self, monkeypatch):
        # Per iteration, one padded pair (the power) for every chunk of
        # STACK_POINTS // M nodes (M = 2N for p = 2).  The B^0_{r,2} block
        # norms (r = 4: blocks on N, N/2 and N/4 points) take one inverse
        # transform per block lattice only for every chunk of the nodes
        # x_norm's gate cannot rule out, STACK_POINTS // N of them a chunk:
        # here the last node of each iteration, whose value no other node's
        # upper bound reaches.  The points are those nodes', as calls one
        # node at a time would transform.  The escape check takes no
        # samples while the Fourier bound stays under the threshold, and
        # the returned trajectory holds spectra, so no node is sampled at
        # the end.  The linear start costs nothing; the data's spectrum is
        # the one forward transform on the grid.
        N, M = 1024, 2048
        counts = count_transforms(monkeypatch, N)
        evaluated = record_x_nodes(monkeypatch)
        grid = make_grid(1, N, 128.0)
        u0 = gaussian(grid, width=2.0, amplitude=0.05)
        nodes, iterations = 41, 3
        cfg = SolverConfig.uniform(
            1.0, nodes, picard_tol=1e-300, max_iters=iterations, blowup_threshold=1.0
        )
        assert PP2.r == 4.0
        plan = {lat.M: lat.rows.size for lat in make_blocks(grid)._plan(PP2.r)}
        assert list(plan) == [N, N // 2, N // 4]
        powers = -(-nodes // (STACK_POINTS // M))
        assert 1 < powers < nodes  # chunks of several nodes, and a remainder
        _, diag = picard_solve(u0, u0, PP2, cfg)
        assert diag.iterations == iterations and not diag.converged
        # One chunk of candidates per iteration, where every node would
        # take two chunks of STACK_POINTS // N = 32.
        assert [chunk.tolist() for chunk in evaluated] == [[1.0]] * iterations
        assert -(-nodes // (STACK_POINTS // N)) == 2
        assert counts == {
            ("forward", "padded"): powers * iterations,
            ("forward", "grid"): 1,
            ("inverse", "padded"): powers * iterations,
            ("inverse", "grid"): iterations,
            ("inverse", "coarse"): 2 * iterations,
        }
        work, norm_work = nodes * iterations, sum(map(len, evaluated))
        assert counts.points == {
            ("forward", "padded"): work * M,
            ("forward", "grid"): N,
            ("inverse", "padded"): work * M,
            ("inverse", "grid"): norm_work * plan[N] * N,
            ("inverse", "coarse"): norm_work * (plan[N // 2] * N // 2 + plan[N // 4] * N // 4),
        }

    def test_etd_transform_budget(self, monkeypatch):
        # One padded pair for n1 on every attempted step and one for n0 on
        # every accepted one, and on the grid one forward transform for the
        # data's spectrum.  The stores hold spectra and the final tail
        # fraction reads the last one, so a run that does not escape takes
        # no inverse transform on the grid.
        counts = count_transforms(monkeypatch, 64)
        grid = make_grid(1, 64, 32.0)
        u0 = gaussian(grid, width=2.0, amplitude=0.01)
        _, diag = etd_oracle(
            u0, u0, PP3, 0.05, 4.0, blowup_threshold=1.0, store_times=[4.0]
        )
        assert not diag.blown_up and diag.steps < 80  # the controller climbed
        pairs = 2 * diag.steps + diag.rejected
        assert counts == {
            ("forward", "padded"): pairs,
            ("forward", "grid"): 1,
            ("inverse", "padded"): pairs,
        }

    def test_etd_transform_budget_through_an_escape(self, monkeypatch):
        # As above, plus one inverse transform on the grid for every state
        # whose Fourier bound does not clear the cap: the gate's peak tells
        # both whether it escaped and whether its samples are finite, so
        # the escaping state is sampled once.
        counts = count_transforms(monkeypatch, 64)
        grid = make_grid(1, 64, 32.0)
        u0 = gaussian(grid, width=2.0, amplitude=1.0)
        cap, bounds = 20.0, []

        def recorded(grid, coeffs):
            bound = _sup_bound(grid, coeffs)
            bounds.append(float(bound))
            return bound

        monkeypatch.setattr(solver, "_sup_bound", recorded)
        _, diag = etd_oracle(u0, u0, PP2, 0.05, 8.0, blowup_threshold=cap, store_times=[8.0])
        assert diag.blown_up
        unclear = sum(not b <= cap * (1.0 - 1e-9) for b in bounds)
        assert 0 < unclear < len(bounds)
        pairs = 2 * diag.steps + diag.rejected
        assert counts == {
            ("forward", "padded"): pairs,
            ("forward", "grid"): 1,
            ("inverse", "padded"): pairs,
            ("inverse", "grid"): unclear,
        }


def per_node_integrand(t, coeffs, pp, blocks):
    """B^s_{2,2}, B^0_{r,2} and their weighted sum at one node, reduced
    alone: the reference for the stacked chunks of _x_integrand."""
    b_s = float(_besov(blocks, coeffs, pp.s, 2.0, 2.0))
    b_r = float(_besov(blocks, coeffs, 0.0, pp.r, 2.0))
    return b_s, b_r, float(x_weight(t, pp)) * b_s + b_r


def per_node_picard(u0, u1, pp, cfg):
    """picard_solve one node at a time: a power per node, the escape gate
    on each node's iterate, and each difference's norms from _x_integrand
    on that node alone.  Returns the spectra of the last iterate that
    stayed finite, the difference norms and the escape time."""
    grid, times = u0.grid, cfg.time_grid
    blocks = make_blocks(grid)
    linear = list(_flow_recursion(grid, times, u0.spectrum, u1.spectrum))
    correction = [0.0] * times.size
    kept, diffs = linear, []
    for _ in range(cfg.max_iters):
        source = [_power(grid, a + b, pp.p_nl) for a, b in zip(linear, correction)]
        update = list(duhamel_integral(grid, times, source))
        iterate = [a + b for a, b in zip(linear, update)]
        for t, c in zip(times, iterate):
            if _escapes(solver._peaks(grid, c, cfg.blowup_threshold), cfg.blowup_threshold):
                return kept, diffs, float(t)
        norms = [
            _x_integrand([t], (a - b)[np.newaxis], pp, blocks)[2][0]
            for t, a, b in zip(times, update, correction)
        ]
        diffs.append(max([0.0, *norms]))
        correction, kept = update, iterate
        if diffs[-1] < cfg.picard_tol:
            break
    return kept, diffs, None


class TestNodeBatching:
    """Picard's powers and the X-norm integrands go through the kernels in
    stacked chunks of nodes, with every node's bits those it gives alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        nodes=st.integers(1, 19),
        r=st.sampled_from([3.0, 4.0, 5.5]),
        s=st.floats(0.5, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integrands_match_one_node_at_a_time(self, n, nodes, r, s, seed):
        # 8 nodes a chunk on both grids, so node counts up to 19 take one
        # to three chunks, most of them with a remainder.
        grid = make_grid(1, 4096, 400.0) if n == 1 else make_grid(2, 64, 20.0)
        assert STACK_POINTS // grid.points_per_axis**n == 8
        pp = ProblemParams(n=n, r=r, s=s, p_nl=3)
        blocks = make_blocks(grid)
        rng = np.random.default_rng(seed)
        g = gaussian(grid, width=2.0).spectrum
        spectra = [
            a * np.exp(-b * grid.freq_abs**2) * g
            for a, b in zip(rng.uniform(0.1, 10.0, nodes), rng.uniform(0.0, 0.5, nodes))
        ]
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 5.0, nodes - 1))])
        ref = np.array([per_node_integrand(t, c, pp, blocks) for t, c in zip(times, spectra)]).T
        stacked = np.stack(spectra)
        got = np.array(_x_integrand(times, stacked, pp, blocks))
        assert got.tobytes() == ref.tobytes()
        assert x_norm(times, stacked, pp, blocks) == max([0.0, *ref[2].tolist()])
        if nodes >= 2:
            traj = Trajectory(grid, times, tuple(spectra))
            report = decay_study(traj, pp, fit_window=(0.0, math.inf))
            _, b_r, b_s, weighted, _ = np.array(report.tables["decay"].rows).T
            assert np.array([b_s, b_r, weighted]).tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "amp, cap, escape_iteration",
        [
            (1.0, 20.0, 2),  # after one accepted correction, past the first chunk
            (1.0, 5.0, 1),  # in the first iteration: the linear solution returns
            (0.05, math.inf, None),
        ],
    )
    def test_picard_matches_one_node_at_a_time(self, amp, cap, escape_iteration):
        grid = make_grid(1, 1024, 40.0)
        u0 = gaussian(grid, width=2.0, amplitude=amp)
        cfg = SolverConfig.uniform(8.0, 65, blowup_threshold=cap, max_iters=30, picard_tol=1e-12)
        traj, diag = picard_solve(u0, u0, PP2, cfg)
        spectra, diffs, escape = per_node_picard(u0, u0, PP2, cfg)
        assert diag.escape_time == escape
        assert diag.diff_norms == diffs
        assert b"".join(c.tobytes() for c in traj.spectra) == b"".join(c.tobytes() for c in spectra)
        if escape_iteration is None:
            assert not diag.blown_up and diag.converged
        else:
            assert diag.blown_up and diag.iterations == escape_iteration
            power_chunk = STACK_POINTS // (2 * grid.points_per_axis)
            assert list(cfg.time_grid).index(escape) >= power_chunk

    def test_psi_apply_matches_one_node_at_a_time(self):
        # psi_apply takes the powers in stacked chunks of nodes, as Picard
        # does; a power per node, then the same recursion, is its reference.
        grid = make_grid(1, 1024, 64.0)
        u0 = gaussian(grid, width=2.0, amplitude=0.3)
        times = np.linspace(0.0, 2.0, 37)
        chunk = STACK_POINTS // (pad_factor_for_power(PP3.p_nl) * grid.points_per_axis)
        assert 1 < chunk < times.size and times.size % chunk
        traj = Trajectory(grid, times, _flow_recursion(grid, times, u0.spectrum, u0.spectrum))
        got = psi_apply(traj, u0, u0, PP3)
        source = [_power(grid, c, PP3.p_nl) for c in traj.spectra]
        ref = _flow_recursion(grid, times, u0.spectrum, u0.spectrum, source)
        assert got.times.tobytes() == times.tobytes()
        assert got.spectra.tobytes() == ref.tobytes()

    def test_picard_peak_memory_in_trajectories(self):
        # The iteration holds the linear solution, the last accepted
        # correction and the update, plus stacks of a few nodes (about 0.6
        # of a trajectory at N = 4096); holding each iterate and the last
        # one kept besides, as lists of nodes, took 5.3 trajectories.
        grid = make_grid(1, 4096, 400.0)
        u0 = gaussian(grid, width=2.0, amplitude=0.05)
        nodes = 161
        cfg = SolverConfig.uniform(2.0, nodes, picard_tol=1e-300, max_iters=3)
        picard_solve(u0, u0, PP2, cfg)  # builds the kept buffers and weights
        tracemalloc.start()
        try:
            _, diag = picard_solve(u0, u0, PP2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.iterations == 3
        assert peak <= 4.0 * nodes * grid.spectral_shape[-1] * 16


def test_step_weights_built_once_per_distinct_step(monkeypatch):
    # 25 graded nodes take 24 distinct steps; the linear start and every
    # iteration read the weights of each, which are built on the first read.
    built = collections.Counter()

    def counted(t, xi):
        built[t] += 1
        return flow_matrix(t, xi)

    monkeypatch.setattr(solver, "flow_matrix", counted)
    grid = make_grid(1, 64, 32.0)
    u0 = gaussian(grid, width=2.0, amplitude=0.05)
    times = 2.0 * np.linspace(0.0, 1.0, 25) ** 2
    cfg = SolverConfig(times, picard_tol=1e-300, max_iters=4)
    _, diag = picard_solve(u0, u0, PP2, cfg)
    assert diag.iterations == 4
    steps = set(np.diff(times).tolist())
    assert len(steps) == 24
    assert built == {h: 1 for h in steps}


class TestEscapeGate:
    """The escape check skips the samples of a state whose Fourier bound
    rules an escape out; the bound must hold, and skipping must change no
    bit of any run."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        N=st.sampled_from([8, 10, 16]),
        L=st.floats(0.5, 200.0),
        nyquist=st.floats(0.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_is_at_least_the_max_norm(self, n, N, L, nyquist, seed):
        # Random spectra whose Nyquist entries (the self-paired last-axis
        # column, and the -N/2 row of a leading axis) are scaled up to
        # dominate.  The bound must hold up to the rounding of the
        # transform, far inside the gate's margin of 1e-9.
        grid = make_grid(n, N, L)
        rng = np.random.default_rng(seed)
        shape = grid.spectral_shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[..., N // 2] *= nyquist
        if n == 2:
            coeffs[N // 2] *= nyquist
        peak = np.max(np.abs(_samples(grid, coeffs, N)))
        assert peak <= _sup_bound(grid, coeffs) * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("column", [0, 3, 8])
    def test_bound_is_reached_by_one_mode(self, n, column):
        # One real coefficient peaks at the first sample, the transform's
        # origin, where every phase is 1: the bound is the max-norm there,
        # so its scale and weights are right.
        grid = make_grid(n, 16, 7.0)
        coeffs = np.zeros(grid.spectral_shape, dtype=complex)
        coeffs[(0,) * (n - 1) + (column,)] = 2.5
        peak = np.max(np.abs(_samples(grid, coeffs, 16)))
        assert peak == pytest.approx(_sup_bound(grid, coeffs), rel=1e-12)

    def test_an_overflowing_bound_is_inf_and_sampled(self, monkeypatch):
        # At L = 0.5 the bound's scale exceeds 1, so a finite sum overflows
        # when scaled: the bound is inf, without a warning, and an infinite
        # bound clears nothing, even under an infinite threshold.
        grid = make_grid(1, 8, 0.5)
        coeffs = np.zeros((2,) + grid.spectral_shape, dtype=complex)
        coeffs[:, 0] = 0.5 * sys.float_info.max
        assert grid._sup_scale > 2.0
        assert _sup_bound(grid, coeffs).tolist() == [math.inf, math.inf]
        calls = []

        def counted(*args):
            calls.append(args[1].shape)
            return _samples(*args)

        monkeypatch.setattr(solver, "_samples", counted)
        assert _peaks(grid, coeffs, math.inf).tolist() == [math.inf, math.inf]
        assert calls == [coeffs.shape]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        N=st.sampled_from([8, 16]),
        L=st.floats(0.5, 200.0),
        kinds=st.lists(
            st.sampled_from(["cleared", "under", "over", "inf", "nan"]), min_size=1, max_size=6
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_peaks_of_a_stack_are_each_rows_alone(self, n, N, L, kinds, seed):
        # The threshold sits between a random spectrum's max-norm and its
        # Fourier bound, so that spectrum is sampled and stays under it;
        # scaled down it is cleared, scaled up it crosses, and an inf or a
        # NaN coefficient makes the bound and the samples non-finite.
        grid = make_grid(n, N, L)
        rng = np.random.default_rng(seed)
        shape = grid.spectral_shape
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        peak = np.max(np.abs(_samples(grid, base, N)))
        bound = _sup_bound(grid, base)
        assert peak < bound
        threshold = math.sqrt(peak * bound)
        rows = {"cleared": 1e-3 * base, "under": base, "over": 1e3 * base}
        rows["inf"], rows["nan"] = base.copy(), base.copy()
        rows["inf"].flat[rng.integers(base.size)] = math.inf
        rows["nan"].flat[rng.integers(base.size)] = math.nan
        stack = np.stack([rows[k] for k in kinds])
        calls = []

        def counted(*args):
            calls.append(args[1].shape)
            return _samples(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver, "_samples", counted)
            peaks = _peaks(grid, stack, threshold)
        unclear = [k != "cleared" for k in kinds]
        assert calls == ([(sum(unclear),) + shape] if any(unclear) else [])
        alone = np.array([_peaks(grid, row, threshold) for row in stack])
        assert peaks.tobytes() == alone.tobytes()
        escaped = _escapes(peaks, threshold)
        assert escaped.tolist() == [k in ("over", "inf", "nan") for k in kinds]
        assert np.all(peaks[~escaped] <= threshold)

    @staticmethod
    def sampled_runs(monkeypatch, run, gate):
        """run() with the gate as given (or forced to sample every state),
        and the number of _samples calls it made."""
        calls = []

        def counted(*args):
            calls.append(1)
            return _samples(*args)

        with monkeypatch.context() as m:
            m.setattr(solver, "_samples", counted)
            if not gate:
                m.setattr(
                    solver,
                    "_sup_bound",
                    lambda grid, coeffs: np.full(coeffs.shape[: -grid.n], math.inf),
                )
            traj, diag = run()
        return traj, diag, len(calls)

    def assert_same_bits(self, monkeypatch, run):
        traj, diag, taken = self.sampled_runs(monkeypatch, run, gate=True)
        ref, ref_diag, ref_taken = self.sampled_runs(monkeypatch, run, gate=False)
        assert dataclasses.asdict(diag) == dataclasses.asdict(ref_diag)
        assert traj.times.tobytes() == ref.times.tobytes()
        assert traj.times.size == ref.times.size
        for f, g in zip(trajectory_fields(traj), trajectory_fields(ref)):
            assert f.values.tobytes() == g.values.tobytes()
        assert taken < ref_taken
        return diag

    @pytest.mark.parametrize(
        "amp, pp, cap, escapes",
        [
            (1.0, PP2, 50.0, True),  # crosses the cap
            (1.2, ProblemParams(n=1, r=4.0, s=5.0, p_nl=9), math.inf, True),  # overflows
            (0.05, PP3, 10.0, False),
        ],
    )
    def test_etd_oracle_is_unchanged(self, monkeypatch, amp, pp, cap, escapes):
        grid = make_grid(1, 256, 64.0)
        u0 = gaussian(grid, width=2.0, amplitude=amp)
        run = lambda: etd_oracle(
            u0, u0, pp, 0.01, 4.0, blowup_threshold=cap, store_times=[1.0, 4.0]
        )
        diag = self.assert_same_bits(monkeypatch, run)
        assert diag.blown_up == escapes

    @pytest.mark.parametrize("amp, escapes", [(1.0, True), (0.05, False)])
    def test_picard_solve_is_unchanged(self, monkeypatch, amp, escapes):
        grid = make_grid(1, 256, 40.0)
        u0 = gaussian(grid, width=2.0, amplitude=amp)
        cfg = SolverConfig.uniform(8.0, 65, blowup_threshold=20.0, max_iters=30)
        diag = self.assert_same_bits(monkeypatch, lambda: picard_solve(u0, u0, PP2, cfg))
        assert diag.blown_up == escapes and diag.iterations > 1


def reference_etd2(u0, u1, pp, dt, T, *, blowup_threshold=math.inf, store_times=()):
    """etd_oracle's ETD2 loop built step by step from _power, _pair_norm,
    _step and _peaks, each called on every step as a plain loop would call
    it (a fresh power per call, its kept set looked up each time), under
    one errstate of its own.  Returns the stored times and spectra, the
    steps, the rejections, the escape time and the final tail fraction."""
    grid = u0.grid
    steps = round(T / dt)
    store_idx = {0} | {round(t / dt) for t in store_times}
    landings = sorted((store_idx | {steps}) - {0})
    power = lambda u: _power(grid, u, pp.p_nl)
    uh, vh = u0.spectrum, u1.spectrum
    times, stores, last = [0.0], [uh], uh
    m, k, n0, taken, rejected, escape_time = 0, 0, None, 0, 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        while m < steps:
            if n0 is None:
                n0 = power(uh)
                scale = solver.ETD_TOL * _pair_norm(grid, uh, vh)
            units = min(2**k, min(t for t in landings if t > m) - m)
            new_u, new_v, (cu, cv) = solver._step(grid, dt * units, uh, vh, n0, power)
            err = _pair_norm(grid, cu, cv)
            retry = units > 1 and not err <= scale
            if not retry:
                peak = float(solver._peaks(grid, new_u, blowup_threshold))
                finite, escaped = math.isfinite(peak), bool(_escapes(peak, blowup_threshold))
                retry = units > 1 and escaped
            if retry:
                rejected += 1
                k = (units - 1).bit_length() - 1
                continue
            uh, vh, n0 = new_u, new_v, None
            m += units
            taken += 1
            if units == 2**k:
                bound = 2.0 * err
                while k < steps.bit_length() and 4.0 * bound < scale:
                    bound *= 4.0
                    k += 1
            if finite:
                last = uh
                if escaped or m in store_idx:
                    times.append(m * dt)
                    stores.append(uh)
            if escaped:
                escape_time = m * dt
                break
    return times, stores, taken, rejected, escape_time, spectral_tail_fraction(grid, last)


class TestOracleLoop:
    """etd_oracle resolves its padded lattice once and holds one errstate
    for its whole loop; every bit it returns must be the plain loop's."""

    CASES = {
        # Store times 0.37, 1.0 and 2.13 cut rungs short to land on them.
        "store-cuts": (0.05, 3, math.inf, 1e-6, [0.37, 1.0, 2.13]),
        # A loose tolerance climbs fast and rejects steps, then crosses the cap.
        "rejections": (0.5, 2, 5.0, 1e-2, [1.0, 2.0]),
        "escape-past-a-cap": (1.0, 2, 20.0, 1e-6, [1.0]),
        # p = 9 at amplitude 1.2 overflows to a non-finite state.
        "overflow": (1.2, 9, math.inf, 1e-6, [1.0]),
    }

    @pytest.mark.parametrize("n, N, L", [(1, 64, 32.0), (2, 16, 16.0)], ids=["1d", "2d"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_plain_loop_bit_for_bit(self, monkeypatch, n, N, L, case):
        amp, p, cap, tol, store = self.CASES[case]
        monkeypatch.setattr(solver, "ETD_TOL", tol)
        grid = make_grid(n, N, L)
        u0 = gaussian(grid, width=2.0, amplitude=amp)
        pp = ProblemParams(n=n, r=4.0, s=5.0, p_nl=p)
        args = (u0, u0, pp, 0.01, 8.0)
        kw = dict(blowup_threshold=cap, store_times=store)
        traj, diag = etd_oracle(*args, **kw)
        times, stores, steps, rejected, escape_time, tail = reference_etd2(*args, **kw)
        assert traj.times.tobytes() == np.array(times).tobytes()
        assert traj.spectra.tobytes() == np.array(stores).tobytes()
        assert (diag.steps, diag.rejected, diag.escape_time) == (steps, rejected, escape_time)
        assert np.float64(diag.final_tail_fraction).tobytes() == np.float64(tail).tobytes()
        if case == "rejections":
            assert diag.rejected > 0
        assert diag.blown_up == (case != "store-cuts")

    def test_one_lattice_lookup_per_run(self, monkeypatch):
        # The powers of every step, and of every retried one, apply the
        # kept set that the run looked up once.  Each accepted step still
        # takes its four real transforms, one padded pair per power.
        monkeypatch.setattr(solver, "ETD_TOL", 1e-2)
        counts = count_transforms(monkeypatch, 64)
        lookups = []
        original = grid_module._lattice

        def counted(*args):
            lookups.append(args[1:])
            return original(*args)

        monkeypatch.setattr(grid_module, "_lattice", counted)
        grid = make_grid(1, 64, 32.0)
        u0 = gaussian(grid, width=2.0, amplitude=0.5)
        _, diag = etd_oracle(u0, u0, PP2, 0.01, 8.0, blowup_threshold=5.0, store_times=[1.0])
        assert diag.steps > 10 and diag.rejected > 0
        assert lookups == [(2 * 64, (), 1)]
        pairs = 2 * diag.steps + diag.rejected
        assert counts["forward", "padded"] == counts["inverse", "padded"] == pairs


def rung0_oracle(monkeypatch, *args, **kw):
    """etd_oracle with the step control off: every step is dt."""
    with monkeypatch.context() as m:
        m.setattr(solver, "ETD_TOL", 0.0)
        return etd_oracle(*args, **kw)


class TestEtdOracle:
    def setup_method(self):
        self.grid = make_grid(1, 256, 64.0)

    def test_linear_exactness(self):
        # At amplitude 1e-7 the cubic term is negligible; the bound is
        # 1e-10 at amplitude 0.3, scaled with the amplitude.
        amp = 1e-7
        u0, u1 = small_gaussian_data(self.grid, amp)
        traj, diag = etd_oracle(u0, u1, PP3, 0.25, 10.0, store_times=0.25 * np.arange(1, 41))
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

    def test_second_order_in_dt(self, monkeypatch):
        # Rung 0 only: the ratio measures the scheme at fixed dt.
        monkeypatch.setattr(solver, "ETD_TOL", 0.0)
        u0, u1 = small_gaussian_data(self.grid, 0.1)
        cfg = SolverConfig.uniform(2.0, 129, picard_tol=1e-13, max_iters=15)
        traj_p, _ = picard_solve(u0, u1, PP2, cfg)
        ref = trajectory_fields(traj_p)[-1]
        gaps = []
        for dt in (0.25, 0.125):
            traj_e, _ = etd_oracle(u0, u1, PP2, dt, 2.0, store_times=[2.0])
            gaps.append(lebesgue_norm(trajectory_fields(traj_e)[-1] - ref, 2.0))
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

    def test_overflow_tail_fraction_is_the_last_finite_steps(self, monkeypatch):
        # Only the horizon stored: after a non-finite escape the tail
        # fraction is still that of the last finite step, not of t = 0.  At
        # rung 0 the steps do not depend on the store times, so a run that
        # stores every step holds that step's spectrum last.  The oracle
        # reads the stored spectrum itself, not a samples round trip of it.
        u0 = gaussian(self.grid, width=2.0, amplitude=5.0)
        pp9 = ProblemParams(n=1, r=4.0, s=5.0, p_nl=9)
        args = (u0, u0, pp9, 0.01, 2.0)
        every, _ = rung0_oracle(
            monkeypatch, *args, blowup_threshold=math.inf, store_times=0.01 * np.arange(1, 201)
        )
        _, diag = rung0_oracle(monkeypatch, *args, blowup_threshold=math.inf, store_times=[2.0])
        assert diag.blown_up and every.times[-1] < diag.escape_time
        assert diag.final_tail_fraction == spectral_tail_fraction(every.grid, every.spectra[-1])
        assert diag.final_tail_fraction > 1e3 * spectral_tail_fraction(u0.grid, u0.spectrum)

    def test_huge_finite_state_reads_a_finite_tail_fraction(self):
        # Without a cap the last finite state before the overflow is so
        # large that |c|^2 overflows; the norms rescale it, with no warning.
        u0 = gaussian(self.grid, width=2.0, amplitude=1.5)
        pp9 = ProblemParams(n=1, r=4.0, s=5.0, p_nl=9)
        _, diag = etd_oracle(
            u0, u0, pp9, 0.01, 4.0, blowup_threshold=math.inf, store_times=[1.0, 4.0]
        )
        assert diag.blown_up
        assert 0.0 < diag.final_tail_fraction < 1.0

    def test_pair_norm_rescales_an_overflow(self):
        # A finite pair whose squares overflow keeps its norm; a NaN stays NaN.
        u = gaussian(self.grid, width=2.0, amplitude=1.0).spectrum
        norm = _pair_norm(self.grid, u, 2.0 * u)
        huge = _pair_norm(self.grid, 1e300 * u, 2e300 * u)
        assert huge == pytest.approx(1e300 * norm, rel=1e-14)
        assert math.isnan(_pair_norm(self.grid, np.full_like(u, np.nan), u))

    def test_step_validation(self):
        u0 = self.grid.zeros()
        with pytest.raises(ValueError):
            etd_oracle(u0, u0, PP3, -0.1, 1.0)
        # The sweep passes its [solver] values here unchecked: a horizon of
        # 0 would take no step and a cap of 0 would escape at once.
        with pytest.raises(ValueError, match="horizon must be positive"):
            etd_oracle(u0, u0, PP3, 0.1, 0.0)
        with pytest.raises(ValueError, match="blowup threshold must be positive"):
            etd_oracle(u0, u0, PP3, 0.1, 1.0, blowup_threshold=0.0)

    @pytest.mark.parametrize(
        "dt, T, cap, message",
        [
            (math.nan, 1.0, math.inf, "etd_dt must be positive, got nan"),
            (0.1, math.nan, math.inf, "horizon must be positive, got nan"),
            (0.1, 1.0, math.nan, "blowup threshold must be positive, got nan"),
        ],
    )
    def test_nan_setting_is_refused(self, dt, T, cap, message):
        # The config reader refuses NaN before a run; a Python caller meets
        # these guards, which ask x > 0 because NaN fails every comparison.
        u0 = self.grid.zeros()
        with pytest.raises(ValueError, match=re.escape(message)):
            etd_oracle(u0, u0, PP3, dt, T, blowup_threshold=cap)

    @pytest.mark.parametrize(
        "T, store, message",
        [
            (4.0, [0.3, 1.1, 5.0, -1.0], "store time t = 0.3 is not a multiple of etd_dt = 0.25"),
            (4.0, [0.3, 0.26], "store time t = 0.3 is not a multiple of etd_dt = 0.25"),
            (4.0, [1.0, math.nan], "store time t = nan is not a multiple of etd_dt = 0.25"),
            (4.0, [1.0, 5.0, -1.0], "store time t = 5 lies outside (0, T = 4]"),
            (4.0, [-1.0], "store time t = -1 lies outside (0, T = 4]"),
            (4.0, [0.0, 4.0], "store time t = 0 lies outside (0, T = 4]"),
            (4.0, [0.5, 2.0, 0.5 + 1e-12], "store time t = 0.500000000001 repeats an earlier"),
            (4.0, [4.0, 4.0], "store time t = 4 repeats an earlier"),
            (4.1, [4.0], "horizon T = 4.1 is not a multiple of etd_dt = 0.25"),
        ],
    )
    def test_store_times_off_the_lattice_outside_or_repeated_raise(self, T, store, message):
        # A caller pairs the stores with its own times by position, so each
        # time must get one store, at that time, or the run must not start.
        u0 = self.grid.zeros()
        with pytest.raises(ValueError, match=re.escape(message)):
            etd_oracle(u0, u0, PP3, 0.25, T, store_times=store)

    def test_store_gaps_are_one_step_each_in_the_linear_regime(self):
        # 24 store gaps of 50 steps at amplitude 1e-7: the first step, of dt,
        # climbs to the top rung at once, and every later step lands on the
        # next store time, on 3 weight sets (dt, 49 dt and 50 dt).
        grid = make_grid(1, 256, 64.0)
        u0, u1 = small_gaussian_data(grid, 1e-7)
        dt, gaps = 0.025, 50 * np.arange(1, 25)
        traj, diag = etd_oracle(u0, u1, PP3, dt, 30.0, store_times=dt * gaps)
        assert np.array_equal(traj.times, dt * np.concatenate([[0], gaps]))
        assert diag.steps <= 25 and diag.rejected == 0
        assert len(grid._steps) <= 3

    def test_horizon_only_run_takes_two_steps(self):
        # 1200 steps of dt: one step of dt, then one of the remaining 1199,
        # exact on the linear flow as every step is.
        grid = make_grid(1, 256, 64.0)
        amp = 1e-7
        u0, u1 = small_gaussian_data(grid, amp)
        traj, diag = etd_oracle(u0, u1, PP3, 0.025, 30.0, store_times=[30.0])
        assert diag.steps == 2
        assert traj.times.tolist() == [0.0, 30.0]
        ref = linear_solution(u0, u1, 30.0)
        assert np.max(np.abs(trajectory_fields(traj)[-1].values - ref.values)) < 1e-10 * amp / 0.3

    def test_an_estimate_of_zero_climbs_no_further_than_the_horizon(self):
        # At amplitude 1e-120, u^3 underflows to 0, so every estimate is 0
        # and clears any bound; the climb stops at the rung above the
        # horizon, and the run ends.
        grid = make_grid(1, 64, 64.0)
        u0, u1 = small_gaussian_data(grid, 1e-120)
        traj, diag = etd_oracle(u0, u1, PP3, 0.01, 100.0, store_times=[100.0])
        assert diag.steps == 2
        assert traj.times.tolist() == [0.0, 100.0]

    def test_store_times_hit_bit_for_bit(self, monkeypatch):
        # Gaps of 24, 56, 108 and 212 steps are no power of two, so a landing
        # taken from a rung above its gap is a step of the gap itself.
        u0, u1 = small_gaussian_data(self.grid, 1e-3)
        dt, store = 0.0125, [0.3, 1.0, 2.35, 5.0]
        traj, diag = etd_oracle(u0, u1, PP3, dt, 5.0, store_times=store)
        fixed, _ = rung0_oracle(monkeypatch, u0, u1, PP3, dt, 5.0, store_times=store)
        expected = np.array([0.0] + [round(t / dt) * dt for t in store])
        assert np.array_equal(traj.times, expected)
        assert np.array_equal(traj.times, fixed.times)
        assert diag.steps < 400

    @pytest.mark.parametrize(
        "amp, pp, dt, T, cap, fewer",
        [
            (1e-7, PP3, 0.0125, 5.0, math.inf, True),  # linear regime
            (0.1, PP3, 0.0125, 5.0, math.inf, False),  # nonlinear
            (1.0, PP2, 0.01, 10.0, 50.0, False),  # escapes
        ],
    )
    def test_never_more_steps_and_fewer_when_linear(self, monkeypatch, amp, pp, dt, T, cap, fewer):
        u0, u1 = small_gaussian_data(self.grid, amp)
        _, diag = etd_oracle(u0, u1, pp, dt, T, blowup_threshold=cap)
        _, fixed = rung0_oracle(monkeypatch, u0, u1, pp, dt, T, blowup_threshold=cap)
        assert fixed.rejected == 0
        assert diag.steps <= fixed.steps
        if fewer:
            assert diag.steps < fixed.steps

    def test_nonlinear_gap_to_rung0_below_tolerance(self, monkeypatch):
        # Cubic, amplitude 0.03: the nonlinear part is 0.2% to 0.8% of the
        # solution, and the controller climbs (198 of 800 steps here).
        # Its gap to the fixed-step run was 1.2e-7; the bound is ETD_TOL.
        u0, u1 = small_gaussian_data(self.grid, 0.03)
        dt, store = 0.0125, [2.5, 5.0, 7.5, 10.0]
        traj, diag = etd_oracle(u0, u1, PP3, dt, 10.0, store_times=store)
        fixed, fixed_diag = rung0_oracle(
            monkeypatch, u0, u1, PP3, dt, 10.0, store_times=store
        )
        assert diag.steps < fixed_diag.steps / 2
        assert np.array_equal(traj.times, fixed.times)
        fields, refs = trajectory_fields(traj), trajectory_fields(fixed)
        for t, f, ref in zip(traj.times[1:], fields[1:], refs[1:]):
            size = lebesgue_norm(ref, 2.0)
            linear = linear_solution(u0, u1, float(t))
            assert lebesgue_norm(ref - linear, 2.0) > 100 * ETD_TOL * size
            assert lebesgue_norm(f - ref, 2.0) < ETD_TOL * size

    @pytest.mark.parametrize(
        "N, L, pp, amp, dt, T, cap, climbs",
        [
            (512, 40.0, PP2, 1.0, 0.005, 20.0, 50.0, False),  # configs/blowup.cfg
            (256, 40.0, PP3, 0.2, 0.01, 60.0, 50.0, True),  # slow ignition
            (256, 64.0, PP3, 1e-3, 0.01, 10.0, 1.25e-3, True),  # cap met while linear
        ],
    )
    def test_escape_time_matches_rung0(self, monkeypatch, N, L, pp, amp, dt, T, cap, climbs):
        # The climbing runs come back down to dt before the escape: an
        # escaping step above rung 0 is retried one rung down.
        grid = make_grid(1, N, L)
        u0 = gaussian(grid, width=2.0, amplitude=amp)
        _, diag = etd_oracle(u0, u0, pp, dt, T, blowup_threshold=cap)
        _, fixed = rung0_oracle(monkeypatch, u0, u0, pp, dt, T, blowup_threshold=cap)
        assert diag.blown_up and fixed.blown_up
        assert diag.escape_time == fixed.escape_time
        assert (diag.steps < fixed.steps) == climbs


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
        ratios = [first_contraction_ratio(d) for d in diags]
        slope = np.polyfit(np.log10(horizons), np.log10(ratios), 1)[0]
        assert 1.0 <= slope <= 2.2
        bound_const = max(r / T for r, T in zip(ratios, horizons))
        assert all(r <= bound_const * T * (1 + 1e-9) for r, T in zip(ratios, horizons))


def linear_trajectory(u1, times):
    """The flow of data (0, u1) at times, as spectra."""
    xi = u1.grid.freq_abs
    return Trajectory(u1.grid, times, tuple(damped_L(float(t), xi) * u1.spectrum for t in times))


class TestDecayStudy:
    def test_linear_flow_smoothness_decay_rate(self):
        grid = make_grid(1, 4096, 800.0)
        u1 = slow_decay(grid, r=4.0, eps=0.05)
        times = np.concatenate([[0.0], np.geomspace(1.0, 200.0, 25)])
        traj = linear_trajectory(u1, times)
        report = decay_study(traj, PP3, fit_window=(20.0, 200.0))
        fitted = report.scalars["fitted_smooth_exponent"]
        expected = report.scalars["expected_smooth_exponent"]
        assert expected == pytest.approx(-0.875)
        assert abs(fitted - expected) < 0.1 * abs(expected)
        assert report.verdicts["weighted_sup_bounded"] == "pass"

    def test_weighted_sup_is_the_x_norm(self):
        # The study reads each node's norms with x_norm's calls on the
        # spectra the trajectory holds, so the two agree bit for bit.
        grid = make_grid(1, 1024, 200.0)
        u1 = slow_decay(grid, r=4.0, eps=0.05)
        times = np.linspace(0.0, 20.0, 11)
        traj = linear_trajectory(u1, times)
        report = decay_study(traj, PP3)
        assert report.scalars["weighted_sup"] == x_norm(
            traj.times, traj.spectra, PP3, make_blocks(grid)
        )

    def test_rejects_blown_up_runs(self):
        grid = make_grid(1, 64, 10.0)
        zero = np.zeros(grid.spectral_shape, dtype=complex)
        traj = Trajectory(grid, np.array([0.0, 1.0]), (zero, zero))
        with pytest.raises(ValueError, match="blew up"):
            decay_study(traj, PP3, blown_up=True)

    def test_rejects_unconfined_runs(self):
        grid = make_grid(1, 256, 10.0)
        wide = grid.field(np.ones(grid.shape)).spectrum
        traj = Trajectory(grid, np.array([0.0, 1.0]), (wide, wide))
        with pytest.raises(ValueError, match="outer-shell"):
            decay_study(traj, PP3)

    def test_zero_trajectory_reports_zero_norms(self):
        grid = make_grid(1, 128, 20.0)
        times = np.array([0.0, 1.0, 2.0])
        zero = np.zeros(grid.spectral_shape, dtype=complex)
        traj = Trajectory(grid, times, (zero,) * times.size)
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
        # The claim is that data escape: a probe that sees none fails it.
        assert report.verdicts["escaped"] == "fail"
        assert not report.passed()


def test_spectral_tail_fraction_monitors_resolution():
    grid = make_grid(1, 128, 20.0)
    smooth = gaussian(grid, width=1.0)
    assert spectral_tail_fraction(grid, smooth.spectrum) < 1e-10
    rough = field_from_function(grid, lambda x: np.cos(15 * x))
    assert spectral_tail_fraction(grid, rough.spectrum) > 0.9


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
    assert spectral_tail_fraction(grid, f.spectrum) == pytest.approx(expected, rel=1e-12)
