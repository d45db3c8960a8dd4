"""No reduction on a check's path drops a NaN.  Python's max keeps its
first argument when a comparison with NaN is false, and a mask like
values > 0 leaves a NaN out, so either would let a NaN sample pass its
check unless it came first.  Each test here puts the NaN in a position
other than the first and sees the check read it."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from besov_wave_lab import experiments, solver
from besov_wave_lab.experiments import run_experiment
from besov_wave_lab.grid import make_grid
from besov_wave_lab.norms import Trajectory, time_bracket
from besov_wave_lab.propagator import fit_power_law
from besov_wave_lab.solver import decay_study

from test_cli import SMALL_FLOW
from test_solver import PP3


def test_mode_ode_worst_residual_keeps_a_nan(tmp_path, monkeypatch):
    # The last of the special pairs (t = 37, xi = 4) reads NaN.
    original = experiments.damped_L

    def damped_L(t, xi):
        return math.nan if (round(t), xi) == (37, 4.0) else original(t, xi)

    monkeypatch.setattr(experiments, "damped_L", damped_L)
    report = run_experiment("mode-ode", {"experiment": {"kind": "mode-ode"}}, tmp_path, seed=0)
    assert math.isnan(report.scalars["max_residual"])
    assert report.verdicts["mode_ode"] == "fail"


def test_ensemble_max_keeps_a_nan_chunk(monkeypatch):
    # Three chunks of one member each; the second measures NaN.
    monkeypatch.setattr(experiments, "_chunk_members", lambda blocks, stacks: 1)
    measures = iter([np.array([1.0]), np.array([math.nan]), np.array([2.0])])
    got = experiments._ensemble_max(None, 3, lambda b: (), lambda blocks: next(measures), 1.0)
    assert math.isnan(got)


def test_global_decay_agreement_keeps_a_nan_node(tmp_path, monkeypatch):
    # The agreement takes two pair norms a node: the difference, then the
    # Picard state's.  The second node's difference reads NaN.
    original, calls = experiments._pair_norm, []

    def pair_norm(grid, *spectra):
        calls.append(None)
        return math.nan if len(calls) == 3 else original(grid, *spectra)

    monkeypatch.setattr(experiments, "_pair_norm", pair_norm)
    cfg = {
        "experiment": {"kind": "global-decay"},
        "grid": {"N": "256", "L": "64"},
        "solver": {"T": "2", "nodes": "9", "etd_dt": "0.05"},
    }
    report = run_experiment("global-decay", cfg, tmp_path, seed=0)
    assert math.isnan(report.scalars["oracle_agreement"])
    assert report.verdicts["oracle_agreement"] == "fail"


def test_decay_study_confinement_keeps_a_nan_node(monkeypatch):
    # A NaN outer-shell fraction at the second node rejects the study, as
    # an unconfined run does.
    grid = make_grid(1, 128, 20.0)
    zero = np.zeros(grid.spectral_shape, dtype=complex)
    traj = Trajectory(grid, np.array([0.0, 1.0, 2.0]), (zero,) * 3)
    fractions = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr(solver, "outer_shell_fraction", lambda f: next(fractions))
    with pytest.raises(ValueError, match="outer-shell mass fraction nan"):
        decay_study(traj, PP3)


def test_fit_power_law_reads_nan_for_a_non_finite_sample():
    # A NaN or inf sample in the window makes every output NaN; one outside
    # the window, and a finite non-positive sample, are still left out.
    ts = np.geomspace(1.0, 100.0, 12)
    values = 3.0 * time_bracket(ts) ** -0.5
    values[2] = 0.0
    slope, _, _ = fit_power_law(ts, values, window=(1.0, 100.0))
    assert slope == pytest.approx(-0.5)
    values[0] = math.nan
    assert fit_power_law(ts, values)[0] == pytest.approx(-0.5)
    for bad in (math.nan, math.inf):
        values[7] = bad
        assert all(map(math.isnan, fit_power_law(ts, values, window=(1.0, 100.0))))


def test_block_spread_keeps_a_nan_ratio(tmp_path, monkeypatch):
    # The second low-side block's largest ratio reads NaN, which the
    # positive-ratio filter used to drop.
    original = experiments.verify_block_estimates

    def with_a_nan(*args, **kwargs):
        reps = original(*args, **kwargs)
        assert reps[1].side == "low"
        reps[1] = SimpleNamespace(k=reps[1].k, side="low", max_ratio=math.nan,
                                  fitted_exponent=reps[1].fitted_exponent)
        return reps

    monkeypatch.setattr(experiments, "verify_block_estimates", with_a_nan)
    cfg = {"experiment": {"kind": "block-estimates"}, **SMALL_FLOW}
    report = run_experiment("block-estimates", cfg, tmp_path, seed=0)
    assert math.isnan(report.scalars["low_spread"])
    assert report.verdicts["low_k_independent"] == "fail"
    assert report.verdicts["high_k_independent"] == "pass"


def test_interpolation_max_ratio_keeps_a_nan_theta(tmp_path, monkeypatch):
    # The per-theta maxima read 1.5, NaN and 2.0: the NaN stands second.
    maxima = iter([1.5, math.nan, 2.0])
    monkeypatch.setattr(experiments, "_ensemble_max", lambda *args, **kwargs: next(maxima))
    cfg = {
        "experiment": {"kind": "interpolation", "ensemble": "1", "thetas": "0.25,0.5,0.75"},
        "grid": {"N": "64", "L": "20"},
    }
    report = run_experiment("interpolation", cfg, tmp_path, seed=0)
    assert math.isnan(report.scalars["max_ratio"])
    assert report.verdicts["finite_constants"] == "fail"
