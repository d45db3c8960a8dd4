"""Mild-solution construction by Picard iteration and an independent
exponential-time-differencing cross-check.

The fixed-point map sends u to the linear flow plus the Duhamel integral of
u^p.  Both come from one recursion over the time nodes that carries the
spectral pair (u, u_t): half a trapezoid weight of the source enters the u_t
slot, the exact per-mode flow matrix advances the pair one step, and the
other half enters at the far node.  By the semigroup property of the flow
this is the composite trapezoid rule for the Duhamel integral, at one
inverse transform per output node.  Iteration starts from the linear
solution and stops when successive iterates are close in the weighted
solution norm.  The ETD oracle advances the same pair with the same flow
matrix and an explicit second-order treatment of the nonlinearity; it
shares nothing else with the Picard path.

Both time loops stay in coefficients: u^p comes from the alias-free kernel
grid.dealiased_pointwise on spectra they hold, and fields are built only
for norms, stored nodes and reports.  A non-finite sample is a blow-up,
read off the raw samples before any field is built.

Neither solver judges admissibility; experiments.run_experiment does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from besov_wave_lab.grid import (
    GridField,
    TorusGrid,
    _samples,
    dealiased_pointwise,
    integer_power,
    outer_shell_fraction,
    pad_factor_for_power,
    refine_field,
)
from besov_wave_lab.littlewood_paley import DyadicBlocks, make_blocks
from besov_wave_lab.norms import (
    ProblemParams,
    Trajectory,
    besov_seminorm,
    x_norm,
    x_weight,
)
from besov_wave_lab.propagator import damped_L, fit_power_law, flow_matrix
from besov_wave_lab.reporting import ExperimentReport, Table

__all__ = [
    "SolverConfig",
    "PicardDiagnostics",
    "OracleDiagnostics",
    "duhamel_integral",
    "psi_apply",
    "picard_solve",
    "etd_oracle",
    "contraction_report",
    "decay_study",
    "blowup_probe",
    "spectral_tail_fraction",
]

CONFINEMENT_THRESHOLD = 1e-6
TAIL_FRACTION_THRESHOLD = 0.10


@dataclass(frozen=True)
class SolverConfig:
    horizon: float
    time_grid: np.ndarray
    picard_tol: float = 1e-10
    max_iters: int = 25
    blowup_threshold: float = math.inf
    etd_dt: float = 0.01

    def __post_init__(self) -> None:
        grid = np.asarray(self.time_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0:
            raise ValueError("time grid must start at 0 and hold at least 2 nodes")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if abs(grid[-1] - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("time grid must end at the horizon")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.blowup_threshold <= 0:
            raise ValueError("blowup threshold must be positive")
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "time_grid", grid)

    @classmethod
    def uniform(cls, T: float, nodes: int, **kw) -> "SolverConfig":
        return cls(horizon=T, time_grid=np.linspace(0.0, T, nodes), **kw)


@dataclass
class PicardDiagnostics:
    x_norms: list[float] = dc_field(default_factory=list)
    diff_norms: list[float] = dc_field(default_factory=list)
    ratios: list[float] = dc_field(default_factory=list)
    residual: float = math.nan
    iterations: int = 0
    converged: bool = False
    blown_up: bool = False
    escape_time: float | None = None


@dataclass
class OracleDiagnostics:
    steps: int = 0
    blown_up: bool = False
    escape_time: float | None = None
    final_tail_fraction: float = 0.0


def spectral_tail_fraction(f: GridField) -> float:
    """Energy fraction carried by the top frequency octave (resolution monitor)."""
    grid = f.grid
    power = grid.mode_weight * np.abs(f.spectrum.coeffs) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[grid.freq_abs >= grid.max_freq / 2.0])) / total


def _escaped(values: np.ndarray, threshold: float) -> bool:
    """A non-finite sample, or one above the max-norm cap, is a blow-up."""
    peak = float(np.max(np.abs(values)))
    return not math.isfinite(peak) or peak > threshold


def _power(grid: TorusGrid, coeffs: np.ndarray, p: int) -> np.ndarray:
    """Alias-free spectrum of u^p from the spectrum of u."""
    power = partial(integer_power, p=p)
    return dealiased_pointwise(grid, power, pad_factor_for_power(p), coeffs)


def _refine_nodes(times: np.ndarray, source: Sequence[np.ndarray], factor: int):
    """Insert factor - 1 equally spaced nodes into every step, with the
    source spectra interpolated linearly between the ends."""
    lam = np.arange(factor) / factor
    fine = times[:-1, None] + lam * np.diff(times)[:, None]
    fine_times = np.append(fine.ravel(), times[-1])
    fine_source = [(1 - m) * a + m * b for a, b in zip(source, source[1:]) for m in lam]
    return fine_times, fine_source + [source[-1]]


def _flow_recursion(
    grid: TorusGrid,
    times: np.ndarray,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    source: Iterable[np.ndarray] | None = None,
    refine: int = 1,
) -> list[np.ndarray]:
    """Samples of u at every node from spectral data (u, u_t) = (u_hat,
    v_hat) at t = 0, plus the trapezoid Duhamel integral of the source
    spectra, which are read one node at a time.

    Each step does v += (h/2) F_k; (u, v) <- E(h) (u, v); v += (h/2) F_{k+1}.
    By the semigroup identity E(t - s) E(s - r) = E(t - r) this is the
    composite trapezoid rule on any increasing node set.  refine > 1 runs
    on the nodes refined by _refine_nodes and emits the original ones only.
    """
    if refine > 1:
        times, source = _refine_nodes(times, list(source), refine)
    N = grid.points_per_axis
    xi = grid.freq_abs
    ends = itertools.pairwise(itertools.repeat(0.0) if source is None else source)
    samples = [_samples(grid, u_hat, N)]
    h_prev = None
    for k in range(1, times.size):
        h = float(times[k] - times[k - 1])
        if h != h_prev:
            e11, e12, e21, e22 = flow_matrix(h, xi)
            h_prev = h
        f_start, f_end = next(ends)
        v_hat = v_hat + (0.5 * h) * f_start
        u_hat, v_hat = e11 * u_hat + e12 * v_hat, e21 * u_hat + e22 * v_hat
        v_hat = v_hat + (0.5 * h) * f_end
        if k % refine == 0:
            samples.append(_samples(grid, u_hat, N))
    return samples


def duhamel_integral(
    grid: TorusGrid, times: np.ndarray, source: Iterable[np.ndarray]
) -> list[np.ndarray]:
    """Samples at every node t of the integral over [0, t] of the damped
    flow applied to the source, by the composite trapezoid rule on the
    nodes.  source yields one coefficient array per node."""
    zero = np.zeros(grid.spectral_shape, dtype=complex)
    return _flow_recursion(grid, times, zero, zero, source)


def psi_apply(
    traj: Trajectory,
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
    *,
    refine: int = 1,
) -> Trajectory:
    """One application of the fixed-point map to a trajectory.

    refine > 1 refines the trapezoid rule by inserting linearly
    interpolated source nodes; output stays on the original node set.
    """
    grid = traj.grid
    source = (_power(grid, f.spectrum.coeffs, pp.p_nl) for f in traj.fields)
    samples = _flow_recursion(
        grid, traj.times, u0.spectrum.coeffs, u1.spectrum.coeffs, source, refine
    )
    return Trajectory(traj.times, tuple(GridField(grid, v) for v in samples))


def picard_solve(
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
    cfg: SolverConfig,
    *,
    blocks: DyadicBlocks | None = None,
) -> tuple[Trajectory, PicardDiagnostics]:
    """Fixed-point iteration for the integral equation with source u^p.

    Starts from the linear solution and stops when the successive
    difference drops below picard_tol in the solution norm.  At the first
    node where an iterate has a non-finite sample or crosses the max-norm
    threshold it aborts with a blow-up flag and returns the last iterate
    that did not.  Each iterate is the linear solution plus a Duhamel
    correction; successive differences are taken between corrections, so
    the linear part (the same bits in every iterate) does not set their
    rounding floor.
    """
    if u0.grid != u1.grid:
        raise ValueError("initial data live on different grids")
    data_linf = max(u0.max_abs(), u1.max_abs())
    if cfg.blowup_threshold <= data_linf:
        raise ValueError("blowup threshold must exceed the initial data max-norm")
    if blocks is None:
        blocks = make_blocks(u0.grid)

    grid = u0.grid
    times = cfg.time_grid
    diag = PicardDiagnostics()
    linear = _flow_recursion(grid, times, u0.spectrum.coeffs, u1.spectrum.coeffs)
    current = Trajectory(times, tuple(GridField(grid, v) for v in linear))
    # The fields' own copies, so that the raw samples can go.
    linear = [f.values for f in current.fields]
    diag.x_norms.append(x_norm(current, pp, blocks=blocks))
    correction = [0.0] * times.size

    for iteration in range(1, cfg.max_iters + 1):
        source = (_power(grid, f.spectrum.coeffs, pp.p_nl) for f in current.fields)
        update = duhamel_integral(grid, times, source)
        diag.iterations = iteration
        fields = []
        for t, a, b in zip(times, linear, update):
            values = a + b
            if _escaped(values, cfg.blowup_threshold):
                diag.blown_up = True
                diag.escape_time = float(t)
                diag.residual = math.inf
                return current, diag
            fields.append(GridField(grid, values))
        steps = (GridField(grid, a - b) for a, b in zip(update, correction))
        diff_norm = x_norm(Trajectory(times, tuple(steps)), pp, blocks=blocks)
        diag.diff_norms.append(diff_norm)
        current = Trajectory(times, tuple(fields))
        diag.x_norms.append(x_norm(current, pp, blocks=blocks))
        if len(diag.diff_norms) >= 2 and diag.diff_norms[-2] > 0:
            diag.ratios.append(diff_norm / diag.diff_norms[-2])
        correction = update
        if diff_norm < cfg.picard_tol:
            diag.converged = True
            break
    diag.residual = diag.diff_norms[-1] if diag.diff_norms else 0.0
    return current, diag


def _etd_coefficients(grid: TorusGrid, dt: float):
    """One-step flow matrix and nonlinear-update weights.

    The weights are integrals over [0, dt] of the damped kernels against 1
    and (1 - s/dt).  Gauss-Legendre with order scaled to dt * max|xi| keeps
    the e12 ones exact to rounding for any resolved mode; the e22 ones
    follow exactly from d/ds e12 = e22 and e12(0) = 0.
    """
    xi = grid.freq_abs
    flow = flow_matrix(dt, xi)
    order = int(math.ceil(dt * grid.max_freq / 2.0)) + 24
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s = 0.5 * dt * (nodes + 1.0)
    w = 0.5 * dt * weights
    i1u = np.zeros_like(xi)
    i2u = np.zeros_like(xi)
    for sk, wk in zip(s, w):
        lk = damped_L(float(sk), xi)
        i1u += wk * lk
        i2u += wk * lk * (1.0 - sk / dt)
    return flow, (i1u, i2u, flow[1], i1u / dt)


def etd_oracle(
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
    dt: float,
    T: float,
    *,
    blowup_threshold: float = math.inf,
    store_times: Sequence[float] | None = None,
) -> tuple[Trajectory, OracleDiagnostics]:
    """Second-order exponential time differencing on the pair (u, u_t).

    The linear half-step is the exact per-mode flow; the nonlinearity is
    treated explicitly with a predictor-corrector weighting, so the scheme
    is exact on linear problems and second order otherwise.  The first
    step with a non-finite sample or one above blowup_threshold is the
    escape, stored when its samples are finite.
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    if u0.grid != u1.grid:
        raise ValueError("initial data live on different grids")
    grid = u0.grid
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("horizon must be an integer number of steps")
    (e11, e12, e21, e22), (i1u, i2u, i1v, i2v) = _etd_coefficients(grid, dt)

    if store_times is None:
        store_idx = set(range(0, steps + 1, max(1, steps // 200)))
        store_idx.add(steps)
    else:
        store_idx = {int(round(t / dt)) for t in store_times}
        store_idx.add(0)

    uh = u0.spectrum.coeffs.copy()
    vh = u1.spectrum.coeffs.copy()
    diag = OracleDiagnostics()
    out_times = [0.0]
    out_fields = [GridField(grid, u0.values)]
    for step in range(1, steps + 1):
        n0 = _power(grid, uh, pp.p_nl)
        lin_u = e11 * uh + e12 * vh
        lin_v = e21 * uh + e22 * vh
        pred_u = lin_u + i1u * n0
        n1 = _power(grid, pred_u, pp.p_nl)
        uh = lin_u + i1u * n0 + i2u * (n1 - n0)
        vh = lin_v + i1v * n0 + i2v * (n1 - n0)
        diag.steps = step
        t = step * dt
        values = _samples(grid, uh, grid.points_per_axis)
        escaped = _escaped(values, blowup_threshold)
        if (escaped or step in store_idx) and np.all(np.isfinite(values)):
            out_times.append(t)
            out_fields.append(GridField(grid, values))
        if escaped:
            diag.blown_up = True
            diag.escape_time = t
            break
    diag.final_tail_fraction = spectral_tail_fraction(out_fields[-1])
    return Trajectory(np.array(out_times), tuple(out_fields)), diag


def first_contraction_ratio(diag: PicardDiagnostics) -> float:
    """||u2 - u1|| / ||u1 - u0||, the observable contraction factor."""
    if len(diag.diff_norms) < 2 or diag.diff_norms[0] == 0.0:
        raise ValueError("need at least two Picard corrections with nonzero first step")
    return diag.diff_norms[1] / diag.diff_norms[0]


def contraction_report(
    values: Sequence[float],
    diags: Sequence[PicardDiagnostics],
    pp: ProblemParams,
    *,
    variable: str = "amplitude",
) -> ExperimentReport:
    """Fit of log(contraction ratio) against log(amplitude or horizon).

    Against amplitude the expected slope is p - 1; against small horizons
    the first-iteration ratio grows about linearly.
    """
    if len(values) != len(diags) or len(values) < 2:
        raise ValueError("need matching values and diagnostics, at least two runs")
    ratios = [first_contraction_ratio(d) for d in diags]
    slope, intercept = np.polyfit(np.log10(values), np.log10(ratios), 1)
    expected = float(pp.p_nl - 1) if variable == "amplitude" else 1.0
    table = Table(
        columns=[variable, "contraction_ratio"],
        rows=[[float(v), float(r)] for v, r in zip(values, ratios)],
    )
    return ExperimentReport(
        kind="contraction",
        scalars={
            "fitted_slope": float(slope),
            "expected_slope": expected,
            "intercept": float(intercept),
        },
        tables={"ratios": table},
        meta={"variable": variable, "p_nl": pp.p_nl},
    )


def decay_study(
    traj: Trajectory,
    pp: ProblemParams,
    *,
    blown_up: bool = False,
    blocks: DyadicBlocks | None = None,
    fit_window: tuple[float, float] | None = None,
    trend_tol: float = 0.05,
) -> ExperimentReport:
    """Decay fits and the weighted-sup boundedness verdict for a solved run.

    Rejects blown-up runs and runs whose mass reaches the outer shell of
    the box (the torus would stop approximating whole space there).  A
    smoothness series that is not positive after t = 0 leaves nothing to
    fit; the verdict is then "undetermined", which does not pass.
    """
    if blown_up:
        raise ValueError("decay study rejected: the run blew up")
    confinement = max(outer_shell_fraction(f) for _, f in traj)
    if confinement > CONFINEMENT_THRESHOLD:
        raise ValueError(
            f"decay study rejected: outer-shell mass fraction {confinement:.3e} "
            f"exceeds {CONFINEMENT_THRESHOLD:.1e}"
        )
    if blocks is None:
        blocks = make_blocks(traj.grid)
    ts, b_r, b_s, weighted, running = [], [], [], [], []
    for t, f in traj:
        ts.append(float(t))
        br = besov_seminorm(f, 0.0, pp.r, blocks=blocks)
        bs = besov_seminorm(f, pp.s, 2.0, blocks=blocks)
        ts_w = float(x_weight(t, pp))
        b_r.append(br)
        b_s.append(bs)
        weighted.append(ts_w * bs + br)
        running.append(max(weighted[-1], running[-1]) if running else weighted[-1])
    ts_arr = np.array(ts)
    scalars: dict[str, float] = {
        "confinement_fraction": confinement,
        "weighted_sup": running[-1],
        "expected_smooth_exponent": -pp.x_weight_exponent(),
    }
    verdicts = {"weighted_sup_bounded": "undetermined"}
    if np.all(np.array(b_s)[1:] > 0):
        slope_s, _, _ = fit_power_law(ts_arr, np.array(b_s), window=fit_window)
        scalars["fitted_smooth_exponent"] = slope_s
        # The solution-space norm up to time t is the running sup of the
        # weighted integrand; boundedness means it saturates, so its
        # late-window log-slope must sit at zero.
        slope_w, _, _ = fit_power_law(ts_arr, np.array(running), window=fit_window)
        scalars["weighted_trend_slope"] = slope_w
        slope_i, _, _ = fit_power_law(ts_arr, np.array(weighted), window=fit_window)
        scalars["integrand_trend_slope"] = slope_i
        verdicts["weighted_sup_bounded"] = (
            "pass" if slope_w <= trend_tol else "fail"
        )
        slope_r, _, _ = fit_power_law(ts_arr, np.array(b_r), window=fit_window)
        scalars["fitted_decay_exponent"] = slope_r
    table = Table(
        columns=["t", "besov_r", "besov_s", "weighted_x", "running_sup"],
        rows=[
            [ts[i], b_r[i], b_s[i], weighted[i], running[i]]
            for i in range(len(ts))
        ],
    )
    return ExperimentReport(
        kind="decay-study",
        scalars=scalars,
        verdicts=verdicts,
        tables={"decay": table},
        meta={"n": pp.n, "r": pp.r, "s": pp.s, "p_nl": pp.p_nl},
    )


def blowup_probe(
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
    cfg: SolverConfig,
) -> ExperimentReport:
    """Escape-time probe at two spatial resolutions.

    Non-escape within the horizon is a valid outcome; when both
    resolutions escape, their relative gap measures discretization
    sensitivity.
    """
    times = {}
    tails = {}
    for label, (a, b) in {
        "coarse": (u0, u1),
        "fine": (refine_field(u0), refine_field(u1)),
    }.items():
        _, diag = etd_oracle(
            a, b, pp, cfg.etd_dt, cfg.horizon, blowup_threshold=cfg.blowup_threshold
        )
        times[label] = diag.escape_time
        tails[label] = diag.final_tail_fraction
    escaped = all(t is not None for t in times.values())
    scalars: dict[str, float] = {
        "tail_fraction_coarse": tails["coarse"],
        "tail_fraction_fine": tails["fine"],
    }
    verdicts = {"escaped": "pass" if escaped else "no-escape"}
    if escaped:
        t_c, t_f = times["coarse"], times["fine"]
        scalars["escape_time_coarse"] = t_c
        scalars["escape_time_fine"] = t_f
        scalars["escape_time_rel_gap"] = abs(t_c - t_f) / max(t_c, t_f)
    return ExperimentReport(
        kind="blowup-probe",
        scalars=scalars,
        verdicts=verdicts,
        meta={"p_nl": pp.p_nl, "fujita": pp.fujita, "horizon": cfg.horizon},
    )
