"""Mild-solution construction by Picard iteration and an independent
exponential-time-differencing cross-check.

The fixed-point map sends u to the linear flow plus the Duhamel integral of
u^p.  Both come from one recursion over the time nodes that carries the
spectral pair (u, u_t): half a trapezoid weight of the source enters the u_t
slot, the exact per-mode flow matrix advances the pair one step, and the
other half enters at the far node.  By the semigroup property of the flow
this is the composite trapezoid rule for the Duhamel integral, and it
returns the spectrum at every node without a transform.  Iteration starts
from the linear solution and stops when successive iterates are close in
the weighted solution norm.  The ETD oracle advances the same pair with
the same flow matrix and an explicit second-order treatment of the
nonlinearity; it shares nothing else with the Picard path.  Its steps
come from the ladder dt * 2^k and are controlled by the scheme's own
embedded error estimate, the corrector term, against ETD_TOL; dt is the
floor, so no run takes more steps than at fixed dt, and every step lands
on or before the next store time.

Both time loops stay in coefficients: u^p comes from the alias-free kernel
grid.dealiased_pointwise on spectra they hold.  Picard holds spectra from
start to finish: its difference norms read the spectra of its corrections,
samples are taken once per node for the escape check, and fields exist
only for the trajectory it returns.  The ETD oracle builds fields for its
stored nodes.  A non-finite sample is a blow-up, read off the raw samples
before any field is built.

Neither solver judges admissibility; experiments.run_experiment does.
"""

from __future__ import annotations

import bisect
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
# Local error tolerance of the ETD oracle's step control, relative to the
# L^2 norm of the pair (u, u_t); see etd_oracle.
ETD_TOL = 1e-6


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
    diff_norms: list[float] = dc_field(default_factory=list)
    ratios: list[float] = dc_field(default_factory=list)
    residual: float = math.nan
    iterations: int = 0
    converged: bool = False
    blown_up: bool = False
    escape_time: float | None = None


@dataclass
class OracleDiagnostics:
    steps: int = 0  # steps taken
    rejected: int = 0  # steps retried one rung down
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


def _flow_recursion(
    grid: TorusGrid,
    times: np.ndarray,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    source: Iterable[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Spectra of u at every node from spectral data (u, u_t) = (u_hat,
    v_hat) at t = 0, plus the trapezoid Duhamel integral of the source
    spectra, which are read one node at a time.

    Each step does v += (h/2) F_k; (u, v) <- E(h) (u, v); v += (h/2) F_{k+1}.
    By the semigroup identity E(t - s) E(s - r) = E(t - r) this is the
    composite trapezoid rule on any increasing node set.
    """
    xi = grid.freq_abs
    ends = itertools.pairwise(itertools.repeat(0.0) if source is None else source)
    spectra = [u_hat]
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
        spectra.append(u_hat)
    return spectra


def duhamel_integral(
    grid: TorusGrid, times: np.ndarray, source: Iterable[np.ndarray]
) -> list[np.ndarray]:
    """Spectra at every node t of the integral over [0, t] of the damped
    flow applied to the source, by the composite trapezoid rule on the
    nodes.  source yields one coefficient array per node."""
    zero = np.zeros(grid.spectral_shape, dtype=complex)
    return _flow_recursion(grid, times, zero, zero, source)


def psi_apply(
    traj: Trajectory,
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
) -> Trajectory:
    """One application of the fixed-point map to a trajectory."""
    grid = traj.grid
    source = (_power(grid, f.spectrum.coeffs, pp.p_nl) for f in traj.fields)
    spectra = _flow_recursion(
        grid, traj.times, u0.spectrum.coeffs, u1.spectrum.coeffs, source
    )
    fields = (GridField(grid, _samples(grid, c, grid.points_per_axis)) for c in spectra)
    return Trajectory(traj.times, tuple(fields))


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

    The iteration holds spectra only: u^p comes from the spectrum of the
    iterate, the difference norms from the spectra of the corrections, and
    samples are taken once per node for the escape check.  Fields are
    built for the returned trajectory alone.
    """
    if u0.grid != u1.grid:
        raise ValueError("initial data live on different grids")
    data_linf = max(u0.max_abs(), u1.max_abs())
    if cfg.blowup_threshold <= data_linf:
        raise ValueError("blowup threshold must exceed the initial data max-norm")
    if blocks is None:
        blocks = make_blocks(u0.grid)

    grid = u0.grid
    N = grid.points_per_axis
    times = cfg.time_grid
    diag = PicardDiagnostics()
    linear = _flow_recursion(grid, times, u0.spectrum.coeffs, u1.spectrum.coeffs)
    correction = [0.0] * times.size
    samples = None  # of the last iterate that stayed finite, once there is one

    for iteration in range(1, cfg.max_iters + 1):
        source = (_power(grid, a + b, pp.p_nl) for a, b in zip(linear, correction))
        update = duhamel_integral(grid, times, source)
        diag.iterations = iteration
        taken = []
        for t, a, b in zip(times, linear, update):
            taken.append(_samples(grid, a + b, N))
            if _escaped(taken[-1], cfg.blowup_threshold):
                diag.blown_up = True
                diag.escape_time = float(t)
                break
        if diag.blown_up:
            break
        steps = (a - b for a, b in zip(update, correction))
        diff_norm = x_norm(times, steps, pp, blocks)
        diag.diff_norms.append(diff_norm)
        if len(diag.diff_norms) >= 2 and diag.diff_norms[-2] > 0:
            diag.ratios.append(diff_norm / diag.diff_norms[-2])
        correction, samples = update, taken
        if diff_norm < cfg.picard_tol:
            diag.converged = True
            break
    if diag.blown_up:
        diag.residual = math.inf
    else:
        diag.residual = diag.diff_norms[-1] if diag.diff_norms else 0.0
    if samples is None:  # no iterate was kept: return the linear solution
        samples = [_samples(grid, a, N) for a in linear]
    return Trajectory(times, tuple(GridField(grid, v) for v in samples)), diag


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


def _pair_norm(grid: TorusGrid, u_hat: np.ndarray, v_hat: np.ndarray) -> float:
    """L^2 norm of the pair (u, v) from its half spectra (Parseval)."""
    power = np.abs(u_hat) ** 2 + np.abs(v_hat) ** 2
    return math.sqrt(float(np.sum(grid.mode_weight * power)))


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
    """Second-order exponential time differencing on the pair (u, u_t),
    with error-controlled steps on the ladder dt * 2^k.

    The linear half-step is the exact per-mode flow; the nonlinearity is
    treated explicitly with a predictor-corrector weighting, so the scheme
    is exact on linear problems and second order otherwise.  The corrector
    i2 (n1 - n0), in the u and the v slot, is the gap between the first-
    and the second-order update: a local error estimate that costs no
    extra transform (Cox & Matthews 2002).  A step of rung k > 0 whose
    estimate exceeds ETD_TOL times the L^2 norm of the pair at its start,
    or that escapes, is retried one rung down with the same n0.  An
    accepted step whose estimate is below an eighth of that climbs one
    rung: the estimate grows like the step squared, so the next step
    stays under the tolerance with a factor 2 to spare.  Rung 0 is always
    accepted, which makes dt the floor: no run takes more steps than at
    fixed dt, and an escape is resolved to dt.  The position is an integer
    count of dt (t = m dt), and no step crosses the next store time or the
    horizon, so every store time is hit exactly.  The first step with a
    non-finite sample or one above blowup_threshold is the escape, stored
    when its samples are finite; the final tail fraction is that of the
    last finite samples.
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    if u0.grid != u1.grid:
        raise ValueError("initial data live on different grids")
    grid = u0.grid
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("horizon must be an integer number of steps")

    if store_times is None:
        store_idx = set(range(0, steps + 1, max(1, steps // 200)))
        store_idx.add(steps)
    else:
        store_idx = {int(round(t / dt)) for t in store_times}
        store_idx.add(0)
    landings = sorted(m for m in store_idx | {steps} if 0 < m <= steps)
    rungs = {}  # k -> _etd_coefficients(grid, dt * 2^k), built on first use

    uh = u0.spectrum.coeffs.copy()
    vh = u1.spectrum.coeffs.copy()
    diag = OracleDiagnostics()
    out_times = [0.0]
    out_fields = [GridField(grid, u0.values)]
    last = u0.values
    m, k, n0 = 0, 0, None
    while m < steps:
        if n0 is None:
            n0 = _power(grid, uh, pp.p_nl)
            scale = ETD_TOL * _pair_norm(grid, uh, vh)
        room = landings[bisect.bisect_right(landings, m)] - m
        j = min(k, room.bit_length() - 1)
        if j not in rungs:
            rungs[j] = _etd_coefficients(grid, dt * 2**j)
        (e11, e12, e21, e22), (i1u, i2u, i1v, i2v) = rungs[j]
        pred_u = e11 * uh + e12 * vh + i1u * n0
        dn = _power(grid, pred_u, pp.p_nl) - n0
        cu, cv = i2u * dn, i2v * dn
        err = _pair_norm(grid, cu, cv)
        if j > 0 and not err <= scale:
            diag.rejected += 1
            k = j - 1
            continue
        new_u = pred_u + cu
        values = _samples(grid, new_u, grid.points_per_axis)
        escaped = _escaped(values, blowup_threshold)
        if j > 0 and escaped:
            diag.rejected += 1
            k = j - 1
            continue
        uh, vh = new_u, e21 * uh + e22 * vh + i1v * n0 + cv
        n0 = None
        m += 2**j
        diag.steps += 1
        if j == k and 8.0 * err < scale:
            k += 1
        t = m * dt
        if not escaped or np.all(np.isfinite(values)):
            last = values
            if escaped or m in store_idx:
                out_times.append(t)
                out_fields.append(GridField(grid, values))
        if escaped:
            diag.blown_up = True
            diag.escape_time = t
            break
    diag.final_tail_fraction = spectral_tail_fraction(GridField(grid, last))
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
    the first-iteration ratio grows about linearly.  The picard table holds
    every run's difference norms, one row per iteration.
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
    history = Table(
        columns=[variable, "iteration", "diff_norm"],
        rows=[
            [float(v), float(i), d]
            for v, diag in zip(values, diags)
            for i, d in enumerate(diag.diff_norms, start=1)
        ],
    )
    return ExperimentReport(
        kind="contraction",
        scalars={
            "fitted_slope": float(slope),
            "expected_slope": expected,
            "intercept": float(intercept),
        },
        tables={"ratios": table, "picard": history},
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
            a, b, pp, cfg.etd_dt, cfg.horizon,
            blowup_threshold=cfg.blowup_threshold, store_times=[cfg.horizon],
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
