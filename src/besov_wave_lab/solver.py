"""Mild-solution construction by Picard iteration and an independent
exponential-time-differencing cross-check.

The fixed-point map sends u to the linear flow plus the Duhamel integral of
u^p.  Both come from one recursion over the time nodes that carries the
spectral pair (u, u_t) through exponential steps: the exact per-mode flow
matrix plus the integrals of its kernels against a source that is linear
on the step (Cox & Matthews 2002; Hochbruck & Ostermann, Acta Numerica 19
(2010), sec. 2).  A piecewise-linear source is integrated exactly, and the
spectrum comes out at every node without a transform.  Iteration starts
from the linear solution and stops when successive iterates are close in
the weighted solution norm.  The ETD oracle takes the same step with the
source at its end predicted by a first-order step (ETD2); the two loops
share the step and its cached weights and nothing more.  The oracle's
steps are whole counts of dt: a rung dt * 2^k of a ladder, cut short to
land on the next store time.  The corrector term, the scheme's own error
estimate, picks the rung against ETD_TOL, and may climb several rungs at
once; dt is the floor, so no run takes more steps than at fixed dt, and
every store time is hit exactly.

Both time loops hold spectra from start to finish: u^p comes from the
alias-free kernel grid.dealiased_pointwise on spectra they hold (the
oracle resolves the kernel's kept set for its power once per run, by
grid._power_kernel), Picard's difference norms read the spectra of its
corrections, and the trajectories they return hold spectra.  Each time
loop, _flow_recursion's and the oracle's, holds one errstate that ignores
overflow and invalid around all its steps; _step and the oracle's powers
enter none of their own and rely on it, so an overflow is left to the
samples, where the escape gate reads it.  The nodes of a Picard
iteration are independent in u^p, the norms and the escape gate, which
Picard takes in stacked chunks of nodes.  One gate, _peaks, serves both
loops: the Fourier-series bound _sup_bound, a sum over the spectrum, is
at least the max-norm, so a state whose bound sits under the threshold
(with a margin far above rounding) cannot escape and is not sampled.
The others are sampled in one stacked call, and a non-finite sample, or
one above the threshold, is a blow-up.

Neither solver judges admissibility; experiments.run_experiment does.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from besov_wave_lab.grid import (
    GridField,
    TorusGrid,
    _node_chunks,
    _power,
    _power_kernel,
    _samples,
    outer_shell_fraction,
    pad_factor_for_power,
    refine_field,
)
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.norms import ProblemParams, Trajectory, _x_integrand, x_norm
from besov_wave_lab.propagator import damped_L, fit_power_law, flow_matrix
from besov_wave_lab.reporting import Check, ExperimentReport, Table

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
# Local error tolerance of the ETD oracle's step control, relative to the
# L^2 norm of the pair (u, u_t); see etd_oracle.
ETD_TOL = 1e-6
# Largest late-window log-slope of the running weighted sup that decay_study
# still counts as bounded.
TREND_TOL = 0.05


@dataclass(frozen=True)
class SolverConfig:
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
        if not self.picard_tol > 0:
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.etd_dt > 0:
            raise ValueError(f"etd_dt must be positive, got {self.etd_dt}")
        if not self.blowup_threshold > 0:
            raise ValueError(f"blowup threshold must be positive, got {self.blowup_threshold}")
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "time_grid", grid)

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1])

    @classmethod
    def uniform(cls, T: float, nodes: int, **kw) -> "SolverConfig":
        if not T > 0:
            raise ValueError(f"horizon T must be positive, got {T}")
        return cls(time_grid=np.linspace(0.0, T, nodes), **kw)


@dataclass
class PicardDiagnostics:
    diff_norms: list[float] = dc_field(default_factory=list)
    picard_tol: float = math.nan
    escape_time: float | None = None

    @property
    def blown_up(self) -> bool:
        return self.escape_time is not None

    @property
    def iterations(self) -> int:
        """Iterations begun: one a difference norm, plus the one that escaped."""
        return len(self.diff_norms) + self.blown_up

    @property
    def residual(self) -> float:
        """The last successive difference: inf after an escape, NaN before any."""
        if self.blown_up:
            return math.inf
        return self.diff_norms[-1] if self.diff_norms else math.nan

    @property
    def convergence(self) -> Check:
        """The last successive difference against picard_tol."""
        return Check(self.residual, "<", self.picard_tol)

    @property
    def converged(self) -> bool:
        return self.convergence.status == "pass"


@dataclass
class OracleDiagnostics:
    steps: int = 0  # steps taken
    rejected: int = 0  # steps retried on the largest rung shorter than them
    escape_time: float | None = None
    final_tail_fraction: float = 0.0

    @property
    def blown_up(self) -> bool:
        return self.escape_time is not None


def _mode_power(grid: TorusGrid, *spectra: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Parseval's density mode_weight * sum |c|^2 of half spectra, its sum,
    and the scale both are taken over.  The scale is 1 unless the sum
    overflows for finite spectra; then both are taken again of the spectra
    over their largest |c|, which is the scale.  So only a state whose
    squares overflow pays a second pass."""
    with np.errstate(over="ignore"):
        power = _weighted_squares(grid, [np.abs(c) for c in spectra])
    total = float(power.sum())
    if math.isfinite(total):
        return power, total, 1.0
    peak = max(float(np.max(np.abs(c))) for c in spectra)
    if not math.isfinite(peak):
        return power, total, 1.0
    power = _weighted_squares(grid, [np.abs(c) / peak for c in spectra])
    return power, float(power.sum()), peak


def _weighted_squares(grid: TorusGrid, sizes: list[np.ndarray]) -> np.ndarray:
    """mode_weight * (sizes[0]**2 + sizes[1]**2 + ...), the squares added
    in order; written over sizes, which must be the caller's to give up."""
    power = np.square(sizes[0], out=sizes[0])
    for size in sizes[1:]:
        power += np.square(size, out=size)
    power *= grid.mode_weight
    return power


def spectral_tail_fraction(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """Energy fraction of the field with half spectrum coeffs carried by the
    top frequency octave (resolution monitor)."""
    power, total, _ = _mode_power(grid, coeffs)
    if total == 0.0:
        return 0.0
    return float(np.sum(power[grid.freq_abs >= grid.max_freq / 2.0])) / total


def _sup_bound(grid: TorusGrid, coeffs: np.ndarray):
    """(2 pi)^(-n/2) dxi^n sum(mode_weight |c|), at least the max-norm of
    the field with half spectrum coeffs: each sample is a sum of the
    coefficients times unit phases, a real part on self-paired entries.
    Stacked on leading axes, each array's bound is the one it gives alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        return grid._sup_scale * (np.abs(coeffs) * grid.mode_weight).sum(axis=grid._axes)


def _escapes(peaks, threshold: float):
    """Blow-ups among peaks of _peaks: NaN, inf (no finite cap holds either) or above threshold."""
    return np.logical_not(peaks <= min(threshold, sys.float_info.max))


def _peaks(grid: TorusGrid, coeffs: np.ndarray, threshold: float):
    """Per half spectrum stacked on leading axes of coeffs: its _sup_bound
    if that is finite and under the threshold, and under the size whose
    transform could overflow, by a margin of 1e-9 that no rounding of a
    transform reaches; else the max |u| of its samples, all taken in one
    _samples call (inf or NaN for a non-finite sample).  _escapes tells
    which peaks are blow-ups: a caller reads that once, off the peaks."""
    cap = min(threshold, grid._sup_scale * sys.float_info.max)
    # Finite, so that an inf bound clears nothing, even under an infinite threshold.
    clear = min(cap * (1.0 - 1e-9), sys.float_info.max)
    peaks = _sup_bound(grid, coeffs)
    # Written as a negation, so that a NaN bound is sampled.
    unclear = np.logical_not(peaks <= clear)
    if np.count_nonzero(unclear):
        peaks = np.array(peaks)
        samples = _samples(grid, coeffs[unclear], grid.points_per_axis)
        peaks[unclear] = np.max(np.abs(samples), axis=grid._axes)
    return peaks


def _step_weights(grid: TorusGrid, h: float):
    """Flow matrix E(h) and source weights (i1u, i2u, i1v, i2v) of one
    exponential step, kept in grid._steps by h and not to be written to, so
    each distinct step of a run is built once.  The weights are integrals
    over [0, h] of e12 and e22 against 1 and 1 - s/h.
    Gauss-Legendre with order scaled to h * max|xi| keeps the e12 ones
    exact to rounding for any resolved mode; the e22 ones follow exactly
    from d/ds e12 = e22 and e12(0) = 0.
    """
    kept = grid._steps.get(h)
    if kept is not None:
        return kept
    xi = grid.freq_abs
    flow = flow_matrix(h, xi)
    order = int(math.ceil(h * grid.max_freq / 2.0)) + 24
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s = 0.5 * h * (nodes + 1.0)
    w = 0.5 * h * weights
    i1u = np.zeros_like(xi)
    i2u = np.zeros_like(xi)
    for sk, wk in zip(s, w):
        lk = damped_L(float(sk), xi)
        i1u += wk * lk
        i2u += wk * lk * (1.0 - sk / h)
    kept = grid._steps[h] = flow, (i1u, i2u, flow[1], i1u / h)
    return kept


def _step(grid: TorusGrid, h: float, u_hat, v_hat, f_start, f_end):
    """Advance the spectral pair (u, u_t) by h under a source that runs
    linearly from f_start to f_end: the flow, plus i1 f_start, plus the
    correction i2 (f_end - f_start) in each slot.  f_end may be a function
    of the first-order u at the step's end (ETD2).  Returns the new pair
    and the correction.  The caller holds an errstate that ignores
    overflow and invalid, as each time loop does around all its steps: an
    overflow is left to the samples, as in _power.
    """
    (e11, e12, e21, e22), (i1u, i2u, i1v, i2v) = _step_weights(grid, h)
    u_new = e11 * u_hat + e12 * v_hat + i1u * f_start
    slope = (f_end(u_new) if callable(f_end) else f_end) - f_start
    cu, cv = i2u * slope, i2v * slope
    v_new = e21 * u_hat + e22 * v_hat + i1v * f_start + cv
    return u_new + cu, v_new, (cu, cv)


def _flow_recursion(
    grid: TorusGrid,
    times: np.ndarray,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    source: Iterable[np.ndarray] | None = None,
) -> np.ndarray:
    """Spectra of u at every node, stacked as (nodes,) + spectral shape,
    from spectral data (u, u_t) = (u_hat, v_hat) at t = 0, plus the Duhamel
    integral of the source spectra, read one node at a time: each step is
    _step from F_k to F_{k+1}, exact for a source that is linear between
    the nodes, which may be uneven.
    """
    ends = itertools.pairwise(itertools.repeat(0.0) if source is None else source)
    spectra = np.empty((times.size,) + grid.spectral_shape, dtype=complex)
    spectra[0] = u_hat
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (h, (f_start, f_end)) in enumerate(zip(np.diff(times).tolist(), ends), start=1):
            u_hat, v_hat, _ = _step(grid, h, u_hat, v_hat, f_start, f_end)
            spectra[k] = u_hat
    return spectra


def duhamel_integral(
    grid: TorusGrid, times: np.ndarray, source: Iterable[np.ndarray]
) -> np.ndarray:
    """Spectra at every node t of the integral over [0, t] of the damped
    flow applied to the source, taken as linear between nodes (exponential
    quadrature), stacked as (nodes,) + spectral shape.  source yields one
    coefficient array per node."""
    zero = np.zeros(grid.spectral_shape, dtype=complex)
    return _flow_recursion(grid, times, zero, zero, source)


def psi_apply(
    traj: Trajectory,
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
) -> Trajectory:
    """One application of the fixed-point map to a trajectory's spectra."""
    grid = traj.grid
    source = _sources(grid, traj.spectra, None, pp.p_nl)
    spectra = _flow_recursion(grid, traj.times, u0.spectrum, u1.spectrum, source)
    return Trajectory(grid, traj.times, spectra)


def _sources(
    grid: TorusGrid, linear: np.ndarray, correction: np.ndarray | None, p: int
) -> Iterable[np.ndarray]:
    """Spectra of u^p at every node, in node order, of the iterate
    linear + correction (both stacked as (nodes,) + spectral shape; None
    adds 0.0, the first iteration's zero correction).  The power takes the
    nodes in chunks of grid._node_chunks, stacked on a leading axis of its
    padded lattice; a chunk of one goes unstacked, so that it shares the
    kept buffers of the ETD oracle's powers."""
    points = (pad_factor_for_power(p) * grid.points_per_axis) ** grid.n
    for chunk in _node_chunks(len(linear), points):
        iterate = linear[chunk] + (0.0 if correction is None else correction[chunk])
        power = _power(grid, iterate[0] if len(iterate) == 1 else iterate, p)
        yield from power.reshape((-1,) + grid.spectral_shape)


def picard_solve(
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
    cfg: SolverConfig,
) -> tuple[Trajectory, PicardDiagnostics]:
    """Fixed-point iteration for the integral equation with source u^p.

    Starts from the linear solution and stops, converged, when the
    successive difference drops below picard_tol in the solution norm.
    At the first node where an iterate has a non-finite sample or crosses
    the max-norm threshold it aborts with a blow-up flag (residual inf)
    and returns the last iterate that did not.  Each iterate is the linear
    solution plus a Duhamel correction; successive differences are taken
    between corrections, so the linear part (the same bits in every
    iterate) does not set their rounding floor.

    The iteration holds spectra only, as arrays stacked (nodes,) +
    spectral shape: the linear solution, the last accepted correction and
    the update, and nothing else of a whole trajectory.  u^p comes from
    the iterate's spectra through _sources, in stacked chunks of nodes;
    the escape gate _peaks takes it in chunks of nodes too, and the first
    node that fails is the escape; the difference of two corrections is
    written over the older one, whose X-norm x_norm reads in stacked
    chunks of nodes.  The trajectory returned is formed once, at the end:
    the linear solution plus the last accepted correction, or the linear
    solution itself if none was.
    """
    if u0.grid != u1.grid:
        raise ValueError("initial data live on different grids")
    data_linf = max(u0.max_abs(), u1.max_abs())
    if cfg.blowup_threshold <= data_linf:
        raise ValueError("blowup threshold must exceed the initial data max-norm")
    blocks = make_blocks(u0.grid)
    grid = u0.grid
    times = cfg.time_grid
    diag = PicardDiagnostics(picard_tol=cfg.picard_tol)
    linear = _flow_recursion(grid, times, u0.spectrum, u1.spectrum)
    correction = None  # the last accepted Duhamel correction
    threshold = cfg.blowup_threshold

    for _ in range(cfg.max_iters):
        update = duhamel_integral(grid, times, _sources(grid, linear, correction, pp.p_nl))
        for chunk in _node_chunks(times.size, grid.points_per_axis**grid.n):
            peaks = _peaks(grid, linear[chunk] + update[chunk], threshold)
            escapes = times[chunk][_escapes(peaks, threshold)]
            if escapes.size:
                diag.escape_time = float(escapes[0])
                break
        if diag.blown_up:
            break
        # The step is written over the last correction, which nothing reads
        # again, so no fourth trajectory is allocated.
        diff_norm = x_norm(
            times,
            update if correction is None else np.subtract(update, correction, out=correction),
            pp,
            blocks,
        )
        diag.diff_norms.append(diff_norm)
        correction = update
        if diag.converged:
            break
    spectra = linear if correction is None else np.add(linear, correction, out=correction)
    return Trajectory(grid, times, spectra), diag


def _lattice_count(t: float, dt: float, what: str) -> int:
    """The integer m with t = m dt, up to 1e-9 relative; what names t in
    the error raised for a t off the dt lattice."""
    count = t / dt
    if not math.isfinite(count) or abs(t - round(count) * dt) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what} = {t:.12g} is not a multiple of etd_dt = {dt:g}")
    return round(count)


def _pair_norm(grid: TorusGrid, *spectra: np.ndarray) -> float:
    """L^2 norm, up to a factor dxi^(n/2), of a field or a pair (u, v) from
    its half spectra (Parseval)."""
    _, total, scale = _mode_power(grid, *spectra)
    return scale * math.sqrt(total)


def etd_oracle(
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
    dt: float,
    T: float,
    *,
    blowup_threshold: float = math.inf,
    store_times: Sequence[float] = (),
) -> tuple[Trajectory, OracleDiagnostics]:
    """Exponential time differencing (ETD2) on the pair (u, u_t), with
    error-controlled steps on the ladder dt * 2^k that land on store times.

    Each step is _step with the source at its end, n1, read off the
    first-order update: exact on linear problems, second order otherwise.
    The correction i2 (n1 - n0), in the u and the v slot, is the gap between
    the first- and the second-order update, a local error estimate that
    costs no extra transform.  The position is an integer count of dt
    (t = m dt), and a step on rung k is min(2^k, room) counts, room being
    the count to the next store time or the horizon: a gap the rung covers
    is one step, and every store time is hit exactly.  A step of more than
    one dt whose estimate exceeds ETD_TOL times the L^2 norm of the pair at
    its start, or that escapes, is retried with the same n0 on the largest
    rung shorter than it.  A step of one dt is always accepted, which makes
    dt the floor: no run takes more steps than at fixed dt, and an escape
    is resolved to dt.  An accepted step of a whole rung (not one cut short
    to land) climbs the largest r rungs with 2 * 4^r times its estimate
    under the tolerance: the estimate grows like the step squared, so the
    next step stays under the tolerance with a factor 2 to spare.  The
    climb stops at the first rung longer than the horizon, or an estimate
    of 0 (u^p underflowing) would climb without end.  Store times must lie
    on the dt lattice (to 1e-9 relative, by _lattice_count), in (0, T], and
    apart after rounding, or ValueError names the first that does not; none
    is moved, dropped or merged.  t = 0 is always stored, and the horizon
    is always a landing but stored only as a store time.  The first step
    with a non-finite sample or one above blowup_threshold is the escape,
    stored when its samples are finite; stores hold spectra, in one array
    sized for every store time and an escape.  A step is sampled only when
    the gate _peaks cannot rule its escape out, once; the final tail
    fraction reads the spectrum of the last state with finite samples.
    """
    if not dt > 0:
        raise ValueError(f"etd_dt must be positive, got {dt}")
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if not blowup_threshold > 0:
        raise ValueError(f"blowup threshold must be positive, got {blowup_threshold}")
    if u0.grid != u1.grid:
        raise ValueError("initial data live on different grids")
    grid = u0.grid
    steps = _lattice_count(T, dt, "horizon T")
    store_idx = {0}
    for t in store_times:
        m = _lattice_count(t, dt, "store time t")
        if not 0 < m <= steps:
            raise ValueError(f"store time t = {t:.12g} lies outside (0, T = {T:g}]")
        if m in store_idx:
            raise ValueError(f"store time t = {t:.12g} repeats an earlier store time")
        store_idx.add(m)
    landings = sorted((store_idx | {steps}) - {0})
    power = _power_kernel(grid, pp.p_nl)

    uh, vh = u0.spectrum, u1.spectrum
    diag = OracleDiagnostics()
    out_times, stores = [0.0], np.empty((len(store_idx) + 1,) + uh.shape, dtype=complex)
    stores[0] = last = uh  # last: spectrum of the last state with finite samples
    m, k, n0 = 0, 0, None
    # One errstate for the whole loop, which _step and the powers rely on.
    with np.errstate(over="ignore", invalid="ignore"):
        while m < steps:
            if n0 is None:
                n0 = power(uh)
                scale = ETD_TOL * _pair_norm(grid, uh, vh)
            room = landings[bisect.bisect_right(landings, m)] - m
            units = min(2**k, room)
            new_u, new_v, (cu, cv) = _step(grid, dt * units, uh, vh, n0, power)
            err = _pair_norm(grid, cu, cv)
            retry = units > 1 and not err <= scale
            if not retry:
                peak = float(_peaks(grid, new_u, blowup_threshold))
                finite, escaped = math.isfinite(peak), bool(_escapes(peak, blowup_threshold))
                retry = units > 1 and escaped
            if retry:
                diag.rejected += 1
                k = (units - 1).bit_length() - 1
                continue
            uh, vh = new_u, new_v
            n0 = None
            m += units
            diag.steps += 1
            if units == 2**k:
                # The estimate grows like h^2, so r rungs up it is 4^r err:
                # climb as far as that stays under the scale with a factor 2
                # to spare.
                bound = 2.0 * err
                while k < steps.bit_length() and 4.0 * bound < scale:
                    bound *= 4.0
                    k += 1
            if finite:
                last = uh
                if escaped or m in store_idx:
                    stores[len(out_times)] = uh
                    out_times.append(m * dt)
            if escaped:
                diag.escape_time = m * dt
                break
    diag.final_tail_fraction = spectral_tail_fraction(grid, last)
    return Trajectory(grid, np.array(out_times), stores[: len(out_times)]), diag


def first_contraction_ratio(diag: PicardDiagnostics) -> float:
    """||u2 - u1|| / ||u1 - u0||, the observable contraction factor."""
    if len(diag.diff_norms) < 2 or diag.diff_norms[0] == 0.0:
        raise ValueError("need at least two Picard corrections with nonzero first step")
    return diag.diff_norms[1] / diag.diff_norms[0]


def contraction_report(
    values: Sequence[float],
    diags: Sequence[PicardDiagnostics],
    pp: ProblemParams,
) -> ExperimentReport:
    """Fit of log(contraction ratio) against log(amplitude), whose expected
    slope is p - 1.  values are the amplitudes of the runs diags.  The
    picard table holds every run's difference norms, one row per iteration.
    """
    if len(values) != len(diags) or len(values) < 2:
        raise ValueError("need matching values and diagnostics, at least two runs")
    ratios = [first_contraction_ratio(d) for d in diags]
    slope, intercept = np.polyfit(np.log10(values), np.log10(ratios), 1)
    table = Table(
        columns=["amplitude", "contraction_ratio"],
        rows=[[float(v), float(r)] for v, r in zip(values, ratios)],
    )
    history = Table(
        columns=["amplitude", "iteration", "diff_norm"],
        rows=[
            [float(v), float(i), d]
            for v, diag in zip(values, diags)
            for i, d in enumerate(diag.diff_norms, start=1)
        ],
    )
    return ExperimentReport(
        scalars={
            "fitted_slope": float(slope),
            "expected_slope": float(pp.p_nl - 1),
            "intercept": float(intercept),
        },
        tables={"ratios": table, "picard": history},
    )


def decay_study(
    traj: Trajectory,
    pp: ProblemParams,
    *,
    blown_up: bool = False,
    fit_window: tuple[float, float] | None = None,
) -> ExperimentReport:
    """Decay fits and the weighted-sup boundedness verdict for a solved run.

    Rejects blown-up runs and runs whose mass reaches the outer shell of
    the box (the torus would stop approximating whole space there), or
    whose outer-shell fraction is NaN at any node.  A
    smoothness series that is not positive after t = 0 leaves nothing to
    fit; the verdict is then "undetermined", which does not pass.  The
    norms are x_norm's: _x_integrand reads them off the spectra in
    stacked chunks of nodes, so weighted_sup is the trajectory's x_norm
    bit for bit.  Only confinement samples, one node at a time.
    """
    if blown_up:
        raise ValueError("decay study rejected: the run blew up")
    confinement = float(np.max([outer_shell_fraction(f) for _, f in traj]))
    if not confinement <= CONFINEMENT_THRESHOLD:
        raise ValueError(
            f"decay study rejected: outer-shell mass fraction {confinement:.3e} "
            f"exceeds {CONFINEMENT_THRESHOLD:.1e}"
        )
    ts = traj.times
    b_s, b_r, weighted = _x_integrand(ts, traj.spectra, pp, make_blocks(traj.grid))
    running = np.maximum.accumulate(weighted)
    scalars: dict[str, float] = {
        "confinement_fraction": confinement,
        "weighted_sup": float(running[-1]),
        "expected_smooth_exponent": -pp.x_weight_exponent(),
    }
    slope_w = None
    if np.all(b_s[1:] > 0):
        slope_s, _, _ = fit_power_law(ts, b_s, window=fit_window)
        scalars["fitted_smooth_exponent"] = slope_s
        # The solution-space norm up to time t is the running sup of the
        # weighted integrand; boundedness means it saturates, so its
        # late-window log-slope must sit at zero.
        slope_w, _, _ = fit_power_law(ts, running, window=fit_window)
        scalars["weighted_trend_slope"] = slope_w
        slope_i, _, _ = fit_power_law(ts, weighted, window=fit_window)
        scalars["integrand_trend_slope"] = slope_i
        slope_r, _, _ = fit_power_law(ts, b_r, window=fit_window)
        scalars["fitted_decay_exponent"] = slope_r
    table = Table(
        columns=["t", "besov_r", "besov_s", "weighted_x", "running_sup"],
        rows=np.column_stack([ts, b_r, b_s, weighted, running]).tolist(),
    )
    return ExperimentReport(
        scalars=scalars,
        checks={"weighted_sup_bounded": Check(slope_w, "<=", TREND_TOL)},
        tables={"decay": table},
    )


def blowup_probe(
    u0: GridField,
    u1: GridField,
    pp: ProblemParams,
    cfg: SolverConfig,
) -> ExperimentReport:
    """Escape-time probe at two spatial resolutions.

    The claim is that the data escape at both resolutions within the horizon;
    when they do, their escape times' relative gap measures discretization sensitivity.
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
    calm = sum(t is None for t in times.values())
    scalars: dict[str, float] = {
        "tail_fraction_coarse": tails["coarse"],
        "tail_fraction_fine": tails["fine"],
    }
    if not calm:
        t_c, t_f = times["coarse"], times["fine"]
        scalars["escape_time_coarse"] = t_c
        scalars["escape_time_fine"] = t_f
        scalars["escape_time_rel_gap"] = abs(t_c - t_f) / max(t_c, t_f)
    return ExperimentReport(
        scalars=scalars,
        checks={"escaped": Check(calm, "==", 0)},
        meta={"fujita": pp.fujita},
    )
