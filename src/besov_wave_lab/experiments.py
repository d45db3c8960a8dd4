"""Experiment registry: named, config-driven verification runs.

Every experiment consumes a flat sectioned config, runs deterministically
given its seed, and emits an ExperimentReport (JSON scalars/verdicts plus
CSV tables and log-log SVG plots where a decay curve is involved).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from besov_wave_lab.admissibility import check_gwp, check_lwp, require_lwp
from besov_wave_lab.grid import TorusGrid, make_grid
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.norms import (
    ProblemParams,
    interpolation_check,
    interpolation_exponents,
    lebesgue_norm,
)
from besov_wave_lab.paraproduct import (
    LeibnizConfig,
    decomposition_residual,
    leibniz_ratio,
)
from besov_wave_lab.profiles import band_limited_random, build_profile
from besov_wave_lab.propagator import (
    apply_D,
    damped_L,
    verify_block_estimate,
    verify_lp_lq,
)
from besov_wave_lab.reporting import ExperimentReport, Table, write_loglog_svg
from besov_wave_lab.solver import (
    SolverConfig,
    blowup_probe,
    contraction_report,
    decay_study,
    etd_oracle,
    picard_solve,
)

__all__ = ["REGISTRY", "ExperimentSpec", "run_experiment", "BlowupInGlobalRun"]


class BlowupInGlobalRun(RuntimeError):
    """A run that asserted global decay escaped the max-norm cap."""


Config = Mapping[str, Mapping[str, str]]


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    claim: str
    runner: Callable[..., ExperimentReport]
    # Reads the powers the run solves for; run_experiment checks each one.
    powers: Callable[[Config], list[int]] | None = None


def _section(cfg: Config, name: str) -> dict[str, str]:
    return dict(cfg.get(name, {}))


def _get(sec: Mapping[str, str], key: str, default, cast=float):
    if key not in sec:
        if default is None:
            raise KeyError(f"missing required config key '{key}'")
        return default
    return cast(sec[key])


def _grid_from(cfg: Config, N: int = 4096, L: float = 400.0) -> TorusGrid:
    sec = _section(cfg, "grid")
    return make_grid(
        int(_get(sec, "n", 1, int)),
        int(_get(sec, "N", N, int)),
        _get(sec, "L", L),
    )


def _times_from(cfg: Config) -> np.ndarray:
    sec = _section(cfg, "time")
    lo = _get(sec, "t_min", 1.0)
    hi = _get(sec, "t_max", 500.0)
    pts = int(_get(sec, "points", 24, int))
    spacing = sec.get("spacing", "geometric")
    if spacing == "geometric":
        return np.geomspace(lo, hi, pts)
    return np.linspace(lo, hi, pts)


def _fit_window_from(cfg: Config, ts: np.ndarray) -> tuple[float, float]:
    sec = _section(cfg, "time")
    return (
        _get(sec, "fit_lo", float(ts[-1]) / 10.0),
        _get(sec, "fit_hi", float(ts[-1])),
    )


def _problem_values(cfg: Config) -> tuple[int, float, float, int]:
    """Raw (n, r, s, p) of [problem]; n falls back to [grid] n, and the two
    must agree when both are set."""
    sec, grid = _section(cfg, "problem"), _section(cfg, "grid")
    grid_n = int(_get(grid, "n", 1, int))
    n = int(_get(sec, "n", grid_n, int))
    if "n" in grid and n != grid_n:
        raise ValueError(f"[problem] n = {n} differs from [grid] n = {grid_n}")
    return (
        n,
        _get(sec, "r", 4.0),
        _get(sec, "s", 5.0),
        int(_get(sec, "p", 9, int)),
    )


def _problem_power(cfg: Config) -> list[int]:
    return [_problem_values(cfg)[3]]


def _sweep_powers(cfg: Config) -> list[int]:
    powers = _section(cfg, "experiment").get("powers", "7,8,9,10")
    return [int(p) for p in powers.split(",")]


def _problem_from(cfg: Config, p: int | None = None) -> ProblemParams:
    n, r, s, p_cfg = _problem_values(cfg)
    eps = _get(_section(cfg, "problem"), "eps", 0.0)
    return ProblemParams(n, r, s, p_cfg if p is None else p, eps)


def _solver_from(
    cfg: Config, T: float = 200.0, etd_dt: float = 0.02, blowup_threshold=math.inf
) -> SolverConfig:
    sec = _section(cfg, "solver")
    return SolverConfig.uniform(
        _get(sec, "T", T),
        int(_get(sec, "nodes", 201, int)),
        picard_tol=_get(sec, "picard_tol", 1e-9),
        max_iters=int(_get(sec, "max_iters", 20, int)),
        blowup_threshold=_get(sec, "blowup_threshold", blowup_threshold),
        etd_dt=_get(sec, "etd_dt", etd_dt),
    )


def _data_field(cfg: Config, grid: TorusGrid, rng: np.random.Generator, **defaults):
    """[data] profile on the grid; defaults fill keys the config omits."""
    sec = {**defaults, **_section(cfg, "data")}
    return build_profile(sec.get("profile", "gaussian"), grid, sec, rng)


# -- individual experiments ----------------------------------------------


def run_partition_residual(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = _grid_from(cfg)
    blocks = make_blocks(grid)
    residual = blocks.partition_residual()
    tol = _get(_section(cfg, "experiment"), "tolerance", 1e-12)
    return ExperimentReport(
        kind="partition-residual",
        scalars={"residual": residual, "tolerance": tol},
        verdicts={"partition": "pass" if residual < tol else "fail"},
        meta={"j_min": blocks.j_min, "j_max": blocks.j_max},
    )


def run_mode_ode(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    sec = _section(cfg, "experiment")
    h = _get(sec, "fd_step", 1e-4)
    tol = _get(sec, "tolerance", 1e-6)
    special = [0.0, 0.5 - 1e-3, 0.5, 0.5 + 1e-3, 4.0]
    pairs = [(t, xi) for xi in special for t in (0.5, 2.0, 11.0, 37.0)]
    while len(pairs) < 100:
        pairs.append((float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.0, 6.0))))
    worst = 0.0
    rows = []
    for t, xi in pairs:
        vm, v0, vp = (damped_L(t + k * h, xi) for k in (-1, 0, 1))
        resid = abs((vp - 2 * v0 + vm) / h**2 + (vp - vm) / (2 * h) + xi**2 * v0)
        worst = max(worst, resid)
        rows.append([t, xi, resid])
    return ExperimentReport(
        kind="mode-ode",
        scalars={"max_residual": worst, "tolerance": tol, "pairs": float(len(pairs))},
        verdicts={"mode_ode": "pass" if worst < tol else "fail"},
        tables={"residuals": Table(columns=["t", "xi", "residual"], rows=rows)},
    )


def run_verify_lp_lq(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = _grid_from(cfg)
    sec = _section(cfg, "estimate")
    p = _get(sec, "p", 2.0)
    q = _get(sec, "q", 1.0)
    s1 = _get(sec, "s1", 0.0)
    s2 = _get(sec, "s2", 0.0)
    rate_tol = _get(sec, "rate_tol", 0.10)
    ts = _times_from(cfg)
    g = _data_field(cfg, grid, rng)
    report = verify_lp_lq(
        g, p, q, s1, s2, ts, fit_window=_fit_window_from(cfg, ts)
    )
    fitted = report.scalars.get("fitted_low_exponent")
    intercept = report.scalars.get("fitted_low_intercept")
    expected = report.scalars["expected_low_exponent"]
    if fitted is not None and expected != 0:
        ok = abs(fitted - expected) <= rate_tol * abs(expected)
        report.verdicts["low_frequency_rate"] = "pass" if ok else "fail"
    table = report.tables["decay"]
    write_loglog_svg(
        out_dir / "verify-lp-lq.decay.svg",
        table.column("t"),
        {"measured": table.column("lhs"), "bound": [
            lo + hi for lo, hi in zip(table.column("low_bound"), table.column("high_bound"))
        ]},
        fit=(fitted, intercept) if fitted is not None else None,
        title=f"flow decay p={p:g} q={q:g} s1={s1:g} s2={s2:g}",
    )
    return report


def run_high_frequency_bound(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = _grid_from(cfg)
    blocks = make_blocks(grid)
    sec = _section(cfg, "estimate")
    p = _get(sec, "p", 2.0)
    delta_cap = _get(sec, "delta_cap", 10.0)
    ts = _times_from(cfg)
    g = blocks.high_pass(_data_field(cfg, grid, rng), 1.0)
    norms = np.array([lebesgue_norm(apply_D(t, g), p) for t in ts])
    compensated = norms * np.exp(ts / 2.0)
    pos = compensated > 0
    slope, intercept = np.polyfit(
        np.log10(np.sqrt(1 + ts[pos] ** 2)), np.log10(compensated[pos]), 1
    )
    delta = max(0.0, float(slope))
    # Constant making the fitted bound cover every sample.
    log_c = float(
        np.max(
            np.log10(compensated[pos])
            - delta * np.log10(np.sqrt(1 + ts[pos] ** 2))
        )
    )
    covers = np.all(
        compensated[pos]
        <= 10.0 ** (log_c + 1e-9) * np.sqrt(1 + ts[pos] ** 2) ** delta
    )
    rows = [[float(t), float(v), float(c)] for t, v, c in zip(ts, norms, compensated)]
    ok = delta <= delta_cap and bool(covers)
    report = ExperimentReport(
        kind="high-frequency-bound",
        scalars={"delta_hat": delta, "log10_const": log_c, "delta_cap": delta_cap},
        verdicts={"log_growth_only": "pass" if ok else "fail"},
        tables={"decay": Table(columns=["t", "norm", "exp_half_t_norm"], rows=rows)},
        meta={"p": p},
    )
    write_loglog_svg(
        out_dir / "high-frequency-bound.svg",
        list(ts),
        {"exp(t/2)*norm": list(compensated)},
        fit=(delta, log_c),
        title="high-frequency flow, damping compensated",
    )
    return report


def run_block_estimates(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    sec = _section(cfg, "estimate")
    p = _get(sec, "p", 2.0)
    q = _get(sec, "q", 2.0)
    s1 = _get(sec, "s1", 0.0)
    s2 = _get(sec, "s2", 0.0)
    spread_cap = _get(sec, "spread_cap", 3.0)
    grid = _grid_from(cfg)
    blocks = make_blocks(grid)
    ts = _times_from(cfg)
    g = _data_field(cfg, grid, rng)
    k_lo = [int(k) for k in _section(cfg, "estimate").get("k_low", "-4,-3,-2,-1").split(",")]
    k_hi = [int(k) for k in _section(cfg, "estimate").get("k_high", "1,2,3,4").split(",")]
    rows = []
    sides = {}
    for side, ks in (("low", k_lo), ("high", k_hi)):
        maxima = []
        for k in ks:
            rep = verify_block_estimate(
                g, k, ts, p=p, q=q, s1=s1, s2=s2, blocks=blocks
            )
            maxima.append(rep.max_ratio)
            rows.append([float(k), rep.max_ratio, rep.fitted_exponent or 0.0])
        maxima = [m for m in maxima if m > 0]
        sides[side] = max(maxima) / min(maxima) if maxima else math.inf
    report = ExperimentReport(
        kind="block-estimates",
        scalars={
            "low_spread": sides["low"],
            "high_spread": sides["high"],
            "spread_cap": spread_cap,
        },
        verdicts={
            "low_k_independent": "pass" if sides["low"] < spread_cap else "fail",
            "high_k_independent": "pass" if sides["high"] < spread_cap else "fail",
        },
        tables={"blocks": Table(columns=["k", "max_ratio", "fitted_exponent"], rows=rows)},
        meta={"p": p, "q": q, "s1": s1, "s2": s2},
    )
    return report


def run_paraproduct_residual(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    sec = _section(cfg, "experiment")
    pairs = int(_get(sec, "pairs", 100, int))
    tol = _get(sec, "tolerance", 1e-10)
    grid = _grid_from(cfg)
    blocks = make_blocks(grid)
    band_lo = _get(sec, "band_lo", 0.3)
    band_hi = _get(sec, "band_hi", grid.max_freq / 4.0)
    worst = 0.0
    for _ in range(pairs):
        f = band_limited_random(grid, rng, band_lo, band_hi, rng.uniform(0.0, 0.8))
        g = band_limited_random(grid, rng, band_lo, band_hi, rng.uniform(0.0, 0.8))
        worst = max(worst, decomposition_residual(f, g, blocks=blocks))
    return ExperimentReport(
        kind="paraproduct-residual",
        scalars={"max_residual": worst, "tolerance": tol, "pairs": float(pairs)},
        verdicts={"repartition": "pass" if worst < tol else "fail"},
        meta={"n": grid.n, "N": grid.points_per_axis},
    )


def run_leibniz(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    sec = _section(cfg, "leibniz")
    lcfg = LeibnizConfig(
        alpha=_get(sec, "alpha", 0.7),
        r=_get(sec, "r", 2.0),
        p1=_get(sec, "p1", 4.0),
        q1=_get(sec, "q1", 4.0),
        p2=_get(sec, "p2", 4.0),
        q2=_get(sec, "q2", 4.0),
        ensemble=int(_get(sec, "ensemble", 500, int)),
        spectrum_slope=_get(sec, "spectrum_slope", 0.5),
    )
    stability_cap = _get(sec, "stability_cap", 0.25)
    base = _grid_from(cfg, N=256, L=32.0)
    refined = make_grid(base.n, 2 * base.points_per_axis, base.box_length)
    band_hi = base.max_freq / 4.0
    maxima = {}
    for label, grid in (("base", base), ("refined", refined)):
        blocks = make_blocks(grid)
        ens_rng = np.random.default_rng(rng.integers(0, 2**63))
        worst = 0.0
        for _ in range(lcfg.ensemble):
            f = band_limited_random(grid, ens_rng, 0.3, band_hi, lcfg.spectrum_slope)
            g = band_limited_random(grid, ens_rng, 0.3, band_hi, lcfg.spectrum_slope)
            worst = max(worst, leibniz_ratio(f, g, lcfg, blocks=blocks))
        maxima[label] = worst
    change = abs(maxima["refined"] - maxima["base"]) / maxima["base"]
    return ExperimentReport(
        kind="leibniz",
        scalars={
            "max_ratio_base": maxima["base"],
            "max_ratio_refined": maxima["refined"],
            "refinement_change": change,
            "stability_cap": stability_cap,
        },
        verdicts={
            "finite": "pass" if math.isfinite(maxima["base"]) else "fail",
            "stable_under_refinement": "pass" if change < stability_cap else "fail",
        },
        meta={
            "alpha": lcfg.alpha,
            "exponents": f"r={lcfg.r:g} p1={lcfg.p1:g} q1={lcfg.q1:g} "
            f"p2={lcfg.p2:g} q2={lcfg.q2:g}",
            "ensemble": lcfg.ensemble,
        },
    )


def run_interpolation(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = _grid_from(cfg)
    blocks = make_blocks(grid)
    pp = _problem_from(cfg)
    sec = _section(cfg, "experiment")
    ensemble = int(_get(sec, "ensemble", 200, int))
    thetas = [float(x) for x in sec.get("thetas", "0.25,0.5,0.75").split(",")]
    rows = []
    for theta in thetas:
        q, alpha = interpolation_exponents(pp.n, pp.r, pp.s, theta)
        worst = 0.0
        for _ in range(ensemble):
            f = band_limited_random(
                grid, rng, 0.4, grid.max_freq / 4.0, rng.uniform(0.0, 1.0)
            )
            worst = max(
                worst, interpolation_check(f, pp, q, alpha, theta, blocks=blocks)
            )
        rows.append([theta, q, alpha, worst])
    finite = all(math.isfinite(r[3]) and r[3] > 0 for r in rows)
    return ExperimentReport(
        kind="interpolation",
        scalars={"max_ratio": max(r[3] for r in rows)},
        verdicts={"finite_constants": "pass" if finite else "fail"},
        tables={
            "constants": Table(
                columns=["theta", "q", "alpha", "max_ratio"], rows=rows
            )
        },
        meta={"ensemble": ensemble},
    )


def run_contraction(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = _grid_from(cfg)
    pp = _problem_from(cfg)
    scfg = _solver_from(cfg)
    sec = _section(cfg, "experiment")
    amps = [float(a) for a in sec.get("amplitudes", "1e-3,2e-3,4e-3").split(",")]
    slope_tol = _get(sec, "slope_tol", 0.2)
    diags = []
    for amp in amps:
        data_cfg = dict(_section(cfg, "data"))
        data_cfg["amplitude"] = str(amp)
        u = build_profile(data_cfg.get("profile", "gaussian"), grid, data_cfg, rng)
        _, diag = picard_solve(u, u, pp, scfg)
        diags.append(diag)
    report = contraction_report(amps, diags, pp)
    gap = abs(report.scalars["fitted_slope"] - report.scalars["expected_slope"])
    report.verdicts["amplitude_power"] = "pass" if gap <= slope_tol else "fail"
    return report


def run_global_decay(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = _grid_from(cfg)
    pp = _problem_from(cfg)
    scfg = _solver_from(cfg)
    sec = _section(cfg, "experiment")
    agreement_tol = _get(sec, "oracle_tol", 1e-4)
    u = _data_field(cfg, grid, rng)
    traj, diag = picard_solve(u, u, pp, scfg)
    if diag.blown_up:
        raise BlowupInGlobalRun(
            f"global-decay run escaped the cap at t = {diag.escape_time}"
        )
    etd_traj, etd_diag = etd_oracle(
        u, u, pp, scfg.etd_dt, scfg.horizon,
        blowup_threshold=scfg.blowup_threshold,
        store_times=scfg.time_grid[1:],
    )
    if etd_diag.blown_up:
        raise BlowupInGlobalRun(
            f"oracle run escaped the cap at t = {etd_diag.escape_time}"
        )
    lookup = {round(float(t), 9): f for t, f in etd_traj}
    gaps = []
    for t, f in traj:
        key = round(float(t), 9)
        if key in lookup and key > 0:
            ref = lookup[key]
            gaps.append(
                lebesgue_norm(f - ref, 2.0) / max(lebesgue_norm(f, 2.0), 1e-300)
            )
    agreement = max(gaps) if gaps else math.inf
    study = decay_study(traj, pp, blown_up=False)
    study.kind = "global-decay"
    study.scalars["oracle_agreement"] = agreement
    study.scalars["picard_residual"] = diag.residual
    study.scalars["picard_iterations"] = float(diag.iterations)
    study.verdicts["picard_converged"] = "pass" if diag.converged else "fail"
    study.verdicts["oracle_agreement"] = (
        "pass" if agreement < agreement_tol else "fail"
    )
    table = study.tables["decay"]
    write_loglog_svg(
        out_dir / "global-decay.svg",
        table.column("t"),
        {
            "besov_r": table.column("besov_r"),
            "weighted_x": table.column("weighted_x"),
        },
        title="global run: decay and weighted sup",
    )
    return study


def run_blowup_probe(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    """Escape probe; an `amplitudes` list tabulates escape time vs amplitude."""
    grid = _grid_from(cfg)
    pp = _problem_from(cfg)
    scfg = _solver_from(cfg)
    u = _data_field(cfg, grid, rng)
    sec = _section(cfg, "experiment")
    report = blowup_probe(u, u, pp, scfg)
    if "amplitudes" in sec:
        rows = []
        for amp in (float(a) for a in sec["amplitudes"].split(",")):
            sub = blowup_probe(amp * u, amp * u, pp, scfg)
            rows.append(
                [
                    amp,
                    1.0 if sub.verdicts["escaped"] == "pass" else 0.0,
                    sub.scalars.get("escape_time_coarse", -1.0),
                    sub.scalars.get("escape_time_rel_gap", 0.0),
                ]
            )
        report.tables["amplitude_sweep"] = Table(
            columns=["amplitude", "escaped", "escape_time", "refinement_gap"],
            rows=rows,
        )
    return report


def _sweep_one(args) -> tuple[int, str, float | None]:
    u, pp, scfg = args
    _, diag = etd_oracle(
        u, u, pp, scfg.etd_dt, scfg.horizon, blowup_threshold=scfg.blowup_threshold
    )
    return pp.p_nl, ("escape" if diag.blown_up else "decay"), diag.escape_time


def run_sweep_critical(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = _grid_from(cfg, N=1024, L=80.0)
    scfg = _solver_from(cfg, T=80.0, etd_dt=0.01, blowup_threshold=100.0)
    u = _data_field(cfg, grid, rng, width=2.0, amplitude=0.5)
    args = [(u, _problem_from(cfg, p), scfg) for p in _sweep_powers(cfg)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, args))
    else:
        results = [_sweep_one(a) for a in args]
    n, r, _, _ = _problem_values(cfg)
    fujita = 1.0 + 2.0 * r / n
    rows = [
        [float(p), 1.0 if verdict == "escape" else 0.0, t if t is not None else -1.0]
        for p, verdict, t in results
    ]
    # The claim: every power below 1 + 2r/n escapes, every other one decays.
    boundary = all((v == "escape") == (p < fujita) for p, v, _ in results)
    return ExperimentReport(
        kind="sweep-critical",
        scalars={"fujita": fujita},
        verdicts={"boundary_at_critical": "pass" if boundary else "fail"},
        tables={
            "sweep": Table(columns=["p", "escaped", "escape_time"], rows=rows)
        },
        meta={"n": n, "r": r},
    )


def run_admissibility(cfg: Config, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    n, r, s, p = _problem_values(cfg)
    samples = int(_get(_section(cfg, "experiment"), "random_samples", 1000, int))
    verdict = check_gwp(n, r, s, p)
    mismatches = 0
    for _ in range(samples):
        nn = int(rng.integers(1, 4))
        rr = float(rng.uniform(2.01, 12.0))
        ss = float(rng.uniform(-0.5, 2 * nn + 3.0))
        pq = int(rng.integers(1, 12))
        if check_lwp(nn, rr, ss, pq).statuses() != check_lwp(
            nn, rr, ss, pq, exact=True
        ).statuses():
            mismatches += 1
    rows = [
        [c.name, 1.0 if c.ok else 0.0, c.margin] for c in verdict.conditions
    ]
    return ExperimentReport(
        kind="admissibility",
        scalars={
            "beta": verdict.beta,
            "fujita": verdict.fujita,
            "rational_mismatches": float(mismatches),
        },
        verdicts={
            "hypotheses": "pass" if verdict.passed else "fail",
            "rational_agreement": "pass" if mismatches == 0 else "fail",
        },
        tables={
            "conditions": Table(columns=["condition", "ok", "margin"], rows=rows)
        },
        meta={"n": n, "r": r, "s": s, "p": p, "branch": verdict.two_s_branch},
    )


REGISTRY: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in [
        ExperimentSpec(
            "partition-residual",
            "dyadic partition of unity on the lattice",
            "low block + sum of annuli equals 1 at every nonzero frequency",
            run_partition_residual,
        ),
        ExperimentSpec(
            "mode-ode",
            "per-mode kernel solves the damped oscillator equation",
            "v'' + v' + |xi|^2 v = 0 with v(0)=0, v'(0)=1, residual < 1e-6",
            run_mode_ode,
        ),
        ExperimentSpec(
            "verify-lp-lq",
            "two-sided decay bound of the flow in Besov norms",
            "||D(t)g|| <= <t>^(-(n/2)(1/q-1/p)-(s1-s2)/2) low + e^(-t/2)<t>^d high",
            run_verify_lp_lq,
        ),
        ExperimentSpec(
            "high-frequency-bound",
            "damping-compensated growth of the high-frequency flow",
            "log ||D(t)g|| + t/2 grows at most logarithmically",
            run_high_frequency_bound,
        ),
        ExperimentSpec(
            "block-estimates",
            "per-dyadic-block decay ratios, constant independent of the block",
            "max over t of block ratio varies by < 3x across k",
            run_block_estimates,
        ),
        ExperimentSpec(
            "paraproduct-residual",
            "product repartition into two paraproducts and a remainder",
            "fg = T_f g + T_g f + R(f,g) to relative L^2 residual < 1e-10",
            run_paraproduct_residual,
        ),
        ExperimentSpec(
            "leibniz",
            "fractional product estimate in homogeneous Besov norms",
            "||fg||_{B^a_r} bounded by cross terms; constant stable under N -> 2N",
            run_leibniz,
        ),
        ExperimentSpec(
            "interpolation",
            "two-endpoint interpolation inequality for the solution space",
            "||f||_{B^a_q} <= C ||f||_{B^0_r}^(1-theta) ||f||_{B^s_2}^theta",
            run_interpolation,
        ),
        ExperimentSpec(
            "contraction",
            "contraction-factor scaling of the fixed-point map",
            "log(ratio) vs log(amplitude) has slope p-1",
            run_contraction,
            powers=_problem_power,
        ),
        ExperimentSpec(
            "global-decay",
            "small-data run at/above the critical power: decay and oracle match",
            "weighted sup bounded, Picard and ETD agree in relative L^2",
            run_global_decay,
            powers=_problem_power,
        ),
        ExperimentSpec(
            "blowup-probe",
            "escape-time probe below the critical power",
            "positive data escapes the max-norm cap; stable under refinement",
            run_blowup_probe,
            powers=_problem_power,
        ),
        ExperimentSpec(
            "sweep-critical",
            "escape-vs-decay sweep across nonlinearity powers",
            "boundary sits at the critical power 1 + 2r/n",
            run_sweep_critical,
            powers=_sweep_powers,
        ),
        ExperimentSpec(
            "admissibility",
            "existence hypotheses evaluated with slack margins",
            "float and exact-rational evaluations agree",
            run_admissibility,
        ),
    ]
}


def run_experiment(
    name: str,
    cfg: Config,
    out_dir: Path,
    seed: int,
    jobs: int = 1,
    *,
    override_admissibility: bool = False,
) -> ExperimentReport:
    """Run one registered experiment.  Unless overridden, the powers of a
    solving experiment must pass require_lwp before anything is built."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment '{name}'")
    spec = REGISTRY[name]
    if spec.powers is not None and not override_admissibility:
        n, r, s, _ = _problem_values(cfg)
        require_lwp(n, r, s, spec.powers(cfg))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    report = spec.runner(cfg, out_dir, rng, jobs)
    report.runtime_s = round(time.perf_counter() - started, 3)
    return report
