"""Experiment registry: named, config-driven verification runs.

Every experiment consumes a flat sectioned config, runs deterministically
given its seed, and emits an ExperimentReport (JSON scalars/checks/verdicts plus
CSV tables and log-log SVG plots where a decay curve is involved).
"""

from __future__ import annotations

import dataclasses
import difflib
import math
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # no getrusage (Windows): reports leave minor_faults out
    getrusage = None

from besov_wave_lab.admissibility import (
    check_decay_integrability,
    check_gwp,
    check_lwp,
    require_lwp,
)
from besov_wave_lab.grid import _samples, make_grid
from besov_wave_lab.littlewood_paley import make_blocks
from besov_wave_lab.norms import (
    ProblemParams,
    interpolation_exponents,
    interpolation_ratios,
    lebesgue_norms,
)
from besov_wave_lab.paraproduct import (
    LeibnizConfig,
    decomposition_residuals,
    leibniz_ratios,
)
from besov_wave_lab.profiles import PROFILES, band_limited_samples, build_profile, profile_keys
from besov_wave_lab.propagator import (
    damped_L,
    fit_high_growth,
    verify_block_estimates,
    verify_lp_lq,
)
from besov_wave_lab.reporting import Check, ExperimentReport, Table, config_hash
from besov_wave_lab.reporting import write_loglog_svg
from besov_wave_lab.solver import (
    SolverConfig,
    _lattice_count,
    _pair_norm,
    blowup_probe,
    contraction_report,
    decay_study,
    etd_oracle,
    picard_solve,
)

__all__ = ["REGISTRY", "ExperimentSpec", "read_config", "run_experiment", "BlowupInGlobalRun"]


class BlowupInGlobalRun(RuntimeError):
    """A run that asserted global decay escaped the max-norm cap."""


class ConfigError(ValueError):
    """A config or command-line value the run cannot take."""


# Bytes of block stacks one chunk of a random-pair ensemble may hold: chunks
# amortise per-call costs, and the cap bounds the run's peak memory.
ENSEMBLE_CHUNK_BYTES = 3 * 2**19

Config = Mapping[str, Mapping[str, str]]
Values = dict[str, dict[str, Any]]

# Config tables: section -> {key: default}.  A default's type is the key's
# type, and a tuple default reads a comma list of its element type.  A bare
# type declares a key without a default, read as None when absent.
COMMON = {"experiment": {"kind": str}, "run": {"seed": 0}, "output": {"dir": str}}
GRID = {"n": 1, "N": 4096, "L": 400.0}
PROBLEM = {"n": int, "r": 4.0, "s": 5.0, "p": 9}
# [solver] keys: every solving kind reads SOLVER, a Picard solve PICARD and
# an ETD run ETD.
SOLVER = {"T": 200.0, "blowup_threshold": math.inf}
PICARD = {"nodes": 201, "picard_tol": 1e-9, "max_iters": 20}
ETD = {"etd_dt": 0.02}
TIME = {"t_min": 1.0, "t_max": 500.0, "points": 24, "spacing": "geometric"}
ESTIMATE = {"p": 2.0, "q": 2.0, "s1": 0.0, "s2": 0.0}
# [data] also takes the keys of the chosen profile (profiles.profile_keys:
# its builder's keyword parameters); a kind's value for one of them
# replaces the profile's default, and a kind's None withholds the key.
DATA = {"profile": "gaussian"}


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    claim: str
    runner: Callable[..., ExperimentReport]
    keys: Mapping[str, Mapping[str, Any]]


def _nearest(word: str, options) -> str:
    match = difflib.get_close_matches(word, list(options), n=1)
    return f"; did you mean '{match[0]}'?" if match else f"; valid: {', '.join(options)}"


def _read(cfg: Config, section: str, key: str, decl) -> Any:
    """[section] key of cfg read as the key's type, or its default (None if it has none) when
    absent.  Text that does not parse, or a float that reads NaN (inf reads), raises
    ValueError naming the key and the text."""
    text = cfg.get(section, {}).get(key)
    if text is None:
        return None if isinstance(decl, type) else decl
    listed = isinstance(decl, tuple)
    kind = type(decl[0]) if listed else decl if isinstance(decl, type) else type(decl)
    try:
        parts = [kind(part) for part in (text.split(",") if listed else [text])]
    except ValueError:
        raise ValueError(f"[{section}] {key} = {text!r}: not a valid {kind.__name__}") from None
    if any(isinstance(v, float) and math.isnan(v) for v in parts):
        raise ValueError(f"[{section}] {key} = {text!r}: NaN is not accepted")
    return tuple(parts) if listed else parts[0]


def config_text(value) -> str:
    """value as a config file writes it: a tuple as a comma list, a type (a
    key without a default) by its name, inf as inf."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(getattr(value, "__name__", value))


def read_config(spec: ExperimentSpec, cfg: Config) -> Values:
    """Typed value of every key spec declares, defaults filled in.  An unknown
    section, key or data profile raises ValueError naming the nearest valid
    one.  [problem] n falls back to [grid] n, and the two must agree."""
    schema = {name: dict(keys) for name, keys in spec.keys.items()}
    for name, keys in COMMON.items():
        schema[name] = {**schema.get(name, {}), **keys}
    if "data" in schema:  # the chosen profile's keys, under the kind's defaults
        table, given = schema["data"], cfg.get("data", {})
        name = (given["profile"] if "profile" in given else table["profile"]).replace("_", "-")
        if name not in PROFILES:
            raise ValueError(f"unknown data profile '{name}'{_nearest(name, PROFILES)}")
        keys = profile_keys(name)
        merged = {"profile": table["profile"], **keys, **{k: table[k] for k in keys if k in table}}
        schema["data"] = {key: v for key, v in merged.items() if v is not None}
    for name, given in cfg.items():
        if name not in schema:
            raise ValueError(f"unknown section [{name}]{_nearest(name, schema)}")
        for key in given:
            if key not in schema[name]:
                raise ValueError(f"unknown key '{key}' in [{name}]{_nearest(key, schema[name])}")
    values = {
        name: {key: _read(cfg, name, key, decl) for key, decl in keys.items()}
        for name, keys in schema.items()
    }
    if "n" in values.get("problem", {}):
        problem, grid_n = values["problem"], values["grid"]["n"]
        if problem["n"] is None:
            problem["n"] = grid_n
        elif "n" in cfg.get("grid", {}) and problem["n"] != grid_n:
            raise ValueError(f"[problem] n = {problem['n']} differs from [grid] n = {grid_n}")
    return values


def _times_from(values: Values) -> np.ndarray:
    time = values["time"]
    space = {"geometric": np.geomspace, "linear": np.linspace}.get(time["spacing"])
    if space is None:
        raise ValueError(f"[time] spacing must be geometric or linear, not '{time['spacing']}'")
    return space(time["t_min"], time["t_max"], time["points"])


def _problem_from(values: Values, p: int | None = None) -> ProblemParams:
    pr = values["problem"]
    return ProblemParams(pr["n"], pr["r"], pr["s"], pr["p"] if p is None else p)


# -- individual experiments ----------------------------------------------


def run_partition_residual(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    blocks = make_blocks(make_grid(**values["grid"]))
    residual = blocks.partition_residual()
    return ExperimentReport(
        scalars={"residual": residual},
        checks={"partition": Check(residual, "<", values["experiment"]["tolerance"])},
        meta={"j_min": blocks.j_min, "j_max": blocks.j_max},
    )


def run_mode_ode(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    h, tol = values["experiment"]["fd_step"], values["experiment"]["tolerance"]
    special = [0.0, 0.5 - 1e-3, 0.5, 0.5 + 1e-3, 4.0]
    pairs = [(t, xi) for xi in special for t in (0.5, 2.0, 11.0, 37.0)]
    while len(pairs) < 100:
        pairs.append((float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.0, 6.0))))
    rows = []
    for t, xi in pairs:
        vm, v0, vp = (damped_L(t + k * h, xi) for k in (-1, 0, 1))
        resid = abs((vp - 2 * v0 + vm) / h**2 + (vp - vm) / (2 * h) + xi**2 * v0)
        rows.append([t, xi, resid])
    worst = float(np.max([row[2] for row in rows]))
    return ExperimentReport(
        scalars={"max_residual": worst, "pairs": float(len(pairs))},
        checks={"mode_ode": Check(worst, "<", tol)},
        tables={"residuals": Table(columns=["t", "xi", "residual"], rows=rows)},
    )


def run_verify_lp_lq(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = make_grid(**values["grid"])
    est, time = values["estimate"], values["time"]
    p, q, s1, s2 = est["p"], est["q"], est["s1"], est["s2"]
    ts = _times_from(values)
    g = build_profile(grid, values["data"], rng)
    report = verify_lp_lq(g, p, q, s1, s2, ts, fit_window=(time["fit_lo"], time["fit_hi"]))
    fitted = report.scalars.get("fitted_low_exponent")
    intercept = report.scalars.get("fitted_low_intercept")
    expected = report.scalars["expected_low_exponent"]
    # A relative tolerance on a zero rate has no scale: that rate is undetermined.
    gap = None if fitted is None or expected == 0 else abs(fitted - expected)
    report.checks["low_frequency_rate"] = Check(gap, "<=", est["rate_tol"] * abs(expected))
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


def run_high_frequency_bound(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = make_grid(**values["grid"])
    blocks = make_blocks(grid)
    p, delta_cap = values["estimate"]["p"], values["estimate"]["delta_cap"]
    ts = _times_from(values)
    g = build_profile(grid, values["data"], rng)
    high = (1.0 - blocks.low_pass_multiplier(1.0)) * g.spectrum
    flowed = np.stack([damped_L(t, grid.freq_abs) * high for t in ts])
    norms = lebesgue_norms(grid, _samples(grid, flowed, grid.points_per_axis), p)
    compensated = norms * np.exp(ts / 2.0)
    # compensated <= 10^log_c * <t>^delta on every sample with t > 0.
    delta, const = fit_high_growth(ts, norms, 1.0)
    log_c = math.log10(const)
    rows = [[float(t), float(v), float(c)] for t, v, c in zip(ts, norms, compensated)]
    report = ExperimentReport(
        scalars={"delta_hat": delta, "log10_const": log_c},
        checks={"log_growth_only": Check(delta, "<=", delta_cap)},
        tables={"decay": Table(columns=["t", "norm", "exp_half_t_norm"], rows=rows)},
    )
    write_loglog_svg(
        out_dir / "high-frequency-bound.svg",
        list(ts),
        {"exp(t/2)*norm": list(compensated)},
        fit=(delta, log_c),
        title="high-frequency flow, damping compensated",
    )
    return report


def run_block_estimates(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    est = values["estimate"]
    ks = (*est["k_low"], *est["k_high"])
    for key, low in (("k_low", True), ("k_high", False)):
        for k in est[key]:
            if (k <= 0) != low:
                raise ValueError(f"[estimate] {key} entry {k} must be {'<= 0' if low else '>= 1'}")
            if ks.count(k) > 1:
                raise ValueError(f"[estimate] {key} entry {k} names its block twice")
    grid = make_grid(**values["grid"])
    ts = _times_from(values)
    g = build_profile(grid, values["data"], rng)
    reps = verify_block_estimates(g, ks, ts, **{key: est[key] for key in ESTIMATE})
    rows = [[float(rep.k), rep.max_ratio, rep.fitted_exponent or 0.0] for rep in reps]
    sides = {}
    for side in ("low", "high"):
        # A NaN ratio stays in, and makes the spread NaN.
        maxima = [rep.max_ratio for rep in reps if rep.side == side and not rep.max_ratio <= 0]
        sides[side] = float(np.max(maxima) / np.min(maxima)) if maxima else math.inf
    return ExperimentReport(
        scalars={"low_spread": sides["low"], "high_spread": sides["high"]},
        checks={
            "low_k_independent": Check(sides["low"], "<", est["spread_cap"]),
            "high_k_independent": Check(sides["high"], "<", est["spread_cap"]),
        },
        tables={"blocks": Table(columns=["k", "max_ratio", "fitted_exponent"], rows=rows)},
    )


def _chunk_members(blocks, stacks: float) -> int:
    """Members in a chunk of ENSEMBLE_CHUNK_BYTES, each charged stacks complex
    block stacks of blocks (at least one member)."""
    return max(1, int(ENSEMBLE_CHUNK_BYTES // (2 * stacks * blocks.annuli.nbytes)))


def _ensemble_max(blocks, count: int, draw, measure, stacks: float) -> float:
    """Max of measure(blocks, *draw(b)) over count random members (a field
    or a pair of fields) that draw(b) gives as stacked samples, b at a time,
    in chunks of _chunk_members(blocks, stacks).  stacks is the caller's
    upper bound on the complex block stacks one member holds, draw
    included.  Warm tracemalloc peaks measure about 4 a pair for
    decomposition_residuals (charged 8), about 1 a pair for leibniz_ratios
    (charged 3) and 1.08 a field for interpolation_ratios (charged 1.25)."""
    chunk = _chunk_members(blocks, stacks)
    sizes = [min(chunk, count - start) for start in range(0, count, chunk)]
    return float(np.max([np.max(measure(blocks, *draw(b))) for b in sizes]))


def _random_bands(rng, grid, count: int, slope_max: float, lo: float, hi: float) -> np.ndarray:
    """Samples of count band_limited_random fields on [lo, hi], stacked: each
    field draws its slope, uniform on [0, slope_max), then its noise."""
    rows = [(rng.uniform(0.0, slope_max), rng.standard_normal(grid.shape)) for _ in range(count)]
    slopes, noise = np.array([s for s, _ in rows]), np.stack([x for _, x in rows])
    return band_limited_samples(grid, noise, lo, hi, slopes)


def run_paraproduct_residual(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    exp = values["experiment"]
    pairs, tol, band_lo = exp["pairs"], exp["tolerance"], exp["band_lo"]
    if pairs < 1:
        raise ValueError(f"[experiment] pairs must be at least 1, got {pairs}")
    grid = make_grid(**values["grid"])
    band_hi = grid.max_freq / 4.0 if exp["band_hi"] is None else exp["band_hi"]

    def draw(b):  # f, then g
        fields = _random_bands(rng, grid, 2 * b, 0.8, band_lo, band_hi)
        return fields[0::2], fields[1::2]

    worst = _ensemble_max(make_blocks(grid), pairs, draw, decomposition_residuals, stacks=8)
    return ExperimentReport(
        scalars={"max_residual": worst, "pairs": float(pairs)},
        checks={"repartition": Check(worst, "<", tol)},
    )


def run_leibniz(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    sec = values["leibniz"]
    if sec["ensemble"] < 1:
        raise ValueError(f"[leibniz] ensemble must be at least 1, got {sec['ensemble']}")
    lcfg = LeibnizConfig(**{f.name: sec[f.name] for f in dataclasses.fields(LeibnizConfig)})
    base = make_grid(**values["grid"])
    refined = make_grid(base.n, 2 * base.points_per_axis, base.box_length)
    band_hi = base.max_freq / 4.0
    maxima = {}
    for label, grid in (("base", base), ("refined", refined)):
        ens_rng = np.random.default_rng(rng.integers(0, 2**63))

        def draw(b):  # f and g of each pair, in that order
            noise = ens_rng.standard_normal((b, 2) + grid.shape)
            fields = band_limited_samples(grid, noise, 0.3, band_hi, sec["spectrum_slope"])
            return fields.swapaxes(0, 1)

        maxima[label] = _ensemble_max(
            make_blocks(grid), sec["ensemble"], draw, partial(leibniz_ratios, cfg=lcfg), stacks=3
        )
    change = abs(maxima["refined"] - maxima["base"]) / maxima["base"]
    return ExperimentReport(
        scalars={
            "max_ratio_base": maxima["base"],
            "max_ratio_refined": maxima["refined"],
            "refinement_change": change,
        },
        checks={
            "finite": Check(maxima["base"], "<=", np.finfo(float).max),  # JSON has no inf
            "stable_under_refinement": Check(change, "<", sec["stability_cap"]),
        },
    )


def run_interpolation(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    ensemble = values["experiment"]["ensemble"]
    if ensemble < 1:
        raise ValueError(f"[experiment] ensemble must be at least 1, got {ensemble}")
    grid = make_grid(**values["grid"])
    blocks = make_blocks(grid)
    r, s = values["problem"]["r"], values["problem"]["s"]
    check_decay_integrability(r)

    def draw(b):  # one stack of fields
        return (_random_bands(rng, grid, b, 1.0, 0.4, grid.max_freq / 4.0),)

    rows = []
    for theta in values["experiment"]["thetas"]:
        q, alpha = interpolation_exponents(r, s, theta)
        ratios = partial(interpolation_ratios, r=r, s=s, theta=theta)
        rows.append([theta, q, alpha, _ensemble_max(blocks, ensemble, draw, ratios, stacks=1.25)])
    degenerate = sum(not 0 < r[3] < math.inf for r in rows)  # constants not positive, finite
    return ExperimentReport(
        scalars={"max_ratio": float(np.max([r[3] for r in rows]))},
        checks={"finite_constants": Check(degenerate, "==", 0)},
        tables={
            "constants": Table(
                columns=["theta", "q", "alpha", "max_ratio"], rows=rows
            )
        },
    )


def run_contraction(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = make_grid(**values["grid"])
    pp = _problem_from(values)
    scfg = SolverConfig.uniform(**values["solver"])
    amps = values["experiment"]["amplitudes"]
    diags = []
    for amp in amps:
        data = {**values["data"], "amplitude": amp}
        u = build_profile(grid, data, rng)
        _, diag = picard_solve(u, u, pp, scfg)
        diags.append(diag)
    report = contraction_report(amps, diags, pp)
    gap = abs(report.scalars["fitted_slope"] - report.scalars["expected_slope"])
    report.checks["amplitude_power"] = Check(gap, "<=", values["experiment"]["slope_tol"])
    return report


def run_global_decay(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = make_grid(**values["grid"])
    pp = _problem_from(values)
    scfg = SolverConfig.uniform(**values["solver"])
    # The oracle stores only on its own lattice, so every node must sit on it.
    for t in scfg.time_grid:
        _lattice_count(t, scfg.etd_dt, "[solver] node t")
    u = build_profile(grid, values["data"], rng)
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
    agreement = float(np.max([
        _pair_norm(grid, c - ref) / max(_pair_norm(grid, c), 1e-300)
        for c, ref in zip(traj.spectra[1:], etd_traj.spectra[1:], strict=True)
    ]))
    # Only the agreement reads the oracle's spectra: dropping them before
    # the study leaves room for its stacked block norms.
    del etd_traj
    study = decay_study(traj, pp, blown_up=False)
    study.scalars["oracle_agreement"] = agreement
    study.scalars["picard_residual"] = diag.residual
    study.scalars["picard_iterations"] = float(diag.iterations)
    study.scalars["oracle_steps"] = float(etd_diag.steps)
    study.scalars["oracle_rejected"] = float(etd_diag.rejected)
    first = diag.diff_norms[0] if diag.diff_norms else 0.0
    study.scalars["nonlinear_share"] = first / max(study.scalars["weighted_sup"], 1e-300)
    study.checks["picard_converged"] = diag.convergence
    study.tables["picard"] = Table(
        columns=["iteration", "diff_norm"],
        rows=[[float(i), d] for i, d in enumerate(diag.diff_norms, start=1)],
    )
    study.checks["oracle_agreement"] = Check(agreement, "<", values["experiment"]["oracle_tol"])
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


def run_blowup_probe(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = make_grid(**values["grid"])
    pp = _problem_from(values)
    # blowup_probe reads T, etd_dt and the cap: the time grid is [0, T].
    scfg = SolverConfig.uniform(nodes=2, **values["solver"])
    u = build_profile(grid, values["data"], rng)
    return blowup_probe(u, u, pp, scfg)


def _sweep_one(args) -> tuple[int, bool, float | None, int, int]:
    u, pp, solver = args
    _, diag = etd_oracle(
        u, u, pp, solver["etd_dt"], solver["T"], blowup_threshold=solver["blowup_threshold"]
    )
    return pp.p_nl, diag.blown_up, diag.escape_time, diag.steps, diag.rejected


def run_sweep_critical(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    grid = make_grid(**values["grid"])
    u = build_profile(grid, values["data"], rng)
    params = [_problem_from(values, p) for p in values["experiment"]["powers"]]
    args = [(u, pp, values["solver"]) for pp in params]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays its import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, args))
    else:
        results = [_sweep_one(a) for a in args]
    fujita = params[0].fujita
    rows = [
        [float(p), float(escaped), t if t is not None else -1.0, float(steps), float(rejected)]
        for p, escaped, t, steps, rejected in results
    ]
    # The claim: every power below 1 + 2r/n escapes, every other one decays.
    wrong_side = sum(escaped != (p < fujita) for p, escaped, *_ in results)
    return ExperimentReport(
        scalars={"fujita": fujita},
        checks={"boundary_at_critical": Check(wrong_side, "==", 0)},
        tables={
            "sweep": Table(
                columns=["p", "escaped", "escape_time", "steps", "rejected"], rows=rows
            )
        },
    )


def run_admissibility(values: Values, out_dir: Path, rng, jobs: int) -> ExperimentReport:
    pr = values["problem"]
    n, r, s, p = pr["n"], pr["r"], pr["s"], pr["p"]
    samples = values["experiment"]["random_samples"]
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
    rows = [[c.name, float(c.status == "pass"), c.margin] for c in verdict.conditions]
    return ExperimentReport(
        scalars={
            "beta": verdict.beta,
            "fujita": verdict.fujita,
            "rational_mismatches": float(mismatches),
        },
        checks={
            "hypotheses": Check(len(verdict.failed_conditions()), "==", 0),
            "rational_agreement": Check(mismatches, "==", 0),
        },
        tables={
            "conditions": Table(columns=["condition", "ok", "margin"], rows=rows)
        },
        meta={"branch": verdict.two_s_branch},
    )


# The shared sections of the decay-estimate and the solving kinds.
FLOW = {"grid": GRID, "time": TIME, "data": DATA}
SOLVING = {"grid": GRID, "problem": PROBLEM, "solver": {**SOLVER, **ETD}, "data": DATA}

REGISTRY: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in [
        ExperimentSpec(
            "partition-residual",
            "dyadic partition of unity on the lattice",
            "low block + sum of annuli equals 1 at every nonzero frequency",
            run_partition_residual,
            {"grid": GRID, "experiment": {"tolerance": 1e-12}},
        ),
        ExperimentSpec(
            "mode-ode",
            "per-mode kernel solves the damped oscillator equation",
            "v'' + v' + |xi|^2 v = 0 with v(0)=0, v'(0)=1, residual < 1e-6",
            run_mode_ode,
            {"experiment": {"fd_step": 1e-4, "tolerance": 1e-6}},
        ),
        ExperimentSpec(
            "verify-lp-lq",
            "two-sided decay bound of the flow in Besov norms",
            "||D(t)g|| <= <t>^(-(n/2)(1/q-1/p)-(s1-s2)/2) low + e^(-t/2)<t>^d high",
            run_verify_lp_lq,
            # The torus norm drops the DC mode, about dxi sqrt(2t/pi) of the low sum:
            # L = 400 fits -0.30 for -0.25, and the bias halves as L doubles at fixed dx.
            {**FLOW, "grid": {**GRID, "N": 16384, "L": 1600.0},
             "time": {**TIME, "fit_lo": float, "fit_hi": float},
             "estimate": {**ESTIMATE, "q": 1.0, "rate_tol": 0.10}},
        ),
        ExperimentSpec(
            "high-frequency-bound",
            "damping-compensated growth of the high-frequency flow",
            "log ||D(t)g|| + t/2 grows at most logarithmically",
            run_high_frequency_bound,
            {**FLOW, "estimate": {"p": 2.0, "delta_cap": 10.0}},
        ),
        ExperimentSpec(
            "block-estimates",
            "per-dyadic-block decay ratios, constant independent of the block",
            "max over t of block ratio varies by < 3x across k",
            run_block_estimates,
            {**FLOW, "estimate": {**ESTIMATE, "spread_cap": 3.0,
                                  "k_low": (-4, -3, -2, -1), "k_high": (1, 2, 3, 4)}},
        ),
        ExperimentSpec(
            "paraproduct-residual",
            "product repartition into two paraproducts and a remainder",
            "fg = T_f g + T_g f + R(f,g) to relative L^2 residual < 1e-10",
            run_paraproduct_residual,
            {"grid": GRID,
             "experiment": {"pairs": 100, "tolerance": 1e-10, "band_lo": 0.3, "band_hi": float}},
        ),
        ExperimentSpec(
            "leibniz",
            "fractional product estimate in homogeneous Besov norms",
            "||fg||_{B^a_r} bounded by cross terms; constant stable under N -> 2N",
            run_leibniz,
            {"grid": {**GRID, "N": 256, "L": 32.0},
             "leibniz": {"alpha": 0.7, "r": 2.0, "p1": 4.0, "q1": 4.0, "p2": 4.0, "q2": 4.0,
                         "ensemble": 500, "spectrum_slope": 0.5, "stability_cap": 0.25}},
        ),
        ExperimentSpec(
            "interpolation",
            "two-endpoint interpolation inequality for the solution space",
            "||f||_{B^a_q} <= C ||f||_{B^0_r}^(1-theta) ||f||_{B^s_2}^theta",
            run_interpolation,
            {"grid": GRID, "problem": {key: PROBLEM[key] for key in ("r", "s")},
             "experiment": {"ensemble": 200, "thetas": (0.25, 0.5, 0.75)}},
        ),
        ExperimentSpec(
            "contraction",
            "contraction-factor scaling of the fixed-point map",
            "log(ratio) vs log(amplitude) has slope p-1",
            run_contraction,
            # Each of [experiment] amplitudes replaces the profile's amplitude.
            # The defaults are configs/contraction.cfg's: at p = 2 and these
            # amplitudes the second Picard difference stands above rounding.
            {"grid": {**GRID, "N": 256, "L": 64.0},
             "problem": {**PROBLEM, "s": 2.0, "p": 2},
             "solver": {**SOLVER, **PICARD, "T": 2.0, "nodes": 33, "picard_tol": 1e-15,
                        "max_iters": 3},
             "data": {**DATA, "width": 2.0, "amplitude": None},
             "experiment": {"amplitudes": (1e-3, 2e-3, 4e-3), "slope_tol": 0.2}},
        ),
        ExperimentSpec(
            "global-decay",
            "small-data run at/above the critical power: decay and oracle match",
            "weighted sup bounded, Picard and ETD agree in relative L^2",
            run_global_decay,
            # The defaults are configs/global-decay.cfg's: small slowly
            # decaying data at the critical power, which decay without escape.
            {"grid": {**GRID, "N": 8192, "L": 800.0}, "problem": PROBLEM,
             "solver": {**SOLVER, **PICARD, **ETD, "nodes": 161, "max_iters": 12,
                        "blowup_threshold": 10.0, "etd_dt": 0.025},
             "data": {**DATA, "profile": "slow-decay", "amplitude": 1e-2},
             "experiment": {"oracle_tol": 1e-4}},
        ),
        ExperimentSpec(
            "blowup-probe",
            "escape-time probe below the critical power",
            "positive data escapes the max-norm cap; stable under refinement",
            run_blowup_probe,
            SOLVING,
        ),
        ExperimentSpec(
            "sweep-critical",
            "escape-vs-decay sweep across nonlinearity powers",
            "boundary sits at the critical power 1 + 2r/n",
            run_sweep_critical,
            # The powers come from [experiment] powers, not [problem] p.
            {"grid": {**GRID, "N": 1024, "L": 80.0},
             "problem": {key: PROBLEM[key] for key in ("n", "r", "s")},
             "solver": {**SOLVER, **ETD, "T": 80.0, "etd_dt": 0.01, "blowup_threshold": 100.0},
             "data": {**DATA, "width": 2.0, "amplitude": 0.5},
             "experiment": {"powers": (7, 8, 9, 10)}},
        ),
        ExperimentSpec(
            "admissibility",
            "existence hypotheses evaluated with slack margins",
            "float and exact-rational evaluations agree",
            run_admissibility,
            {"grid": {"n": 1}, "problem": PROBLEM,
             "experiment": {"random_samples": 1000}},
        ),
    ]
}


def run_experiment(
    name: str,
    cfg: Config,
    out_dir: Path,
    seed: int | None,
    jobs: int = 1,
    *,
    override_admissibility: bool = False,
) -> ExperimentReport:
    """Run one registered experiment on its read_config values; seed None
    takes [run] seed.  Unless overridden, a kind with [solver] must pass
    require_lwp at its [experiment] powers, or at [problem] p if it has no
    powers, before anything is built.

    The report is named after the kind, and its meta records the effective
    config: meta.config holds every key the kind reads as config_text, with
    defaults filled in and the seed as run (a key with no value left out),
    and meta.config_hash hashes it.  A report reruns from its meta.config."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment '{name}'")
    spec = REGISTRY[name]
    values = read_config(spec, cfg)
    if "solver" in spec.keys and not override_admissibility:
        pr, exp = values["problem"], values["experiment"]
        require_lwp(pr["n"], pr["r"], pr["s"], exp["powers"] if "powers" in exp else (pr["p"],))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values["experiment"]["kind"] = name
    if seed is not None:
        values["run"]["seed"] = seed
    if values["run"]["seed"] < 0:
        where = "[run] seed" if seed is None else "--seed"
        raise ConfigError(f"{where} must be non-negative, got {values['run']['seed']}")
    config = {
        section: {key: config_text(v) for key, v in keys.items() if v is not None}
        for section, keys in values.items()
    }
    rng = np.random.default_rng(values["run"]["seed"])
    started, cpu = time.perf_counter(), time.process_time()
    faults = getrusage and getrusage(RUSAGE_SELF).ru_minflt
    report = spec.runner(values, out_dir, rng, jobs)
    report.runtime_s = round(time.perf_counter() - started, 3)
    report.cpu_s = round(time.process_time() - cpu, 3)
    if getrusage:
        report.minor_faults = getrusage(RUSAGE_SELF).ru_minflt - faults
    report.kind = name
    report.meta.update(config=config, config_hash=config_hash(config))
    return report
