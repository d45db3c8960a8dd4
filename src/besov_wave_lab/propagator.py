"""The damped-wave solution operator and its decay-estimate verifiers.

Per Fourier mode the flow solves v'' + v' + |xi|^2 v = 0.  Its kernel
L(t, xi) is sinh(t*w)/w below the threshold |xi| = 1/2 (w^2 = 1/4 - |xi|^2)
and sin(t*w)/w above it; a short even Taylor series in |xi|^2 - 1/4 bridges
the removable singularity.  The damped operator multiplies by exp(-t/2),
which is always fused into the symbol so large times neither overflow nor
lose the bounded product.  flow_matrix evaluates the branches once and
returns the whole 2x2 matrix on (u, u_t); every other flow here reads it.
The verifiers apply it to projections of the data's spectrum and sample
only for L^p norms, so a mode a projection zeroes stays exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from besov_wave_lab.grid import GridField, apply_symbol
from besov_wave_lab.littlewood_paley import DyadicBlocks, make_blocks
from besov_wave_lab.norms import _besov, time_bracket
from besov_wave_lab.reporting import ExperimentReport, Table

__all__ = [
    "DELTA_BAND",
    "flow_matrix",
    "damped_L",
    "damped_dtL",
    "apply_D",
    "linear_solution",
    "fit_power_law",
    "fit_high_growth",
    "verify_lp_lq",
    "BlockEstimateReport",
    "verify_block_estimate",
    "verify_block_estimates",
]

DELTA_BAND = 1e-3
_SERIES_TERMS = 9  # degree 8 in z = |xi|^2 - 1/4
_X_SERIES_MAX = 1.0

_L_COEFFS = np.array(
    [(-1.0) ** m / math.factorial(2 * m + 1) for m in range(_SERIES_TERMS)]
)
_DTL_COEFFS = np.array(
    [(-1.0) ** m / math.factorial(2 * m) for m in range(_SERIES_TERMS)]
)


def _poly(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def _branch_masks(t: float, xi: np.ndarray):
    z = (xi - 0.5) * (xi + 0.5)
    band = np.abs(xi - 0.5) <= DELTA_BAND
    series = band & (np.abs(t * t * z) <= _X_SERIES_MAX)
    low = (xi < 0.5) & ~series
    high = ~series & ~low
    return z, series, low, high


def flow_matrix(t: float, xi_abs):
    """Per-mode matrix (e11, e12, e21, e22) of the damped flow on (u, u_t).

    e12 = exp(-t/2) L and e22 = exp(-t/2) (dL/dt - L/2) are fused so no
    branch overflows at large t; e11 = e22 + e12 and e21 = -|xi|^2 e12.
    A scalar |xi| gives four floats.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    scalar = np.isscalar(xi_abs)
    xi = np.atleast_1d(np.asarray(xi_abs, dtype=float))
    z, series, low, high = _branch_masks(t, xi)
    damp = math.exp(-t / 2.0)
    e12 = np.empty_like(xi)
    e22 = np.empty_like(xi)
    if np.any(series):
        x = t * t * z[series]
        poly_l = _poly(_L_COEFFS, x)
        e12[series] = damp * t * poly_l
        e22[series] = damp * (_poly(_DTL_COEFFS, x) - 0.5 * t * poly_l)
    if np.any(low):
        w = np.sqrt(-z[low])
        ep = np.exp(t * (w - 0.5))
        em = np.exp(-t * (w + 0.5))
        e12[low] = (ep - em) / (2.0 * w)
        e22[low] = 0.5 * (ep + em) - 0.25 * (ep - em) / w
    if np.any(high):
        w = np.sqrt(z[high])
        sin_w = np.sin(t * w)
        e12[high] = damp * sin_w / w
        e22[high] = damp * (np.cos(t * w) - 0.5 * sin_w / w)
    e11 = e22 + e12
    e21 = -(xi**2) * e12
    if scalar:
        return float(e11[0]), float(e12[0]), float(e21[0]), float(e22[0])
    return e11, e12, e21, e22


def damped_L(t, xi_abs) -> np.ndarray:
    """exp(-t/2) * L(t, |xi|), the e12 entry of the flow matrix.

    A 1-D array of times gives one row per time, of shape (times,) +
    |xi|'s, each bit for bit damped_L(float(t_k), xi_abs): the branch
    masks and roots are taken once for all the times, and only e12 is
    evaluated, by flow_matrix's expressions in its order, on compact
    arrays of the low and the high modes stacked over the times (the high
    ones in place).  A band mode (|xi| within DELTA_BAND of 1/2) changes
    branch with t at the series test |t^2 (|xi|^2 - 1/4)| <= 1, so the
    band modes take flow_matrix one time at a time.
    """
    if np.ndim(t) == 0:
        return flow_matrix(t, xi_abs)[1]
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("time must be nonnegative")
    xi = np.asarray(xi_abs, dtype=float)
    # At t = 0 the series test holds on the whole band, so the masks split
    # the modes into the band and the low and high modes off it.
    z, band, low, high = _branch_masks(0.0, xi)
    column = times[:, None]
    out = np.empty(times.shape + xi.shape)
    if np.any(low):
        w = np.sqrt(-z[low])
        out[:, low] = (np.exp(column * (w - 0.5)) - np.exp(-column * (w + 0.5))) / (2.0 * w)
    if np.any(high):
        w = np.sqrt(z[high])
        e12 = np.multiply(column, w)
        np.sin(e12, out=e12)
        e12 *= np.array([math.exp(-s / 2.0) for s in times.tolist()])[:, None]
        e12 /= w
        out[:, high] = e12
    if np.any(band):
        for row, s in zip(out, times.tolist()):
            row[band] = flow_matrix(s, xi[band])[1]
    return out


def damped_dtL(t: float, xi_abs) -> np.ndarray:
    """exp(-t/2) * (dL/dt - L/2), the e22 entry of the flow matrix."""
    return flow_matrix(t, xi_abs)[3]


def apply_D(t: float, g: GridField) -> GridField:
    """Damped-wave flow applied to data (0, g)."""
    return apply_symbol(damped_L(t, g.grid.freq_abs), g)


def linear_solution(u0: GridField, u1: GridField, t: float) -> GridField:
    """Flow of the homogeneous problem from data (u0, u1)."""
    if u0.grid != u1.grid:
        raise ValueError("initial data live on different grids")
    e11, e12, _, _ = flow_matrix(t, u0.grid.freq_abs)
    return apply_symbol(e11, u0) + apply_symbol(e12, u1)


def fit_power_law(
    ts: np.ndarray,
    values: np.ndarray,
    *,
    window: tuple[float | None, float | None] | None = None,
) -> tuple[float, float, float]:
    """Least-squares fit of log10(value) against log10(<t>).

    window restricts the fit to t in [lo, hi], a missing window or end to the
    last decade's (t_last / 10, t_last).  Returns (slope, intercept, max
    residual in log10), all NaN when a sample in the window is not finite.
    Samples <= 0 are left out, as the log has none.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window or (None, None)
    lo, hi = ts[-1] / 10.0 if lo is None else lo, ts[-1] if hi is None else hi
    inside = (ts >= lo) & (ts <= hi)
    if not np.all(np.isfinite(values[inside])):
        return math.nan, math.nan, math.nan
    mask = inside & (values > 0)
    if np.count_nonzero(mask) < 2:
        raise ValueError("fit window contains fewer than two positive samples")
    x = np.log10(time_bracket(ts[mask]))
    y = np.log10(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return float(slope), float(intercept), resid


def fit_high_growth(
    ts: np.ndarray, high_vals: np.ndarray, high_norm: float
) -> tuple[float, float]:
    """Nonnegative exponent delta and constant so that
    high_vals <= C * exp(-t/2) * <t>^delta * high_norm on the grid.  A
    non-finite high_norm, or sample after t = 0, has no such bound: both
    are NaN, so a check on delta fails.  Samples of exactly 0 are left out
    of the fit."""
    later = ts > 0
    if not (math.isfinite(high_norm) and np.all(np.isfinite(high_vals[later]))):
        return math.nan, math.nan
    mask = (high_vals > 0) & later
    if high_norm <= 0 or np.count_nonzero(mask) < 2:
        return 0.0, 1.0
    excess = np.log10(high_vals[mask]) + ts[mask] / (2.0 * math.log(10.0)) - math.log10(
        high_norm
    )
    x = np.log10(time_bracket(ts[mask]))
    slope, _ = np.polyfit(x, excess, 1)
    delta = max(0.0, float(slope))
    const = 10.0 ** float(np.max(excess - delta * x))
    return delta, const


def _flow_exponents(n: int, p: float, q: float, s1: float, s2: float) -> tuple[float, float]:
    """beta = (n - 1)|1/2 - 1/p|, the derivatives the high frequencies lose
    from L^p to L^p, and the low-frequency rate -(n/2)(1/q - 1/p) - (s1 - s2)/2
    of the flow from B^{s2}_q to B^{s1}_p."""
    return (n - 1) * abs(0.5 - 1.0 / p), -(n / 2.0) * (1.0 / q - 1.0 / p) - (s1 - s2) / 2.0


def verify_lp_lq(
    g: GridField,
    p: float,
    q: float,
    s1: float,
    s2: float,
    t_grid: np.ndarray,
    *,
    blocks: DyadicBlocks | None = None,
    fit_window: tuple[float | None, float | None] | None = None,
) -> ExperimentReport:
    """Measure the Besov-norm decay of the flow against its two-sided bound.

    Tabulates ||D(t)g||_{B^{s1}_{p,2}}, the low-frequency bound with rate
    -(n/2)(1/q - 1/p) - (s1 - s2)/2, the exponentially damped high-frequency
    bound with a fitted nonnegative log-growth exponent, and their ratio.
    """
    if not (1.0 <= q <= p) or math.isinf(p) or p == 1.0:
        raise ValueError("need 1 <= q <= p < inf with p != 1")
    if s1 < s2:
        raise ValueError("need s1 >= s2")
    if blocks is None:
        blocks = make_blocks(g.grid)
    beta, low_exponent = _flow_exponents(g.grid.n, p, q, s1, s2)

    chi = blocks.low_pass_multiplier(1.0)
    g_low, g_high = chi * g.spectrum, (1.0 - chi) * g.spectrum
    low_norm = float(_besov(blocks, g_low, s2, q, 2.0))
    high_norm = float(_besov(blocks, g_high, s1 + beta - 1.0, p, 2.0))

    # D(t) is one multiplier per time, applied to the three spectra at once.
    stack = np.stack([g.spectrum, g_low, g_high])
    ts = np.asarray(t_grid, dtype=float)
    lhs, lhs_low, lhs_high = np.array(
        [_besov(blocks, damped_L(t, g.grid.freq_abs) * stack, s1, p, 2.0) for t in ts]
    ).T

    delta_hat, high_const = fit_high_growth(ts, lhs_high, high_norm)
    bracket = time_bracket(ts)
    low_bound = bracket**low_exponent * low_norm
    high_bound = high_const * np.exp(-ts / 2.0) * bracket**delta_hat * high_norm
    denom = low_bound + high_bound
    ratio = np.divide(lhs, denom, out=np.zeros_like(lhs), where=denom > 0)

    scalars: dict[str, float] = {
        "expected_low_exponent": low_exponent,
        "delta_hat": delta_hat,
        "high_const": high_const,
        "max_ratio": float(np.max(ratio)),
        "low_norm": low_norm,
        "high_norm": high_norm,
        "beta": beta,
    }
    if low_norm > 0 and np.any(lhs_low > 0):
        slope, intercept, _ = fit_power_law(ts, lhs_low, window=fit_window)
        scalars["fitted_low_exponent"] = slope
        scalars["fitted_low_intercept"] = intercept
    table = Table(
        columns=["t", "lhs", "lhs_low", "lhs_high", "low_bound", "high_bound", "ratio"],
        rows=[
            [float(ts[i]), float(lhs[i]), float(lhs_low[i]), float(lhs_high[i]),
             float(low_bound[i]), float(high_bound[i]), float(ratio[i])]
            for i in range(ts.size)
        ],
    )
    return ExperimentReport(scalars=scalars, tables={"decay": table})


@dataclass
class BlockEstimateReport:
    k: int
    ratios: np.ndarray
    fitted_exponent: float | None

    def __post_init__(self) -> None:
        finite = np.isfinite(self.ratios)
        if not np.all(finite):
            raise ValueError("block-estimate ratios must be finite")

    @property
    def side(self) -> str:
        return "low" if self.k <= 0 else "high"

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))


def verify_block_estimates(
    g: GridField,
    ks,
    t_grid: np.ndarray,
    *,
    p: float = 2.0,
    q: float = 2.0,
    s1: float = 0.0,
    s2: float = 0.0,
    blocks: DyadicBlocks | None = None,
) -> list[BlockEstimateReport]:
    """Per-block decay ratios at the dyadic indices ks, one report each.

    k <= 0 compares 2^(k*s1) ||block_k D(t) g||_p with the polynomially
    decaying bound; k >= 1 compares against exp(-t/2) 2^(k(s1+beta-1)) with
    a fitted log-growth exponent of the exp(t/2)-compensated ratio, 0.0 when
    fewer than two ratios are positive.  Every block norm is a column of
    blocks.block_norms, taken once per time for the flowed data (so it
    holds J blocks at a time, not J per time) and once per exponent for
    the data, whatever the number of indices.
    """
    for name, exponent in (("p", p), ("q", q)):
        if exponent < 1:
            raise ValueError(f"Lebesgue exponent {name} must be >= 1, got {exponent}")
    if blocks is None:
        blocks = make_blocks(g.grid)
    for k in ks:
        blocks._check_range(k)
    beta, rate = _flow_exponents(g.grid.n, p, q, s1, s2)
    ts = np.asarray(t_grid, dtype=float)
    flowed = np.array(
        [blocks.block_norms(damped_L(t, g.grid.freq_abs) * g.spectrum, p) for t in ts]
    )
    data = {e: blocks.block_norms(g.spectrum, e) for e in {q if k <= 0 else p for k in ks}}
    reports = []
    for k in ks:
        column = k - blocks.j_min
        lhs = 2.0 ** (k * s1) * flowed[:, column]
        if k <= 0:
            decay, weight, data_exponent = time_bracket(ts) ** rate, 2.0 ** (k * s2), q
        else:
            decay, weight, data_exponent = np.exp(-ts / 2.0), 2.0 ** (k * (s1 + beta - 1.0)), p
        rhs = decay * weight * data[data_exponent][column]
        ratios = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0)
        fitted = None
        if k > 0:
            try:
                fitted = fit_power_law(ts, ratios, window=(ts[0], ts[-1]))[0]
            except ValueError:  # fewer than two positive ratios
                fitted = 0.0
        reports.append(BlockEstimateReport(k, ratios, fitted))
    return reports


def verify_block_estimate(g: GridField, k: int, t_grid: np.ndarray, **keys) -> BlockEstimateReport:
    """verify_block_estimates at the one index k."""
    return verify_block_estimates(g, [k], t_grid, **keys)[0]
