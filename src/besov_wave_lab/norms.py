"""Lebesgue and homogeneous Besov norms plus the time-weighted solution norms.

Homogeneous seminorms sum 2^(j*s) * ||block_j f||_p in little-l^q over the
grid's dyadic range; the DC mode never enters (it lives in the low block).
The solution-space norm weights ||.||_{B^s_{2,2}} by <t>^(s/2 - (n/2)(1/2-1/r)),
and the source-space norm carries the weight <t>^eta together with a max over
an integrability window [sigma1, sigma2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from besov_wave_lab.grid import GridField, TorusGrid
from besov_wave_lab.littlewood_paley import DyadicBlocks, make_blocks

__all__ = [
    "BesovParams",
    "ProblemParams",
    "Trajectory",
    "lebesgue_norm",
    "besov_seminorm",
    "x_norm",
    "y_norm",
    "time_bracket",
    "x_weight",
    "interpolation_check",
    "interpolation_exponents",
]


def time_bracket(t) -> np.ndarray:
    """<t> = sqrt(1 + t^2)."""
    return np.sqrt(1.0 + np.asarray(t, dtype=float) ** 2)


def lebesgue_norm(f: GridField, p: float) -> float:
    """Quadrature L^p norm; p = inf gives the max of |f|."""
    if p < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
    if math.isinf(p):
        return f.max_abs()
    weight = f.grid.spacing**f.grid.n
    return float((weight * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float
    q: float = 2.0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"integrability exponent must be >= 1, got {self.p}")
        if self.q < 1:
            raise ValueError(f"summability exponent must be >= 1, got {self.q}")


def _lq(values: np.ndarray, q: float) -> float:
    if math.isinf(q):
        return float(np.max(values)) if values.size else 0.0
    return float(np.sum(values**q) ** (1.0 / q))


def besov_seminorm(
    f: GridField,
    s: float,
    p: float,
    q: float = 2.0,
    *,
    blocks: DyadicBlocks | None = None,
) -> float:
    """Homogeneous Besov seminorm of f over the whole representable dyadic
    range, with the DC mode excluded."""
    BesovParams(s=s, p=p, q=q)
    if blocks is None:
        blocks = make_blocks(f.grid)
    js = np.array(list(blocks.indices()), dtype=float)
    norms = blocks.block_norms(f, p)
    return _lq(2.0 ** (js * s) * norms, q)


@dataclass(frozen=True)
class ProblemParams:
    """Problem parameters (n, r, s, p_nl) and the derived exponents.

    beta = (n-1)(1/2 - 1/r), eta = (s-1)/2 + (n/2)(p_nl/r - 1/2),
    sigma1 = max(1, r/p_nl) + eps, sigma2 = r when 2s >= n and
    min(r, 2n/(p_nl(n-2s))) otherwise, fujita = 1 + 2r/n.  eps defaults to
    5% of the sigma window so sigma1 < sigma2 always holds.
    """

    n: int
    r: float
    s: float
    p_nl: int
    eps: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be a positive integer")
        if not (2.0 < self.r < math.inf):
            raise ValueError(f"decay integrability r must lie in (2, inf), got {self.r}")
        if int(self.p_nl) != self.p_nl or self.p_nl < 2:
            raise ValueError(f"nonlinearity power must be an integer >= 2, got {self.p_nl}")
        base = max(1.0, self.r / self.p_nl)
        sigma2 = self._sigma2()
        if sigma2 <= base:
            raise ValueError(
                f"no admissible integrability window: sigma2={sigma2:.6g} <= "
                f"max(1, r/p)={base:.6g}"
            )
        if self.eps == 0.0:
            object.__setattr__(self, "eps", 0.05 * (sigma2 - base))
        if not (0.0 < self.eps < sigma2 - base):
            raise ValueError("eps must be positive and keep sigma1 below sigma2")

    def _sigma2(self) -> float:
        if 2 * self.s >= self.n:
            return self.r
        return min(self.r, 2.0 * self.n / (self.p_nl * (self.n - 2.0 * self.s)))

    @property
    def beta(self) -> float:
        return (self.n - 1) * (0.5 - 1.0 / self.r)

    @property
    def eta(self) -> float:
        return (self.s - 1.0) / 2.0 + (self.n / 2.0) * (self.p_nl / self.r - 0.5)

    @property
    def sigma1(self) -> float:
        return max(1.0, self.r / self.p_nl) + self.eps

    @property
    def sigma2(self) -> float:
        return self._sigma2()

    @property
    def fujita(self) -> float:
        return 1.0 + 2.0 * self.r / self.n

    def x_weight_exponent(self) -> float:
        return self.s / 2.0 - (self.n / 2.0) * (0.5 - 1.0 / self.r)


def x_weight(t, pp: ProblemParams) -> np.ndarray:
    return time_bracket(t) ** pp.x_weight_exponent()


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed family of fields on one shared grid."""

    times: np.ndarray
    fields: tuple[GridField, ...]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-D array")
        if times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if len(self.fields) != times.size:
            raise ValueError("one field per time sample required")
        grid = self.fields[0].grid
        for f in self.fields:
            if f.grid != grid:
                raise ValueError("all trajectory fields must share one grid")
        times = times.copy()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def grid(self) -> TorusGrid:
        return self.fields[0].grid

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return zip(self.times, self.fields)

    def scaled(self, factor: float) -> "Trajectory":
        return Trajectory(self.times, tuple(factor * f for f in self.fields))


def x_norm(
    traj: Trajectory, pp: ProblemParams, *, blocks: DyadicBlocks | None = None
) -> float:
    """Sup over sample times of the weighted smoothness plus decay norms."""
    if blocks is None:
        blocks = make_blocks(traj.grid)
    best = 0.0
    for t, f in traj:
        w = float(x_weight(t, pp))
        val = w * besov_seminorm(f, pp.s, 2.0, blocks=blocks) + besov_seminorm(
            f, 0.0, pp.r, blocks=blocks
        )
        best = max(best, val)
    return best


def gamma_grid(pp: ProblemParams, points: int = 8) -> np.ndarray:
    """Geometric grid on [sigma1, sigma2] including both endpoints."""
    return np.geomspace(pp.sigma1, pp.sigma2, points)


def y_norm(
    traj: Trajectory,
    pp: ProblemParams,
    *,
    blocks: DyadicBlocks | None = None,
    gamma_points: int = 8,
) -> float:
    """Source-space norm with the two-branch smoothness term.

    For 0 < s <= 1 the B^{s-1}_{2,2} piece sees only the high-frequency
    part of the source; for s > 1 it sees the whole source.
    """
    if pp.s <= 0:
        raise ValueError("y_norm requires s > 0")
    if blocks is None:
        blocks = make_blocks(traj.grid)
    gammas = gamma_grid(pp, gamma_points)
    best = 0.0
    for t, f in traj:
        bracket = float(time_bracket(t))
        smooth_arg = f if pp.s > 1 else blocks.high_pass(f, 1.0)
        term1 = bracket**pp.eta * besov_seminorm(smooth_arg, pp.s - 1.0, 2.0, blocks=blocks)
        term2 = max(
            bracket ** ((pp.n / 2.0) * (pp.p_nl / pp.r - 1.0 / g))
            * besov_seminorm(f, 0.0, g, blocks=blocks)
            for g in gammas
        )
        best = max(best, term1 + term2)
    return best


def interpolation_exponents(
    n: int, r: float, s: float, theta: float
) -> tuple[float, float]:
    """Canonical (q, alpha) with alpha = theta*s on the scaling line."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    inv_q = (1.0 - theta) / r + theta / 2.0
    return 1.0 / inv_q, theta * s


def interpolation_check(
    f: GridField,
    pp: ProblemParams,
    q: float,
    alpha: float,
    theta: float,
    *,
    blocks: DyadicBlocks | None = None,
    identity_tol: float = 1e-10,
) -> float:
    """Ratio of the interpolated seminorm to the two-endpoint product.

    The exponents must satisfy n/q - alpha = (1-theta)n/r + theta(n/2 - s)
    and alpha <= theta*s; tuples off the scaling line are rejected.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    lhs = pp.n / q - alpha
    rhs = (1.0 - theta) * pp.n / pp.r + theta * (pp.n / 2.0 - pp.s)
    if abs(lhs - rhs) > identity_tol:
        raise ValueError(
            f"exponent tuple violates the scaling identity by {abs(lhs - rhs):.3e}"
        )
    if alpha > theta * pp.s + identity_tol:
        raise ValueError("alpha must not exceed theta*s")
    if blocks is None:
        blocks = make_blocks(f.grid)
    num = besov_seminorm(f, alpha, q, blocks=blocks)
    den = (
        besov_seminorm(f, 0.0, pp.r, blocks=blocks) ** (1.0 - theta)
        * besov_seminorm(f, pp.s, 2.0, blocks=blocks) ** theta
    )
    if den == 0.0:
        raise ValueError("interpolation ratio undefined for the zero field")
    return num / den
