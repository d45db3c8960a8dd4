"""Lebesgue and homogeneous Besov norms plus the time-weighted solution norms.

Homogeneous seminorms sum 2^(j*s) * ||block_j f||_p in little-l^q over the
grid's dyadic range; the DC mode never enters (it lives in the low block).
The solution-space norm weights ||.||_{B^s_{2,2}} by <t>^(s/2 - (n/2)(1/2-1/r)).
Both reduce the dyadic block norms of a coefficient array; besov_seminorm
takes a field and passes its spectrum, x_norm takes the spectra at the
nodes directly, as a Trajectory or picard_solve holds them.  lebesgue_norms
and _besov act on the trailing axes, so an ensemble of fields stacked on a
leading axis reduces in one call, and x_norm reduces its nodes that way in
chunks.  lebesgue_norms and the block norms share one L^p power sum,
grid._power_sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from besov_wave_lab.admissibility import check_decay_integrability
from besov_wave_lab.grid import (
    GridField,
    TorusGrid,
    _coefficients,
    _node_chunks,
    _power_sums,
    field_from_coeffs,
)
from besov_wave_lab.littlewood_paley import DyadicBlocks, make_blocks

__all__ = [
    "ProblemParams",
    "Trajectory",
    "lebesgue_norm",
    "lebesgue_norms",
    "besov_seminorm",
    "x_norm",
    "time_bracket",
    "x_weight",
    "interpolation_exponents",
    "interpolation_ratios",
]


def time_bracket(t) -> np.ndarray:
    """<t> = sqrt(1 + t^2)."""
    return np.sqrt(1.0 + np.asarray(t, dtype=float) ** 2)


def lebesgue_norms(grid: TorusGrid, values: np.ndarray, p: float) -> np.ndarray:
    """Quadrature L^p norm of samples on grid stacked on leading axes, one
    per field; p = inf gives the max of |f|."""
    if p < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
    # _power_sums overwrites what it is given: here a copy, never values.
    sums = _power_sums(np.array(values, dtype=float), p, grid.n, grid.spacing**grid.n)
    # float_power has no SIMD loop, so each root rounds as a scalar's would.
    return sums if math.isinf(p) else np.float_power(sums, 1.0 / p)


def lebesgue_norm(f: GridField, p: float) -> float:
    """Quadrature L^p norm; p = inf gives the max of |f|."""
    return float(lebesgue_norms(f.grid, f.values, p))


def _block_sum(blocks: DyadicBlocks, norms: np.ndarray, s: float, q: float) -> np.ndarray:
    """The l^q sum over blocks of 2^(j*s) norms_j, for block norms stacked
    as (..., J) as DyadicBlocks.block_norms gives them."""
    js = np.array(list(blocks.indices()), dtype=float)
    sums = _power_sums(2.0 ** (js * s) * norms, q, 1, 1.0)
    return sums if math.isinf(q) else np.float_power(sums, 1.0 / q)


def _besov(blocks: DyadicBlocks, coeffs: np.ndarray, s: float, p: float, q: float) -> np.ndarray:
    """The l^q sum over blocks of 2^(j*s) ||block_j||_p, from coefficient
    arrays stacked on leading axes, one per field."""
    return _block_sum(blocks, blocks.block_norms(coeffs, p), s, q)


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
    if p < 1:
        raise ValueError(f"integrability exponent must be >= 1, got {p}")
    if q < 1:
        raise ValueError(f"summability exponent must be >= 1, got {q}")
    if blocks is None:
        blocks = make_blocks(f.grid)
    return float(_besov(blocks, f.spectrum, s, p, q))


@dataclass(frozen=True)
class ProblemParams:
    """Problem parameters (n, r, s, p_nl) and the exponents the runs read:
    fujita = 1 + 2r/n and the solution-norm weight s/2 - (n/2)(1/2 - 1/r).

    Construction checks only the domain: n >= 1, r in (2, inf), p_nl an
    integer >= 2.  Whether (n, r, s, p_nl) is admissible is not judged
    here; admissibility.require_lwp is the one gate.
    """

    n: int
    r: float
    s: float
    p_nl: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be a positive integer")
        check_decay_integrability(self.r)
        if int(self.p_nl) != self.p_nl or self.p_nl < 2:
            raise ValueError(f"nonlinearity power must be an integer >= 2, got {self.p_nl}")

    @property
    def fujita(self) -> float:
        return 1.0 + 2.0 * self.r / self.n

    def x_weight_exponent(self) -> float:
        return self.s / 2.0 - (self.n / 2.0) * (0.5 - 1.0 / self.r)


def x_weight(t, pp: ProblemParams) -> np.ndarray:
    """<t>^(s/2 - (n/2)(1/2 - 1/r)) at a time or an array of times."""
    # float_power has no SIMD loop, so each time rounds as it does alone.
    return np.float_power(time_bracket(t), pp.x_weight_exponent())


@dataclass(frozen=True)
class Trajectory:
    """Half spectra of fields on one grid at increasing times from 0, in one
    read-only array (times,) + spectral shape, a view of the caller's array
    if it is one; fields are sampled on demand, iterating yields (t, field)."""

    grid: TorusGrid
    times: np.ndarray
    spectra: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-D array")
        if times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        shape = (times.size,) + self.grid.spectral_shape
        try:  # a ragged sequence of spectra has no shape
            spectra = np.asarray(self.spectra, dtype=complex).view()
        except ValueError:
            spectra = None
        if spectra is None or spectra.shape != shape:
            raise ValueError(f"spectra must be stacked as (times,) + spectral shape, {shape}")
        times = times.copy()
        times.flags.writeable = spectra.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "spectra", spectra)

    def __iter__(self):
        return ((t, field_from_coeffs(self.grid, c)) for t, c in zip(self.times, self.spectra))


def _x_integrand(
    times: Iterable[float], spectra: np.ndarray, pp: ProblemParams, blocks: DyadicBlocks
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B^s_{2,2}, B^0_{r,2} and x_norm's weighted sum of the two at every
    node time, from spectra stacked as (nodes,) + spectral shape, sliced in
    chunks of grid._node_chunks for _besov; each node's norms are bit for
    bit the ones it gives alone."""
    grid = blocks.grid
    times = np.asarray(times, dtype=float)
    if len(spectra) != times.size:
        raise ValueError("one spectrum per node time required")
    b_s, b_r = np.empty(times.size), np.empty(times.size)
    for chunk in _node_chunks(times.size, grid.points_per_axis**grid.n):
        b_s[chunk] = _besov(blocks, spectra[chunk], pp.s, 2.0, 2.0)
        b_r[chunk] = _besov(blocks, spectra[chunk], 0.0, pp.r, 2.0)
    return b_s, b_r, x_weight(times, pp) * b_s + b_r


def _x_sup(
    times: np.ndarray,
    spectra: np.ndarray,
    pp: ProblemParams,
    blocks: DyadicBlocks,
    nodes,
    sup: float = 0.0,
) -> float:
    """The max of sup and _x_integrand's weighted sums at the given
    increasing nodes, NaN if any is NaN, their spectra gathered one chunk
    of grid._node_chunks at a time (a view, not a copy, for a chunk of
    consecutive nodes)."""
    grid = blocks.grid
    for chunk in _node_chunks(len(nodes), grid.points_per_axis**grid.n):
        picked = nodes[chunk]
        if picked[-1] - picked[0] == len(picked) - 1:
            picked = slice(picked[0], picked[-1] + 1)
        values = _x_integrand(times[picked], spectra[picked], pp, blocks)[2]
        sup = float(np.max(values, initial=sup))
    return sup


def x_norm(
    times: Iterable[float], spectra: np.ndarray, pp: ProblemParams, blocks: DyadicBlocks
) -> float:
    """Sup over the node times of the weighted smoothness plus decay norms
    of the fields with spectra stacked as (nodes,) + spectral shape, on the
    grid of blocks: bit for bit the max of _x_integrand's sums over every
    node, taken only at the nodes that can hold it.

    In chunks of nodes, the block L^2 norms (Parseval) give each node's
    weighted B^s_{2,2} part w_k, the bits _x_integrand gives, and by
    DyadicBlocks.nikolskii(r) a bound hi_k on its B^0_{r,2} part: w_k +
    hi_k bounds its sum, inf where a power sum could overflow.  _x_integrand
    takes the node with the largest bound (a NaN bound first), then every
    other node whose bound, plus a relative margin of 1e-9 as
    solver._peaks keeps, reaches that exact value: a node below it cannot
    hold the sup.  Every maximum here is np.max's, which keeps a NaN
    wherever it stands (Python's max drops one that is not first): a node
    whose value is NaN makes the norm NaN."""
    grid = blocks.grid
    times = np.asarray(times, dtype=float)
    if len(spectra) != times.size or times.size == 0:
        raise ValueError("one spectrum per node time, at least one node, required")
    hi, sup_j = blocks.nikolskii(pp.r), blocks.nikolskii(math.inf)
    # A node whose blocks' sup bounds all stay under cap has every power
    # sum, l^2 sum and transform of its B^0_{r,2} norm below the largest
    # float: each is at most J max(N, L)^n max(1, sup_j l2_j)^r.
    scale = len(hi) * max(grid.points_per_axis, grid.box_length) ** grid.n
    cap = (sys.float_info.max * (1.0 - 1e-9) / scale) ** (1.0 / pp.r)
    weight = x_weight(times, pp)
    high = np.empty(times.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _node_chunks(times.size, grid.points_per_axis**grid.n):
            l2 = blocks.block_norms(spectra[chunk], 2.0)
            w = weight[chunk] * _block_sum(blocks, l2, pp.s, 2.0)
            bounded = np.max(sup_j * l2, axis=-1) < cap
            high[chunk] = np.where(bounded, w + _block_sum(blocks, hi * l2, 0.0, 2.0), np.inf)
        reach = high * (1.0 + 1e-9)
    seed = np.argmax(high, keepdims=True)
    value = _x_sup(times, spectra, pp, blocks, seed)
    # Written as a negation, so that a NaN bound or value keeps its node.
    kept = np.logical_not(reach < value)
    kept[seed] = False
    return _x_sup(times, spectra, pp, blocks, np.flatnonzero(kept), value)


def interpolation_exponents(r: float, s: float, theta: float) -> tuple[float, float]:
    """Canonical (q, alpha) with alpha = theta*s on the scaling line."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    inv_q = (1.0 - theta) / r + theta / 2.0
    return 1.0 / inv_q, theta * s


def interpolation_ratios(
    blocks: DyadicBlocks, samples: np.ndarray, r: float, s: float, theta: float
) -> np.ndarray:
    """||f||_{B^alpha_{q,2}} over ||f||_{B^0_{r,2}}^(1-theta) ||f||_{B^s_{2,2}}^theta
    at the canonical (q, alpha) of interpolation_exponents, for every field
    of samples on blocks.grid stacked on leading axes; raises if the product
    vanishes for any field."""
    q, alpha = interpolation_exponents(r, s, theta)
    coeffs = _coefficients(blocks.grid, samples)
    b_r, b_s = _besov(blocks, coeffs, 0.0, r, 2.0), _besov(blocks, coeffs, s, 2.0, 2.0)
    # float_power has no SIMD loop, so each power rounds as a scalar's would.
    den = np.float_power(b_r, 1.0 - theta) * np.float_power(b_s, theta)
    if np.any(den == 0.0):
        raise ValueError("interpolation ratio undefined for the zero field")
    return _besov(blocks, coeffs, alpha, q, 2.0) / den
