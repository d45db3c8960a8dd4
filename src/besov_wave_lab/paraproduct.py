"""Bony paraproducts, the product decomposition, and product estimates.

A product fg splits into the low-high paraproduct T_f g (low-pass of f at
scale 2^(j-2) against block j of g), its mirror T_g f, and the comparable-
frequency remainder R(f, g) collecting block pairs at most one index apart.
All pointwise products run on a zero-padded grid so the retained modes are
exact and the repartition identity holds to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from besov_wave_lab.grid import GridField, dealiased_product
from besov_wave_lab.littlewood_paley import DyadicBlocks, make_blocks
from besov_wave_lab.norms import besov_seminorm, lebesgue_norm

__all__ = [
    "para_T",
    "para_R",
    "decomposition_residual",
    "LeibnizConfig",
    "leibniz_ratio",
]


def _shared_blocks(
    f: GridField, g: GridField, blocks: DyadicBlocks | None
) -> DyadicBlocks:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return blocks if blocks is not None else make_blocks(f.grid)


def _product(f: GridField, g: GridField, dealias: bool) -> GridField:
    if dealias:
        return dealiased_product(f, g)
    return GridField(f.grid, f.values * g.values)


def para_T(
    f: GridField,
    g: GridField,
    *,
    blocks: DyadicBlocks | None = None,
    dealias: bool = True,
) -> GridField:
    """Low-high paraproduct: sum over j of (low-pass f at 2^(j-2)) * (block j of g)."""
    blocks = _shared_blocks(f, g, blocks)
    out = f.grid.zeros()
    for j in blocks.indices():
        gj = blocks.block(g, j)
        if gj.max_abs() == 0.0:
            continue
        f_low = blocks.low_pass(f, 2.0 ** (j - 2))
        out = out + _product(f_low, gj, dealias)
    return out


def para_R(
    f: GridField,
    g: GridField,
    *,
    blocks: DyadicBlocks | None = None,
    dealias: bool = True,
) -> GridField:
    """Comparable-frequency remainder: block pairs with |j - k| <= 1."""
    blocks = _shared_blocks(f, g, blocks)
    out = f.grid.zeros()
    for j in blocks.indices():
        gj_tilde = blocks.tilde(g, j)
        fj = blocks.block(f, j)
        if fj.max_abs() == 0.0 or gj_tilde.max_abs() == 0.0:
            continue
        out = out + _product(fj, gj_tilde, dealias)
    return out


def decomposition_residual(
    f: GridField,
    g: GridField,
    *,
    blocks: DyadicBlocks | None = None,
    dealias: bool = True,
) -> float:
    """Relative L^2 gap between the alias-free fg and T_f g + T_g f + R(f, g).

    The reference product is always computed on the padded grid.  With
    dealias=False the recomposition runs on the unpadded grid, so inputs
    carrying energy above the alias-safe band leave a residual far above
    rounding; this turns the identity into an aliasing detector.
    """
    blocks = _shared_blocks(f, g, blocks)
    product = dealiased_product(f, g)
    recomposed = (
        para_T(f, g, blocks=blocks, dealias=dealias)
        + para_T(g, f, blocks=blocks, dealias=dealias)
        + para_R(f, g, blocks=blocks, dealias=dealias)
    )
    denom = lebesgue_norm(product, 2.0)
    if denom == 0.0:
        return 0.0
    return lebesgue_norm(product - recomposed, 2.0) / denom


@dataclass(frozen=True)
class LeibnizConfig:
    """Exponent tuple for the product estimate in homogeneous Besov norms.

    Requires 1/r = 1/p1 + 1/q1 = 1/p2 + 1/q2 with r, q1, q2 finite; the
    summability index is fixed to 2.
    """

    alpha: float
    r: float
    p1: float
    q1: float
    p2: float
    q2: float
    ensemble: int = 500
    spectrum_slope: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for name in ("r", "q1", "q2"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("r", "p1", "q1", "p2", "q2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for p_name, q_name in (("p1", "q1"), ("p2", "q2")):
            p, q = getattr(self, p_name), getattr(self, q_name)
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            if abs(1.0 / self.r - (inv_p + 1.0 / q)) > 1e-12:
                raise ValueError(
                    f"Hoelder relation 1/r = 1/{p_name} + 1/{q_name} violated"
                )


def leibniz_ratio(
    f: GridField,
    g: GridField,
    cfg: LeibnizConfig,
    *,
    blocks: DyadicBlocks | None = None,
) -> float:
    """||fg||_{B^a_{r,2}} over the cross-term bound; raises if both terms vanish."""
    blocks = _shared_blocks(f, g, blocks)
    product = dealiased_product(f, g)
    num = besov_seminorm(product, cfg.alpha, cfg.r, blocks=blocks)
    den = besov_seminorm(f, cfg.alpha, cfg.p1, blocks=blocks) * lebesgue_norm(
        g, cfg.q1
    ) + besov_seminorm(g, cfg.alpha, cfg.p2, blocks=blocks) * lebesgue_norm(f, cfg.q2)
    if den == 0.0:
        raise ValueError("product-estimate ratio undefined: both bound terms vanish")
    return num / den
