"""Machine-checkable hypotheses for local and global existence.

Each condition is evaluated with its exact strict/non-strict sense and
reported with the numeric slack, so experiment configs can stay safely
interior to the admissible region.  An exact-rational path (Fractions built
from the binary float inputs) double-checks every verdict.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from besov_wave_lab.reporting import Check

__all__ = [
    "ConditionResult",
    "AdmissibilityVerdict",
    "AdmissibilityError",
    "check_decay_integrability",
    "check_lwp",
    "require_lwp",
    "check_gwp",
    "suggest_s",
]


@dataclass(frozen=True)
class ConditionResult:
    """One hypothesis, held when the count of alternatives holding (all their
    checks pass) is positive: one for a plain condition, two for (iii)."""

    name: str
    alternatives: tuple[tuple[Check, ...], ...]
    detail: str

    @property
    def holding(self) -> tuple[bool, ...]:
        return tuple(all(c.status == "pass" for c in alt) for alt in self.alternatives)

    @property
    def status(self) -> str:
        return Check(sum(self.holding), ">", 0).status

    @property
    def margin(self) -> float:
        """The best alternative's least slack: negative when it fails."""
        return float(max(min(c.margin for c in alt) for alt in self.alternatives))


@dataclass(frozen=True)
class AdmissibilityVerdict:
    condition_i: ConditionResult
    condition_ii: ConditionResult
    condition_iii: ConditionResult
    integer_p: ConditionResult
    gwp_threshold: ConditionResult | None
    beta: float
    fujita: float
    two_s_branch: str

    @property
    def iii_disjunct(self) -> str | None:
        """The alternatives of condition (iii) that hold: smoothness, beta-window, both or None."""
        a_ok, b_ok = self.condition_iii.holding
        return ("both" if b_ok else "smoothness") if a_ok else "beta-window" if b_ok else None

    @property
    def conditions(self) -> list[ConditionResult]:
        out = [self.condition_i, self.condition_ii, self.condition_iii, self.integer_p]
        if self.gwp_threshold is not None:
            out.append(self.gwp_threshold)
        return out

    @property
    def passed(self) -> bool:
        return not self.failed_conditions()

    def failed_conditions(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.conditions if c.status != "pass"]

    def statuses(self) -> dict[str, str]:
        return {c.name: c.status for c in self.conditions}


def check_decay_integrability(r) -> None:
    """Raise ValueError unless r, the solution space's decay integrability,
    lies in (2, inf): the one copy of that domain rule."""
    if not 2.0 < r < math.inf:
        raise ValueError(f"decay integrability r must lie in (2, inf), got {r}")


def _validate_domain(n, r, p) -> None:
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    check_decay_integrability(r)
    if int(p) != p:
        raise ValueError(f"nonlinearity power must be an integer, got {p}")


def _exactify(x: float) -> Fraction:
    # Exact rational value of the binary float, not a decimal approximation.
    return Fraction(*float(x).as_integer_ratio())


def check_lwp(
    n: int, r: float, s: float, p: int, *, exact: bool = False
) -> AdmissibilityVerdict:
    """Evaluate the three local-existence conditions plus the integer-power one.

    With exact=True every inequality is re-evaluated in rational arithmetic
    on the exact binary values of the inputs.
    """
    _validate_domain(n, r, p)
    if exact:
        n_, r_, s_, p_ = Fraction(int(n)), _exactify(r), _exactify(s), Fraction(int(p))
        half = Fraction(1, 2)
    else:
        n_, r_, s_, p_ = float(n), float(r), float(s), int(p)
        half = 0.5

    beta = (n_ - 1) * (half - 1 / r_)
    fujita = 1 + 2 * r_ / n_
    two_s_branch = "2s>=n" if 2 * s_ >= n_ else "2s<n"

    # (i) smoothness above the scaling line, strict.
    bound_i = n_ * (half - 1 / r_)
    cond_i = ConditionResult(
        "condition_i", ((Check(s_, ">", bound_i),),),
        f"requires s > {float(bound_i):.6g}, s = {float(s_):.6g}",
    )

    # (ii) the power window, whose parts mix strict and non-strict bounds.
    if s_ <= 0:
        parts = [(Check(s_, ">", 0), "requires s > 0 for the lower bound")]
    else:
        lower = min(r_ / 2, 1 + r_ / (2 * s_) - 1 / s_)
        parts = [(Check(p_, ">=", lower), f"lower bound {float(lower):.6g} <= p")]
        if 2 * s_ < n_:
            window = 1 + n_ / (n_ - 2 * s_)
            upper = 1 + 2 / (n_ - 2 * s_)
            parts.append((Check(p_, "<", window), f"p < {float(window):.6g}"))
            parts.append((Check(p_, "<=", upper), f"p <= {float(upper):.6g}"))
    cond_ii = ConditionResult(
        "condition_ii", (tuple(c for c, _ in parts),), "; ".join(d for _, d in parts)
    )

    # (iii) either enough smoothness, or beta <= 1 with a power cap.
    bound_a = (2 * n_ - 1) * (half - 1 / r_)
    alt_a = (Check(s_, ">=", bound_a),)
    a_detail = f"(2n-1)(1/2-1/r) = {float(bound_a):.6g} <= s"
    alt_b, b_detail = (Check(beta, "<=", 1),), "beta <= 1 (no power cap since 2s >= n)"
    if 2 * s_ < n_:
        cap = (2 * n_ / (n_ - 2 * s_)) * (1 / r_ + (1 - beta) / n_)
        alt_b += (Check(p_, "<=", cap),)
        b_detail = f"beta <= 1 and p <= {float(cap):.6g}"
    cond_iii = ConditionResult("condition_iii", (alt_a, alt_b), f"{a_detail} OR {b_detail}")

    cond_p = ConditionResult(
        "integer_p", ((Check(p_, ">=", 2),),), f"integer power p >= 2, p = {int(p_)}"
    )

    return AdmissibilityVerdict(
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        integer_p=cond_p,
        gwp_threshold=None,
        beta=float(beta),
        fujita=float(fujita),
        two_s_branch=two_s_branch,
    )


class AdmissibilityError(ValueError):
    """Raised when a run is requested outside the admissible parameter set."""


def require_lwp(n: int, r: float, s: float, powers: Sequence[int]) -> None:
    """The admissibility policy: every power passes check_lwp at (n, r, s),
    or AdmissibilityError names each failed condition of each power."""
    failures = [
        f"p={p}: {m}" for p in powers for m in check_lwp(n, r, s, p).failed_conditions()
    ]
    if failures:
        raise AdmissibilityError(
            "; ".join(failures) + " (rerun with --override-admissibility to force)"
        )


def check_gwp(
    n: int, r: float, s: float, p: int, *, exact: bool = False
) -> AdmissibilityVerdict:
    """Local conditions plus the global-existence threshold p >= 1 + 2r/n."""
    base = check_lwp(n, r, s, p, exact=exact)
    if exact:
        p_ = Fraction(int(p))
        threshold = 1 + 2 * _exactify(r) / Fraction(int(n))
    else:
        p_ = p
        threshold = 1.0 + 2.0 * float(r) / float(n)
    cond = ConditionResult(
        "gwp_threshold", ((Check(p_, ">=", threshold),),),
        f"p >= 1 + 2r/n = {float(threshold):.6g} (critical case included)",
    )
    return dataclasses.replace(base, gwp_threshold=cond)


def suggest_s(
    n: int, r: float, p: int, *, s_max: float | None = None, step: float = 1.0 / 16.0
) -> tuple[float | None, str | None]:
    """Smallest grid value of s passing the local conditions.

    Returns (s, None) on success or (None, binding condition name) if the
    scan is exhausted; large enough s always passes, so failures indicate
    too small an s_max.
    """
    _validate_domain(n, r, p)
    if s_max is None:
        s_max = max(2.0 * n, (2 * n - 1) * (0.5 - 1.0 / r)) + 4.0
    binding: str | None = None
    for s in np.arange(step, s_max + step / 2, step):
        verdict = check_lwp(n, r, float(s), p)
        if verdict.passed:
            return float(s), None
        for cond in verdict.conditions:
            if cond.status != "pass":
                binding = cond.name
                break
    return None, binding
