"""Experiment reports: JSON/CSV serialization and minimal SVG log-log plots.

Reports are deterministic given a config and seed: scalars are plain floats
serialized via repr, checks hold each verdict's value, relation and bound,
tables are column-named row lists, and the timing block (timestamp, wall
and CPU seconds, minor page faults) alone is left out of comparisons.  A
saved report is strict JSON: a non-finite float anywhere in it is written
as the string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["Check", "Table", "ExperimentReport", "config_hash", "write_loglog_svg"]


@dataclass(frozen=True)
class Check:
    """A value judged against a bound by one of RELATIONS: "pass", "fail" (also
    for NaN), or "undetermined" for a value of None, which does not pass."""

    value: Any
    relation: str
    bound: Any
    RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
                 ">=": operator.ge, ">": operator.gt}

    @property
    def status(self) -> str:
        if self.value is None:
            return "undetermined"
        if self.RELATIONS[self.relation](self.value, self.bound):
            return "pass"
        return "fail"

    @property
    def margin(self) -> Any:
        """How far value clears the bound of an inequality; negative past it."""
        return self.value - self.bound if ">" in self.relation else self.bound - self.value


@dataclass
class Table:
    columns: list[str]
    rows: list[list[float]]

    def to_dict(self) -> dict:
        return {"columns": list(self.columns), "rows": [list(r) for r in self.rows]}

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)


@dataclass
class ExperimentReport:
    kind: str = ""
    scalars: dict[str, float] = field(default_factory=dict)
    checks: dict[str, Check] = field(default_factory=dict)
    tables: dict[str, Table] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    runtime_s: float = 0.0
    cpu_s: float = 0.0
    minor_faults: int | None = None

    @property
    def verdicts(self) -> dict[str, str]:
        return {name: check.status for name, check in self.checks.items()}

    def passed(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scalars": dict(sorted(self.scalars.items())),
            "verdicts": dict(sorted(self.verdicts.items())),
            "checks": {name: asdict(c) for name, c in sorted(self.checks.items())},
            "tables": {k: t.to_dict() for k, t in sorted(self.tables.items())},
            "meta": dict(sorted(self.meta.items())),
            # The single volatile field: everything else is reproducible
            # byte for byte given config and seed.
            "timing": {
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "runtime_s": self.runtime_s,
                "cpu_s": self.cpu_s,
                **({} if self.minor_faults is None else {"minor_faults": self.minor_faults}),
            },
        }

    def save(self, out_dir: Path | str) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / f"{self.kind}.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            body = _strict_json(self.to_json_dict())
            json.dump(body, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        for name, table in self.tables.items():
            table.write_csv(out_dir / f"{self.kind}.{name}.csv")
        return report_path


def _strict_json(value: Any) -> Any:
    """value with each non-finite float, in any dict or list within it,
    written as the string "nan", "inf" or "-inf", which strict JSON holds."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def config_hash(sections: Mapping[str, Mapping[str, str]]) -> str:
    """Stable hash of a flat sectioned config."""
    lines = []
    for section in sorted(sections):
        for key in sorted(sections[section]):
            lines.append(f"{section}.{key}={sections[section][key]}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:16]


def _ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


def write_loglog_svg(
    path: Path | str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    fit: tuple[float, float] | None = None,
    title: str = "",
) -> None:
    """Log-log scatter/line plot of norms against t, 640 by 480 pixels, with
    an optional fitted power law overlay.

    fit is (slope, intercept) for log10(y) = slope*log10(x) + intercept.
    Non-positive values are dropped (log axes).
    """
    width, height, margin = 640, 480, 60
    pts: dict[str, list[tuple[float, float]]] = {}
    for name, ys in series.items():
        pts[name] = [
            (math.log10(x), math.log10(y))
            for x, y in zip(xs, ys)
            if x > 0 and y > 0
        ]
    all_pts = [p for ps in pts.values() for p in ps]
    if not all_pts:
        raise ValueError("nothing to plot: no positive data")
    lx = [p[0] for p in all_pts]
    ly = [p[1] for p in all_pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def to_px(p: tuple[float, float]) -> tuple[float, float]:
        px = margin + (p[0] - x0) / (x1 - x0) * (width - 2 * margin)
        py = height - margin - (p[1] - y0) / (y1 - y0) * (height - 2 * margin)
        return px, py

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{width/2:.0f}" y="{height-12}" text-anchor="middle" font-size="12">'
        "log10 t</text>",
        f'<text x="16" y="{height/2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height/2:.0f})">log10 norm</text>',
    ]
    axis = (
        f'<path d="M {margin} {margin} L {margin} {height-margin} '
        f'L {width-margin} {height-margin}" stroke="black" fill="none"/>'
    )
    parts.append(axis)
    for tx in _ticks(x0, x1):
        px, _ = to_px((tx, y0))
        parts.append(
            f'<line x1="{px:.1f}" y1="{height-margin}" x2="{px:.1f}" '
            f'y2="{height-margin+5}" stroke="black"/>'
            f'<text x="{px:.1f}" y="{height-margin+18}" text-anchor="middle" '
            f'font-size="11">{tx}</text>'
        )
    for ty in _ticks(y0, y1):
        _, py = to_px((x0, ty))
        parts.append(
            f'<line x1="{margin-5}" y1="{py:.1f}" x2="{margin}" y2="{py:.1f}" '
            f'stroke="black"/>'
            f'<text x="{margin-8}" y="{py+4:.1f}" text-anchor="end" '
            f'font-size="11">{ty}</text>'
        )
    for i, (name, ps) in enumerate(pts.items()):
        if not ps:
            continue
        color = colors[i % len(colors)]
        path_d = " ".join(
            f"{'M' if k == 0 else 'L'} {to_px(p)[0]:.1f} {to_px(p)[1]:.1f}"
            for k, p in enumerate(ps)
        )
        parts.append(f'<path d="{path_d}" stroke="{color}" fill="none"/>')
        for p in ps:
            px, py = to_px(p)
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.2" fill="{color}"/>')
        ly0 = to_px(ps[0])[1]
        parts.append(
            f'<text x="{width-margin+4}" y="{ly0:.1f}" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    if fit is not None:
        slope, intercept = fit
        p_lo = (x0, slope * x0 + intercept)
        p_hi = (x1, slope * x1 + intercept)
        (ax, ay), (bx, by) = to_px(p_lo), to_px(p_hi)
        parts.append(
            f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" y2="{by:.1f}" '
            'stroke="#444" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{width-margin-4}" y="{margin+16}" text-anchor="end" '
            f'font-size="12" fill="#444">slope {slope:+.3f}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
