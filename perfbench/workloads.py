"""Benchmark workloads: the configs each one runs and the checks on its reports.

Every workload is a list of experiment configs run in order through
``cli.main(["run", cfg, "--seed", S, "--jobs", "1"])``.  The grids, powers
and data shapes follow the shipped configs; horizons, ensemble sizes and
pair counts are set so that one run of a workload takes about 9 to 15
seconds on a 2-core Xeon.  Runs that long average out most of the drift in speed
that a shared machine shows over seconds, which short runs do not.

The checks read the saved reports from outside the program.  They return a
list of problems; an empty list means the run is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Workload name -> ordered list of (experiment kind, config text).  The kind
# names the report file, ``<kind>.json``, that the run leaves in its output
# directory.
CONFIGS: dict[str, list[tuple[str, str]]] = {
    # Large-N, transform-bound: the ETD oracle's padded power on M = 40960
    # is most of the run.  T = 30 is the shortest horizon on which the
    # weighted sup has saturated (its trend slope still reads 0.11 at
    # T = 20 and fails the 0.05 tolerance at T = 25).
    "critical-decay": [
        (
            "global-decay",
            """
[experiment]
kind = global-decay
oracle_tol = 1e-4

[grid]
n = 1
N = 8192
L = 800

[problem]
n = 1
r = 4
s = 5
p = 9

[solver]
T = 30
nodes = 25
picard_tol = 1e-9
max_iters = 12
blowup_threshold = 10
etd_dt = 0.025

[data]
profile = slow-decay
r = 4
eps = 0.05
amplitude = 1e-2
""",
        )
    ],
    # Picard only: block norms inside x_norm and the O(nodes^2) Duhamel sum.
    "picard-contraction": [
        (
            "contraction",
            """
[experiment]
kind = contraction
amplitudes = 1e-3,2e-3,4e-3
slope_tol = 0.2

[grid]
n = 1
N = 4096
L = 400

[problem]
n = 1
r = 4
s = 2
p = 2

[solver]
T = 20
nodes = 161
picard_tol = 1e-15
max_iters = 3

[data]
profile = gaussian
width = 2.0
""",
        )
    ],
    # Small padded grids, per-step overhead, blow-up early exits (p = 7 at
    # t = 3.86, p = 8 at t = 4.89); p = 9 and 10 run all 1600 steps.
    "fujita-sweep": [
        (
            "sweep-critical",
            """
[experiment]
kind = sweep-critical
powers = 7,8,9,10

[grid]
n = 1
N = 1024
L = 80

[problem]
n = 1
r = 4
s = 5

[data]
profile = gaussian
width = 2.0
amplitude = 0.5

[solver]
T = 16
etd_dt = 0.01
blowup_threshold = 100
""",
        )
    ],
    # Dyadic projections feeding products, then block-norm reductions; no
    # time stepping.  Pair count and ensemble size are 2.5 and 3 times the
    # shipped ones.
    "harmonic-toolbox": [
        (
            "paraproduct-residual",
            """
[experiment]
kind = paraproduct-residual
pairs = 250
tolerance = 1e-10

[grid]
n = 1
N = 256
L = 32
""",
        ),
        (
            "leibniz",
            """
[experiment]
kind = leibniz

[leibniz]
alpha = 0.7
r = 2
p1 = 4
q1 = 4
p2 = 4
q2 = 4
ensemble = 1500
spectrum_slope = 0.5

[grid]
n = 1
N = 256
L = 32
""",
        ),
    ],
}

# Verdicts that must read "pass" in each experiment's report.
REQUIRED_PASS: dict[str, tuple[str, ...]] = {
    "global-decay": ("oracle_agreement", "picard_converged", "weighted_sup_bounded"),
    "contraction": ("amplitude_power",),
    "paraproduct-residual": ("repartition",),
    "leibniz": ("finite", "stable_under_refinement"),
}

# Critical power 1 + 2r/n of the fujita-sweep config (n = 1, r = 4).
SWEEP_FUJITA = 9.0


def write_configs(workload: str, directory: Path) -> list[Path]:
    """Write the workload's configs into directory; return their paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, (kind, text) in enumerate(CONFIGS[workload]):
        path = directory / f"{index}-{kind}.cfg"
        path.write_text(text.lstrip(), encoding="utf-8")
        paths.append(path)
    return paths


def _check_sweep(report: dict) -> list[str]:
    """Escape exactly below the critical power, decay at and above it."""
    problems = []
    fujita = report.get("scalars", {}).get("fujita")
    if fujita != SWEEP_FUJITA:
        problems.append(f"sweep-critical: fujita = {fujita}, expected {SWEEP_FUJITA}")
    table = report.get("tables", {}).get("sweep", {})
    columns = table.get("columns", [])
    if "p" not in columns or "escaped" not in columns:
        return problems + ["sweep-critical: sweep table lacks p/escaped columns"]
    ip, ie = columns.index("p"), columns.index("escaped")
    powers = sorted(row[ip] for row in table.get("rows", []))
    if powers != [7.0, 8.0, 9.0, 10.0]:
        problems.append(f"sweep-critical: powers {powers}, expected 7..10")
    for row in table.get("rows", []):
        p, escaped = row[ip], row[ie]
        expected = 1.0 if p < SWEEP_FUJITA else 0.0
        if escaped != expected:
            problems.append(
                f"sweep-critical: p={p:g} escaped={escaped}, expected {expected}"
            )
    return problems


def check_report(kind: str, report: dict) -> list[str]:
    """Problems with one experiment report (empty when it is correct)."""
    if report.get("kind") != kind:
        return [f"{kind}: report kind is {report.get('kind')!r}"]
    if kind == "sweep-critical":
        return _check_sweep(report)
    verdicts = report.get("verdicts", {})
    problems = [
        f"{kind}: verdict {name} = {verdicts.get(name)!r}, expected 'pass'"
        for name in REQUIRED_PASS[kind]
        if verdicts.get(name) != "pass"
    ]
    for name, value in report.get("scalars", {}).items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{kind}: scalar {name} = {value!r} is not finite")
    return problems


def canonical(report: dict) -> str:
    """The report as sorted JSON without its volatile ``timing`` block."""
    stripped = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(stripped, sort_keys=True, indent=2)


def load_reports(workload: str, out_dir: Path) -> dict[str, dict]:
    """Read every report the workload should have written to out_dir."""
    reports = {}
    for kind, _ in CONFIGS[workload]:
        with open(out_dir / f"{kind}.json", encoding="utf-8") as fh:
            reports[kind] = json.load(fh)
    return reports
