"""Checks of the benchmark itself; runs in a few seconds without the lab.

    python3 perfbench/selfcheck.py

- BENCHMARK.json keeps to the benchmark contract, and mapping.json places
  every per-layer metric in exactly one group, citing only declared
  metrics and workloads.
- The report checks accept well-formed reports and reject corrupted ones:
  a sweep with p = 9 marked escaped, a failed or missing verdict, a
  non-finite scalar.  The reproducibility comparison ignores the timing
  block and nothing else.
- The tracer derives self time as span time minus child-span time and
  counts transform points and computed flops as documented.

Exits 1 and names each failed check; prints "selfcheck ok" otherwise.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def check_benchmark_json(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= len(spec["paths"]) <= 16, "paths count")
    for path in spec["paths"]:
        expect(bool(PATH.match(path)) and ".." not in path.split("/")
               and not path.startswith("/"), f"path {path!r}")
    command = spec["command"]
    expect(1 <= len(command) <= 32 and all(len(c) <= 200 for c in command),
           "command length")
    expect(not any(c.startswith("/") or ".." in c.split("/") for c in command),
           "command leaves the checkout")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.CONFIGS),
           "BENCHMARK.json workloads differ from workloads.CONFIGS")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], f"workload {w.get('name')}")
    expect(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    expect(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = []
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        expect(bool(NAME.match(m["name"])), f"name {m['name']!r}")
        expect(bool(UNIT.match(m["unit"])), f"unit {m['unit']!r}")
        expect(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
    expect(len(names) == len(set(names)), "metric names repeat")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must be declared, in s, lower-better, with the largest bound")
    expect(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json size")


def check_mapping(spec: dict, mapping: dict) -> None:
    layer_names = [m["name"] for m in spec["per_layer"]]
    grouped = [name for g in mapping["groups"] for name in g["metrics"]]
    expect(sorted(grouped) == sorted(layer_names),
           "mapping.json groups must list every per-layer metric exactly once")
    e2e = {m["name"] for m in spec["end_to_end"]}
    for group in mapping["groups"]:
        for key in ("moves", "moves_little", "does_not_move"):
            for entry in group[key]:
                metric, _, workload = entry.partition("@")
                expect(metric in e2e and workload in workloads.CONFIGS,
                       f"mapping {group['name']}: unknown target {entry!r}")


def good_reports() -> dict[str, dict]:
    sweep_rows = [[7.0, 1.0, 3.86], [8.0, 1.0, 4.89], [9.0, 0.0, -1.0], [10.0, 0.0, -1.0]]
    reports = {
        "sweep-critical": {"kind": "sweep-critical", "scalars": {"fujita": 9.0},
                           "tables": {"sweep": {"columns": ["p", "escaped", "escape_time"],
                                                "rows": sweep_rows}}},
    }
    for kind, names in workloads.REQUIRED_PASS.items():
        reports[kind] = {"kind": kind, "scalars": {"x": 1.0},
                         "verdicts": {n: "pass" for n in names}, "tables": {}}
    for report in reports.values():
        report.update(meta={"seed": 1},
                      timing={"runtime_s": 1.0, "timestamp": "2000-01-01T00:00:00Z"})
    return reports


def check_report_checks() -> None:
    good = good_reports()
    for kind, report in good.items():
        expect(workloads.check_report(kind, report) == [], f"{kind}: good report rejected")

    def rejected(kind: str, corrupt) -> bool:
        report = copy.deepcopy(good[kind])
        corrupt(report)
        return bool(workloads.check_report(kind, report))

    rows = lambda r: r["tables"]["sweep"]["rows"]  # noqa: E731
    expect(rejected("sweep-critical", lambda r: rows(r)[2].__setitem__(1, 1.0)),
           "sweep with p=9 escaped accepted")
    expect(rejected("sweep-critical", lambda r: rows(r)[1].__setitem__(1, 0.0)),
           "sweep with p=8 not escaped accepted")
    expect(rejected("sweep-critical", lambda r: rows(r).pop()),
           "sweep missing p=10 accepted")
    expect(rejected("sweep-critical", lambda r: r["scalars"].__setitem__("fujita", 8.0)),
           "sweep with a moved critical power accepted")
    for kind, names in workloads.REQUIRED_PASS.items():
        for name in names:
            expect(rejected(kind, lambda r, n=name: r["verdicts"].__setitem__(n, "fail")),
                   f"{kind}: failed {name} accepted")
            expect(rejected(kind, lambda r, n=name: r["verdicts"].pop(n)),
                   f"{kind}: missing {name} accepted")
        expect(rejected(kind, lambda r: r["scalars"].__setitem__("x", float("nan"))),
               f"{kind}: non-finite scalar accepted")
        expect(rejected(kind, lambda r: r.__setitem__("kind", "other")),
               f"{kind}: wrong report kind accepted")

    base = good["global-decay"]
    retimed = copy.deepcopy(base)
    retimed["timing"]["runtime_s"] = 2.5
    expect(workloads.canonical(retimed) == workloads.canonical(base),
           "a timing-only change counts as a reproducibility mismatch")
    for path in (("scalars", "x"), ("meta", "seed")):
        changed = copy.deepcopy(base)
        changed[path[0]][path[1]] = 1.0000000000000002
        expect(workloads.canonical(changed) != workloads.canonical(base),
               f"a changed {'.'.join(path)} passes the reproducibility check")


def check_tracer() -> None:
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    inner = tracer._spanned(inner, "inner")
    outer = tracer._spanned(outer, "outer")
    outer()
    totals = tracer.span_totals()
    expect(totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1, "span counts")
    expect(abs(totals["outer"]["total_s"] - totals["outer"]["self_s"]
               - totals["inner"]["total_s"]) < 1e-9, "self time is not total minus children")
    expect(0.009 <= totals["outer"]["self_s"] < 0.03, "outer self time")

    after = {name: tracer._after_fft(name) for name in ("fftn", "rfft", "irfft", "fft")}
    x = np.ones(16)
    after["fftn"]((x,), {}, np.fft.fftn(x))           # 5 * 16 * 4
    after["rfft"]((x,), {}, np.fft.rfft(x))           # 2.5 * 16 * 4
    half = np.fft.rfft(x)
    after["irfft"]((half,), {"n": 16}, np.fft.irfft(half, n=16))  # 2.5 * 16 * 4
    batch = np.ones((3, 8))
    after["fft"]((batch,), {"axis": 1}, np.fft.fft(batch, axis=1))  # 5 * 24 * 3
    expect(tracer.counts["grid.fft.points"] == 16 * 3 + 24, "fft points")
    expect(tracer.counts["grid.fft.flops_computed"] == 320 + 160 + 160 + 360, "fft flops")


def main() -> int:
    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapping = json.loads((HERE / "mapping.json").read_text(encoding="utf-8"))
    check_benchmark_json(spec)
    check_mapping(spec, mapping)
    check_report_checks()
    check_tracer()
    for failure in FAILURES:
        print("FAIL " + failure)
    if FAILURES:
        return 1
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
