"""Benchmark of besov-wave-lab: cost of reaching a checked experiment verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of a workload is a fresh interpreter (``child.py``) that writes the
workload's configs and calls ``cli.main(["run", cfg, "--seed", N, "--jobs",
"1"])`` once per config, with BLAS threads at 1.  The load is a closed loop:
one client, one run at a time.  Runs repeat until about S seconds have
passed, with at least two runs (three with tracing), so that the reports of
one seed can be compared with each other.  Two set-up-only runs come first,
so that set-up time is sampled more often than whole runs.

Every run is checked outside the program: exit code 0, the workload's
verdicts (see ``workloads.py``), and a report byte-identical, outside its
``timing`` block, to the first run's.  A run that fails any of these counts
in ``failed_runs``.

``--trace 0`` prints the end-to-end metrics (medians over the runs):
run_s, cpu_s, setup_s and peak_rss_mb.  ``--trace 1`` alternates untraced
and traced runs and prints the per-layer metrics of the traced runs
(``tracing.py``) and ``trace.overhead_ratio``, traced over untraced run_s.
Counts must repeat exactly across the traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same result,
with machine and backend information, is written to
``.perfbench/<workload>/result.json``; the last run's reports and spans stay
under ``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2
MIN_RUNS = 2
MIN_TRACED = 2
# Stop starting runs once this much of the 180 s a benchmark run may take
# has gone, whatever --seconds says.
HARD_LIMIT_S = 160.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "BWL_JOBS": "1",
    "PYTHONHASHSEED": "0",
}


def declared_units(root: Path, kind: str) -> dict[str, str]:
    """Metric name -> unit for the end_to_end or per_layer list of BENCHMARK.json."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_info(root: Path, fft_modules: list[str]) -> dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "fft_backend": ", ".join(fft_modules) or "none loaded",
        "git_commit": git_commit(root),
    }


class Session:
    """Child runs of one workload and seed, with their checks."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = root / ".perfbench" / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.update(CHILD_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.count = 0
        self.setup_samples: list[float] = []
        self.runs: list[dict] = []  # one entry per attempted workload run
        self.first_reports: dict[str, str] | None = None
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str) -> dict | None:
        """Start one child and wait for it; its result, or None on failure."""
        self.count += 1
        workdir = self.workdir / f"{self.count:03d}-{mode}"
        log = workdir / "child.log"
        workdir.mkdir()
        timeout = max(1.0, HARD_LIMIT_S + 10.0 - self.elapsed())
        with open(log, "w", encoding="utf-8") as fh:
            spawned = time.monotonic_ns()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"),
                     "--workload", self.workload, "--seed", str(self.seed),
                     "--workdir", str(workdir), "--mode", mode,
                     "--spawned-ns", str(spawned)],
                    cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                self.problems.append(f"run {self.count}: timed out after {timeout:.0f} s")
                return None
        if proc.returncode != 0 or not (workdir / "result.json").is_file():
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            self.problems.append(f"run {self.count}: child exited {proc.returncode}: {tail}")
            return None
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        result["workdir"] = workdir
        self.setup_samples.append(result["setup_s"])
        return result

    def check(self, result: dict) -> list[str]:
        """Exit codes, verdicts and reproducibility of one finished run."""
        codes = result["exit_codes"]
        if any(code != 0 for code in codes):
            return [f"cli.main exit codes {codes}"]
        try:
            reports = workloads.load_reports(self.workload, result["workdir"] / "out")
        except (OSError, ValueError) as exc:
            return [f"unreadable report: {exc}"]
        problems = []
        for kind, report in reports.items():
            problems.extend(workloads.check_report(kind, report))
        canon = {kind: workloads.canonical(r) for kind, r in reports.items()}
        if self.first_reports is None:
            self.first_reports = canon
        else:
            problems.extend(
                f"{kind}: report differs from the first run's outside timing"
                for kind in canon if canon[kind] != self.first_reports.get(kind)
            )
        return problems

    def run_once(self, mode: str) -> None:
        result = self.spawn(mode)
        entry = {"mode": mode, "ok": False, "result": result}
        if result is not None:
            problems = self.check(result)
            self.problems.extend(f"run {self.count}: {p}" for p in problems)
            entry["ok"] = not problems
        self.runs.append(entry)

    def room_for(self, mode: str) -> bool:
        """Whether one more run of this mode is expected to finish in time."""
        durations = [
            e["result"]["run_s"] + e["result"]["setup_s"]
            for e in self.runs if e["result"] is not None
        ]
        guess = statistics.median(durations) if durations else 0.0
        if mode == "trace":
            guess *= 1.5
        return self.elapsed() + guess <= min(self.seconds, HARD_LIMIT_S)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (float("nan"),) * 2
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_end_to_end(session: Session) -> dict[str, list[float]]:
    while len(session.runs) < MIN_RUNS or session.room_for("run"):
        if session.elapsed() > HARD_LIMIT_S:
            break
        session.run_once("run")
    done = [e["result"] for e in session.runs if e["result"] is not None]
    return {
        "run_s": [r["run_s"] for r in done],
        "cpu_s": [r["cpu_s"] for r in done],
        "setup_s": list(session.setup_samples),
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }


def run_traced(session: Session) -> dict[str, list[float]]:
    order = ["run", "trace", "trace"]
    while True:
        mode = order[len(session.runs)] if len(session.runs) < len(order) else (
            "trace" if len(session.runs) % 2 else "run")
        if len(session.runs) >= len(order) and not session.room_for(mode):
            break
        if session.elapsed() > HARD_LIMIT_S:
            break
        session.run_once(mode)
    traced = [e["result"] for e in session.runs
              if e["mode"] == "trace" and e["result"] is not None]
    plain = [e["result"] for e in session.runs
             if e["mode"] == "run" and e["result"] is not None]
    if len(traced) < MIN_TRACED:
        session.problems.append(f"only {len(traced)} traced runs finished")
    first = traced[0]["layers"] if traced else {}
    for other in traced[1:]:
        moved = [k for k in tracing.EXACT_COUNTS if other["layers"].get(k) != first.get(k)]
        if moved:
            session.problems.append(f"counts differ between traced runs: {moved}")
    layers = {k: [t["layers"][k] for t in traced] for k in first}
    if traced and plain:
        layers["trace.overhead_ratio"] = [
            median([t["run_s"] for t in traced]) / median([p["run_s"] for p in plain])
        ]
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "besov_wave_lab" / "cli.py").is_file():
        print("perfbench: run from the root of a besov-wave-lab checkout "
              "(src/besov_wave_lab/cli.py not found)", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found in the working directory",
              file=sys.stderr)
        return 2

    session = Session(root, args.workload, args.seed, args.seconds)
    for _ in range(SETUP_PROBES):
        if session.spawn("setup") is None:
            print("perfbench: set-up failed: " + "; ".join(session.problems),
                  file=sys.stderr)
            return 1
    if args.trace:
        samples = run_traced(session)
        units = declared_units(root, "per_layer")
    else:
        samples = run_end_to_end(session)
        units = declared_units(root, "end_to_end")
    attempted = len(session.runs)
    failed = sum(1 for e in session.runs if not e["ok"])
    if session.problems and failed == 0:
        failed = 1  # a problem found across runs, such as counts that moved
    fft_modules = next(
        (e["result"]["fft_modules"] for e in session.runs
         if e["mode"] == "run" and e["result"] is not None), [])
    info = machine_info(root, fft_modules)

    missing = sorted(set(units) - set(samples))
    if missing:
        session.problems.append(f"no samples for {missing}")
    metrics = {
        name: {"value": median(samples[name]), "unit": unit}
        for name, unit in units.items() if samples.get(name)
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} runs, {failed} failed, {len(session.setup_samples)} set-ups, "
          f"{session.elapsed():.1f} s")
    print("machine " + json.dumps(info, sort_keys=True))
    for problem in session.problems:
        print("FAILED " + problem)
    for name, metric in metrics.items():
        values = samples[name]
        q1, q3 = quartiles(values)
        print(f"{name} {metric['value']:.6g} {metric['unit']} "
              f"(median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g})")
    print(f"failed_runs {failed / max(attempted, 1):.6g} share "
          f"({failed} of {attempted} runs)")

    correct = failed == 0 and not session.problems and not missing and attempted > 0
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=info, problems=session.problems,
                  samples=samples)
    (session.workdir / "result.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
