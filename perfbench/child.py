"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; not
meant to be run by hand.  Writes ``result.json`` into ``--workdir``:

- ``setup_s``: interpreter start (the parent's clock reading just before it
  spawned this process) to just before the first ``cli.main`` call, covering
  Python start, package import and the config write.
- ``run_s`` / ``cpu_s``: wall and process CPU time of the ``cli.main`` calls.
- ``peak_rss_mb``: this process's ``ru_maxrss``.
- ``exit_codes``: what each ``cli.main`` call returned.
- ``layers``: per-layer metrics, with ``--mode trace`` only.

``--mode setup`` stops after set-up, so that set-up is sampled more often
than whole runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from besov_wave_lab import cli

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    out_dir = workdir / "out"
    configs = workloads.write_configs(args.workload, workdir / "configs")
    setup_end = time.monotonic_ns()
    result = {"setup_s": (setup_end - args.spawned_ns) / 1e9}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        codes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for config in configs:
            codes.append(cli.main([
                "run", str(config), "--out", str(out_dir),
                "--seed", str(args.seed), "--jobs", "1",
            ]))
        result["run_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["exit_codes"] = codes
        result["fft_modules"] = [m for m in ("numpy.fft", "scipy.fft") if m in sys.modules]
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, out_dir)
            tracer.write_spans(workdir / "spans.tsv")
    (workdir / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
