"""Command-line experiment driver.

Usage:
  besov-wave-lab list
  besov-wave-lab run experiment.cfg [--out DIR] [--seed N] [--jobs K]
                                    [--override-admissibility]

Configs are flat INI sections (auditable key = value lines), read by
experiments.run_experiment, which also applies the admissibility policy.
Exit codes: 0 every check passed, 2 config error, 3 admissibility failure
without override, 4 blow-up inside a run that asserted global decay, 5 a
check that did not pass (its report is saved first).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

from besov_wave_lab.admissibility import AdmissibilityError
from besov_wave_lab.experiments import COMMON, REGISTRY, BlowupInGlobalRun, ConfigError, config_text
from besov_wave_lab.experiments import run_experiment
from besov_wave_lab.profiles import PROFILES, profile_keys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_BLOWUP = 4
EXIT_CHECK = 5


def load_config(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (n vs N)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file '{path}' not found or unreadable")
    return {name: dict(parser[name]) for name in parser.sections()}


def _emit_error(kind: str, message: str, code: int, out_dir: Path | None) -> None:
    record = {"error": {"type": kind, "message": message, "exit_code": code}}
    line = json.dumps(record, sort_keys=True)
    print(line, file=sys.stderr)
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "error.json").write_text(line + "\n", encoding="utf-8")
        except OSError:
            pass


def _keys(keys) -> str:
    """'key = default ...' as a config writes them; a type marks no default,
    and a withheld key (None) is left out."""
    return "  ".join(f"{key} = {config_text(v)}" for key, v in keys.items() if v is not None)


def cmd_list() -> int:
    width = max(len(name) for name in REGISTRY)
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        print(f"{name:<{width}}  {spec.description}")
        print(f"{'':<{width}}  checks: {spec.claim}")
        for section, keys in spec.keys.items():
            print(f"{'':<{width}}  [{section}] {_keys(keys)}")
    for section, keys in COMMON.items():
        print(f"every kind: [{section}] {_keys(keys)}")
    for name in PROFILES:
        print(f"[data] profile = {name}: {_keys(profile_keys(name))}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    out_dir: Path | None = Path(args.out) if args.out else None
    try:
        cfg = load_config(args.config)
        exp = cfg.get("experiment", {})
        kind = exp.get("kind")
        if not kind:
            raise ConfigError("config must set [experiment] kind")
        if kind not in REGISTRY:
            raise ConfigError(
                f"unknown experiment '{kind}'; run 'besov-wave-lab list'"
            )
        if out_dir is None:
            # Read before the config is checked, so error.json has a home.
            configured = cfg.get("output", {}).get("dir")
            out_dir = Path(configured) if configured else Path("bwl-out") / kind
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        report = run_experiment(
            kind, cfg, out_dir, seed=args.seed, jobs=args.jobs,
            override_admissibility=args.override_admissibility,
        )
    except BlowupInGlobalRun as exc:
        _emit_error("blowup", str(exc), EXIT_BLOWUP, out_dir)
        return EXIT_BLOWUP
    except AdmissibilityError as exc:
        _emit_error("admissibility", str(exc), EXIT_ADMISSIBILITY, out_dir)
        return EXIT_ADMISSIBILITY
    except (ConfigError, KeyError, ValueError) as exc:  # incl. r <= 2, non-integer p
        _emit_error("config", str(exc), EXIT_CONFIG, out_dir)
        return EXIT_CONFIG

    path = report.save(out_dir)
    status = "ok" if report.passed() else "check-verdicts"
    print(f"{kind}: {status} -> {path}")
    for name, verdict in sorted(report.verdicts.items()):
        print(f"  {name}: {verdict}")
    return EXIT_OK if report.passed() else EXIT_CHECK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="besov-wave-lab",
        description="Run spectral verification experiments for the damped wave flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one experiment config")
    run_parser.add_argument("config", help="path to a flat INI config")
    run_parser.add_argument("--out", help="output directory for reports")
    run_parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    run_parser.add_argument(
        "--jobs", type=int, default=1, help="parallel workers for sweeps"
    )
    run_parser.add_argument(
        "--override-admissibility",
        action="store_true",
        help="run even when the existence hypotheses fail",
    )
    sub.add_parser("list", help="list available experiments")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
