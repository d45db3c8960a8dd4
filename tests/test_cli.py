"""CLI contract: exit codes, artifacts, reproducibility."""

import configparser
import dataclasses
import functools
import json
from pathlib import Path

import pytest

from besov_wave_lab.admissibility import AdmissibilityError
from besov_wave_lab.cli import (
    EXIT_ADMISSIBILITY,
    EXIT_BLOWUP,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    load_config,
    main,
)
from besov_wave_lab.experiments import REGISTRY, config_text, read_config, run_experiment
from besov_wave_lab.reporting import ExperimentReport, config_hash
from fields import count_transforms


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


PARTITION_CFG = """
[experiment]
kind = partition-residual

[grid]
n = 1
N = 256
L = 64
"""

CONTRACTION_CFG = """
[experiment]
kind = contraction
amplitudes = 1e-3,2e-3
slope_tol = 0.5

[grid]
n = 1
N = 128
L = 64

[problem]
n = 1
r = {r}
s = {s}
p = 2

[solver]
T = 1
nodes = 9
picard_tol = 1e-15
max_iters = 3

[data]
profile = gaussian
"""

SWEEP_CFG = """
[experiment]
kind = sweep-critical
powers = {powers}

[grid]
n = 1
N = 128
L = 40

[problem]
n = 1
r = {r}
s = {s}

[data]
profile = {profile}
width = 2.0
amplitude = 0.1

[solver]
T = 1
etd_dt = 0.05
blowup_threshold = 50
"""

BLOWUP_CFG = """
[experiment]
kind = blowup-probe

[grid]
n = 1
N = 128
L = 40

[problem]
n = 1
r = {r}
s = {s}
p = 2

[solver]
T = 1
etd_dt = 0.05
blowup_threshold = 50

[data]
profile = gaussian
width = 2.0
amplitude = 0.1
"""


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("verify-lp-lq", "paraproduct-residual", "contraction"):
            assert name in out
        assert "checks:" in out

    def test_lists_keys_and_defaults_from_the_tables(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[solver] T = 80.0" in out  # sweep-critical's own default
        assert "[experiment] tolerance = 1e-12" in out
        assert "[data] profile = random-band: xi_lo = 0.5" in out
        assert "[time] t_min = 1.0" in out and "fit_lo = float" in out


BLOWUP = BLOWUP_CFG.format(r="4", s="2")
CONTRACTION = CONTRACTION_CFG.format(r="4", s="2")
SWEEP = SWEEP_CFG.format(powers="9", r="4", s="5", profile="gaussian")


class TestConfigSchema:
    """Every config key is declared; a typo exits 2 and names the nearest key."""

    @pytest.mark.parametrize(
        "text,named",
        [
            (
                PARTITION_CFG.replace("[grid]", "tolerence = 1\n\n[grid]"),
                "unknown key 'tolerence' in [experiment]; did you mean 'tolerance'?",
            ),
            (
                PARTITION_CFG.replace("N = 256", "NN = 64"),
                "unknown key 'NN' in [grid]; did you mean 'N'?",
            ),
            (
                BLOWUP.replace("[solver]", "[sovler]"),
                "unknown section [sovler]; did you mean 'solver'?",
            ),
            (BLOWUP + "xi_lo = 0.3\n", "unknown key 'xi_lo' in [data]"),
            # A kind declares only the keys its runner reads: the sweep's
            # powers are [experiment] powers, an ETD run has no Picard keys, a
            # Picard run no etd_dt, and no kind has [problem] eps ([data] eps
            # of the slow-decay profile is another key).
            (SWEEP.replace("s = 5\n", "s = 5\np = 3\n"), "unknown key 'p' in [problem]"),
            (SWEEP.replace("[solver]\n", "[solver]\nnodes = 7\n"),
             "unknown key 'nodes' in [solver]"),
            (BLOWUP.replace("[solver]\n", "[solver]\nmax_iters = 1\n"),
             "unknown key 'max_iters' in [solver]"),
            (CONTRACTION.replace("[solver]\n", "[solver]\netd_dt = 0.05\n"),
             "unknown key 'etd_dt' in [solver]"),
            ((CONFIGS / "global-decay.cfg").read_text().replace("p = 9\n", "p = 9\neps = 0.01\n"),
             "unknown key 'eps' in [problem]"),
            # interpolation reads r and s, and n from the grid: no power.
            ((CONFIGS / "interpolation.cfg").read_text().replace("s = 5\n", "s = 5\np = 9\n"),
             "unknown key 'p' in [problem]"),
            ((CONFIGS / "interpolation.cfg").read_text().replace("s = 5\n", "s = 5\nn = 2\n"),
             "unknown key 'n' in [problem]"),
        ],
        ids=["tolerence", "NN", "sovler", "xi_lo", "sweep-p", "sweep-nodes", "blowup-max_iters",
             "contraction-etd_dt", "problem-eps", "interpolation-p", "interpolation-n"],
    )
    def test_unknown_section_or_key_exits_2(self, text, named, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "typo.cfg", text)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_contraction_withholds_data_amplitude(self, tmp_path, capsys):
        # Each [experiment] amplitudes entry replaces [data] amplitude, so a
        # configured one would have no effect: it is not a contraction key.
        text = (CONFIGS / "contraction.cfg").read_text().replace(
            "width = 2.0", "width = 2.0\namplitude = 5"
        )
        cfg = write_cfg(tmp_path / "amplitude.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "unknown key 'amplitude' in [data]" in capsys.readouterr().err
        assert main(["list"]) == EXIT_OK
        listed = capsys.readouterr().out
        contraction = listed[listed.index("\ncontraction") : listed.index("\nglobal-decay")]
        assert "[data] profile = gaussian  width = 2.0\n" in contraction

    def test_unknown_time_spacing_exits_2(self, tmp_path, capsys):
        text = """
[experiment]
kind = high-frequency-bound

[grid]
N = 64
L = 20

[time]
points = 4
spacing = geometirc
"""
        cfg = write_cfg(tmp_path / "spacing.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "[time] spacing must be geometric or linear" in capsys.readouterr().err

    def test_defaults_filled_and_typed(self):
        values = read_config(REGISTRY["sweep-critical"], {"problem": {"n": "1"}})
        assert values["grid"] == {"n": 1, "N": 1024, "L": 80.0}
        assert values["experiment"] == {"powers": (7, 8, 9, 10), "kind": None}
        assert values["data"] == {"profile": "gaussian", "width": 2.0, "amplitude": 0.5}
        assert values["run"] == {"seed": 0}
        values = read_config(
            REGISTRY["contraction"],
            {"experiment": {"amplitudes": "1e-3, 5e-3"}, "data": {"profile": "slow_decay"}},
        )
        assert values["experiment"]["amplitudes"] == (1e-3, 5e-3)
        assert "amplitude" not in values["data"] and values["data"]["r"] == 4.0
        assert values["problem"]["n"] == 1 and values["solver"]["nodes"] == 33

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_every_shipped_config_reads(self, name):
        cfg = load_config(str(CONFIGS / name))
        values = read_config(REGISTRY[cfg["experiment"]["kind"]], cfg)
        for section, keys in cfg.items():
            assert set(keys) <= set(values[section])

    def test_every_kind_ships_a_config(self):
        kinds = {load_config(str(p))["experiment"]["kind"] for p in CONFIGS.glob("*.cfg")}
        assert kinds == set(REGISTRY)


class TestRun:
    def test_partition_run_writes_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", PARTITION_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "partition-residual.json").read_text())
        assert report["verdicts"]["partition"] == "pass"
        assert "config_hash" in report["meta"]

    def test_high_frequency_bound_run(self, tmp_path, capsys):
        text = """
[experiment]
kind = high-frequency-bound

[grid]
N = 256
L = 40

[time]
t_min = 1
t_max = 30
points = 12
"""
        cfg = write_cfg(tmp_path / "hf.cfg", text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "high-frequency-bound.json").read_text())
        assert report["verdicts"] == {"log_growth_only": "pass"}
        check = report["checks"]["log_growth_only"]
        assert check == {"value": report["scalars"]["delta_hat"], "relation": "<=", "bound": 10.0}
        assert 0.0 <= report["scalars"]["delta_hat"] <= check["bound"]
        assert (out / "high-frequency-bound.svg").exists()

    def test_zero_expected_rate_is_undetermined_and_exits_5(self, tmp_path, capsys):
        # q = p and s1 = s2: the expected low-frequency rate is 0, where a
        # relative tolerance has no scale.  The rate is still a check, one
        # with nothing to judge, so the run does not pass.
        cfg = write_cfg(tmp_path / "zero.cfg", "[experiment]\nkind = verify-lp-lq\n"
                        "[estimate]\nq = 2\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CHECK
        assert "low_frequency_rate: undetermined" in capsys.readouterr().out
        report = json.loads((out / "verify-lp-lq.json").read_text())
        assert report["scalars"]["expected_low_exponent"] == 0.0
        assert report["verdicts"] == {"low_frequency_rate": "undetermined"}
        assert report["checks"]["low_frequency_rate"]["value"] is None

    @pytest.mark.parametrize("key", ["p", "q"])
    def test_block_exponent_below_one_exits_2(self, key, tmp_path, capsys):
        text = (CONFIGS / "block-estimates.cfg").read_text()
        assert f"\n{key} = 2\n" in text
        cfg = write_cfg(tmp_path / "half.cfg", text.replace(f"\n{key} = 2\n", f"\n{key} = 0.5\n"))
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "must be >= 1, got 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shipped, changed, named",
        [
            ("k_low = -4,-3,-2,-1", "k_low = -4,-3,-2,2", "k_low entry 2 must be <= 0"),
            ("k_high = 1,2,3,4", "k_high = 0,1,2,3", "k_high entry 0 must be >= 1"),
            ("k_low = -4,-3,-2,-1", "k_low = -4,-3,-3,-1", "k_low entry -3 names its block twice"),
        ],
    )
    def test_block_off_its_side_or_named_twice_exits_2(
        self, shipped, changed, named, tmp_path, capsys
    ):
        text = (CONFIGS / "block-estimates.cfg").read_text()
        assert shipped in text
        cfg = write_cfg(tmp_path / "sides.cfg", text.replace(shipped, changed))
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"]["exit_code"] == EXIT_CONFIG

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "bad.cfg", "[experiment]\nkind = not-an-experiment\n"
        )
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_domain_violation_exits_2_and_names_domain(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "r2.cfg", CONTRACTION_CFG.format(r="2", s="2")
        )
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(2, inf)" in err

    def test_interpolation_keeps_the_r_domain(self, tmp_path, capsys):
        # interpolation builds no ProblemParams, so it checks r itself.
        text = (CONFIGS / "interpolation.cfg").read_text().replace("r = 4\n", "r = 2\n")
        cfg = write_cfg(tmp_path / "r2.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "decay integrability r must lie in (2, inf), got 2.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named",
        [
            ((CONFIGS / "leibniz.cfg").read_text().replace("ensemble = 500", "ensemble = 0"),
             "[leibniz] ensemble must be at least 1, got 0"),
            ((CONFIGS / "paraproduct.cfg").read_text().replace("pairs = 100", "pairs = 0"),
             "[experiment] pairs must be at least 1, got 0"),
            ("[experiment]\nkind = interpolation\nensemble = 0\n",
             "[experiment] ensemble must be at least 1, got 0"),
            ((CONFIGS / "global-decay.cfg").read_text().replace("max_iters = 12", "max_iters = 0"),
             "max_iters must be at least 1, got 0"),
            ((CONFIGS / "contraction.cfg").read_text().replace("max_iters = 3", "max_iters = 0"),
             "max_iters must be at least 1, got 0"),
            ((CONFIGS / "global-decay.cfg").read_text().replace("etd_dt = 0.025", "etd_dt = 0"),
             "etd_dt must be positive, got 0.0"),
            # sweep-critical hands its [solver] keys to the oracle directly.
            ((CONFIGS / "sweep-critical.cfg").read_text().replace("etd_dt = 0.01", "etd_dt = 0"),
             "etd_dt must be positive, got 0.0"),
            # NaN fails every comparison, so a check it reaches would pass or
            # fail it silently: the reader refuses it for every float key,
            # in a list too.  The solver's own NaN guards serve Python
            # callers (tests/test_solver.py).
            ((CONFIGS / "sweep-critical.cfg").read_text().replace("etd_dt = 0.01", "etd_dt = nan"),
             "[solver] etd_dt = 'nan': NaN is not accepted"),
            ((CONFIGS / "global-decay-nonlinear.cfg").read_text()
             .replace("T = 30", "T = 1").replace("nodes = 25", "nodes = 5")
             .replace("blowup_threshold = 10", "blowup_threshold = nan"),
             "[solver] blowup_threshold = 'nan': NaN is not accepted"),
            ((CONFIGS / "sweep-critical.cfg").read_text()
             .replace("blowup_threshold = 100", "blowup_threshold = nan"),
             "[solver] blowup_threshold = 'nan': NaN is not accepted"),
            ((CONFIGS / "contraction.cfg").read_text()
             .replace("picard_tol = 1e-15", "picard_tol = nan"),
             "[solver] picard_tol = 'nan': NaN is not accepted"),
            ((CONFIGS / "contraction.cfg").read_text().replace("slope_tol = 0.2", "slope_tol = nan"),
             "[experiment] slope_tol = 'nan': NaN is not accepted"),
            ((CONFIGS / "partition.cfg").read_text()
             .replace("tolerance = 1e-12", "tolerance = nan"),
             "[experiment] tolerance = 'nan': NaN is not accepted"),
            ((CONFIGS / "contraction.cfg").read_text()
             .replace("amplitudes = 1e-3,2e-3,4e-3", "amplitudes = 1e-3,nan"),
             "[experiment] amplitudes = '1e-3,nan': NaN is not accepted"),
            ((CONFIGS / "contraction.cfg").read_text().replace("T = 2\n", "T = nan\n"),
             "[solver] T = 'nan': NaN is not accepted"),
            # A text that does not parse names its key; inf is no int.
            ((CONFIGS / "partition.cfg").read_text().replace("N = 4096", "N = inf"),
             "[grid] N = 'inf': not a valid int"),
            ((CONFIGS / "contraction.cfg").read_text().replace("T = 2\n", "T = 0\n"),
             "horizon T must be positive, got 0.0"),
        ],
        ids=["leibniz-ensemble", "paraproduct-pairs", "interpolation-ensemble",
             "global-decay-max_iters", "contraction-max_iters", "global-decay-etd_dt",
             "sweep-critical-etd_dt", "sweep-critical-etd_dt-nan",
             "global-decay-blowup_threshold-nan", "sweep-critical-blowup_threshold-nan",
             "contraction-picard_tol-nan", "contraction-slope_tol-nan",
             "partition-tolerance-nan", "contraction-amplitudes-nan", "contraction-T-nan",
             "partition-N-inf", "contraction-T-0"],
    )
    def test_empty_ensemble_exits_2_and_names_the_key(self, text, named, tmp_path, capsys):
        # An empty ensemble has no maximum: leibniz would divide by it, and
        # the other kinds would report on a check they never made.  No
        # Picard iteration, or an oracle step of zero, is no run either.
        cfg = write_cfg(tmp_path / "empty.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_admissibility_failure_exits_3_and_override_runs(self, tmp_path, capsys):
        # r = 6, s = 0.6, p = 2 fails the lower power bound (see solver tests).
        text = CONTRACTION_CFG.format(r="6", s="0.6")
        cfg = write_cfg(tmp_path / "inadm.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_ADMISSIBILITY
        record = json.loads(
            (tmp_path / "o" / "error.json").read_text()
        )
        assert record["error"]["exit_code"] == EXIT_ADMISSIBILITY
        assert (
            main(
                [
                    "run",
                    cfg,
                    "--out",
                    str(tmp_path / "o2"),
                    "--override-admissibility",
                ]
            )
            == EXIT_OK
        )

    def test_blowup_in_global_decay_exits_4(self, tmp_path, capsys):
        text = """
[experiment]
kind = global-decay

[grid]
n = 1
N = 512
L = 80

[problem]
n = 1
r = 4
s = 5
p = 9

[solver]
T = 20
nodes = 41
picard_tol = 1e-9
max_iters = 4
blowup_threshold = 10
etd_dt = 0.01

[data]
profile = gaussian
width = 2.0
amplitude = 0.8
"""
        cfg = write_cfg(tmp_path / "boom.cfg", text)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_BLOWUP
        record = json.loads((out / "error.json").read_text())
        assert record["error"]["exit_code"] == EXIT_BLOWUP
        assert "escaped" in record["error"]["message"]

    def test_global_decay_reports_the_picard_history(self, tmp_path, capsys):
        text = """
[experiment]
kind = global-decay

[grid]
n = 1
N = 512
L = 80

[problem]
n = 1
r = 4
s = 5
p = 9

[solver]
T = 4
nodes = 21
max_iters = 4
etd_dt = 0.05

[data]
profile = gaussian
width = 2.0
amplitude = 0.3
"""
        cfg = write_cfg(tmp_path / "history.cfg", text)
        out = tmp_path / "o"
        # Four iterations do not converge and T = 4 is too short a window to
        # show the weighted sup saturate: two checks fail, so the run exits 5.
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CHECK
        report = json.loads((out / "global-decay.json").read_text())
        assert report["verdicts"]["picard_converged"] == "fail"
        table = report["tables"]["picard"]
        assert table["columns"] == ["iteration", "diff_norm"]
        iterations = int(report["scalars"]["picard_iterations"])
        assert [row[0] for row in table["rows"]] == [float(i + 1) for i in range(iterations)]
        assert table["rows"][-1][1] == report["scalars"]["picard_residual"]
        # The oracle's controller reports its work: T = 4 is 80 steps of 0.05.
        steps = report["scalars"]["oracle_steps"]
        assert 0 < steps <= 80.0
        assert report["scalars"]["oracle_rejected"] >= 0.0

    def test_off_lattice_node_exits_2_and_names_it(self, tmp_path, capsys):
        # 4 nodes on [0, 4] put t = 4/3 and 8/3 off the oracle's lattice of
        # etd_dt = 0.05, where it stores no state to compare with.
        text = """
[experiment]
kind = global-decay

[grid]
n = 1
N = 256
L = 80

[problem]
n = 1
r = 4
s = 5
p = 9

[solver]
T = 4
nodes = 4
max_iters = 4
etd_dt = 0.05

[data]
profile = gaussian
width = 2.0
amplitude = 0.3
"""
        cfg = write_cfg(tmp_path / "off-lattice.cfg", text)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        record = json.loads((out / "error.json").read_text())
        assert record["error"]["type"] == "config"
        assert "node t = 1.33333333333 is not a multiple of etd_dt" in record["error"]["message"]

    def test_overflow_in_global_decay_exits_4(self, tmp_path, capsys):
        # No cap: the iterate overflows, which is a blow-up, not a config error.
        text = """
[experiment]
kind = global-decay

[grid]
n = 1
N = 512
L = 100

[problem]
n = 1
r = 4
s = 5
p = 9

[solver]
T = 2
nodes = 21
blowup_threshold = inf

[data]
profile = gaussian
amplitude = 5
"""
        cfg = write_cfg(tmp_path / "overflow.cfg", text)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_BLOWUP
        record = json.loads((out / "error.json").read_text())
        assert record["error"]["type"] == "blowup"

    def test_problem_dimension_must_match_grid_exits_2(self, tmp_path, capsys):
        text = SWEEP_CFG.format(powers="9", r="4", s="5", profile="gaussian")
        text = text.replace("[problem]\nn = 1", "[problem]\nn = 2")
        cfg = write_cfg(tmp_path / "dims.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "[problem] n = 2 differs from [grid] n = 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_and_names_the_option(self, jobs, tmp_path, capsys):
        # Below 1 is no worker count.  partition-residual starts no worker,
        # whatever --jobs says.
        out = tmp_path / "o"
        cfg = str(CONFIGS / "partition.cfg")
        assert main(["run", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        error = json.loads((out / "error.json").read_text())["error"]
        assert (error["type"], error["exit_code"]) == ("config", EXIT_CONFIG)
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize(
        "where, value", [("--seed", "-1"), ("[run] seed", "-2")], ids=["option", "key"]
    )
    def test_negative_seed_exits_2_and_names_its_source(self, where, value, tmp_path, capsys):
        # numpy's generator takes no negative seed; the message names the
        # option or the key it came from, not numpy's bare complaint.
        out = tmp_path / "o"
        text = (CONFIGS / "partition.cfg").read_text()
        args = []
        if where == "--seed":
            args = ["--seed", value]
        else:
            text += f"\n[run]\nseed = {value}\n"
        cfg = write_cfg(tmp_path / "seed.cfg", text)
        assert main(["run", cfg, "--out", str(out), *args]) == EXIT_CONFIG
        assert f"{where} must be non-negative, got {value}" in capsys.readouterr().err
        error = json.loads((out / "error.json").read_text())["error"]
        assert (error["type"], error["exit_code"]) == ("config", EXIT_CONFIG)

    def test_sweep_runs_with_parallel_jobs(self, tmp_path, capsys):
        text = """
[experiment]
kind = sweep-critical
powers = 2,9

[grid]
n = 1
N = 256
L = 40

[problem]
n = 1
r = 4
s = 5

[data]
profile = gaussian
width = 2.0
amplitude = 1.0

[solver]
T = 6
etd_dt = 0.01
blowup_threshold = 50
"""
        cfg = write_cfg(tmp_path / "sweep.cfg", text)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out), "--jobs", "2"]) == EXIT_CHECK
        report = json.loads((out / "sweep-critical.json").read_text())
        # Amplitude 1 ignites all, so p = 9 = 1 + 2r/n escapes too.
        assert report["tables"]["sweep"]["rows"][0][:2] == [2.0, 1.0]
        assert report["tables"]["sweep"]["rows"][1][:2] == [9.0, 1.0]
        assert report["verdicts"] == {"boundary_at_critical": "fail"}
        assert report["scalars"]["fujita"] == 9.0

    def test_sweep_passes_when_the_boundary_sits_at_critical(self, tmp_path, capsys):
        # At amplitude 0.4, p = 2 escapes by t = 8 and p = 9 = 1 + 2r/n decays.
        text = SWEEP_CFG.format(powers="2,9", r="4", s="5", profile="gaussian")
        text = text.replace("amplitude = 0.1", "amplitude = 0.4")
        text = text.replace("T = 1\netd_dt = 0.05", "T = 8\netd_dt = 0.01")
        cfg = write_cfg(tmp_path / "sweep.cfg", text)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        assert "sweep-critical: ok" in capsys.readouterr().out
        report = json.loads((out / "sweep-critical.json").read_text())
        assert [row[:2] for row in report["tables"]["sweep"]["rows"]] == [
            [2.0, 1.0],
            [9.0, 0.0],
        ]
        assert report["verdicts"] == {"boundary_at_critical": "pass"}
        # Steps taken per power: the escape at p = 2 ends its run early, and
        # no run takes more than the 800 steps of 0.01 to T = 8.
        table = report["tables"]["sweep"]
        assert table["columns"] == ["p", "escaped", "escape_time", "steps", "rejected"]
        (_, _, t_escape, escape_steps, _), (_, _, _, calm_steps, _) = table["rows"]
        assert escape_steps <= round(t_escape / 0.01)
        assert 0 < calm_steps <= 800.0

    def test_reproducible_reports_modulo_timestamp(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "p.cfg", PARTITION_CFG)
        bodies = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", cfg, "--out", str(out), "--seed", "9"]) == EXIT_OK
            data = json.loads((out / "partition-residual.json").read_text())
            data.pop("timing")
            bodies.append(json.dumps(data, sort_keys=True))
        assert bodies[0] == bodies[1]


class TestAdmissibilityGate:
    """r = 6, s = 0.6 fails the lower power bound 3 for p = 2 (admissible for p = 9)."""

    def run(self, tmp_path, text, *extra):
        cfg = write_cfg(tmp_path / "gate.cfg", text)
        out = tmp_path / "o"
        return main(["run", cfg, "--out", str(out), *extra]), out

    def test_sweep_checks_every_power_and_writes_no_report(self, tmp_path, capsys):
        text = SWEEP_CFG.format(powers="2,9", r="6", s="0.6", profile="gaussian")
        code, out = self.run(tmp_path, text)
        assert code == EXIT_ADMISSIBILITY
        message = json.loads((out / "error.json").read_text())["error"]["message"]
        assert "p=2:" in message and "p=9:" not in message
        assert not (out / "sweep-critical.json").exists()

    def test_sweep_power_below_two_is_inadmissible_not_a_config_error(
        self, tmp_path, capsys
    ):
        text = SWEEP_CFG.format(powers="1,9", r="4", s="5", profile="gaussian")
        assert self.run(tmp_path, text)[0] == EXIT_ADMISSIBILITY

    def test_blowup_probe_inadmissible_exits_3(self, tmp_path, capsys):
        text = BLOWUP_CFG.format(r="6", s="0.6")
        assert self.run(tmp_path, text)[0] == EXIT_ADMISSIBILITY

    def test_override_runs_the_sweep(self, tmp_path, capsys):
        text = SWEEP_CFG.format(powers="2,9", r="6", s="0.6", profile="gaussian")
        code, out = self.run(tmp_path, text, "--override-admissibility")
        # At amplitude 0.1 and T = 1 nothing escapes, so both powers, below
        # 1 + 2r/n = 13, sit on the wrong side and the boundary check fails.
        assert code == EXIT_CHECK
        report = json.loads((out / "sweep-critical.json").read_text())
        assert [row[0] for row in report["tables"]["sweep"]["rows"]] == [2.0, 9.0]
        assert set(report["verdicts"]) == {"boundary_at_critical"}

    def test_override_lifts_the_only_gate(self, tmp_path, capsys):
        # r = 4, s = 0.2, p = 2 fails the local conditions; the override
        # runs it, since ProblemParams judges only the domain.
        text = CONTRACTION_CFG.format(r="4", s="0.2")
        assert self.run(tmp_path, text)[0] == EXIT_ADMISSIBILITY
        code, out = self.run(tmp_path, text, "--override-admissibility")
        assert code == EXIT_OK
        report = json.loads((out / "contraction.json").read_text())
        assert report["verdicts"] == {"amplitude_power": "pass"}

    def test_run_experiment_applies_the_gate(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", CONTRACTION_CFG.format(r="6", s="0.6"))
        cfg = load_config(path)
        with pytest.raises(AdmissibilityError, match="p=2"):
            run_experiment("contraction", cfg, tmp_path / "a", seed=0)
        report = run_experiment(
            "contraction", cfg, tmp_path / "b", seed=0, override_admissibility=True
        )
        assert report.kind == "contraction"

    def test_every_kind_with_a_solver_and_only_those_is_gated(self, tmp_path, monkeypatch):
        # [problem] s = 0.1 fails condition (i), s > 1/4, at n = 1 and r = 4.
        # Each runner is stubbed, so a kind that is not gated returns at once.
        gated = set()
        for kind, spec in REGISTRY.items():
            if "problem" not in spec.keys:
                continue
            stub = dataclasses.replace(spec, runner=lambda *args: ExperimentReport())
            monkeypatch.setitem(REGISTRY, kind, stub)
            try:
                run_experiment(kind, {"problem": {"s": "0.1"}}, tmp_path / kind, seed=0)
            except AdmissibilityError as exc:
                assert "condition_i" in str(exc)
                gated.add(kind)
        assert gated == {"contraction", "global-decay", "blowup-probe", "sweep-critical"}
        assert gated == {kind for kind, spec in REGISTRY.items() if "solver" in spec.keys}
        ungated = {kind for kind, spec in REGISTRY.items() if "problem" in spec.keys} - gated
        assert ungated == {"admissibility", "interpolation"}

    def test_sweep_unknown_profile_exits_2(self, tmp_path, capsys):
        text = SWEEP_CFG.format(powers="9", r="4", s="5", profile="nosuch")
        assert self.run(tmp_path, text)[0] == EXIT_CONFIG
        assert "unknown data profile" in capsys.readouterr().err


@pytest.fixture(scope="class")
def kind_only(tmp_path_factory):
    """Exit code and saved report of the run of a config that names only
    its kind, run once per kind."""
    root = tmp_path_factory.mktemp("kind-only")

    @functools.cache
    def run(kind):
        cfg = write_cfg(root / f"{kind}.cfg", f"[experiment]\nkind = {kind}\n")
        code = main(["run", cfg, "--out", str(root / kind)])
        return code, json.loads((root / kind / f"{kind}.json").read_text())

    return run


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "partition.cfg", "paraproduct.cfg", "admissibility.cfg", "leibniz.cfg",
            "contraction.cfg", "high-frequency-bound.cfg", "block-estimates.cfg",
            "decay-linear-2d.cfg",
        ],
    )
    def test_quick_configs_run_clean(self, name, tmp_path, capsys):
        # Exit 0 means every check passed; the saved verdicts say which.
        cfg = CONFIGS / name
        assert cfg.exists()
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        (report,) = tmp_path.glob("*.json")
        verdicts = json.loads(report.read_text())["verdicts"]
        assert verdicts and set(verdicts.values()) == {"pass"}
        # The report's meta.config, written back as a config, reruns it.
        saved = json.loads(report.read_text())
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read_dict(saved["meta"]["config"])
        with open(tmp_path / "rerun.cfg", "w", encoding="utf-8") as fh:
            parser.write(fh)
        rerun_out = tmp_path / "rerun"
        assert main(["run", str(tmp_path / "rerun.cfg"), "--out", str(rerun_out)]) == EXIT_OK
        rerun = json.loads((rerun_out / report.name).read_text())
        saved.pop("timing")
        rerun.pop("timing")
        assert rerun == saved

    @pytest.mark.parametrize("kind", sorted(REGISTRY))
    def test_kind_only_config_exits_with_the_pass_code(self, kind, kind_only):
        code, report = kind_only(kind)
        assert code == EXIT_OK
        assert report["verdicts"] and set(report["verdicts"].values()) == {"pass"}

    @pytest.mark.parametrize("kind", sorted(REGISTRY))
    def test_kind_only_report_records_its_effective_config(self, kind, kind_only):
        # Every key the kind reads, defaults filled in, as config text.
        _, report = kind_only(kind)
        values = read_config(REGISTRY[kind], {"experiment": {"kind": kind}})
        assert report["meta"]["config"] == {
            section: {key: config_text(v) for key, v in keys.items() if v is not None}
            for section, keys in values.items()
        }
        assert report["meta"]["config_hash"] == config_hash(report["meta"]["config"])

    def test_kind_only_contraction_passes(self, kind_only):
        # The kind's defaults are configs/contraction.cfg's values.
        _, report = kind_only("contraction")
        assert report["verdicts"] == {"amplitude_power": "pass"}
        # The picard table holds every difference norm the ratios come from.
        rows = report["tables"]["picard"]["rows"]
        for amp, ratio in report["tables"]["ratios"]["rows"]:
            diffs = [d for a, _, d in rows if a == amp]
            assert [i for a, i, _ in rows if a == amp] == [1.0, 2.0, 3.0]
            assert ratio == diffs[1] / diffs[0]

    def test_kind_only_global_decay_passes(self, kind_only):
        # The kind's defaults are configs/global-decay.cfg's values.
        _, report = kind_only("global-decay")
        assert report["verdicts"] == {
            "oracle_agreement": "pass",
            "picard_converged": "pass",
            "weighted_sup_bounded": "pass",
        }
        # In the linear regime the oracle climbs to the store spacing: far
        # fewer than the 8000 steps of 0.025 to T = 200.
        assert report["scalars"]["oracle_steps"] < 1000
        # The first Duhamel correction is at the rounding floor there.
        assert report["scalars"]["nonlinear_share"] < 1e-10

    def test_nonlinear_global_decay_config_passes(self, tmp_path, capsys):
        # Amplitude 0.3 at the critical power, a run whose first Duhamel
        # correction is 6e-3 of the solution.  A trapezoid Duhamel rule on
        # its 25 nodes misses the oracle by 1.14e-4, over oracle_tol = 1e-4;
        # the exponential rule misses it by 4.05e-5.
        cfg = str(CONFIGS / "global-decay-nonlinear.cfg")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "global-decay.json").read_text())
        assert report["verdicts"] == {
            "oracle_agreement": "pass",
            "picard_converged": "pass",
            "weighted_sup_bounded": "pass",
        }
        assert report["scalars"]["oracle_agreement"] < 5e-5
        assert report["scalars"]["nonlinear_share"] > 1e-3

    def test_every_registry_entry_has_description_and_claim(self):
        for spec in REGISTRY.values():
            assert spec.description
            assert spec.claim


SMALL_FLOW = {"grid": {"N": "256", "L": "64"}, "time": {"t_min": "1", "t_max": "20", "points": "6"}}


@pytest.mark.parametrize(
    "kind, cfg",
    [
        ("global-decay", {
            "grid": {"N": "256", "L": "64"},
            "solver": {"T": "2", "nodes": "9", "etd_dt": "0.05"},
        }),
        ("verify-lp-lq", SMALL_FLOW),
        ("block-estimates", SMALL_FLOW),
        ("high-frequency-bound", SMALL_FLOW),
    ],
)
def test_data_is_transformed_forward_once(kind, cfg, tmp_path, monkeypatch):
    # Every spectrum a run reads past the data's own is built from spectra:
    # projections, flows, Picard and oracle states, their differences.  So
    # the one forward transform on the grid is the data's; a second one
    # would be a field sampled from a spectrum and transformed back.
    counts = count_transforms(monkeypatch, 256)
    report = run_experiment(kind, {"experiment": {"kind": kind}, **cfg}, tmp_path, seed=0)
    assert report.kind == kind
    assert counts["forward", "grid"] == 1


def test_config_hash_stable_and_order_independent():
    a = {"grid": {"n": "1", "N": "64"}, "run": {"seed": "1"}}
    b = {"run": {"seed": "1"}, "grid": {"N": "64", "n": "1"}}
    assert config_hash(a) == config_hash(b)
    c = {"run": {"seed": "2"}, "grid": {"N": "64", "n": "1"}}
    assert config_hash(a) != config_hash(c)
