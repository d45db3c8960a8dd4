"""Report serialization, CSV output, and the SVG plot writer."""

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from besov_wave_lab import experiments
from besov_wave_lab.cli import load_config
from besov_wave_lab.reporting import (
    Check,
    ExperimentReport,
    Table,
    config_hash,
    write_loglog_svg,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestTable:
    def test_csv_round_trip_rfc4180(self, tmp_path):
        table = Table(columns=["t", "norm"], rows=[[1.0, 0.5], [10.0, 0.05]])
        path = tmp_path / "t.csv"
        table.write_csv(path)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "norm"]
        assert [float(x) for x in rows[1]] == [1.0, 0.5]

    def test_column_access(self):
        table = Table(columns=["a", "b"], rows=[[1.0, 2.0], [3.0, 4.0]])
        assert table.column("b") == [2.0, 4.0]


class TestReport:
    def test_save_writes_json_and_csv(self, tmp_path):
        report = ExperimentReport(
            kind="demo",
            scalars={"x": 1.5},
            checks={"check": Check(0.5, "<", 1.0)},
            tables={"data": Table(columns=["t"], rows=[[0.0], [1.0]])},
        )
        path = report.save(tmp_path)
        body = json.loads(path.read_text())
        assert body["scalars"]["x"] == 1.5
        assert body["verdicts"] == {"check": "pass"}
        assert body["checks"] == {"check": {"value": 0.5, "relation": "<", "bound": 1.0}}
        assert (tmp_path / "demo.data.csv").exists()
        assert "timestamp" in body["timing"]

    def test_saved_report_is_strict_json(self, tmp_path):
        # A non-finite float anywhere in a report is saved as a string: a
        # bare NaN or Infinity token is not JSON, and strict parsers reject it.
        report = ExperimentReport(
            kind="demo",
            scalars={"max_residual": math.nan},
            checks={"residual": Check(math.inf, "<", 1.0), "floor": Check(0.0, ">", -math.inf)},
            tables={"data": Table(columns=["t", "norm"], rows=[[0.0, math.nan], [1.0, 2.0]])},
            meta={"nested": {"values": [1.0, -math.inf]}},
        )

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        body = json.loads(report.save(tmp_path).read_text(), parse_constant=reject)
        assert body["scalars"] == {"max_residual": "nan"}
        assert body["checks"]["residual"]["value"] == "inf"
        assert body["checks"]["floor"]["bound"] == "-inf"
        assert body["tables"]["data"]["rows"] == [[0.0, "nan"], [1.0, 2.0]]
        assert body["meta"]["nested"] == {"values": [1.0, "-inf"]}
        assert body["verdicts"] == {"floor": "pass", "residual": "fail"}

    def test_passed_requires_all_verdicts(self):
        r = ExperimentReport(kind="d", checks={"a": Check(0, "==", 0), "b": Check(1, "==", 0)})
        assert r.verdicts == {"a": "pass", "b": "fail"}
        assert not r.passed()
        r2 = ExperimentReport(kind="d", checks={"a": Check(0, "==", 0)})
        assert r2.passed()
        # Nothing to judge does not pass either.
        r3 = ExperimentReport(kind="d", checks={"a": Check(None, "<", 1.0)})
        assert r3.verdicts == {"a": "undetermined"} and not r3.passed()


class TestCheck:
    BOUND = 0.1
    CASES = [  # relation, then the status just under, at and just over the bound
        ("<", "pass", "fail", "fail"),
        ("<=", "pass", "pass", "fail"),
        ("==", "fail", "pass", "fail"),
        (">=", "fail", "pass", "pass"),
        (">", "fail", "fail", "pass"),
    ]

    def test_cases_cover_every_relation(self):
        assert {case[0] for case in self.CASES} == set(Check.RELATIONS)

    @pytest.mark.parametrize("relation, under, at, over", CASES)
    def test_status_at_under_and_over_the_bound(self, relation, under, at, over):
        b = self.BOUND
        values = (math.nextafter(b, 0.0), b, math.nextafter(b, 1.0))
        assert [Check(v, relation, b).status for v in values] == [under, at, over]

    @pytest.mark.parametrize("relation", sorted(Check.RELATIONS))
    def test_nan_fails_and_none_is_undetermined(self, relation):
        assert Check(math.nan, relation, self.BOUND).status == "fail"
        assert Check(None, relation, self.BOUND).status == "undetermined"

    def test_fractions_compare_exactly(self):
        third = Fraction(1, 3)
        assert Check(third, "<", third).status == "fail"
        assert Check(third, "<=", third).status == "pass"
        assert Check(third - Fraction(1, 10**30), "<", third).status == "pass"

    def test_margin_is_the_slack_on_the_passing_side(self):
        assert Check(3.0, ">=", 1.0).margin == 2.0
        assert Check(3.0, "<", 1.0).margin == -2.0
        assert Check(1.0, ">", 1.0).margin == 0.0  # a strict relation fails at zero slack


class TestTiming:
    def test_timing_holds_wall_cpu_and_faults(self):
        report = ExperimentReport(kind="d", runtime_s=1.5, cpu_s=1.25, minor_faults=42)
        timing = report.to_json_dict()["timing"]
        assert (timing["runtime_s"], timing["cpu_s"], timing["minor_faults"]) == (1.5, 1.25, 42)
        assert "minor_faults" not in ExperimentReport(kind="d").to_json_dict()["timing"]

    def test_run_experiment_times_the_runner(self, tmp_path, monkeypatch):
        # cpu_s and minor_faults are taken around the runner, as runtime_s
        # is; without getrusage minor_faults is left out, and nothing
        # outside timing moves.
        cfg = load_config(str(CONFIGS / "partition.cfg"))
        report = experiments.run_experiment("partition-residual", cfg, tmp_path / "a", seed=0)
        timing = report.to_json_dict()["timing"]
        assert set(timing) == {"timestamp", "runtime_s", "cpu_s", "minor_faults"}
        assert timing["cpu_s"] >= 0.0
        assert isinstance(timing["minor_faults"], int) and timing["minor_faults"] >= 0
        monkeypatch.setattr(experiments, "getrusage", None)
        bare = experiments.run_experiment("partition-residual", cfg, tmp_path / "b", seed=0)
        assert set(bare.to_json_dict()["timing"]) == {"timestamp", "runtime_s", "cpu_s"}
        bodies = []
        for out, r in ((tmp_path / "a", report), (tmp_path / "b", bare)):
            body = json.loads(r.save(out).read_text())
            del body["timing"]
            bodies.append(json.dumps(body, sort_keys=True))
        assert bodies[0] == bodies[1]


class TestSvg:
    def test_plot_contains_series_and_fit(self, tmp_path):
        path = tmp_path / "p.svg"
        xs = [1.0, 10.0, 100.0]
        write_loglog_svg(
            path,
            xs,
            {"measured": [1.0, 0.3, 0.1]},
            fit=(-0.5, 0.0),
            title="demo decay",
        )
        body = path.read_text()
        assert body.startswith("<svg")
        assert "demo decay" in body
        assert "slope -0.500" in body
        assert body.count("<circle") == 3

    def test_rejects_empty_positive_data(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            write_loglog_svg(tmp_path / "e.svg", [1.0], {"s": [0.0]})


def test_config_hash_short_hex():
    h = config_hash({"a": {"k": "v"}})
    assert len(h) == 16
    int(h, 16)
