from __future__ import annotations

import json

import pytest

from qcl import (
    NoSlidingSelection,
    RegularizationUnstable,
    example1_line,
    scenario_from_json,
)
from qcl import cli
from qcl._json import dumps
from qcl.cli import main


def run_cli(*argv: str) -> int:
    return main(list(argv))


def _reference_without(*path) -> dict:
    """The example1 scenario JSON with the field at ``path`` deleted."""
    scenario = example1_line(3, 1.0).to_json()
    node = scenario
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return scenario


class TestRun:
    def test_reference_run_converges(self, tmp_path, capsys):
        code = run_cli(
            "run", "--builder", "example1", "--n", "3", "--delta", "1",
            "--policy", "sliding", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["t_con"] == 0.5
        assert report["s_star"] == 1.0
        assert report["q_infinity"] == 1.0
        assert report["bound"] == 162.0
        assert report["envelope_ok"] is True
        assert set(report) == {
            "converged", "t_con", "s_star", "q_infinity", "bound",
            "average_drift", "envelope_ok",
        }
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "trajectory.json").exists()

    def test_single_agent_converges_at_zero(self, tmp_path):
        code = run_cli(
            "run", "--builder", "random", "--n", "1", "--seed", "5",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["t_con"] == 0.0

    def test_horizon_without_convergence_exits_2(self, tmp_path):
        code = run_cli(
            "run", "--builder", "example1", "--n", "6", "--policy", "sliding",
            "--horizon", "0.25", "--out", str(tmp_path),
        )
        assert code == 2

    def test_malformed_scenario_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schedule": [,]}')
        code = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("document, named", [
        pytest.param(_reference_without("x0"), "'x0'", id="no-x0"),
        pytest.param(_reference_without("quantizer", "delta"), "'delta'", id="no-delta"),
        pytest.param(_reference_without("schedule", "segments", 0, "edges", 0, "w"), "'w'",
                     id="edge-without-w"),
        pytest.param([example1_line(3, 1.0).to_json()], "JSON object", id="top-level-list"),
    ])
    def test_malformed_scenario_is_one_error_line(self, tmp_path, capsys, document, named):
        path = tmp_path / "s.json"
        path.write_text(dumps(document))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]

    @pytest.mark.parametrize("error", [NoSlidingSelection, RegularizationUnstable])
    def test_solver_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch, error):
        def fail(config):
            raise error("no selection")

        monkeypatch.setattr(cli, "simulate", fail)
        assert run_cli("run", "--builder", "example1", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error: no selection\n"

    def test_scenario_file_round_trip(self, tmp_path):
        config = example1_line(3, 1.0)
        path = tmp_path / "scenario.json"
        path.write_text(dumps(config.to_json()))
        assert scenario_from_json(json.loads(path.read_text())) == config
        code = run_cli(
            "run", "--scenario", str(path), "--policy", "sliding",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0

    def test_byte_identical_csv_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(
                "run", "--builder", "random", "--n", "5", "--seed", "7",
                "--out", str(tmp_path / sub), "--stride", "0.25",
            )
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_oracle_flag_reports_deviation(self, tmp_path):
        code = run_cli(
            "run", "--builder", "example2", "--n", "3", "--oracle",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["oracle_max_deviation"] <= 5e-3

    def test_max_events_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QCL_MAX_EVENTS", "1")
        code = run_cli(
            "run", "--builder", "example1", "--n", "6", "--policy", "sliding",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "event limit" in capsys.readouterr().err


class TestBound:
    def test_reference_value(self, capsys):
        assert run_cli("bound", "--builder", "example1", "--n", "3") == 0
        assert "bound=162.0" in capsys.readouterr().out

    def test_zero_spread(self, tmp_path, capsys):
        scenario = example1_line(3, 1.0).to_json()
        scenario["x0"] = [0.1, 0.2, 0.3]
        path = tmp_path / "s.json"
        path.write_text(dumps(scenario))
        assert run_cli("bound", "--scenario", str(path)) == 0
        assert "bound=0.0" in capsys.readouterr().out

    def test_bound_beyond_float_range(self, tmp_path, capsys):
        assert run_cli("bound", "--builder", "random", "--n", "150",
                       "--out", str(tmp_path)) == 0
        assert "bound=None spread=4.0 log_bound=" in capsys.readouterr().out
        obj = json.loads((tmp_path / "bound.json").read_text())
        assert obj["bound"] is None and obj["log_bound"] > 709.0
        assert run_cli("run", "--builder", "random", "--n", "150",
                       "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["bound"] is None and report["log_bound"] == obj["log_bound"]

    def test_switching_schedule_rejected(self, capsys):
        code = run_cli(
            "bound", "--builder", "random", "--n", "3", "--switching", "2,0.5",
        )
        assert code == 1
        assert "time-invariant" in capsys.readouterr().err


class TestSweep:
    def test_chain_doubling(self, tmp_path):
        code = run_cli(
            "sweep", "--builder", "example2", "--n-list", "3,4,5,6",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "n,delta,a,b,seed,policy,t_con,bound,bound_ok,avg_drift,status"
        t = [float(row.split(",")[6]) for row in lines[1:]]
        for a, b in zip(t, t[1:]):
            assert abs(b / a - 2.0) <= 0.02

    def test_empty_grid(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--builder", "example1", "--n-list", "", "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "sweep.csv").read_text().strip().split("\n") == [
            "n,delta,a,b,seed,policy,t_con,bound,bound_ok,avg_drift,status"
        ]

    def test_cell_error_recorded_and_exit_2(self, tmp_path):
        code = run_cli(
            "sweep", "--builder", "example1", "--n-list", "2,3",
            "--out", str(tmp_path),
        )
        assert code == 2
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert any("error:" in row for row in lines[1:])
        assert any("equilibrium" in row for row in lines[1:])

    def test_deterministic_output(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(
                "sweep", "--builder", "random", "--n-list", "3,4",
                "--seed-list", "1,2", "--out", str(tmp_path / sub),
            )
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()


class TestCheck:
    def test_fresh_checkout_passes(self, capsys):
        assert run_cli("check") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5

    def test_injected_corruption_fails_envelope_suite(self, capsys):
        assert run_cli("check", "--suite", "envelope", "--inject-corruption") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_suite_filter(self, capsys):
        assert run_cli("check", "--suite", "bounds") == 0
        out = capsys.readouterr().out
        assert "suite bounds" in out and "suite envelope" not in out

    def test_unknown_suite(self, capsys):
        assert run_cli("check", "--suite", "nope") == 1
