from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import pytest

from qcl import (
    InputError,
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


def _reference_with_edge(edge: dict) -> dict:
    """The example1 scenario JSON with one more edge in its graph."""
    scenario = example1_line(3, 1.0).to_json()
    scenario["schedule"]["segments"][0]["edges"].append(edge)
    return scenario


def _reference_with(value, *path) -> dict:
    """The example1 scenario JSON with the field at ``path`` set to ``value``."""
    scenario = example1_line(3, 1.0).to_json()
    node = scenario
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return scenario


#: ``expected`` blocks that must be rejected: a coefficient given twice for
#: one agent, and fields of the wrong JSON type.
EXPECTED_BLOCK_ERRORS = [
    pytest.param(_reference_with({"1": 0.5, "01": 0.25}, "expected", "alpha"), "agent 1",
                 id="expected-alpha-named-twice"),
    pytest.param(_reference_with({" 1 ": 0.5}, "expected", "alpha"), "'alpha'",
                 id="expected-alpha-key-with-spaces"),
    pytest.param(_reference_with({"+1": 0.5}, "expected", "alpha"), "'alpha'",
                 id="expected-alpha-key-with-plus"),
    pytest.param(_reference_with("abc", "expected", "t_con"), "'t_con'",
                 id="expected-t-con-string"),
    pytest.param(_reference_with(True, "expected", "q_infinity"), "'q_infinity'",
                 id="expected-q-infinity-true"),
    pytest.param(_reference_with("1.5", "expected", "t_con_lower"), "'t_con_lower'",
                 id="expected-t-con-lower-string"),
    pytest.param(_reference_with(3, "expected", "collocation"), "'collocation'",
                 id="expected-collocation-number"),
]


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
        pytest.param(_reference_with(5, "x0"), "'x0'", id="x0-number"),
        pytest.param(_reference_with(None, "schedule", "n"), "'n'", id="n-null"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": [1]}, "policy"), "'alpha'",
                     id="alpha-list"),
        pytest.param(_reference_with(1.5, "max_events"), "'max_events'", id="max-events-1.5"),
        pytest.param(_reference_with(3.9, "schedule", "n"), "'n'", id="n-3.9"),
        pytest.param(_reference_with(0.5, "schedule", "segments", 0, "edges", 1, "i"),
                     "edge 1 field 'i'", id="edge-i-0.5"),
        pytest.param(_reference_with(1.5, "schedule", "segments", 0, "edges", 2, "j"),
                     "edge 2 field 'j'", id="edge-j-1.5"),
        # Booleans and numeric strings are not JSON numbers.
        pytest.param(_reference_with(True, "max_events"), "'max_events'", id="max-events-true"),
        pytest.param(_reference_with(True, "schedule", "n"), "'n'", id="n-true"),
        pytest.param(_reference_with("1", "quantizer", "delta"), "'delta'", id="delta-string"),
        pytest.param(_reference_with(["0", 1, True], "x0"), "'x0'", id="x0-string-and-bool"),
        pytest.param(_reference_with("10", "horizon"), "'horizon'", id="horizon-string"),
        pytest.param(_reference_with(True, "schedule", "segments", 0, "t"), "'t'", id="t-true"),
        pytest.param(_reference_with("1", "schedule", "a_low"), "'a_low'", id="a-low-string"),
        pytest.param(_reference_with(True, "schedule", "a_high"), "'a_high'", id="a-high-true"),
        pytest.param(_reference_with("1", "schedule", "segments", 0, "edges", 0, "w"),
                     "edge 0 field 'w'", id="edge-w-string"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {"0": True}}, "policy"),
                     "'alpha'", id="alpha-value-true"),
        # A second weight for one edge, and pins naming no agent or one agent twice.
        pytest.param(_reference_with_edge({"i": 0, "j": 1, "w": 1}), "edge (0, 1)",
                     id="duplicate-edge"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {"7": 0.5}}, "policy"),
                     "agent 7", id="pin-beyond-agents"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {"-1": 0.5}}, "policy"),
                     "agent -1", id="pin-negative-agent"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {"1": 0.5, "01": 0.25}},
                                     "policy"), "agent 1", id="pin-named-twice"),
        # Agent keys are an optional minus and ASCII digits, nothing else.
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {" 1 ": 0.5}}, "policy"),
                     "'alpha'", id="pin-key-with-spaces"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {"1_0": 0.5}}, "policy"),
                     "'alpha'", id="pin-key-with-underscore"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {"\u0661": 0.5}},
                                     "policy"), "'alpha'", id="pin-key-arabic-indic-digit"),
        pytest.param(_reference_with({"type": "fixed-alpha", "alpha": {"1.0": 0.5}}, "policy"),
                     "'alpha'", id="pin-key-float"),
    ] + EXPECTED_BLOCK_ERRORS)
    def test_malformed_scenario_is_one_error_line(self, tmp_path, capsys, document, named):
        path = tmp_path / "s.json"
        path.write_text(dumps(document))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]

    @pytest.mark.parametrize("document, message", [
        pytest.param(_reference_with(0.1, "horizn"), "unknown field 'horizn' in scenario",
                     id="misspelt-horizon"),
        pytest.param(_reference_with(1, "bogus"), "unknown field 'bogus' in scenario",
                     id="bogus"),
        pytest.param(_reference_with([0.0, 1.0], "quantizer", "levels"),
                     "unknown field 'levels' in uniform quantizer", id="uniform-with-levels"),
        pytest.param(_reference_with({"type": "fixed-alpha", "overrides": {"1": 0.5}}, "policy"),
                     "unknown field 'overrides' in fixed-alpha policy", id="fixed-alpha-overrides"),
        pytest.param(_reference_with(2.0, "schedule", "segments", 0, "edges", 1, "x"),
                     "unknown field 'x' in schedule segment 0 edge 1", id="edge-with-x"),
        pytest.param(_reference_with({"tcon": 1}, "expected"), "unknown field 'tcon' in expected",
                     id="expected-tcon"),
    ])
    def test_unknown_field_is_one_error_line(self, tmp_path, capsys, document, message):
        # Each of these once ran, silently without the field: the default
        # horizon, no pins, no expected t_con.
        path = tmp_path / "s.json"
        path.write_text(dumps(document))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_segment_start_is_one_error_line(self, tmp_path, capsys, t):
        scenario = example1_line(3, 1.0).to_json()
        segments = scenario["schedule"]["segments"]
        segments.append(dict(segments[0], t=1.0))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario).replace('"t": 1.0', f'"t": {t}'))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]

    @pytest.mark.parametrize("document, named", EXPECTED_BLOCK_ERRORS)
    def test_malformed_expected_block_is_input_error(self, document, named):
        with pytest.raises(InputError, match=named):
            scenario_from_json(document)

    def test_integral_float_counts_accepted(self, tmp_path):
        scenario = _reference_with(3.0, "schedule", "n")
        scenario["max_events"] = 1000.0
        scenario["schedule"]["segments"][0]["edges"][0]["i"] = 0.0
        config = scenario_from_json(scenario)
        assert config == replace(example1_line(3, 1.0), max_events=1000)
        assert type(config.max_events) is int
        path = tmp_path / "s.json"
        path.write_text(dumps(scenario))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("stride", ["0", "-1", "nan", "inf"])
    def test_bad_stride_is_one_error_line(self, tmp_path, capsys, stride):
        code = run_cli("run", "--builder", "example1", "--n", "4", "--stride", stride,
                       "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stride")
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("stride", ["1e-12", "1e-300"])
    def test_tiny_stride_is_one_error_line(self, tmp_path, capsys, stride):
        # The samples (about 1e12 of them at 1e-12) are counted before any
        # is built, so the run stays small.
        tracemalloc.start()
        try:
            code = run_cli("run", "--builder", "example1", "--n", "3", "--stride", stride,
                           "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2 ** 26
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stride"), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("formats", ["xml", "CSV", "csv,xml", "csv,"])
    def test_unknown_format_is_one_error_line(self, tmp_path, capsys, formats):
        code = run_cli("run", "--builder", "example1", "--formats", formats,
                       "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown format {formats.split(',')[-1]!r} in --formats; "
            "the formats are csv and json"]
        assert list(tmp_path.iterdir()) == []

    def test_empty_formats_writes_the_report_only(self, tmp_path):
        assert run_cli("run", "--builder", "example1", "--formats", "", "--out",
                       str(tmp_path)) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("error", [NoSlidingSelection, RegularizationUnstable])
    def test_solver_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch, error):
        def fail(config):
            raise error("no selection")

        monkeypatch.setattr(cli, "simulate", fail)
        assert run_cli("run", "--builder", "example1", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error: no selection\n"

    @pytest.mark.parametrize("argv,message", [
        (["--n", "3.5"], "argument --n: invalid int value: '3.5'"),
        (["stray.json"], "unrecognized arguments: stray.json"),
    ], ids=["fractional-n", "stray-positional"])
    def test_usage_error_is_one_error_line_with_exit_1(self, tmp_path, capsys, argv, message):
        # Exit 2 means that the horizon came first.
        out = tmp_path / "out"
        assert run_cli("run", "--builder", "example1", *argv, "--out", str(out)) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("switching", ["3", "x,1", "3,y", "3,1,2", "0,1", "-2,1", "2.5,1",
                                           "3,0", "3,-1", "3,inf", "3,nan", ","],
                             ids=["no-dwell", "count-not-a-number", "dwell-not-a-number",
                                  "three-values", "zero-count", "negative-count",
                                  "fractional-count", "zero-dwell", "negative-dwell",
                                  "infinite-dwell", "nan-dwell", "empty-values"])
    def test_malformed_switching_is_one_error_line(self, tmp_path, capsys, switching):
        # "3" once printed "not enough values to unpack (expected 2, got 1)",
        # and "x,1" "invalid literal for int() with base 10: 'x'".
        out = tmp_path / "out"
        assert run_cli("run", "--builder", "random", "--n", "4", f"--switching={switching}",
                       "--out", str(out)) == 1
        assert capsys.readouterr() == ("", (
            "error: --switching must be 'count,dwell' with an integer count >= 1 and a finite "
            f"dwell > 0, got {switching!r}\n"))
        assert not out.exists()

    def test_switching_runs_a_periodic_schedule(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--builder", "random", "--n", "4", "--switching", "2,0.5",
                       "--out", str(out)) in (0, 2)
        report = json.loads((out / "report.json").read_text())
        assert capsys.readouterr().err == "" and report

    def test_overflowing_velocities_are_one_error_line(self, tmp_path, capsys):
        # Nothing but the one line: no numpy overflow warning, and no error
        # that blames the state for the NaN that the overflow would make.
        scenario = example1_line(3, 1.0).to_json()
        for edge in scenario["schedule"]["segments"][0]["edges"]:
            edge["w"] = 1e308
        scenario["schedule"]["a_low"] = scenario["schedule"]["a_high"] = 1e308
        path = tmp_path / "scenario.json"
        path.write_text(dumps(scenario))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr() == ("", (
            "error: segment 0, agent 0: its weights sum to 1e+308, and twice that times the "
            "largest level magnitude 2.0 of x0 overflows, so its velocity would not be finite\n"))
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_bad_max_events_env_is_one_error_line(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("QCL_MAX_EVENTS", value)
        code = run_cli("run", "--builder", "example1", "--n", "3", "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: QCL_MAX_EVENTS must be a positive integer, got {value!r}\n")
        assert not (tmp_path / "trajectory.csv").exists()


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

    @pytest.mark.parametrize("value", ["abc", "2.5", "0"])
    def test_bad_max_events_env_is_one_error_line(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("QCL_MAX_EVENTS", value)
        code = run_cli("sweep", "--builder", "example1", "--n-list", "3",
                       "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: QCL_MAX_EVENTS must be a positive integer, got {value!r}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_max_events_env_limits_each_cell(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QCL_MAX_EVENTS", "1")
        code = run_cli("sweep", "--builder", "example1", "--n-list", "6",
                       "--out", str(tmp_path))
        assert code == 2
        assert "event limit 1 exceeded" in (tmp_path / "sweep.csv").read_text()

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

    @pytest.mark.parametrize("suites", [["bounds"], ["envelope", "oracle"], []])
    def test_injected_corruption_rejected_for_other_suites(self, capsys, suites):
        # Only the envelope suite has a corruption to inject; all five run
        # when no suite is named.
        args = [arg for suite in suites for arg in ("--suite", suite)]
        assert run_cli("check", *args, "--inject-corruption") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_suite_filter(self, capsys):
        assert run_cli("check", "--suite", "bounds") == 0
        out = capsys.readouterr().out
        assert "suite bounds" in out and "suite envelope" not in out

    def test_unknown_suite(self, capsys):
        # One error line that names the suites, and no suite runs.
        for before in ([], ["--suite", "bounds"]):
            assert run_cli("check", *before, "--suite", "nope") == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: unknown suite 'nope'; the suites are envelope, bounds, "
                           "conservation, oracle, connectivity\n")

    def test_help_lists_the_suites(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("check", "--help")
        assert "envelope, bounds, conservation, oracle, connectivity" in \
            " ".join(capsys.readouterr().out.split())
