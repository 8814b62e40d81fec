"""Command-line front end: run scenarios, evaluate bounds, sweep, check.

Subcommands
-----------
run    simulate one scenario, write trajectory.csv/.json and report.json;
       exit 0 when converged, 2 on horizon without convergence, 1 on error.
bound  evaluate the worst-case convergence-time bound (time-invariant only).
sweep  run a parameter grid in order and write one summary CSV row per
       cell; exit 2 if any cell failed.
check  run the invariant suites (envelope, bounds, conservation, oracle,
       connectivity) and print one verdict line per suite.

The environment variable ``QCL_MAX_EVENTS``, a positive integer, overrides
the event safety limit of every run started by this CLI.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import _json, suites
from .analysis import _bound_terms, convergence_report, log_tcon_bound, tcon_bound
from .dynamics import (
    NoSlidingSelection,
    RegularizationUnstable,
    SimulationLimitError,
    policy_from_json,
    simulate,
)
from .quantizers import InputError, KernelError, json_agent
from .scenarios import (
    ScenarioConfig,
    example1_line,
    example2_sliding,
    random_connected,
    scenario_from_json,
)


#: The builder flags with their defaults, and those that each builder reads.
_BUILDER_FLAGS = {"n": 3, "delta": 1.0, "a": 1.0, "b": 1.0, "seed": 0, "density": 0.3,
                  "symmetric": False, "switching": None, "x0_spacing": None, "horizon": None}
_BUILDER_READS = {"example1": "n delta x0_spacing horizon", "example2": "n a b horizon",
                  "random": "n seed density a b switching symmetric delta horizon"}


def _load_scenario(args) -> ScenarioConfig:
    if not (args.scenario or args.builder):
        raise InputError("exactly one of --scenario or --builder is required")
    reads = [] if args.scenario else _BUILDER_READS[args.builder].split()
    unread = ["--builder"] * bool(args.scenario and args.builder) + [
        "--" + name.replace("_", "-") for name in _BUILDER_FLAGS
        if hasattr(args, name) and name not in reads]  # only given flags are in args
    if unread:
        source = "--scenario" if args.scenario else f"--builder {args.builder}"
        raise InputError(f"{source} does not read {', '.join(unread)}")
    if args.scenario:
        text = Path(args.scenario).read_text()
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise InputError(
                f"scenario JSON parse error at line {err.lineno} column {err.colno}: "
                f"{err.msg}"
            ) from err
        return scenario_from_json(obj)
    return _built_scenario(args.builder, vars(args))


def _built_scenario(builder: str, flags: dict) -> ScenarioConfig:
    """The scenario of ``builder`` with the builder flags in ``flags``, each
    one that is missing at its default in ``_BUILDER_FLAGS``."""
    args = argparse.Namespace(**{**_BUILDER_FLAGS, **flags})
    if builder == "example1":
        return example1_line(args.n, args.delta, x0_spacing=args.x0_spacing, horizon=args.horizon)
    if builder == "example2":
        return example2_sliding(args.n, args.a, args.b, horizon=args.horizon)
    return random_connected(args.n, seed=args.seed, edge_density=args.density,
                            weight_range=(args.a, args.b), symmetric=args.symmetric,
                            switching=_switching(args.switching) if args.switching else None,
                            delta=args.delta, horizon=1e9 if args.horizon is None else args.horizon)


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "policy", None):
        config = replace(config, policy=policy_from_json({"type": args.policy}))
    limit = _max_events_override()
    if limit:
        config = replace(config, max_events=limit)
    return config


def _switching(text: str) -> tuple[int, float]:
    """``--switching count,dwell``: an integer count of at least 1 and a
    finite dwell above 0."""
    parts = text.split(",")
    try:
        count, dwell = (int(parts[0]), float(parts[1])) if len(parts) == 2 else (0, 0.0)
    except ValueError:
        count, dwell = 0, 0.0
    if not (count >= 1 and math.isfinite(dwell) and dwell > 0.0):
        raise InputError(f"--switching must be 'count,dwell' with an integer count >= 1 and a "
                         f"finite dwell > 0, got {text!r}")
    return count, dwell


def _max_events_override() -> int | None:
    """``QCL_MAX_EVENTS`` as an event limit; None when it is unset or empty."""
    text = os.environ.get("QCL_MAX_EVENTS")
    if not text:
        return None
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit < 1:
        raise InputError(f"QCL_MAX_EVENTS must be a positive integer, got {text!r}")
    return limit


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_run(args) -> int:
    formats = args.formats.split(",") if args.formats else []
    unknown = [name for name in formats if name not in ("csv", "json")]
    if unknown:
        raise InputError(f"unknown format {unknown[0]!r} in --formats; "
                         "the formats are csv and json")
    config = _apply_overrides(_load_scenario(args), args)
    traj = simulate(config)
    report = convergence_report(traj, config)
    out = Path(args.out)
    stride = args.stride
    if "csv" in formats:
        _write(out / "trajectory.csv", traj.to_csv(stride=stride))
    if "json" in formats:
        _write(out / "trajectory.json", _json.dumps(traj.to_json_obj(stride=stride)) + "\n")
    report_obj = report.to_json_obj()
    if args.oracle:
        report_obj["oracle_max_deviation"] = suites.oracle_deviation(
            traj, config, max(traj.final_t * 1.1, 0.1))
    _write(out / "report.json", _json.dumps(report_obj) + "\n")
    if report.converged:
        print(
            f"converged at t={report.t_con!r} on level {report.s_star!r} "
            f"({len(traj.events)} events)"
        )
        return 0
    print(f"horizon {config.horizon} reached without certified convergence")
    return 2


def cmd_bound(args) -> int:
    config = _load_scenario(args)
    if not config.schedule.is_time_invariant:
        print("error: bound requires time-invariant topology", file=sys.stderr)
        return 1
    value = tcon_bound(config.x0, config.quantizer, config.a_low, config.a_high)
    quantizer = config.quantizer
    _, spread = _bound_terms(config.x0, quantizer, config.a_low, config.a_high)
    obj = {"bound": value, "spread": spread}
    if value is None:
        # Beyond the float range: give its natural log instead.
        obj["log_bound"] = log_tcon_bound(config.x0, quantizer, config.a_low, config.a_high)
    print(" ".join(f"{key}={v!r}" for key, v in obj.items()))
    if args.out:
        _write(Path(args.out) / "bound.json", _json.dumps(obj) + "\n")
    return 0


def _sweep_cell(builder: str, n: int, delta: float, a: float, b: float,
                seed: int, x0_spacing: float | None, max_events: int | None) -> dict:
    row = {
        "n": n, "delta": delta, "a": a, "b": b, "seed": seed,
        "policy": "", "t_con": "", "bound": "", "bound_ok": "",
        "avg_drift": "", "status": "",
    }
    try:
        config = _built_scenario(builder, {"n": n, "delta": delta, "a": a, "b": b, "seed": seed,
                                           "x0_spacing": x0_spacing})
        if max_events:
            config = replace(config, max_events=max_events)
        row["policy"] = config.policy.to_json()["type"]
        traj = simulate(config)
        report = convergence_report(traj, config)
        row["status"] = traj.status
        if report.t_con is not None:
            row["t_con"] = repr(report.t_con)
        if report.bound is not None:
            row["bound"] = repr(report.bound)
            row["bound_ok"] = (
                str(report.t_con <= report.bound).lower()
                if report.t_con is not None
                else "false"
            )
        row["avg_drift"] = repr(report.average_drift)
    except Exception as err:  # noqa: BLE001 - cell errors recorded in-row
        row["status"] = f"error: {err}"
    return row


def _parse_list(flag: str, text: str, integers: bool) -> list:
    """The values of a sweep's comma-separated list flag, integers by the
    rule of ``json_agent``; any other text is an InputError naming it."""
    try:
        return [json_agent(v) if integers else float(v) for v in text.split(",")]
    except ValueError:
        kind = "integers" if integers else "numbers"
        raise InputError(f"{flag} must be a comma-separated list of {kind}, "
                         f"got {text!r}") from None


def cmd_sweep(args) -> int:
    ns = _parse_list("--n-list", args.n_list, True)
    deltas = _parse_list("--delta-list", args.delta_list, False)
    a_vals = _parse_list("--a-list", args.a_list, False)
    b_vals = _parse_list("--b-list", args.b_list, False)
    seeds = _parse_list("--seed-list", args.seed_list, True)
    max_events = _max_events_override()
    grid = [
        (n, delta, a, b, seed)
        for n in ns for delta in deltas for a in a_vals for b in b_vals
        for seed in seeds
    ]
    rows = [
        _sweep_cell(args.builder, n, delta, a, b, seed, args.x0_spacing, max_events)
        for n, delta, a, b, seed in grid
    ]

    header = "n,delta,a,b,seed,policy,t_con,bound,bound_ok,avg_drift,status"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['n']},{row['delta']!r},{row['a']!r},{row['b']!r},{row['seed']},"
            f"{row['policy']},{row['t_con']},{row['bound']},{row['bound_ok']},"
            f"{row['avg_drift']},{row['status']}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(Path(args.out) / "sweep.csv", text)
    print(text, end="")
    failed = any(row["status"].startswith("error") for row in rows)
    return 2 if failed else 0


# -- invariant suites ---------------------------------------------------------

#: Each suite, its corpus and the corpus size that ``check`` runs: a prefix
#: of the corpus that the suite's acceptance criterion runs.
SUITES = {
    "envelope": (suites.envelope, suites.envelope_corpus, 25),
    "bounds": (suites.bounds, suites.bounds_corpus, 50),
    "conservation": (suites.conservation, suites.conservation_corpus, 25),
    "oracle": (suites.oracle, suites.oracle_corpus, 2),
    "connectivity": (suites.connectivity, suites.connectivity_corpus, 69),
}


def cmd_check(args) -> int:
    names = args.suite if args.suite else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; the suites are {', '.join(SUITES)}")
    all_ok = True
    for name in names:
        suite, corpus, size = SUITES[name]
        ok, detail = suite(corpus(size), corrupt=args.inject_corruption)
        all_ok &= ok
        print(f"suite {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if all_ok else 1


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are InputErrors, which ``main`` reports
    as one ``error:`` line with exit 1 (exit 2 means the horizon came
    first); its subcommand parsers are of this class too."""

    def error(self, message: str):
        raise InputError(message)


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--builder", choices=tuple(_BUILDER_READS))
    # Left out of the namespace unless given; _BUILDER_FLAGS has the defaults.
    g = p.add_argument_group("builder flags", argument_default=argparse.SUPPRESS)
    g.add_argument("--n", type=int)
    g.add_argument("--delta", type=float)
    g.add_argument("--a", type=float)
    g.add_argument("--b", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--density", type=float)
    g.add_argument("--symmetric", action="store_true")
    g.add_argument("--switching", help="periodic schedule as 'count,dwell'")
    g.add_argument("--x0-spacing", type=float,
                   help="initial state spacing in state units (default: delta)")
    g.add_argument("--horizon", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcl",
        description="Exact quantized-consensus simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario")
    _add_scenario_args(run)
    run.add_argument("--policy", choices=("sliding", "sequential-slow"))
    run.add_argument("--out", default="qcl-out")
    run.add_argument("--formats", default="csv,json",
                     help="comma-separated trajectory formats, csv and json; "
                          "'' writes report.json only")
    run.add_argument("--stride", type=float, default=None)
    run.add_argument("--oracle", action="store_true",
                     help="also run the regularized oracle and report deviation")
    run.set_defaults(fn=cmd_run)

    bound = sub.add_parser("bound", help="evaluate the convergence-time bound")
    _add_scenario_args(bound)
    bound.add_argument("--out", default=None)
    bound.set_defaults(fn=cmd_bound)

    sweep = sub.add_parser("sweep", help="run a parameter grid")
    sweep.add_argument("--builder", choices=("example1", "example2", "random"),
                       required=True)
    sweep.add_argument("--n-list", default="3")
    sweep.add_argument("--delta-list", default="1.0")
    sweep.add_argument("--a-list", default="1.0")
    sweep.add_argument("--b-list", default="1.0")
    sweep.add_argument("--seed-list", default="0")
    sweep.add_argument("--x0-spacing", type=float, default=None)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(fn=cmd_sweep)

    check = sub.add_parser("check", help="run the invariant suites")
    check.add_argument("--suite", action="append",
                       help=f"run only the named suite (repeatable): {', '.join(SUITES)}")
    check.add_argument("--inject-corruption", action="store_true",
                       help=argparse.SUPPRESS)
    check.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    # InputError and ContractViolation are ValueErrors; the rest are qcl's
    # RuntimeErrors.
    except (OSError, ValueError, SimulationLimitError, NoSlidingSelection,
            RegularizationUnstable, KernelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
