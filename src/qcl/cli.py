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

import numpy as np

from . import _json
from .analysis import (
    _bound_terms,
    convergence_report,
    envelopes,
    limit_value_check,
    log_tcon_bound,
    tcon_bound,
)
from .dynamics import (
    NoSlidingSelection,
    RegularizationUnstable,
    SimulationLimitError,
    Sliding,
    Trajectory,
    TrajectoryEvent,
    policy_from_json,
    simulate,
    simulate_regularized,
)
from .graphs import has_globally_reachable_node
from .quantizers import InputError, KernelError
from .scenarios import (
    ScenarioConfig,
    example1_line,
    example2_sliding,
    random_connected,
    scenario_from_json,
)


def _load_scenario(args) -> ScenarioConfig:
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
    if args.builder == "example1":
        return example1_line(
            args.n, args.delta, x0_spacing=args.x0_spacing, horizon=args.horizon
        )
    if args.builder == "example2":
        return example2_sliding(args.n, args.a, args.b, horizon=args.horizon)
    if args.builder == "random":
        return random_connected(
            args.n,
            seed=args.seed,
            edge_density=args.density,
            weight_range=(args.a, args.b),
            switching=_switching(args.switching) if args.switching else None,
            symmetric=args.symmetric,
            delta=args.delta,
            horizon=args.horizon if args.horizon else 1e9,
        )
    raise InputError("exactly one of --scenario or --builder is required")


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
        eps, h = 1e-3, 1e-5
        run = simulate_regularized(
            config, eps=eps, h=h, stride=0.01, t_end=max(traj.final_t * 1.1, 0.1)
        )
        deviation = max(
            float(np.max(np.abs(traj.state_at(float(t)) - s)))
            for t, s in zip(run.times, run.states)
        )
        report_obj["oracle_max_deviation"] = deviation
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
        if builder == "example1":
            config = example1_line(n, delta, x0_spacing=x0_spacing)
        elif builder == "example2":
            config = example2_sliding(n, a, b)
        else:
            config = random_connected(n, seed=seed, weight_range=(a, b), delta=delta)
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


def cmd_sweep(args) -> int:
    def parse_list(text: str, cast):
        return [cast(v) for v in text.split(",") if v != ""]

    ns = parse_list(args.n_list, int)
    deltas = parse_list(args.delta_list, float)
    a_vals = parse_list(args.a_list, float)
    b_vals = parse_list(args.b_list, float)
    seeds = parse_list(args.seed_list, int)
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

def _corrupt(traj: Trajectory) -> Trajectory:
    """Negative control: push one state below the initial level range."""
    ev = traj.events[-1]
    x = list(ev.x)
    x[0] = x[0] - 1000.0
    bad = TrajectoryEvent(
        t=ev.t + 1.0, kind="threshold-hit", x=tuple(x), z=ev.z,
        velocity=ev.velocity, alpha=ev.alpha, hits=(), departing=(),
    )
    return Trajectory(traj.quantizer, traj.events + [bad], traj.status)


def _suite_envelope(inject: bool = False) -> tuple[bool, str]:
    bad = 0
    runs = 0
    for seed in range(25):
        config = random_connected(3 + seed % 4, seed=seed, delta=1.0, horizon=1e9)
        traj = simulate(config)
        if inject and seed == 7:
            traj = _corrupt(traj)
        runs += 1
        if not envelopes(traj).ok:
            bad += 1
    return bad == 0, f"{runs} trajectories, {bad} envelope violations"


def _suite_bounds() -> tuple[bool, str]:
    bad = 0
    for seed in range(50):
        n = 2 + seed % 5
        config = random_connected(n, seed=seed, delta=1.0 if seed % 2 else 0.25)
        bound = tcon_bound(config.x0, config.quantizer, config.a_low, config.a_high)
        config = replace(config, horizon=max(10.0 * bound, 1.0))
        traj = simulate(config)
        report = convergence_report(traj, config)
        if not report.converged or report.t_con > report.bound:
            bad += 1
    return bad == 0, f"50 scenarios, {bad} bound violations"


def _suite_conservation() -> tuple[bool, str]:
    worst = 0.0
    bad = 0
    for seed in range(25):
        config = random_connected(2 + seed % 5, seed=3000 + seed, symmetric=True)
        traj = simulate(config)
        from .analysis import average_conservation

        worst = max(worst, average_conservation(traj))
        if limit_value_check(traj, config.schedule).status != "pass":
            bad += 1
    ok = worst <= 1e-9 and bad == 0
    return ok, f"max drift {worst:.2e}, {bad} limit-check failures"


def _suite_oracle() -> tuple[bool, str]:
    worst = 0.0
    for config in (
        example1_line(3, 1.0, policy=Sliding()),
        example2_sliding(3, 1.0, 1.0, policy=Sliding()),
    ):
        traj = simulate(config)
        run = simulate_regularized(
            config, eps=1e-3, h=1e-5, stride=0.01, t_end=traj.final_t * 1.2 + 0.2
        )
        for t, state in zip(run.times, run.states):
            worst = max(worst, float(np.max(np.abs(traj.state_at(float(t)) - state))))
    return worst <= 5e-3, f"max exact-vs-regularized deviation {worst:.2e}"


def _suite_connectivity() -> tuple[bool, str]:
    from itertools import product

    from .graphs import WeightedDigraph

    mismatches = 0
    checked = 0
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in product((0.0, 1.0), repeat=len(pairs)):
            w = np.zeros((n, n))
            for (i, j), b in zip(pairs, bits):
                w[i, j] = b
            g = WeightedDigraph(w)
            reach = _bfs_reachability(g)
            oracle = any(all(reach[u][v] for u in range(n)) for v in range(n))
            checked += 1
            if has_globally_reachable_node(g).found != oracle:
                mismatches += 1
    return mismatches == 0, f"{checked} digraphs, {mismatches} mismatches"


def _bfs_reachability(g) -> list[list[bool]]:
    """Transitive reachability by BFS; reach[u][v] means v reachable from u."""
    n = g.n
    reach = [[False] * n for _ in range(n)]
    for start in range(n):
        reach[start][start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.successors(u):
                if not reach[start][v]:
                    reach[start][v] = True
                    stack.append(v)
    return reach


SUITES = {
    "envelope": _suite_envelope,
    "bounds": _suite_bounds,
    "conservation": _suite_conservation,
    "oracle": _suite_oracle,
    "connectivity": _suite_connectivity,
}


def cmd_check(args) -> int:
    names = args.suite if args.suite else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; the suites are {', '.join(SUITES)}")
    plain = [name for name in names if name != "envelope"]
    if args.inject_corruption and plain:
        raise InputError("--inject-corruption corrupts only the envelope suite, "
                         f"not {', '.join(plain)}")
    all_ok = True
    for name in names:
        ok, detail = SUITES[name](inject=True) if args.inject_corruption else SUITES[name]()
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
    p.add_argument("--builder", choices=("example1", "example2", "random"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--switching", help="periodic schedule as 'count,dwell'")
    p.add_argument("--x0-spacing", type=float, default=None,
                   help="initial state spacing in state units (default: delta)")
    p.add_argument("--horizon", type=float, default=None)


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
