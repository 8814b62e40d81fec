#!/usr/bin/env python3
"""Run one benchmark workload through qcl's public API and print its metrics.

    python3 benchmark/run.py --workload staircase --seed 1 --seconds 30 --trace 0

qcl is imported from the ``src/`` directory next to this one.  The
workload's scenarios are generated from ``--seed`` (see ``workloads.py``)
and parsed by qcl from scenario JSON.  For ``--seconds`` seconds the
benchmark sets up and runs one whole round of the workload's operations,
again and again.  One operation is one call to ``simulate``,
``convergence_report``, a CSV or JSON export, or ``simulate_regularized``.  The first round's outputs are checked
against independent computations (``checks.py``); a later round whose
outputs differ from the first one's is checked on its own.  Times are
scaled to a reference machine speed (``speed.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one more round runs with spans
recorded around every layer (``tracing.py``) and the object holds the
per-layer metrics instead.  The spans go to ``benchmark/results/``.  The
exit code is 1 when a check fails and 2 when qcl cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from speed import SpeedSampler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Oracle time run during set-up to warm up the RK4 kernel.
WARMUP_T_END = 0.001
#: String hashing is salted per process by default, which moves the times of
#: one seed by up to 6% from run to run (0.6% with a fixed salt), so the
#: benchmark always runs under this one.
HASH_SEED = "0"


def load_qcl():
    """Import a fresh copy of qcl from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "qcl" / "__init__.py").is_file():
        raise ImportError(f"qcl sources not found under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "qcl" or m.startswith("qcl.")]:
        del sys.modules[name]
    qcl = importlib.import_module("qcl")
    importlib.import_module("qcl._json")
    if Path(qcl.__file__).resolve().parent != (src / "qcl").resolve():
        raise ImportError(f"qcl was imported from {qcl.__file__}, not from {src}")
    return qcl


@dataclass
class Outcome:
    """Outputs of one case in one round; ``errors`` names the failed calls."""

    traj: object = None
    report: object = None
    csv: str | None = None
    json: str | None = None
    oracle: object = None
    errors: list[str] = field(default_factory=list)

    def signature(self) -> tuple:
        report = None if self.report is None else self.report.to_json_obj()
        oracle = None if self.oracle is None else (
            self.oracle.times.tobytes(), self.oracle.states.tobytes())
        return (self.csv, self.json, repr(report), oracle, tuple(self.errors))


Interval = tuple[int, int]


@dataclass
class RoundStats:
    """Counts of one round, and the intervals (``now_ns``) of its timed
    operations: every one that counts towards ``wall_s``, the ``simulate``
    calls among them, and the ``simulate_regularized`` calls."""

    wall: list[Interval] = field(default_factory=list)
    simulate: list[Interval] = field(default_factory=list)
    oracle: list[Interval] = field(default_factory=list)
    events: int = 0
    oracle_steps: int = 0
    attempted: int = 0
    failed: int = 0
    #: ``now_ns`` at the start and end of the round.
    span: Interval = (0, 0)


class Workload:
    """The parsed cases of one workload and the code that runs a round."""

    def __init__(self, qcl, cases, configs, probe, probe_config, sampler: SpeedSampler):
        self.qcl = qcl
        self.cases = cases
        self.configs = configs
        self.probe = probe
        self.probe_config = probe_config
        self.sampler = sampler
        self.steps = [
            None if c.oracle_t_end is None else checks.rk4_steps(
                checks.Schedule(c.scenario["schedule"]), c.oracle_t_end,
                workloads.ORACLE_H, workloads.ORACLE_STRIDE)
            for c in self.all_cases
        ]
        self.tracer: Tracer | None = None

    @property
    def all_cases(self) -> list:
        return self.cases + ([self.probe] if self.probe else [])

    def _op(self, stats: RoundStats, out: Outcome, label: str, fn):
        """Run one operation and return its result and interval; a raised
        exception counts it as failed."""
        stats.attempted += 1
        t0 = self.sampler.now_ns()
        try:
            result = fn()
        except Exception as err:  # the round goes on; the failure is counted
            result = None
            stats.failed += 1
            out.errors.append(f"{label}: {type(err).__name__}: {err}")
        return result, (t0, self.sampler.now_ns())

    def _run_case(self, stats: RoundStats, case, config, steps, timed: bool) -> Outcome:
        """``simulate``, then (when ``timed``) the report and both exports as
        ``qcl run`` does, then the oracle if the case has one.  Only timed
        cases count towards ``wall_s`` and ``events_per_s``."""
        dyn, analysis, js = self.qcl.dynamics, self.qcl.analysis, self.qcl._json
        out = Outcome()
        if self.tracer is not None:
            q = checks.Quantizer(case.scenario["quantizer"])
            self.tracer.surface_of = lambda x: sum(map(q.on_threshold, x.tolist()))
        traj, interval = self._op(stats, out, "simulate", lambda: dyn.simulate(config))
        out.traj = traj
        follow_ups = []
        if timed:
            stats.wall.append(interval)
            stats.simulate.append(interval)
            stats.events += 0 if traj is None else len(traj.events)
            follow_ups += [
                ("report", "convergence_report",
                 lambda: analysis.convergence_report(traj, config)),
                ("csv", "to_csv", lambda: traj.to_csv()),
                ("json", "to_json", lambda: js.dumps(traj.to_json_obj())),
            ]
        if case.oracle_t_end is not None:
            follow_ups.append(("oracle", "simulate_regularized", lambda: dyn.simulate_regularized(
                config, eps=workloads.ORACLE_EPS, h=workloads.ORACLE_H,
                stride=workloads.ORACLE_STRIDE, t_end=case.oracle_t_end)))
        for attr, label, call in follow_ups:
            if traj is None:
                # Calls that need the trajectory fail with it.
                stats.attempted += 1
                stats.failed += 1
                out.errors.append(f"{label}: no trajectory")
                continue
            result, interval = self._op(stats, out, label, call)
            setattr(out, attr, result)
            if timed:
                stats.wall.append(interval)
            if attr == "oracle":
                stats.oracle.append(interval)
                stats.oracle_steps += 0 if result is None else steps
        return out

    def run_round(self) -> tuple[RoundStats, list[Outcome]]:
        """All cases of the workload, then the oracle probe if there is one.

        The probe's calls count as attempted but add nothing to ``wall_s`` or
        ``events_per_s``.
        """
        # Every round starts with the collector in the same state, so that no
        # round pays for collecting the garbage of the one before.
        gc.collect()
        stats = RoundStats()
        t0 = self.sampler.now_ns()
        outcomes = [
            self._run_case(stats, case, config, steps, case is not self.probe)
            for case, config, steps in zip(self.all_cases,
                                           self.configs + [self.probe_config], self.steps)
        ]
        stats.span = (t0, self.sampler.now_ns())
        return stats, outcomes


def set_up(name: str, seed: int, sampler: SpeedSampler) -> tuple[Workload, list[str]]:
    """Import qcl, generate and parse the workload's scenarios, warm up."""
    qcl = load_qcl()
    cases = workloads.WORKLOADS[name](seed, ROOT)
    texts = [c.text() for c in cases] + [workloads.PROBE.text()]
    configs = [qcl.scenario_from_json(json.loads(t)) for t in texts]
    probe_config = configs.pop()
    traj = qcl.simulate(probe_config)
    qcl.convergence_report(traj, probe_config)
    traj.to_csv()
    qcl._json.dumps(traj.to_json_obj())
    qcl.simulate_regularized(probe_config, eps=workloads.ORACLE_EPS, h=workloads.ORACLE_H,
                             stride=workloads.ORACLE_STRIDE, t_end=WARMUP_T_END)
    # Workloads without an oracle of their own time it on the probe.
    has_oracle = any(c.oracle_t_end is not None for c in cases)
    probe = None if has_oracle else workloads.PROBE
    return Workload(qcl, cases, configs, probe, probe_config, sampler), texts


def check_round(workload: Workload, outcomes: list[Outcome]) -> tuple[list[str], list[str]]:
    """Check one round's outputs; returns (problems, known faults seen)."""
    problems = []
    faults = []
    for case, out in zip(workload.all_cases, outcomes):
        if out.traj is None:
            continue
        events, status = out.traj.events, out.traj.status
        found = checks.check_trajectory(case, events, status)
        if case is not workload.probe:
            q = checks.Quantizer(case.scenario["quantizer"])
            schedule = checks.Schedule(case.scenario["schedule"])
            # A failed report is None; the bound is then checked on its own.
            found += checks.check_report(events, status, out.report, case, q, schedule)
            if out.csv is not None:
                found += checks.check_csv(events, out.csv)
            if out.json is not None:
                found += checks.check_json(events, status, out.json)
        if out.oracle is not None:
            found += checks.check_oracle(events, status, out.oracle.times,
                                         out.oracle.states, case)
        known = [p for p in found if p.startswith(case.known_fault)]
        if known:
            faults.append(f"{case.name}: simulate: {'; '.join(known)}")
        problems += [f"{case.name}: {p}" for p in found if p not in known]
    return problems, faults


def same_outputs(outcomes: list[Outcome], first: list[Outcome]) -> bool:
    return [o.signature() for o in outcomes] == [o.signature() for o in first]


def seconds(sampler: SpeedSampler, intervals: list[Interval]) -> float:
    """Total length of ``intervals`` in seconds at the reference speed, each
    scaled by the speed samples around it."""
    return sum((t1 - t0) * 1e-9 * sampler.scale(t0, t1) for t0, t1 in intervals)


def end_to_end(sampler: SpeedSampler, setups: list[Interval], rounds: list[RoundStats]) -> dict:
    """Medians over set-ups and rounds of times at the reference speed."""
    med = statistics.median
    metrics = {
        "setup_s": (med(seconds(sampler, [s]) for s in setups), "s"),
        "wall_s": (med(seconds(sampler, r.wall) for r in rounds), "s"),
        "events_per_s": (med(r.events / seconds(sampler, r.simulate) for r in rounds),
                         "events/s"),
        "oracle_us_per_step": (med(seconds(sampler, r.oracle) * 1e6 / r.oracle_steps
                                   for r in rounds), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def traced_round(workload: Workload, texts: list[str]):
    """Trace one parse of the scenarios and one round."""
    qcl = workload.qcl
    parse = Tracer(workload.sampler.now_ns)
    parse.install(qcl)
    try:
        for t in texts:
            qcl.scenario_from_json(json.loads(t))
    finally:
        parse.remove()
    tracer = Tracer(workload.sampler.now_ns)
    workload.tracer = tracer
    tracer.install(qcl)
    try:
        stats, outcomes = workload.run_round()
    finally:
        tracer.remove()
        workload.tracer = None
    return parse, tracer, stats, outcomes


def per_layer(workload: Workload, parse: Tracer, tracer: Tracer, stats: RoundStats,
              outcomes: list[Outcome], wall_s: float, name: str) -> dict:
    """Per-layer metrics of the traced round, with times at the reference speed.

    Span times are scaled by the speed over the whole round.  ``wall_s`` is
    the untraced end-to-end figure, so ``trace.overhead_pct`` is the cost of
    tracing.  The layer shares of the round and every span are written to
    ``benchmark/results/``.
    """
    sampler = workload.sampler
    scale = sampler.scale(*stats.span)
    layers = tracer.per_layer()
    layers["scenarios"] = parse.per_layer()["scenarios"]
    for layer in layers.values():
        layer["total_s"] *= scale
        layer["self_s"] *= scale
    events = [ev for out in outcomes if out.traj is not None for ev in out.traj.events]
    cutoff = workload.qcl.dynamics.DEFAULT_DENSE_CUTOFF
    surfaces = tracer.surfaces
    steps = sum(s for c, s, out in zip(workload.all_cases, workload.steps, outcomes)
                if out.oracle is not None)
    exported = [out for out in outcomes if out.csv is not None and out.json is not None]
    trace_wall = seconds(sampler, stats.wall)
    values = {
        "scenarios.parse_s": (layers["scenarios"]["total_s"], "s"),
        "scenarios.calls": (layers["scenarios"]["calls"], "count"),
        "quantizers.calls": (layers["quantizers"]["calls"], "count"),
        "quantizers.self_s": (layers["quantizers"]["self_s"], "s"),
        "quantizers.calls_per_event": (layers["quantizers"]["calls"] / len(events),
                                       "calls/event"),
        "graphs.calls": (layers["graphs"]["calls"], "count"),
        "graphs.self_s": (layers["graphs"]["self_s"], "s"),
        "resolve.calls": (layers["resolve"]["calls"], "count"),
        "resolve.self_s": (layers["resolve"]["self_s"], "s"),
        "resolve.calls_per_event": (layers["resolve"]["calls"] / len(events), "calls/event"),
        "resolve.surface_agents": (sum(surfaces), "agents"),
        "resolve.max_surface": (max(surfaces, default=0), "agents"),
        "resolve.calls_over_cutoff": (sum(1 for s in surfaces if s > cutoff), "count"),
        "simulate.events": (len(events), "count"),
        "simulate.threshold_hits": (sum(ev.kind == "threshold-hit" for ev in events), "count"),
        "simulate.topology_switches": (sum(ev.kind == "topology-switch" for ev in events),
                                       "count"),
        "simulate.self_s": (layers["simulate"]["self_s"], "s"),
        "oracle.calls": (layers["oracle"]["calls"], "count"),
        "oracle.steps": (steps, "count"),
        "oracle.self_s": (layers["oracle"]["self_s"], "s"),
        "analysis.calls": (layers["analysis"]["calls"], "count"),
        "analysis.self_s": (layers["analysis"]["self_s"], "s"),
        "export.rows": (sum(out.csv.count("\n") - 1 + len(out.traj.events) for out in exported),
                        "count"),
        "export.bytes": (sum(len(out.csv) + len(out.json) for out in exported), "bytes"),
        "export.self_s": (layers["export"]["self_s"], "s"),
        "trace.wall_s": (trace_wall, "s"),
        "trace.overhead_pct": (100.0 * (trace_wall / wall_s - 1.0), "%"),
    }
    round_s = sum(v["self_s"] for k, v in layers.items() if k != "scenarios")
    summary = {
        "workload": name,
        "wall_s": wall_s,
        "trace_wall_s": trace_wall,
        "layers": layers,
        "round_self_share": {k: v["self_s"] / round_s for k, v in layers.items()
                             if k != "scenarios"},
    }
    parse.write(RESULTS / f"trace-{name}-parse.csv")
    tracer.write(RESULTS / f"trace-{name}.csv")
    (RESULTS / f"trace-{name}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def measure(args, sampler: SpeedSampler) -> tuple[dict, int, int, list[str]]:
    """Set up and run a round, again and again for ``args.seconds``, then,
    with ``--trace 1``, one traced round.  Returns the metrics, attempted and
    failed operations and the problems the checks found.

    Each round runs on a set-up of its own, so that the set-ups see the same
    mix of host speeds as the rounds: the speed samples correct import-heavy
    code only in part, and set-ups made together at the start of a run all
    took that moment's speed (see README).
    """
    setups: list[Interval] = []
    rounds: list[RoundStats] = []
    problems: list[str] = []
    first: list[Outcome] = []
    first_faults = 0

    def settle(stats: RoundStats, outcomes: list[Outcome], label: str) -> None:
        """Check a round unless it reproduces the first one, and count the
        operations that known faults fail in it."""
        nonlocal first, first_faults
        if first and same_outputs(outcomes, first):
            stats.failed += first_faults
            return
        found, faults = check_round(workload, outcomes)
        problems.extend(found)
        stats.failed += len(faults)
        if first:
            # qcl's output can depend on the heap layout (see README).
            print(f"note: {label} differs from the first round; checked on its own",
                  file=sys.stderr)
            return
        first, first_faults = outcomes, len(faults)
        for err in faults + [e for out in outcomes for e in out.errors]:
            print(f"failed: {err}", file=sys.stderr)

    start = sampler.now_ns()
    while not rounds or sampler.now_ns() - start < args.seconds * 1e9:
        gc.collect()
        t0 = sampler.now_ns()
        workload, texts = set_up(args.workload, args.seed, sampler)
        setups.append((t0, sampler.now_ns()))
        stats, outcomes = workload.run_round()
        settle(stats, outcomes, f"round {len(rounds)}")
        rounds.append(stats)
    if args.trace:
        parse, tracer, traced, outcomes = traced_round(workload, texts)
        settle(traced, outcomes, "the traced round")
    sampler.stop()

    metrics = end_to_end(sampler, setups, rounds)
    if args.trace:
        metrics = per_layer(workload, parse, tracer, traced, outcomes,
                            metrics["wall_s"]["value"], args.workload)
        rounds.append(traced)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds", file=sys.stderr)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        metrics, attempted, failed, problems = measure(args, sampler)
    except (ImportError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        sampler.stop()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replaces this process, so no second process is started.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
