#!/usr/bin/env python3
"""Show that every output check in ``checks.py`` rejects a corrupted output.

    python3 benchmark/selfcheck.py

Each test takes a correct qcl output, confirms that the check accepts it,
corrupts it in one way (a state pushed out of the initial level range, a
velocity that differs from -L z, a wrong convergence time, or a changed
export), and confirms that the check now reports a problem.  Exits 1 if any
test fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import checks
import workloads
from run import ROOT, load_qcl

qcl = load_qcl()

LINE = workloads.line_case("line4", 4, 0.25, 0.3, 0.01, "sliding")
CHAIN = workloads.chain_case("chain4", 4, 1.0, 1.5, pinned=True)
CORPUS = next(c for c in workloads.corpus_cases(ROOT) if c.name == "chain_n4")
ORACLE_LINE = workloads.line_case("line3", 3, 1.0, 0.55, 0.0, "sliding", oracle_t_end=0.03)
ORACLE_CHAIN = workloads.chain_case("chain4", 4, 1.0, 1.5, pinned=False, oracle_t_end=0.03)


def run(case):
    config = qcl.scenario_from_json(json.loads(case.text()))
    traj = qcl.simulate(config)
    return traj, qcl.convergence_report(traj, config), config


def pushed(events, k=-1, agent=0, by=-1000.0):
    """A state pushed out of the initial level range at event ``k``."""
    events = list(events)
    ev = events[k]
    x = list(ev.x)
    x[agent] += by
    events[k] = dataclasses.replace(ev, x=tuple(x))
    return events


def wrong_velocity(events, k=0, agent=0, by=1e-3):
    events = list(events)
    ev = events[k]
    v = list(ev.velocity)
    v[agent] += by
    events[k] = dataclasses.replace(ev, velocity=tuple(v))
    return events


def late(events, by=1e6):
    """Every event after the start delayed: a wrong convergence time."""
    return events[:1] + [dataclasses.replace(ev, t=ev.t + by) for ev in events[1:]]


def expect(found: list[str], should_fail: bool, what: str) -> None:
    if bool(found) != should_fail:
        verdict = "missed the corruption" if should_fail else f"rejected a correct output: {found}"
        raise AssertionError(f"{what}: {verdict}")


def test_selections_reject_pushed_state():
    traj, _, _ = run(LINE)
    q = checks.Quantizer(LINE.scenario["quantizer"])
    expect(checks.check_selections(traj.events, q), False, "selections")
    expect(checks.check_selections(pushed(traj.events), q), True, "selections")


def test_velocities_reject_wrong_velocity():
    traj, _, _ = run(LINE)
    schedule = checks.Schedule(LINE.scenario["schedule"])
    expect(checks.check_velocities(traj.events, schedule), False, "velocities")
    expect(checks.check_velocities(wrong_velocity(traj.events), schedule), True, "velocities")


def test_envelopes_reject_pushed_state():
    traj, _, _ = run(LINE)
    q = checks.Quantizer(LINE.scenario["quantizer"])
    expect(checks.check_envelopes(traj.events, q), False, "envelopes")
    expect(checks.check_envelopes(pushed(traj.events, k=1), q), True, "envelopes")


def test_consensus_rejects_pushed_final_state():
    traj, _, _ = run(LINE)
    q = checks.Quantizer(LINE.scenario["quantizer"])
    expect(checks.check_consensus(traj.events, traj.status, q), False, "consensus")
    expect(checks.check_consensus(pushed(traj.events), traj.status, q), True, "consensus")


def test_balanced_rejects_pushed_state():
    traj, _, _ = run(LINE)
    q = checks.Quantizer(LINE.scenario["quantizer"])
    expect(checks.check_balanced(traj.events, q), False, "balanced")
    expect(checks.check_balanced(pushed(traj.events, by=-1e-6), q), True, "balanced drift")


def test_report_rejects_wrong_t_con():
    traj, report, _ = run(LINE)
    q = checks.Quantizer(LINE.scenario["quantizer"])
    schedule = checks.Schedule(LINE.scenario["schedule"])
    expect(checks.check_report(traj.events, traj.status, report, LINE, q, schedule),
           False, "report")
    wrong = dataclasses.replace(report, t_con=report.t_con + 0.5)
    expect(checks.check_report(traj.events, traj.status, wrong, LINE, q, schedule),
           True, "report t_con")


def test_bound_rejects_late_convergence():
    traj, _, _ = run(LINE)
    q = checks.Quantizer(LINE.scenario["quantizer"])
    schedule = checks.Schedule(LINE.scenario["schedule"])
    expect(checks.check_report(traj.events, traj.status, None, LINE, q, schedule),
           False, "bound")
    expect(checks.check_report(late(traj.events), traj.status, None, LINE, q, schedule),
           True, "bound")


def test_chain_rejects_wrong_t_con():
    traj, _, _ = run(CHAIN)
    q = checks.Quantizer(CHAIN.scenario["quantizer"])
    schedule = checks.Schedule(CHAIN.scenario["schedule"])
    expect(checks.check_report(traj.events, traj.status, None, CHAIN, q, schedule),
           False, "chain")
    expect(checks.check_report(late(traj.events, by=1e-3), traj.status, None, CHAIN, q,
                               schedule), True, "chain t_con")


def test_expected_block_rejects_wrong_t_con():
    traj, _, _ = run(CORPUS)
    q = checks.Quantizer(CORPUS.scenario["quantizer"])
    expected = CORPUS.scenario["expected"]
    expect(checks.check_expected(traj.events, expected, checks.convergence(traj.events, q)),
           False, "expected")
    events = late(traj.events, by=1e-3)
    expect(checks.check_expected(events, expected, checks.convergence(events, q)),
           True, "expected t_con")


def test_exports_reject_changed_event():
    traj, _, _ = run(LINE)
    csv = traj.to_csv()
    text = qcl._json.dumps(traj.to_json_obj())
    expect(checks.check_csv(traj.events, csv), False, "csv")
    expect(checks.check_json(traj.events, traj.status, text), False, "json")
    expect(checks.check_csv(pushed(traj.events, by=-1e-12), csv), True, "csv")
    expect(checks.check_json(pushed(traj.events, by=-1e-12), traj.status, text), True, "json")


def test_oracle_rejects_pushed_state_and_slow_crawl():
    for case in (ORACLE_LINE, ORACLE_CHAIN):
        traj, _, config = run(case)
        oracle = qcl.simulate_regularized(config, eps=workloads.ORACLE_EPS,
                                          h=workloads.ORACLE_H,
                                          stride=workloads.ORACLE_STRIDE,
                                          t_end=case.oracle_t_end)
        times, states = oracle.times, oracle.states
        expect(checks.check_oracle(traj.events, traj.status, times, states, case),
               False, f"oracle {case.name}")
        expect(checks.check_oracle(pushed(traj.events, k=0, by=0.01), traj.status,
                                   times, states, case), True, f"oracle {case.name}")
    slow = states.copy()
    slow[:, 0] *= 0.9
    expect(checks.check_oracle(traj.events, traj.status, times, slow, ORACLE_CHAIN),
           True, "oracle crawl")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as err:
            failed += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
