"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.  The criteria pin exact event arithmetic on the reference
traces, the geometric slowdown of the stubborn-leader chain, worst-case
bound satisfaction over a seeded corpus, conservation laws, envelope
monotonicity, precision scaling, connectivity-predicate agreement with a
brute-force oracle, and agreement with the regularized integrator.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from qcl import (
    ScenarioConfig,
    SequentialSlow,
    Sliding,
    UniformQuantizer,
    WeightedDigraph,
    average_conservation,
    consensus_level,
    convergence_report,
    convergence_time,
    envelopes,
    example1_line,
    example2_sliding,
    has_globally_reachable_node,
    limit_value_check,
    random_connected,
    simulate,
    simulate_regularized,
    tcon_bound,
)
from qcl.scenarios import SplitMix64

from conftest import ORACLE_REFERENCES, oracle_globally_reachable, reference_oracle_run

# Trajectories produced by criteria 1-4 feed the envelope criterion.
_CORPUS: list = []


def _verdict(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_reference_trace_exact():
    config = example1_line(3, 1.0, policy=Sliding())
    traj = simulate(config)
    _CORPUS.append((traj, config))

    events = traj.events
    ok = (
        [ev.kind for ev in events] == ["start", "equilibrium"]
        and events[1].t == 0.5                      # exact event time
        and events[1].hits == (0, 2)                # agents 1 and 3, 1-based
        and events[1].x == (0.5, 1.0, 1.5)          # state tolerance 0
        and not any(events[1].velocity)             # immediate full hold
    )
    result = convergence_time(traj)
    report = convergence_report(traj, config)
    mean0 = sum(config.x0) / 3.0
    ok = ok and result == (0.5, 1.0)
    ok = ok and report.q_infinity == 1.0 == config.quantizer.quantize(mean0)

    run = simulate_regularized(config, eps=1e-3, h=1e-5, stride=0.01, t_end=0.8)
    deviation = max(
        float(np.max(np.abs(traj.state_at(float(t)) - s)))
        for t, s in zip(run.times, run.states)
    )
    ok = ok and deviation <= 5e-3
    _verdict(
        1,
        ok,
        f"line n=3: hits at t=0.5 exact, final x=(0.5,1,1.5), t_con=0.5, "
        f"s*=1, q_inf=q(mean)=1, oracle deviation {deviation:.1e}",
    )


def test_criterion_2_chain_doubling_and_coefficients():
    times = {}
    ok = True
    for n in range(3, 11):
        pinned = example2_sliding(n, 1.0, 1.0)
        sliding = replace(pinned, policy=Sliding())
        traj_p = simulate(pinned)
        traj_s = simulate(sliding)
        _CORPUS.append((traj_p, pinned))

        # The two policies must produce identical trajectories.
        ok = ok and [ev.t for ev in traj_p.events] == [ev.t for ev in traj_s.events]
        ok = ok and traj_p.final_x.tolist() == traj_s.final_x.tolist()

        # Exact geometric coefficients on the initial sliding segment.
        start = traj_p.events[0]
        for i in range(1, n - 1):
            ok = ok and start.alpha[i] == 0.5 ** (n - 1 - i)

        t_con = convergence_time(traj_p)[0]
        times[n] = t_con
        ok = ok and t_con == 2.0 ** (n - 2) / 2.0     # derived closed form
        ok = ok and t_con >= 2.0 ** (n - 2) / 2.0     # stated inequality

    ratios = [times[n + 1] / times[n] for n in range(3, 10)]
    ok = ok and all(abs(r - 2.0) <= 0.02 for r in ratios)

    # Exponential lower bound with the constant the coefficient recursion
    # implies (1/(8a)); the nominal 1/(4a) presumes the off-by-one exponent
    # and overshoots the measured time by exactly a factor of two.
    ok = ok and all(times[n] >= 2.0 ** n / 8.0 for n in times)
    nominal_holds = all(times[n] >= 2.0 ** n / 4.0 for n in times)
    print(
        "[criterion 2] note: exponent discrepancy logged - measured t_con "
        f"= 2^(n-2)/2 matches the coefficient recursion (exponent n-2); "
        f"the nominal factor-1/(4a) bound {'holds' if nominal_holds else 'fails by exactly 2x'}"
    )
    _verdict(
        2,
        ok,
        f"chain n=3..10: policies agree, alphas exact powers of 1/2, "
        f"t_con doubles per agent (ratios {min(ratios):.3f}..{max(ratios):.3f}), "
        f"t_con = 2^(n-2)/2 exactly",
    )


def test_criterion_3_bound_on_seeded_corpus():
    violations = 0
    unconverged = 0
    for seed in range(200):
        n = 2 + seed % 5
        delta = 0.25 if seed % 2 else 1.0
        base = random_connected(
            n, seed=seed, weight_range=(0.5, 2.0), delta=delta, x0_cells=4.0
        )
        bound = tcon_bound(base.x0, base.quantizer, 0.5, 2.0)
        config = ScenarioConfig(
            schedule=base.schedule, quantizer=base.quantizer, x0=base.x0,
            policy=Sliding(), horizon=max(10.0 * bound, 1.0),
        )
        traj = simulate(config)
        _CORPUS.append((traj, config))
        result = convergence_time(traj)
        if result is None:
            unconverged += 1
        elif bound > 0.0 and result[0] > bound:
            violations += 1

    # Switching extension: periodic schedules must certify equilibrium
    # before ten times the analogous static bound.
    periodic_unconverged = 0
    for seed in range(50):
        n = 3 + seed % 4
        base = random_connected(
            n, seed=10_000 + seed, weight_range=(0.5, 2.0), delta=1.0,
            switching=(2 + seed % 2, 0.5 + 0.25 * (seed % 3)),
        )
        bound = tcon_bound(base.x0, base.quantizer, 0.5, 2.0)
        config = ScenarioConfig(
            schedule=base.schedule, quantizer=base.quantizer, x0=base.x0,
            policy=Sliding(), horizon=max(10.0 * bound, 1.0),
        )
        traj = simulate(config)
        _CORPUS.append((traj, config))
        if traj.status != "equilibrium":
            periodic_unconverged += 1

    ok = violations == 0 and unconverged == 0 and periodic_unconverged == 0
    _verdict(
        3,
        ok,
        f"200 static runs: {unconverged} unconverged, {violations} bound "
        f"violations; 50 periodic runs: {periodic_unconverged} uncertified",
    )


def test_criterion_4_average_conservation():
    worst = 0.0
    unconverged = 0
    limit_failures = 0
    for seed in range(100):
        n = 2 + seed % 5
        config = random_connected(
            n, seed=20_000 + seed, symmetric=True, delta=1.0, x0_cells=4.0
        )
        traj = simulate(config)
        _CORPUS.append((traj, config))
        worst = max(worst, average_conservation(traj))
        if traj.status != "equilibrium":
            unconverged += 1
            continue
        if limit_value_check(traj, config.schedule).status != "pass":
            limit_failures += 1
    ok = worst <= 1e-9 and unconverged == 0 and limit_failures == 0
    _verdict(
        4,
        ok,
        f"100 balanced runs: max drift {worst:.2e} <= 1e-9, "
        f"{limit_failures} limit-value failures, {unconverged} unconverged",
    )


def test_criterion_5_envelope_monotonicity():
    assert _CORPUS, "criteria 1-4 must run first"
    bad = 0
    for traj, _ in _CORPUS:
        if not envelopes(traj).ok:
            bad += 1
    _verdict(
        5,
        bad == 0,
        f"{len(_CORPUS)} trajectories from criteria 1-4: {bad} envelope "
        f"monotonicity violations",
    )


def test_criterion_6_precision_scaling():
    # One agent per level (spread n-1 levels at every precision), the slow
    # sequential selection.  Scaling x0 with delta leaves the event
    # arithmetic exactly self-similar, so t_con per unit of initial state
    # spread grows exactly like 1/delta; normalised by the spread the
    # measured values must coincide within 1%.
    measured = {}
    ok = True
    for delta in (1.0, 0.5, 0.25):
        config = example1_line(6, delta, policy=SequentialSlow())
        traj = simulate(config)
        result = convergence_time(traj)
        ok = ok and result is not None
        t_con = result[0]
        quantizer = config.quantizer
        spread_state = quantizer.quantize(config.x0[-1]) - quantizer.quantize(
            config.x0[0]
        )
        measured[delta] = t_con * delta / spread_state
        lower = (1.0 / 8.0) * 6 * spread_state / delta
        ok = ok and t_con >= lower
    values = list(measured.values())
    ok = ok and max(values) / min(values) <= 1.01
    _verdict(
        6,
        ok,
        f"line n=6, spread 5 levels at each delta: t_con*delta/spread = "
        f"{values[0]:.6f} at every delta in (1, 0.5, 0.25) (ratio "
        f"{max(values) / min(values):.6f}), lower bound holds at each",
    )


def test_criterion_7_connectivity_predicate_vs_bfs():
    mismatches = 0
    checked = 0
    for n in (1, 2, 3, 4):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in product((0.0, 1.0), repeat=len(pairs)):
            w = np.zeros((n, n))
            for (i, j), bit in zip(pairs, bits):
                w[i, j] = bit
            g = WeightedDigraph(w)
            found, witnesses = oracle_globally_reachable(g)
            result = has_globally_reachable_node(g)
            checked += 1
            if result.found != found or (found and result.witness not in witnesses):
                mismatches += 1

    rng = SplitMix64(777)
    for _ in range(10_000):
        n = 2 + rng.randint(5)
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and rng.uniform() < 0.3:
                    w[i, j] = 1.0
        g = WeightedDigraph(w)
        found, witnesses = oracle_globally_reachable(g)
        result = has_globally_reachable_node(g)
        checked += 1
        if result.found != found or (found and result.witness not in witnesses):
            mismatches += 1
    _verdict(
        7,
        mismatches == 0,
        f"{checked} digraphs (exhaustive n<=4 plus 10^4 random n<=6): "
        f"{mismatches} disagreements with the BFS oracle",
    )


def test_criterion_8_oracle_agreement_and_refinement():
    ok = True
    details = []
    for name, config in ORACLE_REFERENCES.items():
        # The run at (eps, h) = (1e-3, 1e-5) is shared with test_oracle.py.
        traj, run = reference_oracle_run(name)
        t_end = traj.final_t * 1.2 + 0.2
        runs = [run] + [
            simulate_regularized(config, eps=eps, h=h, stride=0.01, t_end=t_end)
            for eps, h in ((5e-4, 5e-6), (2.5e-4, 2.5e-6))
        ]

        deviations = []
        for run in runs:
            deviations.append(
                max(
                    float(np.max(np.abs(traj.state_at(float(t)) - s)))
                    for t, s in zip(run.times, run.states)
                )
            )
        ok = ok and deviations[0] <= 5e-3
        ok = ok and deviations[0] > deviations[1] > deviations[2]
        details.append(f"{name}: {deviations[0]:.1e}>{deviations[1]:.1e}>{deviations[2]:.1e}")
    _verdict(
        8,
        ok,
        "sup-norm deviation <= 5e-3 at eps=1e-3, h=1e-5 and monotone under "
        "two eps halvings (" + "; ".join(details) + ")",
    )
