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

import pytest

from qcl import (
    SequentialSlow,
    Sliding,
    convergence_report,
    convergence_time,
    example1_line,
    example2_sliding,
    simulate,
    suites,
)


@pytest.fixture(scope="module")
def corpora():
    """The corpora of criteria 3, 4 and 5, each run simulated once: the
    bounds corpus, the conservation corpus, and the envelope corpus, which
    is the reference runs followed by both."""
    bounds, balanced = suites.bounds_corpus(), suites.conservation_corpus()
    return bounds, balanced, suites.simulated(suites.references()) + bounds + balanced


def _verdict(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_reference_trace_exact():
    config = example1_line(3, 1.0, policy=Sliding())
    traj = simulate(config)

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

    deviation = suites.oracle_deviation(traj, config, 0.8)
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


def test_criterion_3_bound_on_seeded_corpus(corpora):
    # Periodic schedules must certify equilibrium before ten times the
    # analogous static bound.
    bounds, _, _ = corpora
    ok, detail = suites.bounds(bounds)
    _verdict(3, ok and len(bounds) == 250, f"200 static plus 50 periodic runs: {detail}")


def test_criterion_4_average_conservation(corpora):
    _, balanced, _ = corpora
    ok, detail = suites.conservation(balanced)
    _verdict(4, ok and len(balanced) == 100, f"100 balanced runs: {detail}")


def test_criterion_5_envelope_monotonicity(corpora):
    _, _, runs = corpora
    ok, detail = suites.envelope(runs)
    _verdict(5, ok and len(runs) >= 359,
             f"{detail}, from the reference, bounds and conservation corpora")


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
    graphs = suites.connectivity_corpus()
    ok, detail = suites.connectivity(graphs)
    _verdict(7, ok and len(graphs) == 4165 + 10_000,
             f"{detail} (exhaustive n<=4 plus 10^4 random n<=6) with the BFS oracle")


def test_criterion_8_oracle_agreement_and_refinement():
    runs = suites.oracle_corpus()
    ok, detail = suites.oracle(runs, refinements=((1e-3, 1e-5), (5e-4, 5e-6), (2.5e-4, 2.5e-6)))
    _verdict(8, ok and len(runs) == 4,
             f"4 references at eps=1e-3, h=1e-5 and under two eps halvings: {detail}")
