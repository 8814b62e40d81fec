"""Consensus detection, convergence measurement, bounds, and audits.

Consensus means a common quantizer level contained in the convexified set
of every agent, i.e. all states inside one closed quantizer cell including
its bordering thresholds.  Convergence times are read off exact event
trajectories: the earliest event from which a common level persists through
every later event of a terminally certified run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .graphs import GraphSchedule, is_weight_balanced
from .quantizers import InputError, Quantizer, UniformQuantizer, kq_envelope

#: Absolute drift allowed for the preserved state average: event-driven
#: arithmetic only incurs rounding in affine updates.
AVERAGE_DRIFT_TOL = 1e-9


class UnsupportedQuantizerError(InputError):
    """The requested bound is only defined for uniform quantizers."""


def consensus_level_set(x, quantizer: Quantizer) -> tuple[float, ...]:
    """Levels contained in every agent's convexified set (at most two)."""
    lo = -math.inf
    hi = math.inf
    for xi in x:
        a, b = quantizer.krasovskii_set(float(xi))
        lo = max(lo, a)
        hi = min(hi, b)
    if lo > hi:
        return ()
    if lo == hi:
        return (lo,)
    # Both bounds are levels only when every agent sits on one shared
    # threshold; the intersection then contains exactly the two of them.
    return (lo, hi)


def consensus_level(x, quantizer: Quantizer) -> float | None:
    """A common level for all agents, or None; ties report the lower level."""
    levels = consensus_level_set(x, quantizer)
    return levels[0] if levels else None


def convergence_time(traj: Trajectory) -> tuple[float, float] | None:
    """Earliest event time from which one level is shared at every event.

    Requires the trajectory to end in a certified equilibrium; returns
    ``(t_con, s_star)`` with the lower level on two-level ties.
    """
    if traj.status != "equilibrium":
        return None
    quantizer = traj.quantizer
    best: tuple[float, float] | None = None
    lo = -math.inf
    hi = math.inf
    for ev in reversed(traj.events):
        for xi in ev.x:
            a, b = quantizer.krasovskii_set(float(xi))
            lo = max(lo, a)
            hi = min(hi, b)
        if lo > hi:
            break
        best = (ev.t, lo)
    return best


def _bound_terms(x0, quantizer: Quantizer, a_low: float, a_high: float):
    if not isinstance(quantizer, UniformQuantizer):
        raise UnsupportedQuantizerError("the bound requires a uniform quantizer")
    if not (0.0 < a_low <= a_high):
        raise InputError("need 0 < a_low <= a_high")
    q = [quantizer.quantize(float(v)) for v in x0]
    return len(x0), max(q) - min(q)


def log_tcon_bound(x0, quantizer: Quantizer, a_low: float, a_high: float) -> float:
    """Natural log of :func:`tcon_bound`, finite for every agent count.

    ``-inf`` when the quantized start is already in consensus.
    """
    n, spread = _bound_terms(x0, quantizer, a_low, a_high)
    if spread == 0.0:
        return -math.inf
    return (-math.log(quantizer.delta) + math.log(n / a_low)
            + n * math.log(n * a_high / a_low) + math.log(spread))


def tcon_bound(x0, quantizer: Quantizer, a_low: float, a_high: float) -> float | None:
    """Worst-case convergence time for a time-invariant topology.

    ``(1/delta) * (n/a_low) * (n*a_high/a_low)^n * max_ij |q(x_i)-q(x_j)|``,
    or None when that exceeds the float range; :func:`log_tcon_bound` gives
    its logarithm for every ``n``.
    """
    n, spread = _bound_terms(x0, quantizer, a_low, a_high)
    if spread == 0.0:
        return 0.0
    try:
        value = (1.0 / quantizer.delta) * (n / a_low) * (n * a_high / a_low) ** n * spread
    except OverflowError:  # float ** raises where * gives inf
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class EnvelopeAudit:
    points: tuple[tuple[float, float, float], ...]
    lower_ok: bool
    upper_ok: bool
    first_violation: int | None

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok

    @property
    def violations(self) -> int:
        if self.ok:
            return 0
        lows = [p[1] for p in self.points]
        highs = [p[2] for p in self.points]
        count = sum(1 for a, b in zip(lows, lows[1:]) if b < a)
        count += sum(1 for a, b in zip(highs, highs[1:]) if b > a)
        return count


def envelopes(traj: Trajectory) -> EnvelopeAudit:
    """Per-event level envelopes with monotonicity verdicts.

    The lower envelope must never decrease and the upper must never
    increase along a valid trajectory.
    """
    points = []
    for ev in traj.events:
        lo, hi = kq_envelope(ev.x, traj.quantizer)
        points.append((ev.t, lo, hi))
    lower_ok = all(b >= a for (_, a, _), (_, b, _) in zip(points, points[1:]))
    upper_ok = all(b <= a for (_, _, a), (_, _, b) in zip(points, points[1:]))
    first = None
    for k in range(1, len(points)):
        if points[k][1] < points[k - 1][1] or points[k][2] > points[k - 1][2]:
            first = k
            break
    return EnvelopeAudit(
        points=tuple(points),
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        first_violation=first,
    )


def average_conservation(traj: Trajectory) -> float:
    """Max drift of the state average across events."""
    mean0 = float(np.mean(traj.events[0].x))
    return max(abs(float(np.mean(ev.x)) - mean0) for ev in traj.events)


@dataclass(frozen=True)
class LimitCheck:
    status: str  # "pass" | "fail" | "not-applicable"
    reason: str


def limit_value_check(traj: Trajectory, schedule: GraphSchedule) -> LimitCheck:
    """Verify the limit level predicted for average-preserving runs.

    Applicable to converged runs of weight-balanced schedules with a uniform
    quantizer.  When the initial average is not a threshold, the consensus
    level must equal its quantization; when it is exactly a threshold, all
    states at the convergence event must coincide with it.
    """
    quantizer = traj.quantizer
    if not isinstance(quantizer, UniformQuantizer):
        return LimitCheck("not-applicable", "requires a uniform quantizer")
    if not all(is_weight_balanced(g) for _, g in schedule.segments):
        return LimitCheck("not-applicable", "schedule is not weight-balanced")
    if traj.status != "equilibrium":
        return LimitCheck("not-applicable", "run did not converge")
    result = convergence_time(traj)
    assert result is not None
    t_con, s_star = result
    xbar0 = float(np.mean(traj.events[0].x))
    if quantizer.is_threshold(xbar0):
        event = next(ev for ev in traj.events if ev.t == t_con)
        if all(v == xbar0 for v in event.x):
            return LimitCheck("pass", f"all states collocated at {xbar0}")
        return LimitCheck(
            "fail", f"half-level average {xbar0} without exact collocation"
        )
    expected = quantizer.quantize(xbar0)
    if s_star == expected:
        return LimitCheck("pass", f"limit level {s_star} matches q(mean)={expected}")
    levels = consensus_level_set(tuple(traj.events[-1].x), quantizer)
    if expected in levels:
        # Two-level tie where the tie rule reported the other level.
        return LimitCheck("pass", f"q(mean)={expected} among shared levels {levels}")
    return LimitCheck("fail", f"limit level {s_star} != q(mean)={expected}")


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    t_con: float | None
    s_star: float | None
    q_infinity: float | None
    bound: float | None
    average_drift: float
    envelope_violations: int
    #: Natural log of the bound, set only when the bound applies but lies
    #: beyond the float range (``bound`` is then None).
    log_bound: float | None = None

    @property
    def envelope_ok(self) -> bool:
        return self.envelope_violations == 0

    def to_json_obj(self) -> dict:
        obj = {
            "converged": self.converged,
            "t_con": self.t_con,
            "s_star": self.s_star,
            "q_infinity": self.q_infinity,
            "bound": self.bound,
            "average_drift": self.average_drift,
            "envelope_ok": self.envelope_ok,
        }
        if self.log_bound is not None:
            obj["log_bound"] = self.log_bound
        return obj


def convergence_report(traj: Trajectory, config) -> ConvergenceReport:
    """Assemble the full per-run report."""
    schedule: GraphSchedule = config.schedule
    quantizer = traj.quantizer
    result = convergence_time(traj)
    t_con = s_star = q_infinity = None
    if result is not None:
        t_con, s_star = result
        if isinstance(quantizer, UniformQuantizer):
            q_infinity = s_star
    bound = log_bound = None
    if schedule.is_time_invariant and isinstance(quantizer, UniformQuantizer):
        bound = tcon_bound(config.x0, quantizer, schedule.a_low, schedule.a_high)
        if bound is None:
            log_bound = log_tcon_bound(config.x0, quantizer, schedule.a_low, schedule.a_high)
    return ConvergenceReport(
        converged=result is not None,
        t_con=t_con,
        s_star=s_star,
        q_infinity=q_infinity,
        bound=bound,
        average_drift=average_conservation(traj),
        envelope_violations=envelopes(traj).violations,
        log_bound=log_bound,
    )


def audit_trajectory(traj: Trajectory, config) -> list[str]:
    """Cross-check recorded segments against the dynamics contracts.

    Returns human-readable violation strings; an empty list means the
    trajectory satisfies every audited invariant.
    """
    problems: list[str] = []
    quantizer = traj.quantizer
    schedule: GraphSchedule = config.schedule
    events = traj.events

    for a, b in zip(events, events[1:]):
        if not (b.t > a.t):
            problems.append(f"event times not strictly increasing at t={b.t}")

    audit = envelopes(traj)
    if not audit.ok:
        problems.append(f"envelope monotonicity violated at event {audit.first_violation}")

    m0, big_m0 = kq_envelope(events[0].x, quantizer)
    for k, ev in enumerate(events):
        lo, hi = kq_envelope(ev.x, quantizer)
        if lo < m0 or hi > big_m0:
            problems.append(f"state left the initial level range at event {k}")
        g = schedule.graph_at(ev.t)
        for i in range(traj.n):
            a, b = quantizer.krasovskii_set(ev.x[i])
            if not (a <= ev.z[i] <= b):
                problems.append(f"selection outside Kq for agent {i} at event {k}")
        recomputed = np.array(
            [float((g.weights[i] * (np.array(ev.z) - ev.z[i])).sum())
             for i in range(traj.n)]
        )
        if np.max(np.abs(recomputed - np.array(ev.velocity))) > 1e-9:
            problems.append(f"recorded velocity does not match -L z at event {k}")
        for agent, sign in ev.departing:
            v = ev.velocity[agent]
            if v == 0.0 or (v > 0.0) != (sign > 0):
                problems.append(
                    f"departure sign mismatch for agent {agent} at event {k}"
                )

    # One-sided invariance: an agent arriving from above at the threshold
    # bordering the current minimal level must not continue downward.
    for k in range(1, len(events)):
        prev, ev = events[k - 1], events[k]
        env_lo, _ = kq_envelope(ev.x, quantizer)
        for i in ev.hits:
            if prev.velocity[i] >= 0.0:
                continue
            bounds = quantizer.surface_bounds(ev.x[i])
            if bounds is None:
                continue
            if bounds[0] == env_lo and ev.velocity[i] < 0.0:
                problems.append(
                    f"agent {i} crossed below the minimal-level surface at event {k}"
                )
    return problems
