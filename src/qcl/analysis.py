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
from .quantizers import InputError, Quantizer, UniformQuantizer, extreme_sets

#: Absolute drift allowed for the preserved state average: event-driven
#: arithmetic only incurs rounding in affine updates.
AVERAGE_DRIFT_TOL = 1e-9


class UnsupportedQuantizerError(InputError):
    """The requested bound is only defined for uniform quantizers."""


def consensus_level_set(x, quantizer: Quantizer) -> tuple[float, ...]:
    """Levels contained in every agent's convexified set (at most two)."""
    low, high = extreme_sets(x, quantizer)
    lo, hi = high[0], low[1]
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


def _extreme_sets(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """``extreme_sets`` of every event's states, as the arrays ``(lo, hi)``
    with a row for the lowest agents and one for the highest: the sets of
    each event's ``min`` and ``max``.  An event whose set is NaN (a bad state
    or no agents) goes through ``extreme_sets``, which raises the error of
    its first bad agent."""
    x, quantizer = traj.x, traj.quantizer
    lo, hi = quantizer.krasovskii_sets(np.stack([x.min(axis=1, initial=math.inf),
                                                 x.max(axis=1, initial=-math.inf)]))
    for k in np.flatnonzero(np.isnan(lo).any(axis=0)).tolist():
        (lo[0, k], hi[0, k]), (lo[1, k], hi[1, k]) = extreme_sets(x[k], quantizer)
    return lo, hi


def convergence_time(traj: Trajectory) -> tuple[float, float] | None:
    """Earliest event time from which one level is shared at every event.

    Requires the trajectory to end in a certified equilibrium; returns
    ``(t_con, s_star)`` with the lower level on two-level ties.  An event
    with a state that has no Krasovskii set raises that state's error.
    """
    if traj.status != "equilibrium":
        return None
    return _convergence_time(traj, *_extreme_sets(traj))


def _convergence_time(traj: Trajectory, lo: np.ndarray, hi: np.ndarray):
    # From the last event back, the levels that every later event shares.
    shared_lo = np.maximum.accumulate(lo[1, ::-1])
    apart = np.flatnonzero(shared_lo > np.minimum.accumulate(hi[0, ::-1]))
    kept = int(apart[0]) if len(apart) else len(shared_lo)
    return (float(traj.t[-kept]), float(shared_lo[kept - 1])) if kept else None


def _bound_terms(x0, quantizer: Quantizer, a_low: float, a_high: float):
    if not isinstance(quantizer, UniformQuantizer):
        raise UnsupportedQuantizerError("the bound requires a uniform quantizer")
    if not (0.0 < a_low <= a_high):
        raise InputError("need 0 < a_low <= a_high")
    if not len(x0):
        raise InputError("the bound needs at least one agent")
    # quantize(x) is the upper level of x's Krasovskii set.
    low, high = extreme_sets(x0, quantizer)
    return len(x0), high[1] - low[1]


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
    return _envelopes(traj, *_extreme_sets(traj))


def _envelopes(traj: Trajectory, lo: np.ndarray, hi: np.ndarray) -> EnvelopeAudit:
    low, high = lo[0], hi[1]
    # Neighbours compared, not differenced: inf - inf would warn.
    down, up = low[1:] < low[:-1], high[1:] > high[:-1]
    first = np.flatnonzero(down | up)
    return EnvelopeAudit(
        points=tuple(zip(traj.t.tolist(), low.tolist(), high.tolist())),
        lower_ok=not down.any(),
        upper_ok=not up.any(),
        first_violation=int(first[0]) + 1 if len(first) else None,
    )


def average_conservation(traj: Trajectory) -> float:
    """Max drift of the state average across events."""
    # Row means of one 2-D array sum each row in the same pairwise order as
    # np.mean of that row alone, so the drift keeps its bits.
    means = traj.x.mean(axis=1)
    return float(np.max(np.abs(means - means[0])))


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
    if result is None:
        return LimitCheck("fail", "the events end without a shared level")
    t_con, s_star = result
    xbar0 = float(np.mean(traj.x[0]))
    if quantizer.is_threshold(xbar0):
        event = int(np.flatnonzero(traj.t == t_con)[0])
        if all(v == xbar0 for v in traj.x[event].tolist()):
            return LimitCheck("pass", f"all states collocated at {xbar0}")
        return LimitCheck(
            "fail", f"half-level average {xbar0} without exact collocation"
        )
    expected = quantizer.quantize(xbar0)
    if s_star == expected:
        return LimitCheck("pass", f"limit level {s_star} matches q(mean)={expected}")
    levels = consensus_level_set(traj.x[-1], quantizer)
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
    lo, hi = _extreme_sets(traj)
    result = _convergence_time(traj, lo, hi) if traj.status == "equilibrium" else None
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
        envelope_violations=_envelopes(traj, lo, hi).violations,
        log_bound=log_bound,
    )


def _velocity_errors(traj: Trajectory, schedule: GraphSchedule) -> list[float]:
    """Per event, the largest |recorded velocity - (-L z)| under its graph,
    with one product over the events of each graph."""
    graphs = [schedule.graph_at(t) for t in traj.t.tolist()]
    errors = np.zeros(len(graphs))
    for g in {id(g): g for g in graphs}.values():
        events = np.flatnonzero([h is g for h in graphs])
        rows, cols, values, ends = g.csr
        ends = np.array(ends)
        z = traj.z[events]
        terms = values * (z[:, cols] - z[:, rows])
        recomputed = np.zeros((len(events), g.n))
        filled = ends[1:] > ends[:-1]
        if filled.any():
            recomputed[:, filled] = np.add.reduceat(terms, ends[:-1][filled], axis=1)
        errors[events] = np.max(np.abs(recomputed - traj.velocity[events]), axis=1)
    return errors.tolist()


def audit_trajectory(traj: Trajectory, config) -> list[str]:
    """Cross-check recorded segments against the dynamics contracts.

    Returns human-readable violation strings; an empty list means the
    trajectory satisfies every audited invariant.
    """
    problems: list[str] = []
    quantizer = traj.quantizer
    schedule: GraphSchedule = config.schedule
    times = traj.t.tolist()
    x, velocity = traj.x.tolist(), traj.velocity.tolist()
    # Each selection against its state's set in one array pass; a state
    # without a set (NaN) makes envelopes raise below.
    lo, hi = quantizer.krasovskii_sets(traj.x)
    outside = ~((lo <= traj.z) & (traj.z <= hi))
    hits, departing = traj._hits_and_departures()

    for k in np.flatnonzero(~(traj.t[1:] > traj.t[:-1])).tolist():
        problems.append(f"event times not strictly increasing at t={times[k + 1]}")

    audit = envelopes(traj)
    if not audit.ok:
        problems.append(f"envelope monotonicity violated at event {audit.first_violation}")

    _, m0, big_m0 = audit.points[0]
    errors = _velocity_errors(traj, schedule)
    for k in range(len(times)):
        _, low, high = audit.points[k]
        if low < m0 or high > big_m0:
            problems.append(f"state left the initial level range at event {k}")
        for i in np.flatnonzero(outside[k]).tolist():
            problems.append(f"selection outside Kq for agent {i} at event {k}")
        if errors[k] > 1e-9:
            problems.append(f"recorded velocity does not match -L z at event {k}")
        for agent, sign in departing[k]:
            v = velocity[k][agent]
            if v == 0.0 or (v > 0.0) != (sign > 0):
                problems.append(
                    f"departure sign mismatch for agent {agent} at event {k}"
                )

    # One-sided invariance: an agent arriving from above at the threshold
    # bordering the current minimal level must not continue downward.
    for k in range(1, len(times)):
        env_lo = audit.points[k][1]
        for i in hits[k]:
            if velocity[k - 1][i] >= 0.0:
                continue
            bounds = quantizer.surface_bounds(x[k][i])
            if bounds is None:
                continue
            if bounds[0] == env_lo and velocity[k][i] < 0.0:
                problems.append(
                    f"agent {i} crossed below the minimal-level surface at event {k}"
                )
    return problems
