"""Exact event-driven integration of quantized consensus dynamics.

Between events every agent moves with constant velocity ``v = -L(t) z``,
where each component ``z_i`` is a selection from the convexified quantizer
set of ``x_i``: off a threshold the selection is forced to the quantizer
level of the cell, on a threshold it is a convex combination
``z_i = lo*(1-alpha) + hi*alpha`` of the two adjacent levels.  Event times
(threshold arrivals, topology switches) are computed in closed form and
states of arriving agents are snapped to the exact threshold value, so "on
a surface" is a bit-exact predicate and sliding segments hold agents at
exactly zero velocity.

Selection policies choose one solution among the generally non-unique set:

* ``Sliding`` holds every surface agent whose hold is feasible, releasing
  infeasible holds worst-violation-first;
* ``SequentialSlow`` is the same machinery with releases preferring the
  agent adjacent to the most recently stopped one, which reproduces the
  slow staircase solutions on line graphs;
* ``FixedAlpha`` pins prescribed convex coefficients for as long as they
  sustain a zero-velocity hold, then falls back to the sliding resolution.

A classical fixed-step RK4 integrator on a continuous piecewise-linear
regularisation of the quantizer serves as an independent oracle: as the
regularisation width and step size shrink it converges to the sliding
solution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .graphs import GraphSchedule, SparseRow, WeightedDigraph, laplacian
from .quantizers import InputError, Quantizer, json_field

# Feasibility slack for hold coefficients: absorbs elimination round-off
# without admitting genuinely infeasible holds.
_FEAS_SLACK = 1e-12
# Relative tolerance of the projected Gauss-Seidel sweep (on z updates).
_PGS_TOL = 1e-12
_PGS_MAX_SWEEPS = 100_000
# Residual velocities below this (scaled) threshold count as a hold.
_RESIDUAL_TOL = 1e-9
#: Surface sets up to this size use dense elimination; larger ones use
#: projected Gauss-Seidel.
DEFAULT_DENSE_CUTOFF = 64
#: The regularized oracle keeps two knots per threshold between the extreme
#: states; wider spans are rejected instead of exhausting memory.
_MAX_RAMP_THRESHOLDS = 2 ** 20

EVENT_KINDS = (
    "start",
    "threshold-hit",
    "surface-departure",
    "topology-switch",
    "equilibrium",
    "horizon",
)


class ContractViolation(ValueError):
    """A supplied selection leaves the convexified quantizer set."""


class NoSlidingSelection(RuntimeError):
    """No consistent hold/departure split could be computed."""


class SimulationLimitError(RuntimeError):
    """Event safety limit exceeded; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


class RegularizationUnstable(RuntimeError):
    """The regularized integrator diverged; retry with a smaller step."""


# ---------------------------------------------------------------------------
# Selection policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sliding:
    """Hold every surface agent whose hold is feasible (the default)."""

    def to_json(self) -> dict:
        return {"type": "sliding"}


@dataclass(frozen=True)
class SequentialSlow:
    """Sliding with releases preferring neighbours of the last stopped agent."""

    def to_json(self) -> dict:
        return {"type": "sequential-slow"}


@dataclass(frozen=True)
class FixedAlpha:
    """Pin prescribed surface coefficients while they sustain a hold.

    ``overrides`` maps agent index to a coefficient in [0, 1].  A pin whose
    resulting velocity is nonzero no longer describes a hold; it is released
    (largest residual first) and the agent is resolved like any other
    surface agent.
    """

    overrides: tuple[tuple[int, float], ...]

    def __init__(self, overrides: Mapping[int, float] | Iterable[tuple[int, float]]):
        items = sorted(
            overrides.items() if isinstance(overrides, Mapping) else overrides
        )
        for agent, alpha in items:
            if not (0.0 <= alpha <= 1.0):
                raise ContractViolation(
                    f"pinned coefficient for agent {agent} must be in [0, 1], "
                    f"got {alpha}"
                )
        object.__setattr__(self, "overrides", tuple((int(a), float(v)) for a, v in items))

    def to_json(self) -> dict:
        return {"type": "fixed-alpha", "alpha": {str(a): v for a, v in self.overrides}}


SelectionPolicy = Sliding | SequentialSlow | FixedAlpha


def policy_from_json(obj: dict) -> SelectionPolicy:
    kind = json_field(obj, "type", "policy")
    if kind == "sliding":
        return Sliding()
    if kind == "sequential-slow":
        return SequentialSlow()
    if kind == "fixed-alpha":
        alpha = json_field(obj, "alpha", "policy", {})
        return FixedAlpha({int(k): float(v) for k, v in alpha.items()})
    raise InputError(f"unknown policy type {kind!r}")


# ---------------------------------------------------------------------------
# State records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resolution:
    """One consistent selection: values, velocities, holds and departures."""

    z: np.ndarray
    velocity: np.ndarray
    alpha: tuple[tuple[int, float], ...]
    held: frozenset[int]
    departing: tuple[tuple[int, int], ...]

    def alpha_of(self, agent: int) -> float | None:
        for a, v in self.alpha:
            if a == agent:
                return v
        return None


# ---------------------------------------------------------------------------
# Velocity from a selection
# ---------------------------------------------------------------------------

def _velocity(row: SparseRow, z: np.ndarray, z_i: float) -> float:
    """``sum_j a_ij (z_j - z_i)`` over the nonzero weights of one row.

    The terms are summed by numpy in increasing ``j``, so the bits do not
    depend on how many zero weights the row has.
    """
    if not row.pairs:
        return 0.0
    return float((row.weight * (z[row.index] - z_i)).sum())


def selection_velocity(
    x: np.ndarray, z: np.ndarray, g: WeightedDigraph, quantizer: Quantizer
) -> np.ndarray:
    """Velocity ``v_i = sum_j a_ij (z_j - z_i)`` for a validated selection."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (g.n,) or z.shape != (g.n,):
        raise InputError("state/selection length must match the agent count")
    for i in range(g.n):
        lo, hi = quantizer.krasovskii_set(float(x[i]))
        if not (lo <= z[i] <= hi):
            raise ContractViolation(
                f"selection z[{i}]={z[i]} outside [{lo}, {hi}] at x[{i}]={x[i]}"
            )
    return np.array([_velocity(row, z, float(z[i])) for i, row in enumerate(g.rows)])


# ---------------------------------------------------------------------------
# Hold system solvers
# ---------------------------------------------------------------------------

class _Singular(Exception):
    pass


def _gaussian_solve(a_rows: list[list[float]], b: list[float]) -> list[float]:
    """Dense elimination with partial pivoting (ties to the lowest row)."""
    m = len(b)
    aug = [list(a_rows[r]) + [b[r]] for r in range(m)]
    scale = max(1.0, max((max(map(abs, row)) for row in a_rows), default=1.0))
    for col in range(m):
        piv = col
        best = abs(aug[col][col])
        for r in range(col + 1, m):
            mag = abs(aug[r][col])
            if mag > best:
                best, piv = mag, r
        if best <= 1e-12 * scale:
            raise _Singular()
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        for r in range(col + 1, m):
            row = aug[r]
            factor = row[col] / pivot_row[col]
            if factor != 0.0:
                row[col:] = [a - factor * b for a, b in zip(row[col:], pivot_row[col:])]
    out = [0.0] * m
    for r in range(m - 1, -1, -1):
        acc = aug[r][m]
        for c in range(r + 1, m):
            acc -= aug[r][c] * out[c]
        out[r] = acc / aug[r][r]
    return out


def _alpha_to_z(alpha: float, lo: float, hi: float) -> float:
    if alpha <= 0.0:
        return lo
    if alpha >= 1.0:
        return hi
    return lo + alpha * (hi - lo)


def _snap_alpha(alpha: float) -> float:
    """Clean solver round-off at the interval ends.

    Exact extreme coefficients are systemic (consensus states resolve to
    them); dust there would leave phantom velocities of order 1e-16 that
    stall the event loop, so values within the feasibility slack of a bound
    are snapped to it.
    """
    if abs(alpha) <= _FEAS_SLACK:
        return 0.0
    if abs(alpha - 1.0) <= _FEAS_SLACK:
        return 1.0
    return min(max(alpha, 0.0), 1.0)


def _pgs(
    agents: list[int],
    boxes: dict[int, tuple[float, float]],
    z: np.ndarray,
    g: WeightedDigraph,
) -> tuple[set[int], dict[int, int]]:
    """Projected Gauss-Seidel on the box-constrained hold system.

    Updates ``z`` in place for ``agents``; all other entries are constants.
    At the fixed point an interior value is a hold, a value clamped at a box
    bound with outward residual velocity is a departure.
    """
    rows = g.rows
    w_out = {i: rows[i].total for i in agents}
    for i in agents:
        lo, hi = boxes[i]
        z[i] = 0.5 * (lo + hi)
    # Every entry of z is set only now: the caller may leave the agents'
    # slots uninitialised.
    bound_scale = max(
        [1.0]
        + [abs(b) for box in boxes.values() for b in box]
        + [abs(float(v)) for v in z]
    )
    converged = False
    for _ in range(_PGS_MAX_SWEEPS):
        worst = 0.0
        for i in agents:
            if w_out[i] == 0.0:
                continue
            target = float(g.weights[i] @ z) / w_out[i]
            lo, hi = boxes[i]
            new = min(max(target, lo), hi)
            worst = max(worst, abs(new - z[i]))
            z[i] = new
        if worst <= _PGS_TOL * bound_scale:
            converged = True
            break
    if not converged:
        raise NoSlidingSelection("projected Gauss-Seidel did not converge")

    # Values that stalled within the sweep tolerance of a box bound are
    # snapped onto it; exact bounds are systemic at consensus states.
    snap = 10.0 * _PGS_TOL * bound_scale
    for i in agents:
        lo, hi = boxes[i]
        if abs(z[i] - lo) <= snap:
            z[i] = lo
        elif abs(z[i] - hi) <= snap:
            z[i] = hi

    residual_tol = _RESIDUAL_TOL * max(
        1.0, max((w_out[i] for i in agents), default=1.0) * bound_scale
    )
    held: set[int] = set()
    departing: dict[int, int] = {}
    for i in agents:
        lo, hi = boxes[i]
        v = _velocity(rows[i], z, float(z[i]))
        if abs(v) <= residual_tol or w_out[i] == 0.0:
            held.add(i)
        elif v > 0.0 and z[i] == hi:
            departing[i] = 1
        elif v < 0.0 and z[i] == lo:
            departing[i] = -1
        else:  # pragma: no cover - contradicts the fixed-point property
            raise NoSlidingSelection(
                f"inconsistent projected solution for agent {i}"
            )
    return held, departing


def _build_hold_system(
    active: list[int],
    boxes: dict[int, tuple[float, float]],
    z: np.ndarray,
    g: WeightedDigraph,
) -> tuple[list[list[float]], list[float], dict[int, int]]:
    col = {agent: c for c, agent in enumerate(active)}
    z_values = z.tolist()
    rows = []
    rhs = []
    for i in active:
        sparse = g.rows[i]
        w_i = sparse.total
        lo_i, hi_i = boxes[i]
        row = [0.0] * len(active)
        row[col[i]] = -w_i * (hi_i - lo_i)
        b = w_i * lo_i
        # The diagonal is zero, so j != i throughout.
        for j, a_ij in sparse.pairs:
            c = col.get(j)
            if c is None:
                b -= a_ij * z_values[j]
            else:
                lo_j, hi_j = boxes[j]
                row[c] += a_ij * (hi_j - lo_j)
                b -= a_ij * lo_j
        rows.append(row)
        rhs.append(b)
    return rows, rhs, col


def _refine_held(
    held: list[int],
    boxes: dict[int, tuple[float, float]],
    z: np.ndarray,
    g: WeightedDigraph,
    cutoff: int,
) -> None:
    """Polish a projected-iteration hold to full float precision.

    With the departing agents fixed at their bounds the held subsystem is
    usually nonsingular; a dense re-solve removes the iteration tolerance
    from the recorded selections.  Singular subsystems (free translation
    families) keep the projected values.
    """
    if not held or len(held) > cutoff:
        return
    rows, rhs, col = _build_hold_system(held, boxes, z, g)
    try:
        solution = _gaussian_solve(rows, rhs)
    except _Singular:
        return
    if any(not (-_FEAS_SLACK <= solution[c] <= 1.0 + _FEAS_SLACK) for c in col.values()):
        return
    for i in held:
        z[i] = _alpha_to_z(_snap_alpha(solution[col[i]]), *boxes[i])


def _solve_holds(
    candidates: set[int],
    boxes: dict[int, tuple[float, float]],
    z: np.ndarray,
    g: WeightedDigraph,
    release_pick: Callable[[dict[int, float]], int],
    cutoff: int,
) -> tuple[set[int], dict[int, int], dict[int, float]]:
    """Split surface candidates into held and departing agents.

    Held agents receive the coefficient that balances their velocity to
    zero; infeasible holds are released one at a time (``release_pick``
    chooses among the violators) and the system is re-solved.  Singular
    systems and large surface sets fall back to projected Gauss-Seidel.
    """
    active = sorted(candidates)
    departing: dict[int, int] = {}
    alphas: dict[int, float] = {}

    def finish_pgs(agents: list[int]) -> tuple[set[int], dict[int, int]]:
        held_p, dep_p = _pgs(agents, boxes, z, g)
        _refine_held(sorted(held_p), boxes, z, g, cutoff)
        for i in agents:
            lo, hi = boxes[i]
            alphas[i] = 0.0 + (float(z[i]) - lo) / (hi - lo)
        return held_p, dep_p

    if len(active) > cutoff:
        held_p, dep_p = finish_pgs(active)
        departing.update(dep_p)
        return held_p, departing, alphas

    while active:
        rows, rhs, col = _build_hold_system(active, boxes, z, g)
        try:
            solution = _gaussian_solve(rows, rhs)
        except _Singular:
            held_p, dep_p = finish_pgs(active)
            departing.update(dep_p)
            return held_p, departing, alphas

        excess = {
            i: max(solution[col[i]] - 1.0, -solution[col[i]])
            for i in active
            if max(solution[col[i]] - 1.0, -solution[col[i]]) > _FEAS_SLACK
        }
        if not excess:
            for i in active:
                alpha = _snap_alpha(solution[col[i]])
                alphas[i] = alpha
                z[i] = _alpha_to_z(alpha, *boxes[i])
            held = set(active)
            break

        drop = release_pick(excess)
        alpha = solution[col[drop]]
        sign = 1 if alpha > 1.0 else -1
        lo, hi = boxes[drop]
        z[drop] = hi if sign > 0 else lo
        alphas[drop] = 1.0 if sign > 0 else 0.0
        departing[drop] = sign
        active.remove(drop)
    else:
        held = set()

    # Confirm each departure is pushed off-surface by the final holds; an
    # extreme value with zero velocity is a feasible boundary hold instead.
    for i, sign in list(departing.items()):
        v = _velocity(g.rows[i], z, float(z[i]))
        if v == 0.0:
            departing.pop(i)
            held.add(i)
        elif (v > 0.0) != (sign > 0):
            held_p, dep_p = finish_pgs(sorted(candidates))
            return held_p, dep_p, alphas
    return held, departing, alphas


# ---------------------------------------------------------------------------
# Policy resolution
# ---------------------------------------------------------------------------

def _release_priority(
    last_stopped: frozenset[int], g: WeightedDigraph, sequential: bool
) -> Callable[[dict[int, float]], int]:
    def adjacent(i: int) -> bool:
        return any(
            g.weights[i, s] > 0.0 or g.weights[s, i] > 0.0 for s in last_stopped
        )

    def pick(excess: dict[int, float]) -> int:
        if sequential:
            key = lambda i: (not adjacent(i), -excess[i], i)
        else:
            key = lambda i: (-excess[i], i)
        return min(excess, key=key)

    return pick


def resolve_sliding(
    x: np.ndarray,
    g: WeightedDigraph,
    quantizer: Quantizer,
    policy: SelectionPolicy = Sliding(),
    last_stopped: frozenset[int] = frozenset(),
    cutoff: int = DEFAULT_DENSE_CUTOFF,
) -> Resolution:
    """Compute one consistent selection at the current state.

    Surface agents are held where a coefficient in [0, 1] balances their
    velocity to zero; the rest depart with the extreme selection on the side
    they leave to.  Agents that listen to nobody hold trivially and
    broadcast the midpoint of their surface interval (the regularisation
    limit).  Held agents are reported with exactly zero velocity so that
    the integrator keeps them bit-exactly on their thresholds.
    """
    x = np.asarray(x, dtype=float)
    n = g.n
    if x.shape != (n,):
        raise InputError("state length must match the agent count")

    z = np.empty(n)
    boxes: dict[int, tuple[float, float]] = {}
    for i in range(n):
        bounds = quantizer.surface_bounds(float(x[i]))
        if bounds is None:
            z[i] = quantizer.quantize(float(x[i]))
        else:
            boxes[i] = bounds

    pins: dict[int, float] = {}
    if isinstance(policy, FixedAlpha):
        pins = {a: v for a, v in policy.overrides if a in boxes}
    rows = g.rows
    trivially_held = {
        i for i in boxes if i not in pins and rows[i].total == 0.0
    }
    for i in trivially_held:
        lo, hi = boxes[i]
        z[i] = 0.5 * (lo + hi)

    pick = _release_priority(last_stopped, g, isinstance(policy, SequentialSlow))
    alphas: dict[int, float] = {}
    while True:
        for i, a in pins.items():
            z[i] = _alpha_to_z(a, *boxes[i])
        candidates = set(boxes) - set(pins) - trivially_held
        held, departing, alphas = _solve_holds(candidates, boxes, z, g, pick, cutoff)
        stale = sorted(
            (
                (-abs(v), i)
                for i in pins
                if (v := _velocity(rows[i], z, float(z[i]))) != 0.0
            ),
        )
        if not stale:
            break
        # A pin that no longer sustains a hold is not a valid segment
        # selection; release it and resolve the agent like any other.
        pins.pop(stale[0][1])

    for i in trivially_held:
        alphas[i] = 0.5
    for i, a in pins.items():
        alphas[i] = a
    zero_set = held | trivially_held | set(pins)

    velocity = np.empty(n)
    for i in range(n):
        if i in zero_set:
            velocity[i] = 0.0
        else:
            velocity[i] = _velocity(rows[i], z, float(z[i]))
    for i, sign in departing.items():
        if velocity[i] == 0.0 or (velocity[i] > 0.0) != (sign > 0):
            raise NoSlidingSelection(
                f"departure of agent {i} is not sign-consistent"
            )
    for i, (lo, hi) in boxes.items():
        if not (lo <= z[i] <= hi):  # pragma: no cover - internal guard
            raise ContractViolation(f"resolved z[{i}]={z[i]} left [{lo}, {hi}]")

    velocity.flags.writeable = False
    z.flags.writeable = False
    return Resolution(
        z=z,
        velocity=velocity,
        alpha=tuple(sorted(alphas.items())),
        held=frozenset(zero_set),
        departing=tuple(sorted(departing.items())),
    )


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryEvent:
    t: float
    kind: str
    x: tuple[float, ...]
    z: tuple[float, ...]
    velocity: tuple[float, ...]
    alpha: tuple[float | None, ...]
    hits: tuple[int, ...]
    departing: tuple[tuple[int, int], ...]


class Trajectory:
    """Ordered event list with affine state segments in between."""

    def __init__(self, quantizer: Quantizer, events: list[TrajectoryEvent], status: str):
        self.quantizer = quantizer
        self.events = events
        self.status = status

    @property
    def n(self) -> int:
        return len(self.events[0].x)

    @property
    def converged(self) -> bool:
        return self.status == "equilibrium"

    @property
    def final_t(self) -> float:
        return self.events[-1].t

    @property
    def final_x(self) -> np.ndarray:
        return np.array(self.events[-1].x)

    def state_at(self, t: float) -> np.ndarray:
        """Piecewise-affine interpolation; constant beyond the final event."""
        events = self.events
        if t <= events[0].t:
            return np.array(events[0].x)
        idx = len(events) - 1
        for k in range(len(events) - 1):
            if events[k].t <= t < events[k + 1].t:
                idx = k
                break
        ev = events[idx]
        if idx == len(events) - 1 and self.status == "equilibrium":
            return np.array(ev.x)
        dt = t - ev.t
        return np.array(ev.x) + dt * np.array(ev.velocity)

    # -- wire formats --------------------------------------------------------

    def _rows(self, stride: float | None):
        rows = []
        for k, ev in enumerate(self.events):
            rows.append((ev.t, ev.kind, ev.x, ev.z, ev.alpha))
            if stride is not None and k + 1 < len(self.events):
                nxt = self.events[k + 1]
                s = math.floor(ev.t / stride) + 1
                while s * stride < nxt.t:
                    ts = s * stride
                    if ts > ev.t:
                        xs = tuple(
                            xi + (ts - ev.t) * vi for xi, vi in zip(ev.x, ev.velocity)
                        )
                        rows.append((ts, "sample", xs, ev.z, ev.alpha))
                    s += 1
        return rows

    def to_csv(self, stride: float | None = None) -> str:
        n = self.n
        header = (
            ["t", "event"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"z_{i + 1}" for i in range(n)]
            + [f"alpha_{i + 1}" for i in range(n)]
        )
        lines = [",".join(header)]
        for t, kind, x, z, alpha in self._rows(stride):
            cells = [repr(float(t)), kind]
            cells += [repr(float(v)) for v in x]
            cells += [repr(float(v)) for v in z]
            cells += ["" if a is None else repr(float(a)) for a in alpha]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_obj(self, stride: float | None = None) -> dict:
        return {
            "n": self.n,
            "status": self.status,
            "events": [
                {
                    "t": t,
                    "event": kind,
                    "x": list(x),
                    "z": list(z),
                    "alpha": list(alpha),
                }
                for t, kind, x, z, alpha in self._rows(stride)
            ],
        }


# ---------------------------------------------------------------------------
# Event detection and the simulation loop
# ---------------------------------------------------------------------------

def _threshold_hits(
    x: np.ndarray, velocity: np.ndarray, quantizer: Quantizer
) -> tuple[float, list[tuple[int, float]]]:
    """Closest threshold arrival: exact dt and all agents tied at it."""
    best = math.inf
    hits: list[tuple[int, float]] = []
    for i in range(len(x)):
        v = float(velocity[i])
        if v == 0.0:
            continue
        th = quantizer.next_threshold(float(x[i]), 1 if v > 0.0 else -1)
        if th is None:
            continue
        dt = (th - float(x[i])) / v
        if dt < best:
            best = dt
            hits = [(i, th)]
        elif dt == best:
            hits.append((i, th))
    return best, hits


def _certified_terminal(
    x: np.ndarray,
    schedule: GraphSchedule,
    t: float,
    quantizer: Quantizer,
    policy: SelectionPolicy,
) -> bool:
    """Full hold with zero velocity under every graph still to come."""
    for g in schedule.graphs_active_from(t):
        res = resolve_sliding(x, g, quantizer, policy)
        if np.any(res.velocity):
            return False
    return True


def _make_event(
    t: float, kind: str, x: np.ndarray, res: Resolution, hits: tuple[int, ...]
) -> TrajectoryEvent:
    n = len(x)
    alpha_map = dict(res.alpha)
    return TrajectoryEvent(
        t=t,
        kind=kind,
        x=tuple(float(v) for v in x),
        z=tuple(float(v) for v in res.z),
        velocity=tuple(float(v) for v in res.velocity),
        alpha=tuple(alpha_map.get(i) for i in range(n)),
        hits=hits,
        departing=res.departing,
    )


def simulate(
    config,
    stop_condition: Callable[[float, np.ndarray], bool] | None = None,
) -> Trajectory:
    """Run the event loop until equilibrium, the horizon, or a stop callback.

    Each recorded event carries the state at the event together with the
    selection and velocity of the segment that starts there; the final
    event repeats the terminal selection.
    """
    schedule: GraphSchedule = config.schedule
    quantizer: Quantizer = config.quantizer
    policy: SelectionPolicy = config.policy
    x = np.array(config.x0, dtype=float)
    t = 0.0
    events: list[TrajectoryEvent] = []
    kind = "start"
    hits_now: tuple[int, ...] = ()
    last_stopped: frozenset[int] = frozenset()

    while True:
        if len(events) >= config.max_events:
            # Each agent crosses about one threshold per level it still spans.
            crossings = len(x) * quantizer.level_span(x) / quantizer.delta_min
            raise SimulationLimitError(
                f"event limit {config.max_events} exceeded at t={t}; about "
                f"{crossings:.3g} level crossings remain (agents x level span / delta)",
                Trajectory(quantizer, events, status="limit"),
            )
        g = schedule.graph_at(t)
        res = resolve_sliding(x, g, quantizer, policy, last_stopped)
        at_rest = not np.any(res.velocity)
        terminal = at_rest and _certified_terminal(x, schedule, t, quantizer, policy)
        events.append(_make_event(t, "equilibrium" if terminal else kind, x, res, hits_now))
        if terminal:
            return Trajectory(quantizer, events, status="equilibrium")
        if stop_condition is not None and stop_condition(t, x):
            return Trajectory(quantizer, events, status="stopped")

        if at_rest:
            ts = schedule.next_switch_after(t)
            # Not terminal with zero velocity means a future graph moves the
            # state, so a switch must exist.
            assert math.isfinite(ts)
            if ts > config.horizon:
                t = config.horizon
                events.append(_make_event(t, "horizon", x, res, ()))
                return Trajectory(quantizer, events, status="horizon")
            t = ts
            kind = "topology-switch"
            hits_now = ()
            continue

        dt_th, th_hits = _threshold_hits(x, res.velocity, quantizer)
        ts = schedule.next_switch_after(t)
        dt_sw = ts - t
        dt = min(dt_th, dt_sw)
        if t + dt > config.horizon:
            x = x + res.velocity * (config.horizon - t)
            t = config.horizon
            res_h = resolve_sliding(x, schedule.graph_at(t), quantizer, policy,
                                    last_stopped)
            events.append(_make_event(t, "horizon", x, res_h, ()))
            return Trajectory(quantizer, events, status="horizon")
        x = x + res.velocity * dt
        if dt_th <= dt_sw:
            for i, th in th_hits:
                x[i] = th  # snap: "on a surface" stays a bit-exact predicate
            t = ts if dt_th == dt_sw else t + dt
            kind = "threshold-hit"
            hits_now = tuple(i for i, _ in th_hits)
            last_stopped = frozenset(hits_now)
        else:
            t = ts
            kind = "topology-switch"
            hits_now = ()


# ---------------------------------------------------------------------------
# Regularized oracle
# ---------------------------------------------------------------------------

def _rk4_chunk(x: list[float], rows: list[list[tuple[int, float]]], xp: list[float],
               fp: list[float], h: float, steps: int) -> list[float]:
    """``steps`` classical RK4 steps of ``x' = -L q(x)`` on Python floats.

    ``q`` interpolates the knots ``(xp, fp)`` linearly and clamps outside
    them; ``rows[i]`` holds the nonzero ``(j, l_ij)`` of Laplacian row ``i``
    in increasing ``j``.  The arithmetic of every element is spelled out in
    a fixed order, so results do not depend on vector widths or alignment.
    """
    last = len(xp) - 1
    x_first, x_last, f_first, f_last = xp[0], xp[last], fp[0], fp[last]

    def deriv(s: list[float]) -> list[float]:
        q = []
        for v in s:
            if v <= x_first:
                q.append(f_first)
            elif v >= x_last:
                q.append(f_last)
            else:
                lo = bisect_right(xp, v, 1, last) - 1
                x0 = xp[lo]
                q.append(fp[lo] + (fp[lo + 1] - fp[lo]) * (v - x0) / (xp[lo + 1] - x0))
        out = []
        for row in rows:
            acc = 0.0
            for j, l in row:
                acc -= l * q[j]
            out.append(acc)
        return out

    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(steps):
        k1 = deriv(x)
        k2 = deriv([a + half * b for a, b in zip(x, k1)])
        k3 = deriv([a + half * b for a, b in zip(x, k2)])
        k4 = deriv([a + h * b for a, b in zip(x, k3)])
        x = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    return x


def _ramp_knots(quantizer: Quantizer, x0, eps: float) -> tuple[list[float], list[float]]:
    """Breakpoints of the continuous piecewise-linear quantizer surrogate."""
    from .quantizers import GeneralQuantizer, UniformQuantizer

    if isinstance(quantizer, UniformQuantizer):
        d = quantizer.delta
        lo = min(x0) - 2.0 * d
        hi = max(x0) + 2.0 * d
        k_lo = math.floor(lo / d - 0.5) - 1
        k_hi = math.ceil(hi / d - 0.5) + 1
        if k_hi - k_lo >= _MAX_RAMP_THRESHOLDS:
            raise InputError(
                f"the states span {k_hi - k_lo + 1} thresholds; the regularized "
                f"oracle builds at most {_MAX_RAMP_THRESHOLDS}"
            )
        thresholds = [quantizer._threshold(k) for k in range(k_lo, k_hi + 1)]
        below = [k * d for k in range(k_lo, k_hi + 1)]
        above = [(k + 1) * d for k in range(k_lo, k_hi + 1)]
    else:
        assert isinstance(quantizer, GeneralQuantizer)
        thresholds = list(quantizer.thresholds)
        below = list(quantizer.levels[:-1])
        above = list(quantizer.levels[1:])
    xp: list[float] = []
    fp: list[float] = []
    for th, s_lo, s_hi in zip(thresholds, below, above):
        xp.extend((th - eps, th + eps))
        fp.extend((s_lo, s_hi))
    return xp, fp


@dataclass(frozen=True)
class RegularizedRun:
    """Sampled output of the smooth-surrogate integrator."""

    times: np.ndarray
    states: np.ndarray


def simulate_regularized(
    config, eps: float, h: float, stride: float = 0.01, t_end: float | None = None
) -> RegularizedRun:
    """Fixed-step RK4 on the continuous piecewise-linear quantizer surrogate.

    The surrogate equals the quantizer outside ``eps``-neighbourhoods of its
    thresholds and interpolates linearly across them.  Serves as the
    independent oracle for exact sliding trajectories: samples converge to
    them as ``eps`` and ``h`` shrink.
    """
    quantizer: Quantizer = config.quantizer
    schedule: GraphSchedule = config.schedule
    x0 = list(config.x0)
    if not (eps > 0.0) or not (h > 0.0):
        raise InputError("eps and h must be positive")
    dmin = quantizer.delta_min
    if math.isfinite(dmin) and not (eps < dmin / 4.0):
        raise InputError(f"eps must be below delta_min/4 = {dmin / 4.0}")
    span = quantizer.level_span(x0)
    guard = 4.0 * len(x0) * schedule.a_high * span
    if guard > 0.0 and not (h < eps / guard):
        raise InputError(
            f"step h={h} too large for eps={eps}: need h < {eps / guard:.3g}"
        )
    if t_end is None:
        t_end = config.horizon

    xp, fp = _ramp_knots(quantizer, x0, eps)
    x = [float(v) for v in x0]
    n_samples = int(math.floor(t_end / stride + 1e-9))
    if not xp:
        # A single level and no threshold: q is constant and nothing moves.
        times = [k * stride for k in range(n_samples + 1)]
        return RegularizedRun(times=np.array(times), states=np.array([x] * len(times)))
    blow_up = 10.0 * (max(map(abs, fp)) + 1.0)
    times = [0.0]
    states = [x]
    t = 0.0
    for k in range(1, n_samples + 1):
        target = k * stride
        while t < target:
            seg_end = min(schedule.next_switch_after(t), target)
            rows = [[(j, l) for j, l in enumerate(row) if l != 0.0]
                    for row in laplacian(schedule.graph_at(t)).tolist()]
            steps = max(1, math.ceil((seg_end - t) / h - 1e-9))
            hh = (seg_end - t) / steps
            x = _rk4_chunk(x, rows, xp, fp, hh, steps)
            t = seg_end
        if max(map(abs, x)) > blow_up:
            raise RegularizationUnstable(
                f"state norm exploded at t={t}; reduce the step size h"
            )
        times.append(t)
        states.append(x)
    return RegularizedRun(times=np.array(times), states=np.array(states))
