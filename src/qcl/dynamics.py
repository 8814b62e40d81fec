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

A resolve runs as one compiled call, ``qcl_resolve`` of ``_kernels.c``,
under either quantizer (a general one as its table of thresholds and
levels) and every policy, FixedAlpha pins included; it also gives the next
threshold arrival and has the bits of the Python code, ``_resolve_python``.
That includes projected Gauss-Seidel, which runs for more surface agents
that listen to someone than the dense cutoff, a singular hold system and a
departure that the re-check finds sign-inconsistent.  The call declines,
with no effect, and the Python code runs for projected Gauss-Seidel that
fails (no convergence or an inconsistent fixed point), a selection that
leaves its box or departs against its velocity, a stale pin whose velocity
is NaN, a state that is not finite or lies off the uniform threshold
lattice (the Python code raises its InputError), and whenever the compiled
kernels do not load.  Projected Gauss-Seidel sums each row's terms in
numpy's pairwise order, as the velocities do, on both paths; nothing calls
BLAS, so the bits do not depend on the BLAS build.

``simulate`` calls the compiled event loop ``qcl_advance`` in place of each
such resolve.  In one call it resolves, records the event with its kind
and steps (``x + v dt``, the hit agents snapped onto their thresholds, or
on to the next topology switch, under the graph segment that the schedule
gives at each time) for as long as the state moves, the step stays within
the horizon and the event limit leaves room; a full chunk of recorded
events is copied out and the call goes on.  It stops at rest, at the
horizon, at the event limit or where a resolve declines, and returns that
state's resolve, with which the Python loop goes on: it certifies a state
at rest as terminal or moves it to the next switch, and takes the last
step to the horizon or the event limit; so a run makes no more resolves
than the Python loop alone would.  Under a stop callback it records no
event.  The loop works in the kernels' one workspace and is not reentrant.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Mapping

import numpy as np

from . import quantizers
from .graphs import GraphSchedule, WeightedDigraph, laplacian
from .quantizers import (InputError, Quantizer, UniformQuantizer, json_agent, json_field,
                         json_float, json_keys, krasovskii_scan, threshold_hits)

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
        for (agent, _), (other, _) in zip(items, items[1:]):
            if agent == other:
                raise ContractViolation(f"agent {agent} is pinned more than once")
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
    if kind not in ("sliding", "sequential-slow", "fixed-alpha"):
        raise InputError(f"unknown policy type {kind!r}")
    json_keys(obj, ("type", "alpha") if kind == "fixed-alpha" else ("type",), f"{kind} policy")
    if kind == "sliding":
        return Sliding()
    if kind == "sequential-slow":
        return SequentialSlow()
    # Pairs, not a dict: keys such as "1" and "01" name one agent, and
    # FixedAlpha rejects the second pin instead of keeping one of them.
    return FixedAlpha(json_field(obj, "alpha", "policy", {},
                                 lambda a: [(json_agent(k), json_float(v)) for k, v in a.items()]))


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

def _velocities(g: WeightedDigraph, z: np.ndarray, agents: Collection[int]) -> list[float]:
    """``v_i = sum_j a_ij (z_j - z_i)`` over the nonzero weights, for each agent.

    The terms of every row are formed in one array; each row's contiguous
    slice is then summed on its own by numpy in increasing ``j``, which gives
    the bits of summing that row alone (``np.add.reduceat`` would not).
    """
    if not agents:
        return []
    rows, cols, values, ends = g.csr
    terms = values * (z[cols] - z[rows])
    return [float(terms[ends[i]:ends[i + 1]].sum()) for i in agents]


def selection_velocity(
    x: np.ndarray, z: np.ndarray, g: WeightedDigraph, quantizer: Quantizer
) -> np.ndarray:
    """Velocity ``v_i = sum_j a_ij (z_j - z_i)`` for a validated selection."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (g.n,) or z.shape != (g.n,):
        raise InputError("state/selection length must match the agent count")
    outside = krasovskii_scan(x, quantizer, selection=z).outside
    if outside:
        i = outside[0]
        lo, hi = quantizer.krasovskii_set(float(x[i]))
        raise ContractViolation(
            f"selection z[{i}]={z[i]} outside [{lo}, {hi}] at x[{i}]={x[i]}"
        )
    return np.array(_velocities(g, z, range(g.n)))


# ---------------------------------------------------------------------------
# Hold system solvers
# ---------------------------------------------------------------------------

class _Singular(Exception):
    pass


def _eliminate_lists(aug: list[list[float]], tol: float) -> list[list[float]]:
    """Forward elimination with partial pivoting (ties to the lowest row)."""
    m = len(aug)
    for col in range(m):
        piv = col
        best = abs(aug[col][col])
        for r in range(col + 1, m):
            mag = abs(aug[r][col])
            if mag > best:
                best, piv = mag, r
        if best <= tol:
            raise _Singular()
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        for r in range(col + 1, m):
            row = aug[r]
            factor = row[col] / pivot_row[col]
            if factor != 0.0:
                row[col:] = [a - factor * b for a, b in zip(row[col:], pivot_row[col:])]
    return aug


def _gaussian_solve(a_rows: list[list[float]], b: list[float]) -> list[float]:
    """Dense elimination with partial pivoting, then back-substitution."""
    m = len(b)
    scale = max(1.0, max((max(map(abs, row)) for row in a_rows), default=1.0))
    aug = _eliminate_lists([list(a_rows[r]) + [b[r]] for r in range(m)], 1e-12 * scale)
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
    cutoff: int,
) -> tuple[set[int], dict[int, int], dict[int, float]]:
    """Projected Gauss-Seidel on the box-constrained hold system of ``agents``.

    Returns the held agents, the departing ones with their signs and every
    agent's coefficient, and updates ``z`` in place for ``agents``; all other
    entries are constants.  At the fixed point an interior value is a hold,
    a value clamped at a box bound with outward residual velocity is a
    departure; a dense re-solve then polishes the holds.

    A sweep moves each agent in the order of ``agents`` to its target: the
    sum of its row's terms ``a_ij * z_j``, formed in one array and summed by
    numpy in increasing ``j`` as ``_velocities`` sums, over the row total,
    clamped into its box.  No BLAS call is made, so the bits do not depend
    on the BLAS build.
    """
    _, cols, values, ends = g.csr
    w_out = {i: g.rows[i].total for i in agents}
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
            row = slice(ends[i], ends[i + 1])
            target = float((values[row] * z[cols[row]]).sum()) / w_out[i]
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
    for i, v in zip(agents, _velocities(g, z, agents)):
        lo, hi = boxes[i]
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
    _refine_held([i for i in agents if i in held], boxes, z, g, cutoff)
    alphas = {}
    for i in agents:
        lo, hi = boxes[i]
        alphas[i] = 0.0 + (float(z[i]) - lo) / (hi - lo)
    return held, departing, alphas


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


def _hold_solve(
    active: list[int],
    boxes: dict[int, tuple[float, float]],
    z: np.ndarray,
    g: WeightedDigraph,
) -> list[float]:
    """The coefficients that hold ``active``, in its order; raises ``_Singular``."""
    rows, rhs, _ = _build_hold_system(active, boxes, z, g)
    return _gaussian_solve(rows, rhs)


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
    try:
        solution = _hold_solve(held, boxes, z, g)
    except _Singular:
        return
    if any(not (-_FEAS_SLACK <= a <= 1.0 + _FEAS_SLACK) for a in solution):
        return
    for i, a in zip(held, solution):
        z[i] = _alpha_to_z(_snap_alpha(a), *boxes[i])


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
    systems, large surface sets and a departure that the final holds push
    back onto its surface fall back to projected Gauss-Seidel.
    """
    active = sorted(candidates)
    departing: dict[int, int] = {}
    alphas: dict[int, float] = {}
    if len(active) > cutoff:
        return _pgs(active, boxes, z, g, cutoff)

    while active:
        try:
            solution = dict(zip(active, _hold_solve(active, boxes, z, g)))
        except _Singular:
            held_p, dep_p, alphas_p = _pgs(active, boxes, z, g, cutoff)
            departing.update(dep_p)
            alphas.update(alphas_p)
            return held_p, departing, alphas

        excess = {
            i: e for i, a in solution.items() if (e := max(a - 1.0, -a)) > _FEAS_SLACK
        }
        if not excess:
            for i, a in solution.items():
                alpha = _snap_alpha(a)
                alphas[i] = alpha
                z[i] = _alpha_to_z(alpha, *boxes[i])
            held = set(active)
            break

        drop = release_pick(excess)
        alpha = solution[drop]
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
    for (i, sign), v in zip(list(departing.items()), _velocities(g, z, departing)):
        if v == 0.0:
            departing.pop(i)
            held.add(i)
        elif (v > 0.0) != (sign > 0):
            return _pgs(sorted(candidates), boxes, z, g, cutoff)
    return held, departing, alphas


# ---------------------------------------------------------------------------
# Policy resolution
# ---------------------------------------------------------------------------

def _release_priority(
    last_stopped: frozenset[int], g: WeightedDigraph, sequential: bool
) -> Callable[[dict[int, float]], int]:
    def pick(excess: dict[int, float]) -> int:
        if not sequential:
            return min(excess, key=lambda i: (-excess[i], i))
        # The candidates that listen to a just-stopped agent or are listened
        # to by one.
        near = {j for s in last_stopped for j, _ in g.rows[s].pairs}
        near.update(i for i in excess if any(j in last_stopped for j, _ in g.rows[i].pairs))
        return min(excess, key=lambda i: (i not in near, -excess[i], i))

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

    The compiled ``qcl_resolve`` gives the bits of ``_resolve_python``,
    which runs where it declines (see the module docstring).  A last-stopped
    agent that is not an agent of ``g`` is an ``InputError``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise InputError("state length must match the agent count")
    for s in last_stopped:
        if not isinstance(s, (int, np.integer)) or not 0 <= s < g.n:
            raise InputError(f"last-stopped agent {s!r} is not an agent of the "
                             f"{g.n}-agent graph")
    kernels = quantizers._load_kernel()
    if kernels is not None:
        out = kernels.resolve(g, x, quantizer, policy, last_stopped, cutoff)
        if out is not None:
            return Resolution(*out[:5])
    return _resolve_python(x, g, quantizer, policy, last_stopped, cutoff)


def _resolve_python(x: np.ndarray, g: WeightedDigraph, quantizer: Quantizer,
                    policy: SelectionPolicy, last_stopped: frozenset[int],
                    cutoff: int) -> Resolution:
    """``resolve_sliding`` of a state of the right length, in Python."""
    n = g.n
    z = np.empty(n)
    boxes = krasovskii_scan(x, quantizer, z=z).boxes

    pins: dict[int, float] = {}
    if isinstance(policy, FixedAlpha):
        pins = {a: v for a, v in policy.overrides if a in boxes}
    trivially_held = {i for i in boxes if i not in pins and g.rows[i].total == 0.0}
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
            (-abs(v), i) for i, v in zip(pins, _velocities(g, z, pins)) if v != 0.0
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

    moving = [i for i in range(n) if i not in zero_set]
    velocity = np.zeros(n)
    velocity[moving] = _velocities(g, z, moving)
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

@dataclass(frozen=True, slots=True)
class TrajectoryEvent:
    t: float
    kind: str
    x: tuple[float, ...]
    z: tuple[float, ...]
    velocity: tuple[float, ...]
    alpha: tuple[float | None, ...]
    hits: tuple[int, ...]
    departing: tuple[tuple[int, int], ...]


#: The kinds of exported rows, indexed by ``Trajectory.kind``: the event
#: kinds, then the samples of a stride export.
KIND_NAMES = EVENT_KINDS + ("sample",)
#: A CSV export of fewer numbers is written by ``repr`` in Python, which
#: beats the fixed cost of the compiled call there (on a 2-core Xeon, 52
#: numbers took 38 us in Python and 45 us compiled, 133 numbers 92 and 67).
_SMALL_CSV = 100
#: A stride export scans at most this many sample times (about the span of
#: the events over the stride, plus two per event), and the regularized
#: oracle keeps fewer samples, so that a tiny stride is refused instead of
#: exhausting memory.
_MAX_SAMPLE_ROWS = 1_000_000


def _matrix(rows: list) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(len(rows), -1) if rows else np.empty((0, 0))


def _record(hits: tuple[int, ...], departing: tuple[tuple[int, int], ...]) -> list[int]:
    """An event's part of ``Trajectory.records``."""
    return [len(hits), *hits, len(departing), *[v for pair in departing for v in pair]]


class Trajectory:
    """Events stored as columns, with affine state segments in between.

    ``t`` holds the event times and ``x``, ``z``, ``velocity`` and ``alpha``
    the states, selections, velocities and coefficients (NaN off the
    surface), each a read-only C-contiguous float64 array with one row per
    event.  ``kind`` holds each event's index in ``EVENT_KINDS``, and
    ``records`` the hits and departures of all events in one int array: per
    event, the number of agents it hits and those agents, then the number
    of departing agents and each one with its sign.  ``events`` is a
    sequence of ``TrajectoryEvent``, built on first use; its length is known
    without building it.
    """

    def __init__(self, quantizer: Quantizer, events: Iterable[TrajectoryEvent], status: str):
        events = list(events)
        records = [v for ev in events for v in _record(ev.hits, ev.departing)]
        self._store(quantizer, status, np.array([ev.t for ev in events], dtype=float),
                    *[_matrix([getattr(ev, name) for ev in events]) for name in ("x", "z",
                                                                                  "velocity")],
                    _matrix([[math.nan if a is None else a for a in ev.alpha] for ev in events]),
                    np.array([EVENT_KINDS.index(ev.kind) for ev in events], dtype=np.int64),
                    np.array(records, dtype=np.int64))
        self._events = events

    @classmethod
    def _from_table(cls, quantizer: Quantizer, status: str, table: np.ndarray, kind: np.ndarray,
                    records: np.ndarray) -> "Trajectory":
        """The trajectory of the rows ``t, x, z, velocity, alpha`` of ``table``."""
        n = (table.shape[1] - 1) // 4
        traj = cls.__new__(cls)
        traj._store(quantizer, status, table[:, 0].copy(),
                    *[np.ascontiguousarray(table[:, 1 + k * n:1 + (k + 1) * n]) for k in range(4)],
                    kind, records)
        return traj

    def _store(self, quantizer: Quantizer, status: str, *columns: np.ndarray) -> None:
        for column in columns:
            column.flags.writeable = False
        self.quantizer, self.status = quantizer, status
        self.t, self.x, self.z, self.velocity, self.alpha, self.kind, self.records = columns
        self._events: list[TrajectoryEvent] | None = None
        self._sampled: tuple | None = None

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def events(self) -> "_Lazy":
        return _Lazy(len(self.t), self._event_list)

    def _event_list(self) -> list[TrajectoryEvent]:
        if self._events is None:
            hits, departing = self._hits_and_departures()
            alpha = [tuple(None if a != a else a for a in row) for row in self.alpha.tolist()]
            self._events = [
                TrajectoryEvent(t, EVENT_KINDS[k], tuple(x), tuple(z), tuple(v), a, h, d)
                for t, k, x, z, v, a, h, d in zip(
                    self.t.tolist(), self.kind.tolist(), self.x.tolist(), self.z.tolist(),
                    self.velocity.tolist(), alpha, hits, departing)]
        return self._events

    def _hits_and_departures(self) -> tuple[list[tuple[int, ...]], list[tuple]]:
        """Each event's hit agents and its departing agents with their signs."""
        ints = self.records.tolist()
        hits, departing = [], []
        pos = 0
        for _ in range(len(self.t)):
            count = ints[pos]
            hits.append(tuple(ints[pos + 1:pos + 1 + count]))
            pos += 1 + count
            count = ints[pos]
            departing.append(tuple(zip(ints[pos + 1:pos + 1 + 2 * count:2],
                                       ints[pos + 2:pos + 2 + 2 * count:2])))
            pos += 1 + 2 * count
        return hits, departing

    @property
    def converged(self) -> bool:
        return self.status == "equilibrium"

    @property
    def final_t(self) -> float:
        return float(self.t[-1])

    @property
    def final_x(self) -> np.ndarray:
        return self.x[-1].copy()

    @cached_property
    def _times(self) -> list[float]:
        return self.t.tolist()

    def state_at(self, t: float) -> np.ndarray:
        """Piecewise-affine interpolation; constant beyond the final event."""
        if t <= self.t[0]:
            return self.x[0].copy()
        # The last event at or before t starts the segment that holds t.
        idx = bisect_right(self._times, t) - 1
        if idx == len(self._times) - 1 and self.status == "equilibrium":
            return self.x[idx].copy()
        dt = t - self._times[idx]
        return self.x[idx] + dt * self.velocity[idx]

    # -- wire formats --------------------------------------------------------

    def _rows(self, stride: float | None) -> tuple[np.ndarray, ...]:
        """The exported rows as the columns ``(t, kind, x, src, z, alpha)``:
        each event, and with a stride the samples between them
        (``x_i + (ts - t) * v_i`` of the event before), where row ``r`` shows
        the selection and coefficients of event ``src[r]``.  The rows of the
        last stride are kept, so that both exports of one stride build them
        once."""
        if stride is None:
            return self.t, self.kind, self.x, np.arange(len(self.t)), self.z, self.alpha
        _require_stride(stride)
        key = (type(stride), stride)
        if self._sampled is not None and self._sampled[0] == key:
            return self._sampled[1]
        t, x = self.t, self.x
        if not np.isfinite(t).all():
            raise InputError("a stride samples only trajectories with finite event times")
        stride = float(stride)
        # Candidates s * stride after each event but the last, from s =
        # floor(t / stride) + 1 to one past the next event; s * stride grows
        # with s, so the kept ones are those that a scan from the first s up
        # to the next event keeps.  They are counted in float, where a tiny
        # stride overflows to inf or NaN, before anything is allocated.
        with np.errstate(over="ignore", invalid="ignore"):
            first = np.floor(t[:-1] / stride) + 1.0
            count = np.maximum(np.ceil(t[1:] / stride) + 2.0 - first, 0.0)
        if not count.sum() <= _MAX_SAMPLE_ROWS:
            raise InputError(f"stride {stride!r} needs more than {_MAX_SAMPLE_ROWS:,} sample rows")
        count = count.astype(np.int64)
        event = np.repeat(np.arange(len(t) - 1), count)
        s = np.repeat(first, count) + (np.arange(len(event)) - np.repeat(np.cumsum(count) - count,
                                                                          count))
        ts = s * stride
        keep = (ts < t[1:][event]) & (ts > t[:-1][event])
        event, ts = event[keep], ts[keep]
        # Each event's row comes before its samples.
        at = np.arange(len(t)) + np.searchsorted(event, np.arange(len(t)))
        sample = event + 1 + np.arange(len(event))

        def column(of_events, of_samples, dtype=float) -> np.ndarray:
            out = np.empty((len(t) + len(ts), *np.shape(of_events)[1:]), dtype)
            out[at], out[sample] = of_events, of_samples
            return out

        rows = (column(t, ts), column(self.kind, len(EVENT_KINDS), np.int64),
                column(x, x[event] + (ts - t[event])[:, None] * self.velocity[event]),
                column(np.arange(len(t)), event, np.int64), self.z, self.alpha)
        self._sampled = (key, rows)
        return rows

    def to_csv(self, stride: float | None = None) -> str:
        n = self.n
        header = (
            ["t", "event"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"z_{i + 1}" for i in range(n)]
            + [f"alpha_{i + 1}" for i in range(n)]
        )
        rows = self._rows(stride)
        small = len(rows[0]) + 3 * rows[2].size < _SMALL_CSV  # numbers: t, x, z, alpha
        kernels = None if small else quantizers._load_kernel()
        body = None if kernels is None else kernels.write(False, 0, *rows)
        if body is None:
            body = "".join(map(_csv_line, _row_dicts(*rows)))
        return ",".join(header) + "\n" + body

    def to_json_obj(self, stride: float | None = None) -> dict:
        """``{"n", "status", "events"}``, where ``events`` holds one dict
        ``{"t", "event", "x", "z", "alpha"}`` per row (None off the surface),
        built on access; ``qcl._json.dumps`` writes them in one call."""
        return {"n": self.n, "status": self.status, "events": _EventRows(self._rows(stride))}


def _row_dicts(t, kind, x, src, z, alpha) -> list[dict]:
    """The rows of ``Trajectory._rows`` as Python values, None off the surface."""
    z = z.tolist()
    alpha = [[None if a != a else a for a in row] for row in alpha.tolist()]
    return [{"t": tr, "event": KIND_NAMES[k], "x": xr, "z": list(z[e]), "alpha": list(alpha[e])}
            for tr, k, xr, e in zip(t.tolist(), kind.tolist(), x.tolist(), src.tolist())]


def _csv_line(row: dict) -> str:
    """One CSV line: ``repr`` of each number, an empty cell off the surface."""
    return ",".join([repr(row["t"]), row["event"], *map(repr, row["x"]), *map(repr, row["z"]),
                     *["" if a is None else repr(a) for a in row["alpha"]]]) + "\n"


class _Lazy(Sequence):
    """A list that ``build()`` makes on the first access to an item; its
    length is known before."""

    def __init__(self, length: int, build: Callable[[], list]):
        self._length, self._build, self._list = length, build, None

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k):
        if self._list is None:
            self._list = self._build()
        return self._list[k]

    def __add__(self, other) -> list:
        return list(self) + list(other)


class _EventRows(_Lazy):
    """The ``"events"`` of ``Trajectory.to_json_obj``: one dict per row of
    ``rows``, built on access, and ``json_text``, with which
    ``qcl._json.dumps`` writes all of them in one compiled call."""

    def __init__(self, rows: tuple[np.ndarray, ...]):
        super().__init__(len(rows[0]), lambda: _row_dicts(*rows))
        self._rows = rows

    def json_text(self, indent: int) -> str | None:
        """The rows as ``qcl._json.dumps`` writes a list at ``indent``, or
        None without compiled kernels or for a number that is not finite."""
        kernels = quantizers._load_kernel()
        return None if kernels is None else kernels.write(True, indent, *self._rows)


# ---------------------------------------------------------------------------
# Event detection and the simulation loop
# ---------------------------------------------------------------------------

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
        if res.velocity.any():
            return False
    return True


class _Recorder:
    """The events of a run as it goes: blocks of rows ``t, x, z, velocity,
    alpha`` (NaN off the surface), their kinds and their records (see
    ``Trajectory``)."""

    def __init__(self, n: int):
        self.n, self.count = n, 0
        self.blocks: list[np.ndarray] = []
        self.kinds: list[int] = []
        self.records: list = []

    def add_chunks(self, rows: list[np.ndarray], kinds: list[np.ndarray],
                   ints: list[np.ndarray]) -> None:
        """The events of one ``advance``: their rows, kinds and records, per
        chunk, in the layout of ``Trajectory``."""
        self.blocks += rows
        for chunk in kinds:
            self.kinds += chunk.tolist()
        self.records += ints
        self.count += sum(map(len, rows))

    def add(self, t: float, kind: str, x: np.ndarray, res: Resolution,
            hits: tuple[int, ...]) -> None:
        """The event of ``res`` at ``(t, x)``."""
        alpha = np.full(self.n, math.nan)
        for i, a in res.alpha:
            alpha[i] = a
        self.blocks.append(np.concatenate(([t], x, res.z, res.velocity, alpha))[None])
        self.kinds.append(EVENT_KINDS.index(kind))
        self.records.append(_record(hits, res.departing))
        self.count += 1

    def trajectory(self, quantizer: Quantizer, status: str) -> Trajectory:
        return Trajectory._from_table(
            quantizer, status, np.concatenate(self.blocks), np.array(self.kinds, dtype=np.int64),
            np.concatenate([np.asarray(part, dtype=np.int64) for part in self.records]))


def simulate(
    config,
    stop_condition: Callable[[float, np.ndarray], bool] | None = None,
) -> Trajectory:
    """Run the event loop until equilibrium, the horizon, or a stop callback.

    Each recorded event carries the state at the event together with the
    selection and velocity of the segment that starts there; the final
    event repeats the terminal selection.

    The compiled event loop (see the module docstring) records no event
    under a stop callback, which sees every event.
    """
    schedule: GraphSchedule = config.schedule
    quantizer: Quantizer = config.quantizer
    policy: SelectionPolicy = config.policy
    x = np.array(config.x0, dtype=float)
    t = 0.0
    events = _Recorder(len(x))
    kind = "start"
    hits_now: tuple[int, ...] = ()
    last_stopped: frozenset[int] = frozenset()
    kernels = quantizers._load_kernel()
    record = stop_condition is None

    while True:
        if events.count >= config.max_events:
            # Each agent crosses about one threshold per level it still spans.
            crossings = len(x) * quantizer.level_span(x) / quantizer.delta_min
            raise SimulationLimitError(
                f"event limit {config.max_events} exceeded at t={t}; about "
                f"{crossings:.3g} level crossings remain (agents x level span / delta)",
                events.trajectory(quantizer, "limit"),
            )
        out = None
        if kernels is not None:
            budget = config.max_events - events.count - 1 if record else 0
            rows, kinds, ints, t, x, k, stopped, out = kernels.advance(
                schedule, x, quantizer, policy, last_stopped, DEFAULT_DENSE_CUTOFF, t,
                EVENT_KINDS.index(kind), config.horizon, budget)
            if rows:
                events.add_chunks(rows, kinds, ints)
                kind, last_stopped = EVENT_KINDS[k], frozenset(stopped)
                hits_now = stopped if kind == "threshold-hit" else ()
        g = schedule.graph_at(t)
        ts = schedule.next_switch_after(t)
        res = (_resolve_python(x, g, quantizer, policy, last_stopped, DEFAULT_DENSE_CUTOFF)
               if out is None else Resolution(*out[:5]))
        at_rest = not res.velocity.any()
        terminal = at_rest and _certified_terminal(x, schedule, t, quantizer, policy)
        events.add(t, "equilibrium" if terminal else kind, x, res, hits_now)
        if terminal:
            return events.trajectory(quantizer, "equilibrium")
        if stop_condition is not None and stop_condition(t, x):
            return events.trajectory(quantizer, "stopped")

        if at_rest:
            # Not terminal with zero velocity means a future graph moves the
            # state, so a switch must exist.
            assert math.isfinite(ts)
            if ts > config.horizon:
                t = config.horizon
                events.add(t, "horizon", x, res, ())
                return events.trajectory(quantizer, "horizon")
            t = ts
            kind = "topology-switch"
            hits_now = ()
            continue

        dt_th, th_hits = out[5] if out else threshold_hits(x, res.velocity, quantizer)
        dt_sw = ts - t
        dt = min(dt_th, dt_sw)
        if t + dt > config.horizon:
            x = x + res.velocity * (config.horizon - t)
            t = config.horizon
            res_h = resolve_sliding(x, schedule.graph_at(t), quantizer, policy,
                                    last_stopped)
            events.add(t, "horizon", x, res_h, ())
            return events.trajectory(quantizer, "horizon")
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
    """``steps`` classical RK4 steps of ``x' = -L q(x)``.

    Runs the compiled kernel of ``_kernels.c`` when it loads, else the list
    kernel; both give the same bits.
    """
    kernels = quantizers._load_kernel()
    if kernels is None:
        return _rk4_chunk_lists(x, rows, xp, fp, h, steps)
    return kernels.rk4_chunk(x, rows, xp, fp, h, steps)


def _rk4_chunk_lists(x: list[float], rows: list[list[tuple[int, float]]], xp: list[float],
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
    from .quantizers import GeneralQuantizer

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


def _require_stride(stride: float) -> None:
    if not (math.isfinite(stride) and stride > 0.0):
        raise InputError(f"stride must be finite and positive, got {stride!r}")


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
    _require_stride(stride)
    if t_end is None:
        t_end = config.horizon
    if not math.isfinite(t_end):
        raise InputError(f"t_end must be finite, got {t_end!r}")
    dmin = quantizer.delta_min
    if math.isfinite(dmin) and not (eps < dmin / 4.0):
        raise InputError(f"eps must be below delta_min/4 = {dmin / 4.0}")
    span = quantizer.level_span(x0)
    guard = 4.0 * len(x0) * schedule.a_high * span
    if guard > 0.0 and not (h < eps / guard):
        raise InputError(
            f"step h={h} too large for eps={eps}: need h < {eps / guard:.3g}"
        )

    # Counted in float first: a tiny stride overflows to inf, or asks for
    # more samples than memory holds; a negative t_end keeps the sample at 0.
    samples = t_end / stride + 1e-9
    if not samples < _MAX_SAMPLE_ROWS:
        raise InputError(f"stride {stride!r} needs more than {_MAX_SAMPLE_ROWS:,} sample rows "
                         f"up to t_end={t_end!r}")
    n_samples = int(math.floor(max(samples, -1.0)))
    xp, fp = _ramp_knots(quantizer, x0, eps)
    x = [float(v) for v in x0]
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
