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
solution.  Its whole run is one call of the compiled ``qcl_regularized``,
on the schedule tables and segment lookup of ``simulate``.

A resolve runs as one compiled call, ``qcl_resolve`` of ``_kernels.c``, the
package's only resolver, under either quantizer and every policy, with
projected Gauss-Seidel where the dense hold solves do not serve, and gives
the next threshold arrival too.  Where no selection can be computed it
declines with a reason code, and the binding raises the error
(NoSlidingSelection, ContractViolation or InputError; see
``_ckernel.DECLINES``).  Nothing calls BLAS, so the bits do not depend on
the BLAS build.  The list code that the C code ports is the test suite's
reference (``tests/reference.py``), and a build is used only after its
outputs on fixed inputs match that reference's (``qcl._kernel_check``).

``simulate`` is one call of the compiled event loop ``qcl_advance``, from
the start of a run to its end.  Around each resolve it records the event
with its kind and steps (``x + v dt``, the hit agents snapped onto their
thresholds, or on to the next topology switch, under the graph segment that
the schedule gives at each time).  A state at rest is terminal when every
graph still to come holds it with zero velocity, with no last-stopped
agents; the run then ends at an equilibrium, and else the state waits for
the next switch.  A step past the horizon ends the run with the state at
the horizon and its resolve, and the event limit ends it with
``SimulationLimitError``.  A full chunk of recorded events is copied out
and the call goes on.  The loop works in the kernels' one workspace and is
not reentrant.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

import numpy as np

from . import quantizers
from .graphs import WeightedDigraph
from .quantizers import (InputError, Quantizer, UniformQuantizer, json_agent, json_field,
                         json_float, json_keys, kq_envelope)

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

def _require_finite_velocities(g: WeightedDigraph, x, quantizer: Quantizer, where: str = "",
                               state: str = "x") -> None:
    """Raise InputError, naming the first such agent of ``g`` after
    ``where``, where the weights let a sum that the resolver forms overflow:
    each sum (velocity terms, projected Gauss-Seidel targets, hold rows) is
    at most 2 W M, W the agent's row total and M the largest magnitude of
    the levels that the states ``x`` (named ``state``) touch."""
    lo, hi = kq_envelope(x, quantizer)
    magnitude = max(abs(lo), abs(hi))
    with np.errstate(over="ignore", invalid="ignore"):
        totals = g.weights.sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(totals * (2.0 * magnitude)))
    if bad.size:
        i = int(bad[0])
        raise InputError(f"{where}agent {i}: its weights sum to {float(totals[i])!r}, and twice "
                         f"that times the largest level magnitude {magnitude!r} of {state} "
                         "overflows, so its velocity would not be finite")


def selection_velocity(
    x: np.ndarray, z: np.ndarray, g: WeightedDigraph, quantizer: Quantizer
) -> np.ndarray:
    """Velocity ``v_i = sum_j a_ij (z_j - z_i)`` for a validated selection.

    The terms of every row are formed in one array; each row's contiguous
    slice is then summed on its own by numpy in increasing ``j``, which gives
    the bits of summing that row alone (``np.add.reduceat`` would not), and
    of the compiled resolve's velocities.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (g.n,) or z.shape != (g.n,):
        raise InputError("state/selection length must match the agent count")
    lo, hi = quantizer.krasovskii_sets(x)
    bad = np.flatnonzero(np.isnan(lo))
    if bad.size:  # the first agent whose state the method refuses
        quantizer.krasovskii_set(float(x[bad[0]]))
    outside = np.flatnonzero(~((lo <= z) & (z <= hi)))
    if outside.size:
        i = int(outside[0])
        lo, hi = quantizer.krasovskii_set(float(x[i]))
        raise ContractViolation(
            f"selection z[{i}]={z[i]} outside [{lo}, {hi}] at x[{i}]={x[i]}"
        )
    _require_finite_velocities(g, x, quantizer)
    rows, cols, values, ends = g.csr
    terms = values * (z[cols] - z[rows])
    return np.array([float(terms[a:b].sum()) for a, b in zip(ends, ends[1:])])


# ---------------------------------------------------------------------------
# Policy resolution
# ---------------------------------------------------------------------------

def resolve_sliding(
    x: np.ndarray,
    g: WeightedDigraph,
    quantizer: Quantizer,
    policy: SelectionPolicy = Sliding(),
    last_stopped: frozenset[int] = frozenset(),
    cutoff: float = DEFAULT_DENSE_CUTOFF,
) -> Resolution:
    """Compute one consistent selection at the current state.

    Surface agents are held where a coefficient in [0, 1] balances their
    velocity to zero; the rest depart with the extreme selection on the side
    they leave to.  Agents that listen to nobody hold trivially and
    broadcast the midpoint of their surface interval (the regularisation
    limit).  Held agents are reported with exactly zero velocity so that
    the integrator keeps them bit-exactly on their thresholds.

    Runs the compiled ``qcl_resolve`` (see the module docstring), which
    raises where no selection can be computed.  A last-stopped agent that is
    not an agent of ``g``, a cutoff that is not a number, and weights whose
    velocity terms may overflow (see ``_require_finite_velocities``) are an
    ``InputError``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise InputError("state length must match the agent count")
    for s in last_stopped:
        if not isinstance(s, (int, np.integer)) or not 0 <= s < g.n:
            raise InputError(f"last-stopped agent {s!r} is not an agent of the "
                             f"{g.n}-agent graph")
    if isinstance(cutoff, bool) or not isinstance(cutoff, numbers.Real) or cutoff != cutoff:
        raise InputError(f"cutoff must be a number, got {cutoff!r}")
    # min compares exactly, so an int too large for a float counts as inf.
    cutoff = float(min(cutoff, math.inf))
    _require_finite_velocities(g, x, quantizer)
    out = quantizers._load_kernel().resolve(g, x, quantizer, policy, last_stopped, cutoff)
    return Resolution(*out[:5])


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
        n = len(events[0].x) if events else 0
        for k, ev in enumerate(events):
            widths = (len(ev.x), len(ev.z), len(ev.velocity), len(ev.alpha))
            if widths != (n,) * 4:
                raise InputError(f"event {k} has {widths[0]} states, {widths[1]} selections, "
                                 f"{widths[2]} velocities and {widths[3]} coefficients, "
                                 f"where event 0 has {n} states")
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
        """Piecewise-affine interpolation between the events.  Past the final
        event the state stays put when the run ended at an equilibrium, and
        otherwise moves on with the final event's velocity, so that there
        ``t`` must be finite (InputError for +inf)."""
        if t != t:
            raise InputError("time must be a number, got nan")
        if t <= self.t[0]:
            return self.x[0].copy()
        # The last event at or before t starts the segment that holds t.
        idx = bisect_right(self._times, t) - 1
        if idx == len(self._times) - 1:
            if self.status == "equilibrium":
                return self.x[idx].copy()
            if t == math.inf:
                raise InputError("time must be finite past the final event of a run with "
                                 f"status {self.status!r}, got inf")
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
        header = ["t", "event"] + [f"{name}_{i + 1}" for name in ("x", "z", "alpha")
                                   for i in range(self.n)]
        body = quantizers._load_kernel().write(False, 0, *self._rows(stride))
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
        None for a number that is not finite."""
        return quantizers._load_kernel().write(True, indent, *self._rows)


# ---------------------------------------------------------------------------
# Event detection and the simulation loop
# ---------------------------------------------------------------------------

def simulate(config) -> Trajectory:
    """Run the event loop until equilibrium or the horizon.

    Each recorded event carries the state at the event together with the
    selection and velocity of the segment that starts there; the final
    event repeats the terminal selection.  The whole run is one call of the
    compiled event loop (see the module docstring).
    """
    quantizer: Quantizer = config.quantizer
    table, kinds, records, status, t, x = quantizers._load_kernel().advance(
        config.schedule, np.array(config.x0, dtype=float), quantizer, config.policy,
        DEFAULT_DENSE_CUTOFF, config.horizon, config.max_events)
    trajectory = Trajectory._from_table(quantizer, status, table, kinds, records)
    if status == "limit":
        # Each agent crosses about one threshold per level it still spans.
        crossings = len(x) * quantizer.level_span(x) / quantizer.delta_min
        raise SimulationLimitError(
            f"event limit {config.max_events} exceeded at t={t}; about "
            f"{crossings:.3g} level crossings remain (agents x level span / delta)",
            trajectory,
        )
    return trajectory


# ---------------------------------------------------------------------------
# Regularized oracle
# ---------------------------------------------------------------------------

def _ramp_knots(quantizer: Quantizer, x0, eps: float) -> tuple[list[float], list[float]]:
    """Breakpoints of the continuous piecewise-linear quantizer surrogate:
    ``th - eps`` and ``th + eps`` at the levels below and above each
    threshold ``th``."""
    if isinstance(quantizer, UniformQuantizer):
        d = quantizer.delta
        k_lo = math.floor((min(x0) - 2.0 * d) / d - 0.5) - 1
        k_hi = math.ceil((max(x0) + 2.0 * d) / d - 0.5) + 1
        if k_hi - k_lo >= _MAX_RAMP_THRESHOLDS:
            raise InputError(
                f"the states span {k_hi - k_lo + 1} thresholds; the regularized "
                f"oracle builds at most {_MAX_RAMP_THRESHOLDS}"
            )
        thresholds = [quantizer._threshold(k) for k in range(k_lo, k_hi + 1)]
        levels = [k * d for k in range(k_lo, k_hi + 2)]
    else:
        thresholds, levels = quantizer.thresholds, quantizer.levels
    xp = [v for th in thresholds for v in (th - eps, th + eps)]
    for th, below, above in zip(thresholds, xp[::2], xp[1::2]):
        if not below < above:
            raise InputError(f"eps={eps!r} is too small for the threshold {th!r}: "
                             "th - eps and th + eps round to the same number")
    fp = [v for pair in zip(levels, levels[1:]) for v in pair]
    return xp, fp


def _require_stride(stride: float) -> None:
    # bool is an int, and numpy's scalars register with numbers.
    if isinstance(stride, bool) or not isinstance(stride, numbers.Real):
        raise InputError(f"stride must be a real number, got {stride!r}")
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
    them as ``eps`` and ``h`` shrink.  The run is one compiled call.
    """
    quantizer: Quantizer = config.quantizer
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
    # The knots must increase; for a uniform quantizer delta/4 is the tighter bound.
    if not isinstance(quantizer, UniformQuantizer):
        th = quantizer.thresholds
        gap = min([b - a for a, b in zip(th, th[1:])], default=math.inf)
        if not (2.0 * eps < gap):
            raise InputError(f"eps must be below half the smallest threshold gap = {gap / 2.0}")
    xp, fp = _ramp_knots(quantizer, x0, eps)
    # With every state on one level, a state within eps of a threshold still
    # moves along its ramp: then the largest jump across one bounds h.
    span = quantizer.level_span(x0) or max([hi - lo for lo, hi in zip(fp[::2], fp[1::2])],
                                           default=0.0)
    guard = 4.0 * len(x0) * config.schedule.a_high * span
    if guard > 0.0 and not (h < eps / guard):
        raise InputError(f"step h={h} too large for eps={eps}: need h < {eps / guard:.3g}")

    # Counted in float first: a tiny stride overflows to inf, or asks for
    # more samples than memory holds; a negative t_end keeps the sample at 0.
    samples = t_end / stride + 1e-9
    if not samples < _MAX_SAMPLE_ROWS:
        raise InputError(f"stride {stride!r} needs more than {_MAX_SAMPLE_ROWS:,} sample rows "
                         f"up to t_end={t_end!r}")
    n_samples = int(math.floor(max(samples, 0.0)))
    times = np.arange(n_samples + 1) * stride
    if not xp:
        # A single level and no threshold: q is constant and nothing moves.
        return RegularizedRun(times=times, states=np.array([x0] * len(times), dtype=float))
    blow_up = 10.0 * (max(map(abs, fp)) + 1.0)
    states, unstable = quantizers._load_kernel().regularized(
        config.schedule, x0, xp, fp, h, stride, n_samples, blow_up)
    if unstable:
        raise RegularizationUnstable(f"state norm exploded at t={unstable * stride}; "
                                     "reduce the step size h")
    return RegularizedRun(times=times, states=states)
