"""The list code that qcl's compiled kernels port, kept as the test suite's
differential oracle: the resolver, the closest-arrival scan, the event loop
of ``simulate``, the RK4 kernel and the sample loop of the regularized
oracle.

``KERNELS`` wraps it in the interface of ``qcl._ckernel.Kernels``:
``resolve``, ``advance`` (a whole run), ``regularized`` (a whole oracle
run) and ``write``, the Python writer of every export.
``conftest.kernel_path("lists")`` installs it in place of the compiled
kernels, so that ``simulate`` runs this event loop, and
``_kernel_check.digests(KERNELS)`` are the sha256s that every build must
reproduce.  Each function keeps the order of every floating-point
operation of the compiled code, so their outputs agree bit for bit,
errors included: a pinned agent whose velocity is NaN (its terms
overflowed to infinities of both signs) raises the InputError of the
compiled resolve.
"""

from __future__ import annotations

import math
import sys
import warnings
import weakref
from bisect import bisect_right
from typing import Callable, Collection, NamedTuple

import numpy as np

from qcl import _json
from qcl._ckernel import PIN_OVERFLOW, Kernels
from qcl.dynamics import (EVENT_KINDS, ContractViolation, FixedAlpha, NoSlidingSelection,
                          Resolution, SelectionPolicy, SequentialSlow, _record, _row_dicts)
from qcl.graphs import GraphSchedule, WeightedDigraph, laplacian
from qcl.quantizers import InputError, Quantizer

# Feasibility slack for hold coefficients: absorbs elimination round-off
# without admitting genuinely infeasible holds.
_FEAS_SLACK = 1e-12
# Relative tolerance of the projected Gauss-Seidel sweep (on z updates).
_PGS_TOL = 1e-12
_PGS_MAX_SWEEPS = 100_000
# Residual velocities below this (scaled) threshold count as a hold.
_RESIDUAL_TOL = 1e-9


class SparseRow(NamedTuple):
    """The nonzero weights of one row, in increasing column order."""

    #: ``(j, a_ij)`` pairs on Python floats.
    pairs: tuple[tuple[int, float], ...]
    #: ``float(weights[i].sum())``, summed over the full row.
    total: float


_ROWS: dict[int, tuple[SparseRow, ...]] = {}


def sparse_rows(g: WeightedDigraph) -> tuple[SparseRow, ...]:
    """Per-row nonzero pairs and totals of ``g`` on Python floats, built
    once per graph."""
    built = _ROWS.get(id(g))
    if built is None:
        _, c, values, ends = g.csr
        cols, vals = c.tolist(), values.tolist()
        # numpy sums each contiguous row on its own: the bits of weights[i].sum().
        totals = g.weights.sum(axis=1).tolist()
        built = _ROWS[id(g)] = tuple(
            SparseRow(tuple(zip(cols[a:b], vals[a:b])), total)
            for a, b, total in zip(ends, ends[1:], totals))
        weakref.finalize(g, _ROWS.pop, id(g), None)
    return built


class SetScan(NamedTuple):
    """The Krasovskii sets of all agents of a state, from one scan."""

    #: ``(lo, hi)`` of each agent on a threshold, in increasing agent order.
    boxes: dict[int, tuple[float, float]]
    #: The agents whose selection lies outside their set, in increasing order.
    outside: list[int]


def krasovskii_scan(x, quantizer: Quantizer, selection=None, z=None) -> SetScan:
    """The Krasovskii sets of all agents of ``x`` in one scan, with one
    ``krasovskii_set`` call per agent.

    Writes the level of each agent inside a cell into the array ``z`` when
    one is given; its entries at surface agents are left unspecified.  With
    ``selection``, lists the agents ``i`` where ``lo <= selection[i] <= hi``
    fails.
    """
    boxes = {}
    sets = []
    for i, value in enumerate(x.tolist() if hasattr(x, "tolist") else x):
        lo, hi = quantizer.krasovskii_set(float(value))
        if lo != hi:
            boxes[i] = (lo, hi)
        elif z is not None:
            z[i] = lo
        sets.append((lo, hi))
    outside = [] if selection is None else [
        i for i, ((lo, hi), s) in enumerate(zip(sets, selection)) if not lo <= s <= hi]
    return SetScan(boxes, outside)


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
    w_out = {i: sparse_rows(g)[i].total for i in agents}
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
        sparse = sparse_rows(g)[i]
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
        near = {j for s in last_stopped for j, _ in sparse_rows(g)[s].pairs}
        near.update(i for i in excess
                    if any(j in last_stopped for j, _ in sparse_rows(g)[i].pairs))
        return min(excess, key=lambda i: (i not in near, -excess[i], i))

    return pick


def resolve_python(x: np.ndarray, g: WeightedDigraph, quantizer: Quantizer,
                   policy: SelectionPolicy, last_stopped: frozenset[int],
                   cutoff: float) -> Resolution:
    """``resolve_sliding`` of a state of the right length."""
    n = g.n
    z = np.empty(n)
    boxes = krasovskii_scan(x, quantizer, z=z).boxes

    pins: dict[int, float] = {}
    if isinstance(policy, FixedAlpha):
        pins = {a: v for a, v in policy.overrides if a in boxes}
    trivially_held = {i for i in boxes if i not in pins and sparse_rows(g)[i].total == 0.0}
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
        velocities = _velocities(g, z, pins)
        for i, v in zip(pins, velocities):
            if v != v:
                raise InputError(PIN_OVERFLOW.format(i))
        stale = sorted((-abs(v), i) for i, v in zip(pins, velocities) if v != 0.0)
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


def threshold_hits(x, velocity, quantizer: Quantizer) -> tuple[float, list[tuple[int, float]]]:
    """Closest threshold arrival: exact dt and all agents tied at it, with one
    ``next_threshold`` call per moving agent."""
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


def rk4_chunk(x: list[float], rows: list[list[tuple[int, float]]], xp: list[float],
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


def regularized(schedule: GraphSchedule, x0, xp: list[float], fp: list[float], h: float,
                stride: float, samples: int, blow_up: float) -> tuple[np.ndarray, int]:
    """``Kernels.regularized`` on lists, with ``rk4_chunk`` for every
    segment.

    For each sample at ``k * stride`` the state steps from segment to
    segment, each ending at the next switch or the sample, with the nonzero
    terms of the dense Laplacian of the segment's graph; a state whose
    largest ``|x_i|`` exceeds ``blow_up`` ends the run there.
    """
    x = [float(v) for v in x0]
    states = [x]
    t = 0.0
    for k in range(1, samples + 1):
        target = k * stride
        while t < target:
            seg_end = min(schedule.next_switch_after(t), target)
            rows = [[(j, l) for j, l in enumerate(row) if l != 0.0]
                    for row in laplacian(schedule.graph_at(t)).tolist()]
            steps = max(1, math.ceil((seg_end - t) / h - 1e-9))
            x = rk4_chunk(x, rows, xp, fp, (seg_end - t) / steps, steps)
            t = seg_end
        if max(map(abs, x)) > blow_up:
            return np.array(states), k
        states.append(x)
    return np.array(states), 0


def resolve(g: WeightedDigraph, x: np.ndarray, quantizer: Quantizer, policy: SelectionPolicy,
            last_stopped, cutoff: float) -> tuple:
    """``Kernels.resolve``: the fields of ``resolve_python``'s resolution,
    then the ``threshold_hits`` of its velocity."""
    res = resolve_python(x, g, quantizer, policy, frozenset(last_stopped), cutoff)
    return (res.z, res.velocity, res.alpha, res.held, res.departing,
            threshold_hits(x, res.velocity, quantizer))


def advance(schedule: GraphSchedule, x: np.ndarray, quantizer: Quantizer,
            policy: SelectionPolicy, cutoff: float, horizon: float, max_events: int) -> tuple:
    """``Kernels.advance``: the event loop of ``simulate`` on lists, with
    ``resolve`` for every resolve.

    Each event is resolved with the last stopped agents and recorded.  A
    state at rest is terminal when every graph still to come holds it at
    zero velocity with no last-stopped agents; else it waits for the next
    switch, or, with that beyond the horizon, is recorded again at the
    horizon.  A moving state steps to the closer of the next arrival and
    the next switch, snapping the hit agents onto their thresholds, or, when
    that passes the horizon, to the horizon, where it is resolved and
    recorded once more.  The event limit is checked before each event but
    that last one.
    """
    n = len(x)
    rows: list[np.ndarray] = []
    kinds: list[int] = []
    records: list[int] = []
    t, kind, hits_now, last_stopped = 0.0, "start", (), frozenset()

    def add(kind: str, res: tuple, hits: tuple[int, ...]) -> None:
        z, velocity, alphas, _, departing, _ = res
        alpha = np.full(n, math.nan)
        for i, a in alphas:
            alpha[i] = a
        rows.append(np.concatenate(([t], x, z, velocity, alpha)))
        kinds.append(EVENT_KINDS.index(kind))
        records.extend(_record(hits, departing))

    def done(status: str) -> tuple:
        return (np.array(rows).reshape(len(rows), 4 * n + 1), np.array(kinds, dtype=np.int64),
                np.array(records, dtype=np.int64), status, t, x)

    while True:
        if len(rows) >= max_events:
            return done("limit")
        res = resolve(schedule.graph_at(t), x, quantizer, policy, last_stopped, cutoff)
        ts = schedule.next_switch_after(t)
        at_rest = not res[1].any()
        terminal = at_rest and not any(
            resolve(g, x, quantizer, policy, (), cutoff)[1].any()
            for g in schedule.graphs_active_from(t))
        add("equilibrium" if terminal else kind, res, hits_now)
        if terminal:
            return done("equilibrium")

        if at_rest:
            if ts > horizon:
                t = horizon
                add("horizon", res, ())
                return done("horizon")
            t, kind, hits_now = ts, "topology-switch", ()
            continue

        dt_th, th_hits = res[5]
        dt_sw = ts - t
        dt = min(dt_th, dt_sw)
        if t + dt > horizon:
            x = x + res[1] * (horizon - t)
            t = horizon
            add("horizon", resolve(schedule.graph_at(t), x, quantizer, policy, last_stopped,
                                   cutoff), ())
            return done("horizon")
        x = x + res[1] * dt
        if dt_th <= dt_sw:
            for i, th in th_hits:
                x[i] = th  # snap: "on a surface" stays a bit-exact predicate
            t = ts if dt_th == dt_sw else t + dt
            kind = "threshold-hit"
            hits_now = tuple(i for i, _ in th_hits)
            last_stopped = frozenset(hits_now)
        else:
            t, kind, hits_now = ts, "topology-switch", ()


def _csv_line(row: dict) -> str:
    """One CSV line: ``repr`` of each number, an empty cell off the surface."""
    return ",".join([repr(row["t"]), row["event"], *map(repr, row["x"]), *map(repr, row["z"]),
                     *["" if a is None else repr(a) for a in row["alpha"]]]) + "\n"


def write(json: bool, indent: int, *columns: np.ndarray) -> str | None:
    """``Kernels.write``: the rows of a trajectory export as ``qcl_write``
    gives them, the CSV lines of ``_csv_line`` or the list that
    ``qcl._json.dumps`` writes at ``indent``, None where it refuses a
    number that is not finite."""
    rows = _row_dicts(*columns)
    if not json:
        return "".join(map(_csv_line, rows))
    try:
        return _json.dumps(rows, indent)
    except ValueError:
        return None


#: The reference in the interface of the compiled kernels.
KERNELS = Kernels(resolve=resolve, advance=advance, regularized=regularized, write=write)


def main() -> int:
    """Print the sha256 of each group that the reference gives, the ones
    every build must reproduce (``qcl._kernel_check.DIGESTS``), and return
    1, naming the groups that differ from the checked-in ones, or 0."""
    from qcl import _kernel_check

    differ = []
    with warnings.catch_warnings():
        # The decline states' weights of 1e308 overflow on purpose.
        warnings.simplefilter("ignore", RuntimeWarning)
        for group, digest in _kernel_check.digests(KERNELS):
            print(f"{group:<10} {digest}")
            if digest != _kernel_check.DIGESTS.get(group):
                differ.append(group)
    if differ:
        print("the reference differs in groups " + ", ".join(differ), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
