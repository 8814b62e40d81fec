"""The self-check that a build of ``_kernels.c`` must pass before qcl uses it.

Each compiled entry point must reproduce the bits of the list code it
ports on fixed inputs chosen so that a change in the rounding or order of
any operation shows.  ``quantizers._load_kernel`` runs it only when a build
is new.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import quantizers
from .dynamics import (NoSlidingSelection, SequentialSlow, SimulationLimitError, Sliding,
                       _build_hold_system, _gaussian_solve, _pgs_lists, _resolve_python,
                       _rk4_chunk_lists, _Singular, _velocities_numpy, simulate)
from .graphs import GraphSchedule, WeightedDigraph
from .quantizers import UniformQuantizer, _krasovskii_scan_lists, _threshold_hits_lists


def kernels_agree(kernels) -> bool:
    """Whether every compiled entry point gives the bits of its list code."""
    return (_rk4_agrees(kernels.rk4_chunk) and _hold_solve_agrees(kernels.hold_solve)
            and _velocities_agree(kernels.velocities)
            and _scans_agree(kernels.uniform_sets, kernels.uniform_hits)
            and _pgs_agrees(kernels.pgs) and _resolve_agrees(kernels.resolve)
            and _runs_agree(kernels))


def _rk4_agrees(kernel) -> bool:
    """Whether ``kernel`` gives the list kernel's bits on a fixed set of chunks.

    Two large steps from each of 16 spread-out states reach every knot
    segment and both clamps, and keep each update comparable to the state,
    so a change in the rounding of any operation shows in the result.  The
    rows need not form a Laplacian.
    """
    rows = [[(0, 1.3), (1, -0.7), (3, 0.2)], [(0, -1.1), (1, 2.3), (2, -0.9)],
            [(1, -0.6), (2, 1.7), (3, -1.3)], [(0, 0.4), (2, -1.2), (3, 0.9)]]
    xp = [-1.9, -0.7, 0.4, 1.6, 2.2]
    fp = [-1.7, -0.2, 0.3, 1.1, 2.6]

    def bits(chunk, k: int) -> list[str]:
        x = [((7 * k + 3 * i) % 13 - 6) / 2.7 for i in range(4)]
        return [v.hex() for v in chunk(x, rows, xp, fp, 0.3, 2)]

    return all(bits(kernel, k) == bits(_rk4_chunk_lists, k) for k in range(16))


def _hold_solve_agrees(kernel) -> bool:
    """Whether ``kernel`` gives the bits of ``_build_hold_system`` and
    ``_gaussian_solve``, singular cases included, on a fixed set of systems.

    On the spread-out graph every rounding shows.  On the path, whose
    weights are symmetric, each end row ties with its neighbour for the
    first pivot.  On the last graph, agent 0's pivot equals the tolerance
    (singular), agent 1's lies just above it while a rhs is far larger than
    every entry, and agent 4's rhs is -0.0 in a row with a zero factor.
    """
    spread = WeightedDigraph(np.array(
        [[(1 + (3 * i + 5 * j) % 7) / 2.9 if i != j and (i + 2 * j) % 5 else 0.0
          for j in range(9)] for i in range(9)]))
    path = WeightedDigraph.from_edges(9, [
        edge for i in range(8) for w in [(1 + (5 * i) % 7) / 3.7]
        for edge in ((i, i + 1, w), (i + 1, i, w))])
    edge_cases = WeightedDigraph.from_edges(
        6, [(0, 3, 1e-12), (1, 3, 2e-12), (2, 3, 0.5), (4, 5, 0.75)])
    z = np.array([((5 * i) % 9 - 4) / 1.7 for i in range(9)])
    systems = [
        (g, active, {i: ((i * k) % 5 - 2.3, (i * k) % 5 - 2.3 + (1 + (i + k) % 3) / 3.1)
                     for i in active}, z)
        for g in (spread, path) for k in range(8)
        for active in [[i for i in range(9) if (i * k + k) % 4 != 3]]
    ] + [
        (edge_cases, [0], {0: (0.0, 1.0)}, z[:6]),
        (edge_cases, [1, 2, 4], {1: (-20.0, -19.0), 2: (0.0, 1.0), 4: (-0.0, 1.0)},
         np.array([0.0, 0.0, 0.0, -10.0, 0.0, 0.0])),
    ]

    def lists(g, active, boxes, z) -> list[float] | None:
        rows, rhs, _ = _build_hold_system(active, boxes, z, g)
        try:
            return _gaussian_solve(rows, rhs)
        except _Singular:
            return None

    def bits(solution: list[float] | None) -> list[str] | None:
        return None if solution is None else [v.hex() for v in solution]

    return all(bits(kernel(*system)) == bits(lists(*system)) for system in systems)


def _velocities_agree(kernel) -> bool:
    """Whether ``kernel`` gives the bits of numpy's row sums.

    numpy sums below 8 terms in one fold, up to 128 in eight interleaved
    partial sums and above that in halves split at a multiple of 8, so the
    rows take the lengths around each of those boundaries.  The terms mix
    signs and magnitudes from 1e-8 to 1e8, so that another order rounds
    differently; with the second selection every term is -0.0.
    """
    counts = (0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 300)
    rows = len(counts)
    g = WeightedDigraph.from_edges(rows + max(counts), [
        (i, rows + t, (1 + (3 * t + i) % 5) / 1.3) for i, count in enumerate(counts)
        for t in range(count)])
    spread = np.array([(-1) ** j * (1 + j % 3 / 7) * 10.0 ** ((5 * j) % 17 - 8)
                       for j in range(g.n)])
    zeros = np.array([0.0] * rows + [-0.0] * max(counts))
    return all([v.hex() for v in kernel(g, z, range(rows))]
               == [v.hex() for v in _velocities_numpy(g, z, range(rows))]
               for z in (spread, zeros))


def _ulps(x: float, count: int) -> float:
    """The float ``count`` steps above x (below for a negative count)."""
    for _ in range(abs(count)):
        x = math.nextafter(x, math.copysign(math.inf, count))
    return x


def _scans_agree(sets, hits) -> bool:
    """Whether both scans give the bits of their list code on fixed states.

    For steps whose thresholds ``(k + 0.5) * delta`` round differently from
    ``k * delta + 0.5 * delta``, the states lie on thresholds of both signs,
    1-3 ulps beside them, on levels, at -0.0 and just inside |x|/delta <
    2^52; the selections mix values inside and outside each set, NaN
    included; the velocities mix signs and zeros, and repeated (x, v) pairs
    and x = 0 moving either way tie for the closest arrival.  States off the
    lattice must be declined.
    """
    big = 2.0 ** 52
    for delta in (1.0, 0.1, 0.01, 1 / 3, 0.7, 2.5e-3):
        q = UniformQuantizer(delta)
        xs = [-0.0, 0.0, (big - 2.5) * delta, -(big - 2.5) * delta, (big - 2.0) * delta]
        for k in (*range(-9, 10), 338, -4417):
            t = (k + 0.5) * delta
            xs += [t, k * delta] + [_ulps(t, u) for u in (-3, -2, -1, 1, 2, 3)]
        sel = xs[3:] + [math.nan, (big - 3.0) * delta, 0.0]
        vel = [(1.0, -1.0, 0.0, 2.5, -0.25, 1.0, 0.0)[i % 7] for i in range(len(xs))]
        for start in range(0, len(xs), 9):
            x = xs[start:start + 13]
            for s in (sel[start:start + 13], None):
                z, z_ref = np.zeros(len(x)), np.zeros(len(x))
                if not _same_sets(sets(delta, x, s, z), z,
                                  _krasovskii_scan_lists(x, q, s, z_ref), z_ref):
                    return False
            if repr(hits(delta, x, vel[start:start + 13])) != \
                    repr(_threshold_hits_lists(x, vel[start:start + 13], q)):
                return False
        for x, v in (([0.2 * delta] * 3 + [0.7 * delta] * 2, [1.0, 0.0, 1.0, -1.0, -1.0]),
                     ([0.0, 1.0, 0.0, 0.0], [1.0, 0.0, -1.0, 1.0])):
            if repr(hits(delta, x, v)) != repr(_threshold_hits_lists(x, v, q)):
                return False
        for bad in (2.0 ** 53 * delta, -2.0 ** 60 * delta, math.inf, math.nan):
            if sets(delta, [0.0, bad], None, None) is not None or \
                    hits(delta, [0.0, bad], [0.0, 1.0]) is not None:
                return False
    return True


def _same_sets(scan, z: np.ndarray, ref, z_ref: np.ndarray) -> bool:
    """Whether two scans match, their levels compared where they are set."""
    interior = [i for i in range(len(z)) if i not in ref.boxes]
    return (scan is not None and repr(tuple(scan)) == repr(tuple(ref))
            and repr(z[interior]) == repr(z_ref[interior]))


#: States of a unit step that run projected Gauss-Seidel: ``(n, edges, x,
#: last stopped, cutoff)``.  See ``_resolve_agrees``.
_PGS_STATES = (
    (2, [(0, 1, 1.0), (1, 0, 1.0)], [0.5, 0.5], (), 64),
    (5, [(1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 0, 1.0), (3, 0, 1.0), (3, 4, 1.5),
         (3, 1, 0.7)], [1.0, 0.5, 0.5, 0.5, -1.0], (), 2),
    (8, [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 0.3), (2, 3, 1.0), (2, 4, 0.2), (3, 2, 1.0),
         (3, 5, 0.1), (3, 1, 0.3), (6, 7, 1.0), (6, 4, 1.0), (7, 6, 1.0), (7, 4, 0.3)],
     [0.5, 0.5, 0.5, 0.5, 1.0, -1.0, 0.5, 0.5], (), 64),
    (6, [(0, 4, 1.0), (0, 5, 1.5), (1, 0, 2.0), (1, 4, 1.0), (1, 5, 0.5), (2, 3, 2.0),
         (2, 4, 1.5), (3, 0, 2.0), (3, 5, 0.5), (4, 0, 1.0), (4, 1, 1.0), (5, 0, 1.5),
         (5, 2, 1.5), (5, 3, 1.0)], [-1.5, -1.5, -0.5, 1.5, 2.0, 0.5], [2], 64),
)


def _pgs_agrees(pgs) -> bool:
    """Whether ``pgs`` gives the bits of ``dynamics._pgs_lists``, the
    selection included, on every surface agent that listens to someone in
    each of the ``_PGS_STATES``, with cutoffs 2 and 64."""
    def bits(run, z):
        try:
            held, departing, alphas = run(z)
        except NoSlidingSelection:
            return None
        return held, departing, {i: a.hex() for i, a in alphas.items()}, z.tobytes()

    for n, edges, x, _, _ in _PGS_STATES:
        g = WeightedDigraph.from_edges(n, edges)
        z = np.zeros(n)
        boxes = _krasovskii_scan_lists(x, UniformQuantizer(1.0), z=z).boxes
        agents = [i for i in boxes if g.rows[i].total != 0.0]
        for cutoff in (2, 64):
            ref = _on_lists(lambda: bits(lambda z: _pgs_lists(agents, boxes, z, g, cutoff),
                                         z.copy()))
            if ref is None or bits(lambda z: pgs(g, agents, boxes, z, cutoff), z.copy()) != ref:
                return False
    return True


def _resolve_agrees(resolve) -> bool:
    """Whether ``resolve`` gives the bits of ``dynamics._resolve_python`` on
    the list code, and the arrival of ``_threshold_hits_lists`` on its
    velocity, or declines where it must.

    Resolves that it accepts must match on 60 random graphs with dyadic
    weights, states on thresholds and levels, either policy and random
    last-stopped agents.  It must accept ties for the largest excess whose
    other tie-break changes the result, under each policy, coefficients
    1.5e-12 from 0 and from 1, which are not snapped, and a released agent
    that the re-check finds at rest, which holds.  Under both policies it
    must accept the states that run projected Gauss-Seidel: a singular
    pair; three candidates over a cutoff of 2, two of which converge onto
    their upper box end from inside, and too many to polish; a free
    translation pair beside agents that converge to interior holds and onto
    box ends, which leaves the polish singular; and a departure that the
    re-check finds pushed back onto its surface.  Where the polish does not
    run, the sweep order and the end-snap show in the bits.  It must decline
    a state off the lattice.
    """
    def case(n, edges, x, sequential=False, stopped=(), delta=1.0, cutoff=64):
        return (WeightedDigraph.from_edges(n, edges), np.array(x, dtype=float), delta,
                sequential, frozenset(stopped), cutoff)

    rng = random.Random(1)
    drawn = []
    for _ in range(60):
        n, delta = rng.randint(2, 8), rng.choice([1.0, 0.25, 1 / 3])
        edges = [(i, j, rng.choice([0.5, 1.0, 1.5, 2.0]))
                 for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
        x = [(rng.randint(-2, 2) + (0.5 if rng.random() < 0.6 else 0.0)) * delta
             for _ in range(n)]
        drawn.append(case(n, edges, x, rng.random() < 0.5,
                          [i for i in range(n) if rng.random() < 0.3], delta))
    accepted = [
        case(6, [(0, 1, 1.0), (2, 1, 2.0), (3, 0, 2.0), (4, 0, 1.0), (4, 1, 1.0), (4, 3, 3.0),
                 (5, 2, 1.0)], [-1.5, -0.5, 3.5, -1.5, -0.5, -0.5]),
        case(5, [(0, 3, 2.0), (0, 4, 2.0), (1, 0, 1.0), (1, 4, 3.0), (2, 1, 1.0), (3, 2, 1.0),
                 (4, 0, 2.0), (4, 3, 1.0)], [2.5, 0.5, 1.5, 0.5, -2.0], True, [0, 2]),
        case(3, [(0, 1, 1.5e-12), (0, 2, 1.0)], [0.5, 1.0, 0.0]),
        case(3, [(0, 1, 1.0), (0, 2, 1.5e-12)], [0.5, 1.0, 0.0], True, [1]),
        case(3, [(0, 1, 1.0), (1, 2, 1.0)], [0.5, 0.5, 2.0]),
    ] + [
        case(n, edges, x, sequential, stopped, cutoff=cutoff)
        for n, edges, x, stopped, cutoff in _PGS_STATES for sequential in (False, True)
    ]
    declined = [case(2, [(0, 1, 1.0)], [0.5, 2.0 ** 60])]

    def bits(result):
        z, velocity, alpha, held, departing = result[:5]
        return (z.tobytes(), velocity.tobytes(), [(i, a.hex()) for i, a in alpha], held,
                departing)

    def agrees(g, x, delta, sequential, stopped, cutoff, must) -> bool:
        out = resolve(g, x, delta, sequential, stopped, cutoff)
        if out is None:
            return must != "accept"
        if must == "decline":
            return False
        q = UniformQuantizer(delta)
        try:
            ref = _resolve_python(x, g, q, SequentialSlow() if sequential else Sliding(),
                                  stopped, cutoff)
        except (ArithmeticError, ValueError, RuntimeError):
            return False
        return (bits(out) == bits((ref.z, ref.velocity, ref.alpha, ref.held, ref.departing))
                and repr(out[5]) == repr(_threshold_hits_lists(x, ref.velocity, q)))

    return _on_lists(lambda: all(agrees(*c, must) for cases, must in (
        (drawn, "match"), (accepted, "accept"), (declined, "decline")) for c in cases))


def _on_lists(check, kernels=None):
    """``check()`` with ``quantizers._load_kernel`` returning ``kernels``.

    The self-check runs inside the first ``_load_kernel`` call, which a
    nested call would repeat, build and check included; so the reference
    runs on the list code (no kernels), and a run of the build under check
    gets it passed in.
    """
    loader = quantizers._load_kernel
    quantizers._load_kernel = lambda: kernels
    try:
        return check()
    finally:
        quantizers._load_kernel = loader


def _runs_agree(kernels) -> bool:
    """Whether whole runs of ``simulate`` with ``kernels`` give the events,
    status and errors of the same runs on the list code, in bits.

    The lines have steps, weights and spacings that are not binary
    fractions, so that a step x + v dt rounded once (as a fused multiply-add)
    shows in the states, and on the line of weight 0.7 an arrival left where
    x + v dt puts it, off its threshold, does too.  They run under both
    policies, from states on thresholds, to the event limit and to the
    horizon.  On the schedule of two line graphs, arrivals at 0.25 and 1.0
    coincide with its switches; repeated with a period of 0.7, the switch
    times k * 0.7 + 0.1 round.  On the last schedule an arrival that comes
    before the switch at 0.375 steps to a time that rounds onto it.
    """
    from .scenarios import ScenarioConfig, line_graph

    line, heavy = line_graph(6), line_graph(6, 2.0)
    spread = [0.0937 * i + 0.013 for i in range(6)]
    on_thresholds = [(k + 0.5) / 3 for k in (0, 2, 3, 5, 8, 9)]
    runs = [
        (GraphSchedule.time_invariant(line, 1.0, 2.0), 0.1, spread, {}),
        (GraphSchedule.time_invariant(line, 1.0, 2.0), 1 / 3, on_thresholds, {}),
        (GraphSchedule.time_invariant(line, 1.0, 2.0), 0.1, spread, {"max_events": 7}),
        (GraphSchedule.time_invariant(line, 1.0, 2.0), 0.1, spread, {"horizon": 0.3}),
        (GraphSchedule.time_invariant(line_graph(6, 0.7), 0.7, 0.7), 1.0,
         [0.0182, 2.3449, 4.2378, 5.2531, 7.1425, 9.0116], {}),
        (GraphSchedule(((0.0, line), (0.25, heavy), (1.0, line)), 1.0, 2.0), 0.25,
         [0.0, 0.0, 0.0, 0.0, 0.6, 1.1], {}),
        (GraphSchedule(((0.0, line), (0.1, heavy)), 1.0, 2.0, 0.7), 0.1, spread, {}),
        (GraphSchedule(((0.0, WeightedDigraph.from_edges(
            3, [(0, 2, 2.0), (1, 0, 1.0), (1, 2, 2.0), (2, 0, 1.0)])),
                        (0.375, WeightedDigraph.from_edges(3, [(1, 0, 0.5), (2, 0, 0.5)]))),
                       0.3, 2.0), 1 / 3, [1.5, 1 / 3, 0.0], {}),
    ]
    configs = [ScenarioConfig(schedule, UniformQuantizer(delta), x0, policy, **limits)
               for schedule, delta, x0, limits in runs
               for policy in (Sliding(), SequentialSlow())]

    def bits(config):
        try:
            traj, outcome = simulate(config), None
        except SimulationLimitError as err:
            traj, outcome = err.trajectory, str(err)
        return outcome, traj.status, [
            (ev.t.hex(), ev.kind, [v.hex() for v in ev.x + ev.z + ev.velocity],
             [None if a is None else a.hex() for a in ev.alpha], ev.hits, ev.departing)
            for ev in traj.events]

    return all(_on_lists(lambda: bits(config), kernels) == _on_lists(lambda: bits(config))
               for config in configs)
