"""The self-check that a build of ``_kernels.c`` must pass before qcl uses it.

``digests`` runs each entry point of the ``Kernels`` it is given on fixed
inputs, chosen so that a change in the rounding or order of any operation
shows, and hashes the bits of their outputs, and the error of every
decline, into one sha256 per group: ``writer``, the text of ``write`` (the
CSV, and the JSON at indents 0 and 3) of trajectories that reach every
formatting rule; ``oracle``, ``regularized`` on runs that reach every knot
segment, both clamps and a topology switch; ``row sums`` and ``resolves``,
``resolve`` on states that reach every static helper (the hold solver, the
row sums, the set and hit scans of both quantizers, projected Gauss-Seidel,
the pins) and on states that it must decline; ``runs`` and ``rest runs``,
the event table, kinds, records, status and stop time and state that
``advance`` returns for whole runs.  Each must equal its entry in
``DIGESTS``, which the test suite recomputes from the list code that the C
code ports (``tests/reference.py``).  ``quantizers._load_kernel`` runs the
check only when a build is new.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

import numpy as np

from ._ckernel import sha256
from .dynamics import (DEFAULT_DENSE_CUTOFF, FixedAlpha, SequentialSlow, Sliding, Trajectory,
                       TrajectoryEvent)
from .graphs import GraphSchedule, WeightedDigraph
from .quantizers import GeneralQuantizer, UniformQuantizer

#: ``digests`` of the reference kernels, by group in the order of the
#: check; ``python tests/reference.py`` prints them.
DIGESTS = {
    "writer": "374c27217954dee9c482e39d60b0976231ee19204fdfccdde06a0ca13589a21a",
    "oracle": "30b73574e75ad76a1764d0f1ce05873b86640dcd68a1a8765faabb39cd31f48e",
    "row sums": "b6c924a0d7fc9827497d3b8c7dd586db39fd0146efd8023cc50565f5b067a5f5",
    "resolves": "520ad177b841de718e8d9d3a5553d1ea9bee585ff729d414f5a28f92736273da",
    "runs": "67dc5bd1832dfc11709745cf2e78cc5e9b888afae596ba6e089a35521ee58430",
    "rest runs": "af6682133e4b47e9d550e5f581d78126e9a59177cf150514efa48224bfc35f3e",
}

#: Uneven gaps, thresholds off the midpoints (-0.3 and 2.9 not binary
#: fractions) and a threshold at 0.
_GENERAL = GeneralQuantizer((-1.5, -0.25, 0.5, 0.75, 2.0, 3.25), (-0.3, 0.0, 0.625, 1.0, 2.9))


def first_difference(kernels) -> str | None:
    """The first group whose outputs of ``kernels`` differ from the
    reference bits, or None; the check stops at that group."""
    return next((group for group, digest in digests(kernels) if digest != DIGESTS[group]), None)


def digests(kernels) -> Iterator[tuple[str, str]]:
    """``(group, sha256)`` of the outputs of ``kernels`` (a
    ``_ckernel.Kernels``) on each group of fixed inputs in turn, one
    ``repr`` of a record of bits per line.  A build whose row sums read past
    an empty row differs on the row sums before the later states' rows,
    which end the arrays, let it read past them."""
    groups = {"writer": lambda: _writer_records(kernels.write),
              "oracle": lambda: _oracle_records(kernels.regularized),
              "row sums": lambda: _resolve_records(kernels.resolve, _row_states()),
              "resolves": lambda: _resolve_records(kernels.resolve, _resolve_states()),
              "runs": lambda: _run_records(kernels.advance, _runs()),
              "rest runs": lambda: _run_records(kernels.advance, _rest_runs())}
    for group, records in groups.items():
        h = sha256()
        for record in records():
            h.update(repr(record).encode() + b"\n")
        yield group, h.hexdigest()


def _oracle_records(regularized) -> list[tuple]:
    """The bits of ``regularized`` on a fixed set of oracle runs.

    Steps of 0.05 to 0.13 from 16 spread-out states reach every knot segment
    and both clamps, and keep each update comparable to the state, so a
    change in the rounding of any operation shows in the result.  The
    switches at 0.35 and 0.5 fall inside the second sample; agent 3 listens
    to nobody under the second graph.  With h = 0.05 the stretch from 0.35
    to 0.5 is 3.0000000000000004 steps, which makes 3.  Bounds of 1.0 to 2.5
    end five runs at the first sample; a NaN in agent 0 or 1 ends none.
    """
    first = WeightedDigraph.from_edges(4, [(0, 1, 1.3), (0, 3, 0.2), (1, 0, 1.1), (1, 2, 0.9),
                                           (2, 1, 0.6), (2, 3, 1.3), (3, 0, 0.4), (3, 2, 1.2)])
    second = WeightedDigraph.from_edges(4, [(0, 2, 0.7), (1, 3, 1.7), (2, 0, 0.3), (2, 1, 0.5)])
    schedule = GraphSchedule(((0.0, first), (0.35, second)), 0.2, 1.7, 0.5)
    xp = [-1.9, -0.7, 0.4, 1.6, 2.2]
    fp = [-1.7, -0.2, 0.3, 1.1, 2.6]
    starts = [[((7 * k + 3 * i) % 13 - 6) / 2.7 for i in range(4)] for k in range(16)]
    starts += [[math.nan, 0.5, -0.5, 1.0], [0.5, math.nan, -0.5, 1.0]]

    def bits(k: int, x: list[float]) -> tuple:
        states, unstable = regularized(schedule, x, xp, fp, (0.13, 0.05)[k % 2], 0.3, 3,
                                       1.0 + (k % 4) / 2)
        return [v.hex() for v in states.ravel().tolist()], unstable

    return [bits(k, x) for k, x in enumerate(starts)]


def _ulps(x: float, count: int) -> float:
    """The float ``count`` steps above x (below for a negative count)."""
    for _ in range(abs(count)):
        x = math.nextafter(x, math.copysign(math.inf, count))
    return x


def _case(n, edges, x, policy=Sliding(), stopped=(), delta=1.0, cutoff=64, quantizer=None):
    """A resolve's arguments: ``(g, x, quantizer, policy, last stopped,
    cutoff)``, under ``UniformQuantizer(delta)`` unless a quantizer is
    given."""
    return (WeightedDigraph.from_edges(n, edges), np.array(x, dtype=float),
            UniformQuantizer(delta) if quantizer is None else quantizer, policy,
            frozenset(stopped), cutoff)


def _row_states() -> list[tuple]:
    """Rows of 0 to 300 terms, the lengths around numpy's pairwise
    boundaries: below 8 terms one fold, up to 128 eight interleaved partial
    sums, above that halves split at a multiple of 8.  The moving agents'
    terms mix signs and magnitudes from 1e-8 to 1e8, so that another order
    rounds differently; in the second state every term is -0.0 (a weight
    that underflows), whose sum starts from numpy's identity 0.0.  The empty
    rows come first, so that a build that reads past one reads the rows
    after it."""
    counts = (0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 300)
    leaves, n = max(counts), max(counts) + len(counts)
    spread = [(leaves + i, t, (1 + (3 * t + i) % 5) / 1.3 * 10.0 ** ((5 * t) % 17 - 8))
              for i, count in enumerate(counts) for t in range(count)]
    tiny = [(i, j, 5e-324) for i, j, _ in spread]
    return [
        _case(n, spread, [(-1) ** t * (1 + t % 7) / 10 for t in range(leaves)]
              + [0.0] * len(counts), delta=0.1),
        _case(n, tiny, [0.0] * leaves + [0.25] * len(counts), delta=0.25),
    ]


def _hold_states() -> list[tuple]:
    """Dense hold systems of up to 9 unknowns.  On the spread-out graph every
    rounding shows; on the path, whose weights are symmetric, the end rows
    tie with their neighbours for the first pivot.  On the last graph, agent
    0's pivot equals the tolerance (singular), and agent 1's lies just above
    it while its rhs is far larger."""
    spread = [(i, j, (1 + (3 * i + 5 * j) % 7) / 2.9)
              for i in range(9) for j in range(9) if i != j and (i + 2 * j) % 5]
    path = [edge for i in range(8) for w in [(1 + (5 * i) % 7) / 3.7]
            for edge in ((i, i + 1, w), (i + 1, i, w))]
    states = [
        _case(9, edges, [((i * k) % 5 - 1.5) / 3 if (i * k + k) % 4 != 3
                         else ((5 * i) % 9 - 4) / 3 for i in range(9)], delta=1 / 3)
        for edges in (spread, path) for k in range(8)]
    edge_cases = [(0, 3, 1e-12), (1, 3, 2e-12), (2, 3, 0.5), (4, 5, 0.75)]
    return states + [_case(6, edge_cases, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
                     _case(6, edge_cases, [0.0, -19.5, 0.5, -10.0, 0.5, 0.0])]


def _scan_states(delta: float) -> list[tuple]:
    """Resolves that test the scans under a step whose thresholds ``(k +
    0.5) * delta`` round differently from ``k * delta + 0.5 * delta``.

    On directed paths, the states lie on thresholds of both signs, 1-3 ulps
    beside them, on levels, at -0.0 and just inside |x|/delta < 2^52, and
    the velocities mix signs.  Two states tie for the closest arrival: two
    pairs of agents with equal states and velocities, and agents at x = 0
    moving either way.  Then states off the lattice, which must decline.
    """
    big = 2.0 ** 52
    xs = [-0.0, 0.0, (big - 2.5) * delta, -(big - 2.5) * delta, (big - 2.0) * delta]
    for k in (*range(-9, 10), 338, -4417):
        t = (k + 0.5) * delta
        xs += [t, k * delta] + [_ulps(t, u) for u in (-3, -2, -1, 1, 2, 3)]
    return [_case(len(x), [(i, i + 1, 1.3) for i in range(len(x) - 1)], x, delta=delta)
            for start in range(0, len(xs), 9) for x in [xs[start:start + 13]]] + [
        _case(7, [(0, 5, 1.5), (2, 5, 1.5), (3, 6, 1.5), (4, 6, 1.5)],
              [0.2 * delta] * 3 + [0.7 * delta] * 2 + [delta, 0.0], delta=delta),
        _case(5, [(0, 1, 0.7), (2, 4, 0.7), (3, 1, 0.7)], [0.0, delta, 0.0, 0.0, -delta],
              delta=delta),
    ] + [_case(2, [(0, 1, 1.0)], [0.0, bad], delta=delta)
         for bad in (2.0 ** 53 * delta, -2.0 ** 60 * delta, math.inf, math.nan)]


def _pin_states() -> list[tuple]:
    """FixedAlpha resolves: a stale pin that is released and then held; two
    stale pins tied in |velocity| on two agents that listen only to each
    other, where releasing the lower one first leaves the other sustained; a
    pin on an agent that listens to nobody, beside a pin off the surface and
    pins outside the graph, which are ignored; and a sustained pin on one of
    two such agents, whose hold system would be singular without it."""
    return [
        _case(3, [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 1.0)], [0.0, 0.5, 1.0], FixedAlpha({1: 0.9})),
        _case(2, [(0, 1, 1.0), (1, 0, 1.0)], [0.5, 0.5], FixedAlpha({0: 0.25, 1: 0.75})),
        _case(3, [(0, 1, 1.0), (2, 1, 1.0)], [0.0, 0.5, 1.0],
              FixedAlpha({-1: 0.5, 0: 0.75, 1: 0.25, 3: 0.5})),
        _case(2, [(0, 1, 1.0), (1, 0, 1.0)], [0.5, 0.5], FixedAlpha({0: 0.25})),
    ]


def _general_states() -> list[tuple]:
    """Resolves under ``_GENERAL`` and under a quantizer of one level and no
    threshold.

    On directed cycles, the states lie on the thresholds, 1-2 ulps beside
    them, on the levels, at -0.0 and beyond the outermost thresholds on
    both sides; the set scan must find a threshold with bisect_left, and
    the hit scan look up with bisect_right and down with bisect_left.
    Then states that are not finite, which must decline."""
    xs = [-0.0, 0.0, -7.5, 9.0, -1.5, 3.25, 3.0, -1.0]
    for t in _GENERAL.thresholds:
        xs += [t] + [_ulps(t, u) for u in (-2, -1, 1, 2)]
    xs += list(_GENERAL.levels)
    return [_case(len(x), [(i, i + 1, 1.3) for i in range(len(x) - 1)]
                  + [(len(x) - 1, 0, 0.7)], x, quantizer=_GENERAL)
            for start in range(0, len(xs), 7) for x in [xs[start:start + 11]]] + [
        _case(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 2.0), (3, 2, 0.5)], [-7.5, 9.0, 2.9, 2.9],
              SequentialSlow(), [2], quantizer=_GENERAL),
        _case(3, [(0, 1, 1.0), (2, 0, 1.0)], [0.0, 4.0, -2.0], FixedAlpha({1: 0.5}),
              quantizer=GeneralQuantizer((0.7,), ())),
    ] + [_case(2, [(0, 1, 1.0)], [0.0, bad], quantizer=_GENERAL)
         for bad in (math.inf, -math.inf, math.nan)]


def _decline_states() -> list[tuple]:
    """A resolve for each reason of a decline but a bad state (see
    ``_scan_states``): projected Gauss-Seidel (cutoff 0) that creeps too
    slowly to converge; weights up to 1e308, whose overflowing velocities
    leave it an agent that neither holds nor departs, give a pin a NaN
    velocity and a hold a NaN coefficient (outside its box); and a departure
    released before a singular hold system that moves back onto its surface."""
    return [
        _case(3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1e-9), (1, 2, 1e-9)], [0.5, 0.5, 1.0],
              cutoff=0),
        _case(4, [(0, 1, 1e300), (0, 2, 1.0), (0, 3, 1e308), (1, 2, 1e300), (1, 3, 2.0),
                  (2, 1, 1e308), (2, 3, 1e308), (3, 0, 1e300), (3, 1, 2.0), (3, 2, 1e300)],
              [-2.0, 0.0, -0.5, -2.5], SequentialSlow(), [2], cutoff=1),
        _case(4, [(0, 2, 1.0), (1, 0, 0.5), (1, 2, 1e308), (1, 3, 2.0), (2, 0, 0.5),
                  (2, 3, 5e307), (3, 0, 5e307), (3, 1, 1.0)], [3.0, 2.5, 3.0, 2.5],
              FixedAlpha({0: 0.0, 3: 1.0}), [0, 3]),
        _case(3, [(2, 0, 1e308), (2, 1, 5e307)], [-2.5, -2.5, -2.5], stopped=[2], cutoff=1),
        _case(5, [(0, 4, 1e-6), (1, 0, 0.5), (1, 3, 3.0), (3, 2, 1.0), (4, 3, 1e6)],
              [2.5, -1.5, 2.5, -2.5, -0.5], SequentialSlow(), [0, 3]),
    ]


#: States of a unit step that run projected Gauss-Seidel: ``(n, edges, x,
#: last stopped, cutoff)``.  See ``_resolve_states``.
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


def _resolve_records(resolve, cases: list[tuple]) -> list[tuple]:
    """The bits of ``resolve`` on each of ``cases``: the fields of its
    resolution and its arrival, or the error of its decline."""
    def bits(g, x, q, policy, stopped, cutoff):
        try:
            z, velocity, alpha, held, departing, (dt, hits) = resolve(g, x, q, policy, stopped,
                                                                      cutoff)
        except Exception as err:  # noqa: BLE001 - a decline, or a broken build
            return type(err).__name__, str(err)
        return (z.tobytes().hex(), velocity.tobytes().hex(),
                [(int(i), float(a).hex()) for i, a in alpha], sorted(map(int, held)),
                [(int(i), int(sign)) for i, sign in departing],
                float(dt).hex(), [(int(i), float(th).hex()) for i, th in hits])

    return [bits(*c) for c in cases]


def _resolve_states() -> list[tuple]:
    """Resolves of the self-check but those of ``_row_states``.

    The states: ties for the largest excess whose other tie-break changes
    the result, under Sliding and SequentialSlow; coefficients 1.5e-12 from
    0 and from 1, which are not snapped; a released agent that the re-check
    finds at rest, which holds.  Under both policies, the states that run
    projected Gauss-Seidel: a singular pair; three candidates over a cutoff
    of 2, two of which converge onto their upper box end from inside, and
    too many to polish; a free translation pair beside agents that converge
    to interior holds and onto box ends, which leaves the polish singular;
    and a departure that the re-check finds pushed back onto its surface.
    Where the polish does not run, the sweep order and the end-snap show in
    the bits.  Then the states of ``_hold_states``, ``_scan_states``,
    ``_general_states``, ``_pin_states`` and
    ``_decline_states``, 60 random graphs with dyadic weights, states on
    thresholds and levels, any policy, random pins and random last-stopped
    agents, and 30 random graphs under ``_GENERAL``.
    """
    rng = random.Random(1)
    drawn = []
    for _ in range(60):
        n, delta = rng.randint(2, 8), rng.choice([1.0, 0.25, 1 / 3])
        edges = [(i, j, rng.choice([0.5, 1.0, 1.5, 2.0]))
                 for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
        x = [(rng.randint(-2, 2) + (0.5 if rng.random() < 0.6 else 0.0)) * delta
             for _ in range(n)]
        policy = rng.choice([Sliding(), SequentialSlow(), FixedAlpha(
            {i: rng.choice([0.0, 0.25, 1 / 3, 1.0]) for i in range(n + 1) if rng.random() < 0.4})])
        drawn.append(_case(n, edges, x, policy, [i for i in range(n) if rng.random() < 0.3],
                           delta))
    points = [*_GENERAL.thresholds, *_GENERAL.levels, -4.0, 5.0]
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [(i, j, rng.choice([0.5, 1.0, 1.5, 0.3]))
                 for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
        drawn.append(_case(n, edges, [rng.choice(points) for _ in range(n)],
                           rng.choice([Sliding(), SequentialSlow()]),
                           [i for i in range(n) if rng.random() < 0.3], quantizer=_GENERAL))
    cases = [
        _case(6, [(0, 1, 1.0), (2, 1, 2.0), (3, 0, 2.0), (4, 0, 1.0), (4, 1, 1.0), (4, 3, 3.0),
                  (5, 2, 1.0)], [-1.5, -0.5, 3.5, -1.5, -0.5, -0.5]),
        _case(5, [(0, 3, 2.0), (0, 4, 2.0), (1, 0, 1.0), (1, 4, 3.0), (2, 1, 1.0), (3, 2, 1.0),
                  (4, 0, 2.0), (4, 3, 1.0)], [2.5, 0.5, 1.5, 0.5, -2.0], SequentialSlow(), [0, 2]),
        _case(3, [(0, 1, 1.5e-12), (0, 2, 1.0)], [0.5, 1.0, 0.0]),
        _case(3, [(0, 1, 1.0), (0, 2, 1.5e-12)], [0.5, 1.0, 0.0], SequentialSlow(), [1]),
        _case(3, [(0, 1, 1.0), (1, 2, 1.0)], [0.5, 0.5, 2.0]),
    ] + [
        _case(n, edges, x, policy, stopped, cutoff=cutoff)
        for n, edges, x, stopped, cutoff in _PGS_STATES for policy in (Sliding(), SequentialSlow())
    ] + _hold_states() + _pin_states() + _decline_states() + _general_states()
    for delta in (1.0, 0.1, 0.01, 1 / 3, 0.7, 2.5e-3):
        cases += _scan_states(delta)
    return cases + drawn


def _runs() -> list:
    """Whole runs of the event loop.

    The lines have steps, weights and spacings that are not binary
    fractions, so that a step x + v dt rounded once (as a fused multiply-add)
    shows in the states, and on the line of weight 0.7 an arrival left where
    x + v dt puts it, off its threshold, does too.  They run under both
    policies, from states on thresholds, to the event limit and to the
    horizon.  On the schedule of two line graphs, arrivals at 0.25 and 1.0
    coincide with its switches; repeated with a period of 0.7, the switch
    times k * 0.7 + 0.1 round.  On the next schedule an arrival that comes
    before the switch at 0.375 steps to a time that rounds onto it.  With a
    period of 1/3 whose second segment starts one ulp before its end, the
    switch 2/3 + that start rounds below 1 while its quotient by the period
    rounds to 3, so its segment comes from the cycle before floor(t /
    period).  Two lines run under ``_GENERAL`` from states on and beyond its
    outermost thresholds, one to its equilibrium and one to the horizon.
    Two stubborn-leader chains run under FixedAlpha, one with the pins that
    sustain its holds and one with pins that go stale.
    """
    from .scenarios import ScenarioConfig, example2_sliding, line_graph

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
        (GraphSchedule(((0.0, line), (math.nextafter(1 / 3, 0.0), heavy)), 1.0, 2.0, 1 / 3),
         1 / 64, [0.0, 0.3, 0.55, 0.9, 1.3, 1.6], {}),
        (GraphSchedule.time_invariant(line, 1.0, 2.0), _GENERAL,
         [-1.5, -0.3, 0.2, 0.625, 1.9, 2.9], {}),
        (GraphSchedule.time_invariant(line_graph(6, 0.7), 0.7, 0.7), _GENERAL,
         [-2.0, -0.3, 0.0, 0.5, 2.9, 8.0], {"horizon": 2.5}),
    ]
    configs = [ScenarioConfig(schedule, q if isinstance(q, GeneralQuantizer)
                              else UniformQuantizer(q), x0, policy, **limits)
               for schedule, q, x0, limits in runs
               for policy in (Sliding(), SequentialSlow())]
    chain = example2_sliding(5, 0.7, 1.3)
    return configs + [chain, ScenarioConfig(chain.schedule, chain.quantizer, chain.x0,
                                            FixedAlpha({1: 0.9, 2: 0.1, 3: 0.5}))]


def _rest_runs() -> list:
    """Runs whose states come to rest under a graph that a later one moves,
    so that the certification of a state at rest must try every graph still
    to come: six agents that listen to nobody until a line takes over at
    0.5, to its equilibrium and, at rest, to a horizon before that switch;
    and a line for 0.125 of every 0.625, nobody the rest of the time, on a
    period that begins with the line and on one that ends with it."""
    from .scenarios import ScenarioConfig, line_graph

    line, idle = line_graph(6), WeightedDigraph.from_edges(6, [])
    spread = [0.0937 * i + 0.013 for i in range(6)]
    runs = [
        (GraphSchedule(((0.0, idle), (0.5, line)), 1.0, 1.0), {}),
        (GraphSchedule(((0.0, idle), (0.5, line)), 1.0, 1.0), {"horizon": 0.375}),
        (GraphSchedule(((0.0, line), (0.125, idle)), 1.0, 1.0, 0.625), {}),
        (GraphSchedule(((0.0, idle), (0.5, line)), 1.0, 1.0, 0.625), {}),
    ]
    return [ScenarioConfig(schedule, UniformQuantizer(0.1), spread, policy, **limits)
            for schedule, limits in runs for policy in (Sliding(), SequentialSlow())]


def _run_records(advance, configs: list) -> list[tuple]:
    """The bits of ``advance`` on the run of each of ``configs``: its event
    table, kinds, records, status, stop time and stop state, or the error of
    its decline."""
    def bits(c):
        try:
            table, kinds, records, status, t, x = advance(
                c.schedule, np.array(c.x0, dtype=float), c.quantizer, c.policy,
                DEFAULT_DENSE_CUTOFF, c.horizon, c.max_events)
        except Exception as err:  # noqa: BLE001 - a decline, or a broken build
            return type(err).__name__, str(err)
        return ([v.hex() for v in table.ravel().tolist()], kinds.tolist(), records.tolist(),
                status, float(t).hex(), [v.hex() for v in x.tolist()])

    return [bits(config) for config in configs]


def _writer_states() -> list[Trajectory]:
    """Trajectories whose exports reach every formatting rule: 0.0 followed
    by -0.0 in one column and the reverse, an empty coefficient (NaN) beside
    0.0, subnormals down to 5e-324, the points where ``repr`` changes
    notation (1e16, 1e-4, 1e-5) and their neighbours, integers, 1e308 and
    the largest float; one agent; a single event; states that are not
    finite, which JSON refuses; and the ``_exact_states`` of the compiled
    writer's exact digits, with their negatives."""
    def event(t, x, z, alpha, kind="threshold-hit"):
        return TrajectoryEvent(t, kind, x, z, tuple(-v for v in z), alpha, (), ())

    q = UniformQuantizer(1.0)
    exact = _exact_states()
    return [
        Trajectory(q, [
            event(0.0, (0.0, 1e16, 5e-324, 1e-4), (-0.0, 1e-5, 2.2250738585072009e-308, 1.0),
                  (None, 0.0, -0.0, 0.5), "start"),
            event(-0.0, (-0.0, 9999999999999998.0, -5e-324, 1e-4),
                  (0.0, 1e-5, 1e-310, 123456789.0), (0.0, None, 0.0, 0.5)),
            event(1e-5, (1e308, -1.7976931348623157e308, 2.0 ** 53, 0.0001 + 1e-20),
                  (2.0, -3.0, 1e17, 0.30000000000000004), (1.0, 1.0, None, 1 / 3)),
            event(0.75, (0.1, 9.999999999999999e-05, 1.0000000000000001e-05, 1e22),
                  (1e-4, 1e16, 5e-324, 1.0), (None, None, None, None)),
            event(2.5, (0.1, 0.2, -0.0, 0.0), (1e-4, 1e16, -5e-324, 1.0),
                  (None, 0.25, 1.0, 0.0), "equilibrium"),
        ], "equilibrium"),
        Trajectory(q, [event(0.0, (0.5,), (0.0,), (0.5,), "start"),
                       event(1.25, (-0.0,), (1.0,), (None,), "horizon")], "horizon"),
        Trajectory(q, [event(0.0, (1.5, -2.0), (1.0, -2.0), (None, 0.0), "equilibrium")],
                   "equilibrium"),
        Trajectory(q, [event(0.0, (math.inf, 0.5), (0.0, 0.0), (None, 0.5), "start"),
                       event(1.0, (math.nan, -math.inf), (0.0, 0.0), (None, None), "horizon")],
                   "horizon"),
        Trajectory(q, [event(float(i), tuple(exact[i:i + 4]), tuple(-v for v in exact[i:i + 4]),
                             (None,) * 4) for i in range(0, len(exact), 4)], "horizon"),
    ]


def _exact_states() -> list[float]:
    """Numbers at the edges of ``exact_digits`` in ``_kernels.c``.  With
    the two floats on either side of each: the ends of its range, 1e-10 and
    1e17; powers of two, whose rounding interval is asymmetric; the notation
    switches of ``repr`` at 1e16, 1e-4 and 1e-5; the floats 1e-7 and 1e-6,
    which lie below 10^-7 and 10^-6, so that their shortest decimal carries
    into the next decade (no float in the range carries at 17 digits).
    Then dyadic ties at 17 digits of both parities (the first two are also
    ties of ``repr``, which fall back), and floats whose shortest decimal is
    an end of their rounding interval, the upper for 2e16 + 8 and the lower
    for the others, which only an even significand may write (none lies
    below 2^54).  Four to an event."""
    centres = [1e-10, 1e17, 1e16, 1e-4, 1e-5, 1e-7, 1e-6, 2.0 ** -33, 2.0 ** -1, 1.0, 2.0 ** 10,
               2.0 ** 52, 2.0 ** 54]
    ties = [(2 ** 52 + 1) / 4, (2 ** 52 + 3) / 4, 131073 / 2 ** 17, 1049 / 2 ** 20]
    ends = [20000000000000008.0, 36028797018964304.0, 72057594037931008.0]
    return [_ulps(v, u) for v in centres for u in (-2, -1, 0, 1, 2)] + ties + ends


def _writer_records(write) -> list:
    """The text of ``write`` on the CSV and the JSON at indents 0 and 3 of
    each ``_writer_states`` trajectory, with and without a stride; None for
    a JSON that it refuses."""
    return [write(json, indent, *traj._rows(stride)) for traj in _writer_states()
            for stride in (None, 0.375) for json, indent in ((False, 0), (True, 0), (True, 3))]
