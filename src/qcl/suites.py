"""The invariant suites: the one implementation of the checks that
``qcl check`` and the acceptance criteria (``tests/test_acceptance.py``) run.

Each suite takes its corpus as data and returns ``(ok, detail)``.  With
``corrupt=True`` it first corrupts one item of that corpus, never the
limit that the item is held to, as a negative control that it must catch.  Each ``*_corpus``
function gives the first ``count`` items (all by default) of one fixed
sequence, so the small corpora of ``qcl check`` are prefixes of the
criteria's.

``import qcl`` does not load this module: a fresh import of qcl compiles
every module it loads when no bytecode is cached, so check-only code would
slow every process that only simulates.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, islice, product

import numpy as np

from .analysis import (
    average_conservation,
    convergence_time,
    envelopes,
    limit_value_check,
    tcon_bound,
)
from .dynamics import Sliding, Trajectory, simulate, simulate_regularized
from .graphs import WeightedDigraph, has_globally_reachable_node
from .scenarios import SplitMix64, example1_line, example2_sliding, random_connected


# -- corpora ------------------------------------------------------------------

def simulated(configs, count: int | None = None) -> list[tuple]:
    """``(config, trajectory)`` of the first ``count`` of ``configs``."""
    return [(config, simulate(config)) for config in islice(configs, count)]


def references():
    """The runs of criteria 1 and 2: the line n = 3 under Sliding, then the
    chains n = 3 to 10 under their fixed coefficients."""
    yield example1_line(3, 1.0, policy=Sliding())
    for n in range(3, 11):
        yield example2_sliding(n, 1.0, 1.0)


def _bounds_configs():
    """200 static runs on 2 to 6 agents at delta 1 and 0.25, then 50
    periodic ones on 3 to 6 agents; each with a horizon of ten times its
    static bound, and at least 1."""
    static = (random_connected(2 + s % 5, seed=s, delta=0.25 if s % 2 else 1.0)
              for s in range(200))
    periodic = (random_connected(3 + s % 4, seed=10_000 + s,
                                 switching=(2 + s % 2, 0.5 + 0.25 * (s % 3)))
                for s in range(50))
    for config in chain(static, periodic):
        bound = tcon_bound(config.x0, config.quantizer, config.a_low, config.a_high)
        yield replace(config, horizon=max(10.0 * bound, 1.0))


def _balanced_configs():
    """100 runs on symmetric, so weight-balanced, graphs of 2 to 6 agents."""
    return (random_connected(2 + s % 5, seed=20_000 + s, symmetric=True) for s in range(100))


def bounds_corpus(count: int | None = None) -> list[tuple]:
    return simulated(_bounds_configs(), count)


def conservation_corpus(count: int | None = None) -> list[tuple]:
    return simulated(_balanced_configs(), count)


def envelope_corpus(count: int | None = None) -> list[tuple]:
    """The reference runs, then the bounds corpus, then the conservation
    corpus."""
    return simulated(chain(references(), _bounds_configs(), _balanced_configs()), count)


def oracle_references() -> dict:
    """The references that the exact run is checked against the oracle on."""
    return {"line3": example1_line(3, 1.0, policy=Sliding()),
            "chain3": example2_sliding(3, 1.0, 1.0, policy=Sliding()),
            "line4": example1_line(4, 1.0, policy=Sliding()),
            "chain4": example2_sliding(4, 1.0, 1.0, policy=Sliding())}


def oracle_corpus(count: int | None = None) -> list[tuple]:
    return simulated(oracle_references().values(), count)


def random_digraph(rng: SplitMix64, n: int, density: float) -> WeightedDigraph:
    """Each edge ``i -> j``, ``i != j``, with weight 1 and probability ``density``."""
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < density:
                w[i, j] = 1.0
    return WeightedDigraph(w)


def _digraphs():
    """Every digraph on 1 to 4 nodes with weights 0 and 1, then 10^4 random
    ones on 2 to 6 nodes at density 0.3."""
    for n in (1, 2, 3, 4):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in product((0.0, 1.0), repeat=len(pairs)):
            w = np.zeros((n, n))
            for (i, j), bit in zip(pairs, bits):
                w[i, j] = bit
            yield WeightedDigraph(w)
    rng = SplitMix64(777)
    for _ in range(10_000):
        yield random_digraph(rng, 2 + rng.randint(5), 0.3)


def connectivity_corpus(count: int | None = None) -> list[WeightedDigraph]:
    return list(islice(_digraphs(), count))


# -- the suites -----------------------------------------------------------------

def _corrupted(runs: list[tuple], corrupt: bool, shift: float, at) -> list[tuple]:
    """``runs``; when ``corrupt``, the first with one more event at
    ``at(config, traj)``: a copy of its last with agent 0 moved by ``shift``."""
    if not corrupt:
        return runs
    (config, traj), *rest = runs
    ev = traj.events[-1]
    bad = replace(ev, t=at(config, traj), x=(ev.x[0] + shift, *ev.x[1:]))
    return [(config, Trajectory(traj.quantizer, [*traj.events, bad], traj.status)), *rest]


def envelope(runs: list[tuple], corrupt: bool = False) -> tuple[bool, str]:
    """Each run's lower level envelope never falls and its upper one never
    rises.  Corruption: the first run ends 1 later with agent 0 1000 lower."""
    runs = _corrupted(runs, corrupt, -1000.0, lambda _, traj: traj.final_t + 1.0)
    bad = sum(not envelopes(traj).ok for _, traj in runs)
    return bad == 0, f"{len(runs)} trajectories, {bad} envelope violations"


def _static_bound(config) -> float:
    """The run's bound on t_con; infinite for a switching schedule."""
    if not config.schedule.is_time_invariant:
        return np.inf
    return tcon_bound(config.x0, config.quantizer, config.a_low, config.a_high)


def bounds(runs: list[tuple], corrupt: bool = False) -> tuple[bool, str]:
    """Each run certifies consensus before its horizon, and a time-invariant
    one by t_con <= bound.  Corruption: the first run leaves its consensus
    level, agent 0 1000 lower, 1 after its bound."""
    runs = _corrupted(runs, corrupt, -1000.0,
                      lambda config, traj: max(traj.final_t, _static_bound(config)) + 1.0)
    bad = 0
    for config, traj in runs:
        result = convergence_time(traj)
        bad += result is None or result[0] > _static_bound(config)
    return bad == 0, f"{len(runs)} scenarios, {bad} bound violations"


def conservation(runs: list[tuple], corrupt: bool = False) -> tuple[bool, str]:
    """On weight-balanced schedules each run keeps its state average within
    1e-9 and converges to the limit level that the average predicts.
    Corruption: the first run ends 1 later with agent 0 moved by 1e-6."""
    runs = _corrupted(runs, corrupt, 1e-6, lambda _, traj: traj.final_t + 1.0)
    worst = max(average_conservation(traj) for _, traj in runs)
    bad = sum(limit_value_check(traj, config.schedule).status != "pass"
              for config, traj in runs)
    return worst <= 1e-9 and bad == 0, f"max drift {worst:.2e}, {bad} limit-check failures"


def oracle_deviation(traj: Trajectory, config, t_end: float,
                     eps: float = 1e-3, h: float = 1e-5) -> float:
    """The largest deviation of ``traj`` from the regularized oracle's
    samples, every 0.01 up to ``t_end``."""
    run = simulate_regularized(config, eps=eps, h=h, stride=0.01, t_end=t_end)
    return max(float(np.max(np.abs(traj.state_at(float(t)) - state)))
               for t, state in zip(run.times, run.states))


def oracle(runs: list[tuple], refinements=((1e-3, 1e-5),),
           corrupt: bool = False) -> tuple[bool, str]:
    """Each exact run stays within 5e-3 of the oracle at the first
    ``(eps, h)`` of ``refinements``, up to 1.2 times its final event time
    plus 0.2, and its deviation falls strictly along the rest.  Corruption:
    the first run ends 0.1 later with agent 0 moved by 0.1."""
    runs = _corrupted(runs, corrupt, 0.1, lambda _, traj: traj.final_t + 0.1)
    worst, bad = 0.0, 0
    for config, traj in runs:
        deviations = [oracle_deviation(traj, config, traj.final_t * 1.2 + 0.2, eps, h)
                      for eps, h in refinements]
        worst = max(worst, deviations[0])
        bad += deviations[0] > 5e-3 or any(a <= b for a, b in zip(deviations, deviations[1:]))
    detail = f"max exact-vs-regularized deviation {worst:.2e}"
    if len(refinements) > 1:
        detail += (f", {len(runs) - bad} of {len(runs)} runs within 5e-3 and falling over "
                   f"{len(refinements) - 1} refinements")
    return bad == 0, detail


def bfs_reachability(g: WeightedDigraph) -> list[list[bool]]:
    """Transitive reachability by BFS; reach[u][v] means v reachable from u."""
    n = g.n
    reach = [[False] * n for _ in range(n)]
    for start in range(n):
        reach[start][start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.successors(u):
                if not reach[start][v]:
                    reach[start][v] = True
                    stack.append(v)
    return reach


def connectivity(graphs: list[WeightedDigraph], corrupt: bool = False) -> tuple[bool, str]:
    """``has_globally_reachable_node`` finds a node on each graph iff BFS
    finds one that every node reaches, and its witness is such a node.
    Corruption: the predicate gets the first graph that is not its own
    transpose transposed."""
    given = list(graphs)
    if corrupt:
        k = next(k for k, g in enumerate(given) if not np.array_equal(g.weights, g.weights.T))
        given[k] = WeightedDigraph(given[k].weights.T)
    mismatches = 0
    for g, h in zip(graphs, given):
        reach, result = bfs_reachability(g), has_globally_reachable_node(h)
        witnesses = {v for v in range(g.n) if all(reach[u][v] for u in range(g.n))}
        mismatches += result.found != bool(witnesses) or (
            result.found and result.witness not in witnesses)
    return mismatches == 0, f"{len(given)} digraphs, {mismatches} mismatches"
