"""Directed weighted graphs, their connectivity structure, and schedules.

Edge orientation convention: edge ``(i, j)`` exists iff ``weights[i][j] > 0``
and means that agent ``i`` listens to agent ``j``.  Reachability follows
directed edges, so the sink component of the condensation is the "stubborn"
set everyone else ultimately listens to.

Time-varying interaction is modelled as a piecewise-constant schedule with
finitely many switches, optionally repeated periodically.  That restriction
is what makes exact event-driven integration possible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .quantizers import InputError, json_field, json_float, json_int, json_keys

#: Default tolerance for weight-balance checks: weights are exact inputs,
#: this only guards float entry.
BALANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Immutable nonnegative weight matrix with zero diagonal."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError(f"weights must be a square matrix, got shape {w.shape}")
        if w.shape[0] < 1:
            raise InputError("need at least one agent")
        if not np.all(np.isfinite(w)):
            raise InputError("weights must be finite")
        if np.any(w < 0.0):
            raise InputError("weights must be nonnegative")
        if np.any(np.diagonal(w) != 0.0):
            raise InputError("self-weights must be zero")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedDigraph":
        """Build from ``(i, j, weight)`` triples; ``i`` listens to ``j``.

        Each ordered pair ``(i, j)`` may appear once: a second weight would
        silently replace the first.
        """
        w = np.zeros((n, n))
        seen = set()
        for i, j, weight in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"edge ({i}, {j}, {weight}) has an agent index outside [0, {n})")
            if (i, j) in seen:
                raise InputError(f"edge ({i}, {j}) is given more than once")
            seen.add((i, j))
            w[i, j] = weight
        return cls(w)

    @classmethod
    def empty(cls, n: int) -> "WeightedDigraph":
        return cls(np.zeros((n, n)))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for i in range(self.n):
            for j in range(self.n):
                if self.weights[i, j] > 0.0:
                    yield i, j, float(self.weights[i, j])

    def successors(self, i: int) -> list[int]:
        return [j for j in range(self.n) if self.weights[i, j] > 0.0]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """``(rows, cols, values, ends)`` of the nonzero weights in row-major
        order, row ``i`` at ``ends[i]:ends[i + 1]``; built in one numpy pass."""
        w = self.weights
        r, c = np.nonzero(w)  # row-major, so j increases within each row
        return r, c, w[r, c], np.searchsorted(r, np.arange(self.n + 1)).tolist()

    def out_weight(self, i: int) -> float:
        """Row i's total weight, with the bits of ``weights.sum(axis=1)[i]``."""
        return float(self.weights[i].sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)


# ---------------------------------------------------------------------------
# Strongly connected components and the condensation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condensation:
    """Partition into strongly connected components plus the acyclic dag."""

    components: tuple[tuple[int, ...], ...]
    dag_edges: frozenset[tuple[int, int]]
    component_of: tuple[int, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for comp in self.components:
            if seen & set(comp):
                raise AssertionError("components must be disjoint")
            seen |= set(comp)
        if seen != set(range(len(self.component_of))):
            raise AssertionError("components must cover the agent set")
        if self._has_cycle():
            raise AssertionError("condensation dag must be acyclic")

    def _has_cycle(self) -> bool:
        order = {c: 0 for c in range(len(self.components))}  # 0 new, 1 open, 2 done
        adj: dict[int, list[int]] = {c: [] for c in order}
        for h, k in self.dag_edges:
            adj[h].append(k)
        for start in order:
            if order[start]:
                continue
            stack = [(start, iter(adj[start]))]
            order[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if order[nxt] == 1:
                        return True
                    if order[nxt] == 0:
                        order[nxt] = 1
                        stack.append((nxt, iter(adj[nxt])))
                        advanced = True
                        break
                if not advanced:
                    order[node] = 2
                    stack.pop()
        return False

    @property
    def size(self) -> int:
        return len(self.components)

    def sinks(self) -> tuple[int, ...]:
        has_out = {h for h, _ in self.dag_edges}
        return tuple(c for c in range(self.size) if c not in has_out)


def strongly_connected_components(g: WeightedDigraph) -> Condensation:
    """Tarjan's algorithm (iterative) plus the component dag."""
    n = g.n
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    raw_components: list[list[int]] = []
    succ = [g.successors(i) for i in range(n)]

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for next_pi in range(pi, len(succ[v])):
                w = succ[v][next_pi]
                if index[w] == -1:
                    work[-1] = (v, next_pi + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                raw_components.append(sorted(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    raw_components.sort(key=min)
    component_of = [0] * n
    for c, comp in enumerate(raw_components):
        for v in comp:
            component_of[v] = c
    dag_edges = set()
    for i, j, _ in g.edges():
        if component_of[i] != component_of[j]:
            dag_edges.add((component_of[i], component_of[j]))
    return Condensation(
        components=tuple(tuple(c) for c in raw_components),
        dag_edges=frozenset(dag_edges),
        component_of=tuple(component_of),
    )


class ReachabilityResult(NamedTuple):
    found: bool
    witness: int | None


def has_globally_reachable_node(g: WeightedDigraph) -> ReachabilityResult:
    """Decide whether some node is reachable from every other node.

    Equivalent to: the condensation has exactly one sink, which every
    component then reaches; the witness is the smallest node of the sink
    component.
    """
    cond = strongly_connected_components(g)
    sinks = cond.sinks()
    if len(sinks) == 1:
        return ReachabilityResult(True, min(cond.components[sinks[0]]))
    return ReachabilityResult(False, None)


def is_weight_balanced(g: WeightedDigraph, tol: float = BALANCE_TOL) -> bool:
    """True iff in-weight equals out-weight at every node (within ``tol``)."""
    row = g.weights.sum(axis=1)
    col = g.weights.sum(axis=0)
    return bool(np.all(np.abs(row - col) <= tol))


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Row-sum Laplacian: ``L[u][v] = -w[u][v]`` off-diagonal, rows sum to zero."""
    return np.diag(g.weights.sum(axis=1)) - g.weights


# ---------------------------------------------------------------------------
# Piecewise-constant schedules and the unbounded interactions graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphSchedule:
    """Piecewise-constant weight schedule with an optional periodic tail.

    ``segments`` is an ordered list of ``(start_time, graph)`` pairs with
    strictly increasing start times, the first at 0.  With a period the list
    repeats forever; without one the last segment holds forever.
    """

    segments: tuple[tuple[float, WeightedDigraph], ...]
    a_low: float
    a_high: float
    period: float | None = None

    def __post_init__(self) -> None:
        segs = tuple((float(t), g) for t, g in self.segments)
        if not segs:
            raise InputError("schedule needs at least one segment")
        if segs[0][0] != 0.0:
            raise InputError("first segment must start at time 0")
        times = [t for t, _ in segs]
        if not all(map(math.isfinite, times)):
            raise InputError(f"segment start times must be finite, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InputError("segment start times must be strictly increasing")
        n = segs[0][1].n
        if any(g.n != n for _, g in segs):
            raise InputError("all segment graphs must share the same agent count")
        lo, hi = float(self.a_low), float(self.a_high)
        if not (0.0 < lo <= hi) or not math.isfinite(hi):
            raise InputError(f"need 0 < a_low <= a_high, got ({lo}, {hi})")
        for _, g in segs:
            nz = g.weights[g.weights > 0.0]
            if nz.size and (nz.min() < lo or nz.max() > hi):
                raise InputError("nonzero weights must lie within [a_low, a_high]")
        if self.period is not None:
            p = float(self.period)
            if not (p > times[-1]) or not math.isfinite(p):
                raise InputError("period must exceed the last segment start")
            object.__setattr__(self, "period", p)
        object.__setattr__(self, "segments", segs)
        # The segment start times, for the lookups below.
        object.__setattr__(self, "_starts", tuple(times))
        object.__setattr__(self, "a_low", lo)
        object.__setattr__(self, "a_high", hi)

    @property
    def n(self) -> int:
        return self.segments[0][1].n

    @classmethod
    def time_invariant(
        cls, g: WeightedDigraph, a_low: float, a_high: float
    ) -> "GraphSchedule":
        return cls(segments=((0.0, g),), a_low=a_low, a_high=a_high)

    @property
    def is_time_invariant(self) -> bool:
        return len(self.segments) == 1

    def _lookup(self, t: float) -> tuple[int, float]:
        """The segment of the latest switch at or before ``t``, and the
        earliest switch after ``t`` (+inf if none).

        The switches are the segment starts, and with a period the floats
        ``kk * period + start`` of every cycle ``kk >= 0``; of switches
        that round to one float the later one starts its segment.
        """
        if t < 0.0:
            raise InputError(f"time must be nonnegative, got {t}")
        starts = self._starts
        if self.period is None:
            idx = bisect_right(starts, t) - 1
            return idx, starts[idx + 1] if idx + 1 < len(starts) else math.inf
        # The cycles around floor(t / period) absorb its rounding.
        k = math.floor(t / self.period)
        idx, latest, after = 0, -math.inf, math.inf
        for kk in range(max(k - 1, 0), k + 3):
            base = kk * self.period
            for i, start in enumerate(starts):
                switch = base + start
                if switch > t:
                    after = min(after, switch)
                elif switch >= latest:
                    idx, latest = i, switch
        return idx, after

    def graph_at(self, t: float) -> WeightedDigraph:
        """Graph active at time ``t``; segments are right-open ``[t_k, t_{k+1})``."""
        return self.segments[self._lookup(t)[0]][1]

    def next_switch_after(self, t: float) -> float:
        """Smallest switch time strictly greater than ``t``; +inf if none."""
        return self._lookup(t)[1]

    def graphs_active_from(self, t: float) -> tuple[WeightedDigraph, ...]:
        """Deduplicated graphs that can still become active at or after ``t``."""
        pool = self.segments if self.period is not None else self.segments[self._lookup(t)[0]:]
        unique: list[WeightedDigraph] = []
        for _, g in pool:
            if not any(g == u for u in unique):
                unique.append(g)
        return tuple(unique)

    def unbounded_interactions_graph(self) -> WeightedDigraph:
        """0/1 graph of edges whose weight signal has divergent integral.

        Periodic tail: any edge active on a positive-measure part of one
        period, i.e. in any segment.  Finite schedule: only the final,
        forever-holding segment contributes an infinite integral.
        """
        n = self.n
        mask = np.zeros((n, n))
        if self.period is not None:
            for _, g in self.segments:
                mask[g.weights > 0.0] = 1.0
        else:
            mask[self.segments[-1][1].weights > 0.0] = 1.0
        return WeightedDigraph(mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSchedule):
            return NotImplemented
        return (
            self.period == other.period
            and self.a_low == other.a_low
            and self.a_high == other.a_high
            and len(self.segments) == len(other.segments)
            and all(
                ta == tb and ga == gb
                for (ta, ga), (tb, gb) in zip(self.segments, other.segments)
            )
        )

    # -- wire format --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "segments": [
                {
                    "t": t,
                    "edges": [
                        {"i": i, "j": j, "w": w} for i, j, w in g.edges()
                    ],
                }
                for t, g in self.segments
            ],
            "period": self.period,
            "a_low": self.a_low,
            "a_high": self.a_high,
        }


def schedule_from_json(obj: dict) -> GraphSchedule:
    json_keys(obj, ("n", "segments", "period", "a_low", "a_high"), "schedule")
    n = json_field(obj, "n", "schedule", parse=json_int)
    segments = []
    for k, seg in enumerate(json_field(obj, "segments", "schedule", parse=list)):
        where = f"schedule segment {k}"
        json_keys(seg, ("t", "edges"), where)
        raw = json_field(seg, "edges", where, parse=list)
        try:
            edges = [(json_int(e["i"]), json_int(e["j"]), json_float(e["w"])) for e in raw]
            # Each edge has i, j and w, so one with more fields has another.
            if any(len(e) != 3 for e in raw):
                raise KeyError
        except (KeyError, TypeError, ValueError):
            # Find the first bad edge again, to name it and its field.
            for m, e in enumerate(raw):
                json_keys(e, ("i", "j", "w"), f"{where} edge {m}")
                for key, parse in (("i", json_int), ("j", json_int), ("w", json_float)):
                    json_field(e, key, f"{where} edge {m}", parse=parse)
            raise
        segments.append((json_field(seg, "t", where, parse=json_float),
                         WeightedDigraph.from_edges(n, edges)))
    return GraphSchedule(
        segments=tuple(segments),
        a_low=json_field(obj, "a_low", "schedule", parse=json_float),
        a_high=json_field(obj, "a_high", "schedule", parse=json_float),
        period=json_field(obj, "period", "schedule", None, json_float),
    )
