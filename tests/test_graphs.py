from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcl import (
    GraphSchedule,
    InputError,
    WeightedDigraph,
    has_globally_reachable_node,
    is_weight_balanced,
    laplacian,
    line_graph,
    schedule_from_json,
    strongly_connected_components,
)
from qcl.scenarios import SplitMix64

import reference
from qcl.suites import bfs_reachability, connectivity, connectivity_corpus, random_digraph


def example2_topology(n: int, a: float = 1.0, b: float = 1.0) -> WeightedDigraph:
    edges = [(i, i + 1, a) for i in range(n - 1)]
    edges += [(i, 0, b) for i in range(1, n - 1)]
    return WeightedDigraph.from_edges(n, edges)


class TestWeightedDigraph:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            WeightedDigraph(np.eye(2))

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            WeightedDigraph(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            WeightedDigraph(np.zeros((0, 0)))

    def test_immutable(self):
        g = line_graph(3)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_equality(self):
        assert line_graph(3) == line_graph(3)
        assert line_graph(3) != line_graph(4)

    def test_sparse_rows_match_weights(self):
        g = WeightedDigraph.from_edges(4, [(0, 3, 0.5), (0, 1, 2.0), (2, 0, 1.0)])
        rows = reference.sparse_rows(g)
        assert rows[0].pairs == ((1, 2.0), (3, 0.5))
        assert rows[1].pairs == ()
        r, c, values, ends = g.csr
        assert (r.tolist(), c.tolist(), values.tolist()) == ([0, 0, 2], [1, 3, 0], [2.0, 0.5, 1.0])
        assert ends == [0, 2, 2, 3, 3]
        for i, row in enumerate(rows):
            assert row.total == float(g.weights[i].sum()) == g.out_weight(i)
        assert reference.sparse_rows(g) is rows and g.csr is g.csr  # built once per graph

    @pytest.mark.parametrize("edge", [(-1, 0, 1.0), (0, -1, 1.0), (3, 0, 1.0), (0, 3, 1.0)])
    def test_from_edges_rejects_index_outside_agents(self, edge):
        i, j, _ = edge
        with pytest.raises(InputError, match=rf"edge \({i}, {j}, 1.0\).*\[0, 3\)"):
            WeightedDigraph.from_edges(3, [edge])


class TestStronglyConnectedComponents:
    def test_three_cycle_single_component(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        cond = strongly_connected_components(g)
        assert cond.components == ((0, 1, 2),)
        assert cond.dag_edges == frozenset()

    def test_directed_chain_three_singletons(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        cond = strongly_connected_components(g)
        assert cond.components == ((0,), (1,), (2,))
        assert cond.dag_edges == frozenset({(0, 1), (1, 2)})

    def test_leader_chain_topology_vs_reachability_oracle(self):
        # Components must match mutual reachability computed independently.
        g = example2_topology(4)
        cond = strongly_connected_components(g)
        reach = bfs_reachability(g)
        for u in range(4):
            for v in range(4):
                same = cond.component_of[u] == cond.component_of[v]
                mutual = reach[u][v] and reach[v][u]
                assert same == mutual
        assert cond.components == ((0, 1, 2), (3,))
        assert cond.dag_edges == frozenset({(0, 1)})

    def test_condensation_partition_covers_agents(self):
        rng = SplitMix64(5)
        for _ in range(200):
            g = random_digraph(rng, 1 + rng.randint(6), 0.35)
            cond = strongly_connected_components(g)
            seen = sorted(v for comp in cond.components for v in comp)
            assert seen == list(range(g.n))


class TestGloballyReachableNode:
    def test_single_node(self):
        g = WeightedDigraph.empty(1)
        result = has_globally_reachable_node(g)
        assert result.found and result.witness == 0

    def test_two_isolated_nodes(self):
        assert not has_globally_reachable_node(WeightedDigraph.empty(2)).found

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_leader_chain_witness_is_last_agent(self, n):
        result = has_globally_reachable_node(example2_topology(n))
        assert result.found and result.witness == n - 1

    def test_exhaustive_small_graphs_match_oracle(self):
        # Every digraph on 1 to 3 nodes.
        ok, detail = connectivity(connectivity_corpus(69))
        assert ok, detail

    def test_two_sources_one_sink_is_weak_but_not_pairwise(self):
        # A -> K <- B: a globally reachable node exists, yet the two sources
        # are not ordered by reachability.
        g = WeightedDigraph.from_edges(3, [(0, 2, 1.0), (1, 2, 1.0)])
        assert has_globally_reachable_node(g).found

    def test_one_sink_implies_reachable(self):
        rng = SplitMix64(17)
        for _ in range(500):
            g = random_digraph(rng, 1 + rng.randint(5), 0.35)
            if len(strongly_connected_components(g).sinks()) == 1:
                assert has_globally_reachable_node(g).found


class TestWeightBalance:
    def test_symmetric_line_is_balanced(self):
        assert is_weight_balanced(line_graph(4))

    def test_directed_chain_is_not(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert not is_weight_balanced(g)

    @given(st.integers(0, 10**6))
    def test_any_symmetric_matrix_is_balanced(self, seed):
        rng = SplitMix64(seed)
        n = 2 + rng.randint(4)
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.uniform(0.0, 2.0)
                w[i, j] = w[j, i] = v
        assert is_weight_balanced(WeightedDigraph(w))


class TestLaplacian:
    def test_zero_graph(self):
        assert np.array_equal(laplacian(WeightedDigraph.empty(3)), np.zeros((3, 3)))

    def test_two_cycle(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
        assert np.array_equal(laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_line_graph_rows(self):
        lap = laplacian(line_graph(3))
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(lap, expected)

    def test_integer_weight_rows_sum_to_exact_zero(self):
        rng = SplitMix64(3)
        for _ in range(100):
            n = 2 + rng.randint(5)
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        w[i, j] = float(rng.randint(4))
            sums = laplacian(WeightedDigraph(w)).sum(axis=1)
            assert np.all(sums == 0.0)

    def test_float_weight_rows_sum_within_tolerance(self):
        rng = SplitMix64(4)
        for _ in range(100):
            n = 2 + rng.randint(5)
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        w[i, j] = rng.uniform(0.0, 10.0)
            sums = laplacian(WeightedDigraph(w)).sum(axis=1)
            assert np.max(np.abs(sums)) <= 1e-12


class TestGraphSchedule:
    def test_validation(self):
        g = line_graph(2)
        with pytest.raises(InputError):
            GraphSchedule(segments=((1.0, g),), a_low=1.0, a_high=1.0)
        with pytest.raises(InputError):
            GraphSchedule(segments=((0.0, g), (0.0, g)), a_low=1.0, a_high=1.0)
        with pytest.raises(InputError):
            GraphSchedule(segments=((0.0, g),), a_low=1.0, a_high=1.0, period=0.0)
        with pytest.raises(InputError):
            GraphSchedule(segments=((0.0, g),), a_low=2.0, a_high=3.0)
        for t in (math.nan, math.inf):
            with pytest.raises(InputError, match="finite"):
                GraphSchedule(segments=((0.0, g), (t, g)), a_low=1.0, a_high=1.0)

    def test_periodic_lookup_and_switches(self):
        g1 = line_graph(2)
        g2 = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        s = GraphSchedule(
            segments=((0.0, g1), (1.0, g2)), a_low=1.0, a_high=1.0, period=2.0
        )
        assert s.graph_at(0.5) == g1
        assert s.graph_at(1.0) == g2
        assert s.graph_at(2.0) == g1
        assert s.graph_at(7.5) == g2
        assert s.next_switch_after(0.0) == 1.0
        assert s.next_switch_after(1.0) == 2.0
        assert s.next_switch_after(5.0) == 6.0
        assert s.next_switch_after(6.0) == 7.0

    def test_finite_lookup(self):
        g1 = line_graph(2)
        g2 = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        s = GraphSchedule(segments=((0.0, g1), (2.0, g2)), a_low=1.0, a_high=1.0)
        assert s.graph_at(100.0) == g2
        assert s.next_switch_after(2.0) == math.inf
        assert s.graphs_active_from(2.5) == (g2,)


def _offsets(s: GraphSchedule) -> list[float]:
    return [t for t, _ in s.segments]


def reference_graph_at(s: GraphSchedule, t: float) -> WeightedDigraph:
    """``GraphSchedule.graph_at`` as it was when it rebuilt the segment start
    times on every call."""
    if t < 0.0:
        raise InputError(f"time must be nonnegative, got {t}")
    offsets = _offsets(s)
    if s.period is None:
        local = t
    else:
        k = math.floor(t / s.period)
        local = None
        for kk in (k + 1, k, k - 1):
            if kk < 0:
                continue
            base = kk * s.period
            if base <= t < base + s.period:
                local = t - base
                break
        if local is None:
            local = t - k * s.period
    idx = 0
    for i, start in enumerate(offsets):
        if start <= local:
            idx = i
    return s.segments[idx][1]


def reference_next_switch_after(s: GraphSchedule, t: float) -> float:
    """``GraphSchedule.next_switch_after`` as it was (see above)."""
    offsets = _offsets(s)
    if s.period is None:
        for start in offsets:
            if start > t:
                return start
        return math.inf
    k = math.floor(t / s.period)
    candidates = []
    for kk in (k - 1, k, k + 1):
        if kk < 0:
            continue
        base = kk * s.period
        candidates.extend(base + off for off in offsets)
        candidates.append(base + s.period)
    later = [c for c in candidates if c > t]
    return min(later) if later else math.inf


def reference_graphs_active_from(s: GraphSchedule, t: float) -> tuple:
    """``GraphSchedule.graphs_active_from`` as it was (see above)."""
    if s.period is not None:
        pool = [g for _, g in s.segments]
    else:
        offsets = _offsets(s)
        idx = 0
        for i, start in enumerate(offsets):
            if start <= t:
                idx = i
        pool = [g for _, g in s.segments[idx:]]
    unique: list[WeightedDigraph] = []
    for g in pool:
        if not any(g == u for u in unique):
            unique.append(g)
    return tuple(unique)


def _three_segments(period, offsets=(0.1, 0.35)):
    """The graphs and the schedule of three segments, starting at 0 and at
    ``offsets``."""
    graphs = [line_graph(3), WeightedDigraph.from_edges(3, [(0, 1, 1.0)]),
              WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 0, 1.0)])]
    starts = (0.0, *offsets)
    return graphs, GraphSchedule(segments=tuple(zip(starts, graphs)), a_low=1.0, a_high=1.0,
                                 period=period)


@pytest.mark.parametrize("period", [0.7, 2.0, None, 0.75])
def test_lookups_match_the_per_call_start_times(period):
    # With a period of 0.7 or 2.0 the cycle starts k * period and their
    # segment starts k * period + off round, so the three lookups compare
    # floats right at the boundaries; each boundary is tried with its
    # neighbours.  There the references, the lookups as they were, disagree
    # with each other, so the lookups are checked against each other.  With
    # a period of 0.75 and offsets 0.125 and 0.375 every switch time is
    # exact, and the lookups must give what the old ones gave.
    exact = period in (None, 0.75)
    graphs, s = _three_segments(period, (0.125, 0.375) if period == 0.75 else (0.1, 0.35))
    cycle = 2.0 if period is None else period
    times = {0.0, 1e-300}
    for k in range(60):
        for boundary in [k * cycle, k * cycle + cycle / 2] + [k * cycle + off for off in
                                                              _offsets(s)[1:]]:
            down = up = boundary
            for _ in range(3):
                down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
                times.update((down, up))
            times.add(boundary)
    for t in sorted(t for t in times if t >= 0.0):
        assert s.graphs_active_from(t) == reference_graphs_active_from(s, t)
        if exact:
            assert s.graph_at(t) is reference_graph_at(s, t)
            assert s.next_switch_after(t).hex() == reference_next_switch_after(s, t).hex()
            continue
        # The graph of t holds up to the next switch, which starts the next
        # segment's graph.
        j = graphs.index(s.graph_at(t))
        switch = s.next_switch_after(t)
        assert switch > t
        assert s.graph_at(math.nextafter(switch, -math.inf)) is graphs[j]
        assert s.graph_at(switch) is graphs[(j + 1) % 3]


def test_periodic_switches_start_the_next_segment():
    # The old graph_at gave the graph of the segment that had just ended at
    # 503 of these 3,000 switch times.
    graphs, s = _three_segments(0.7)
    t = 0.0
    for k in range(1, 3001):
        t = s.next_switch_after(t)
        assert s.graph_at(t) is graphs[k % 3]


class TestUnboundedInteractionsGraph:
    def test_time_invariant_keeps_edges(self):
        g = line_graph(3)
        s = GraphSchedule.time_invariant(g, 1.0, 1.0)
        limit = s.unbounded_interactions_graph()
        assert np.array_equal(limit.weights > 0, g.weights > 0)

    def test_periodic_union(self):
        g1 = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        g2 = WeightedDigraph.from_edges(2, [(1, 0, 1.0)])
        s = GraphSchedule(
            segments=((0.0, g1), (1.0, g2)), a_low=1.0, a_high=1.0, period=2.0
        )
        limit = s.unbounded_interactions_graph()
        assert limit.weights[0, 1] == 1.0 and limit.weights[1, 0] == 1.0

    def test_finite_schedule_with_empty_tail(self):
        g1 = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        s = GraphSchedule(
            segments=((0.0, g1), (1.0, WeightedDigraph.empty(2))),
            a_low=1.0,
            a_high=1.0,
        )
        assert not list(s.unbounded_interactions_graph().edges())

    def test_adding_a_segment_never_removes_edges(self):
        rng = SplitMix64(11)
        for _ in range(100):
            n = 2 + rng.randint(4)
            g1 = random_digraph(rng, n, 0.35)
            g2 = random_digraph(rng, n, 0.35)
            base = GraphSchedule(
                segments=((0.0, g1),), a_low=1.0, a_high=1.0, period=1.0
            )
            extended = GraphSchedule(
                segments=((0.0, g1), (1.0, g2)), a_low=1.0, a_high=1.0, period=2.0
            )
            before = base.unbounded_interactions_graph().weights > 0
            after = extended.unbounded_interactions_graph().weights > 0
            assert np.all(after[before])


class TestScheduleJson:
    def test_round_trip(self):
        g1 = line_graph(3, weight=0.75)
        g2 = WeightedDigraph.from_edges(3, [(0, 1, 1.5)])
        s = GraphSchedule(
            segments=((0.0, g1), (2.5, g2)), a_low=0.5, a_high=2.0, period=4.0
        )
        assert schedule_from_json(s.to_json()) == s

    def test_negative_edge_index_rejected(self):
        obj = GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0).to_json()
        obj["segments"][0]["edges"].append({"i": -1, "j": 0, "w": 1.0})
        with pytest.raises(InputError, match=r"edge \(-1, 0, 1.0\)"):
            schedule_from_json(obj)

    def test_wire_is_zero_based(self):
        s = GraphSchedule.time_invariant(
            WeightedDigraph.from_edges(2, [(0, 1, 1.0)]), 1.0, 1.0
        )
        obj = s.to_json()
        assert obj["segments"][0]["edges"] == [{"i": 0, "j": 1, "w": 1.0}]
