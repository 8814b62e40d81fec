from __future__ import annotations

import math
from itertools import product

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

from conftest import oracle_globally_reachable, random_digraph


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
        assert g.rows[0].pairs == ((1, 2.0), (3, 0.5))
        assert g.rows[1].pairs == ()
        assert g.rows[0].index.tolist() == [1, 3]
        assert g.rows[0].weight.tolist() == [2.0, 0.5]
        for i, row in enumerate(g.rows):
            assert row.total == float(g.weights[i].sum()) == g.out_weight(i)
        assert g.rows is g.rows  # built once per graph

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
        from conftest import bfs_reachability

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
            g = random_digraph(rng, 1 + rng.randint(6))
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
        for n in (1, 2, 3):
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            for bits in product((0.0, 1.0), repeat=len(pairs)):
                w = np.zeros((n, n))
                for (i, j), bit in zip(pairs, bits):
                    w[i, j] = bit
                g = WeightedDigraph(w)
                found, witnesses = oracle_globally_reachable(g)
                result = has_globally_reachable_node(g)
                assert result.found == found
                if found:
                    assert result.witness in witnesses

    def test_two_sources_one_sink_is_weak_but_not_pairwise(self):
        # A -> K <- B: a globally reachable node exists, the dag is weakly
        # connected, yet the two sources are not ordered by reachability.
        g = WeightedDigraph.from_edges(3, [(0, 2, 1.0), (1, 2, 1.0)])
        cond = strongly_connected_components(g)
        assert cond.is_weakly_connected()
        assert not cond.is_pairwise_connected()
        assert has_globally_reachable_node(g).found

    def test_pairwise_connected_one_sink_implies_reachable(self):
        rng = SplitMix64(17)
        for _ in range(500):
            g = random_digraph(rng, 1 + rng.randint(5))
            cond = strongly_connected_components(g)
            if cond.is_pairwise_connected() and len(cond.sinks()) == 1:
                assert has_globally_reachable_node(g).found
            if cond.is_pairwise_connected():
                assert cond.is_weakly_connected()


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
            g1 = random_digraph(rng, n)
            g2 = random_digraph(rng, n)
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
