from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qcl import (
    FixedAlpha,
    GeneralQuantizer,
    GraphSchedule,
    InputError,
    ScenarioConfig,
    SequentialSlow,
    UniformQuantizer,
    WeightedDigraph,
    has_globally_reachable_node,
    is_weight_balanced,
    convergence_time,
    example1_line,
    example2_sliding,
    line_graph,
    random_connected,
    scenario_from_json,
    simulate,
)
from qcl.scenarios import SplitMix64
from test_dynamics import _benchmark_workloads


class TestSplitMix64:
    def test_reference_sequence_for_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_deterministic(self):
        a = [SplitMix64(42).next_u64() for _ in range(5)]
        b = [SplitMix64(42).next_u64() for _ in range(5)]
        assert a == b

    def test_uniform_range(self):
        rng = SplitMix64(7)
        values = [rng.uniform(2.0, 3.0) for _ in range(1000)]
        assert all(2.0 <= v < 3.0 for v in values)


class TestExample1Line:
    def test_reference_weights_and_start(self):
        config = example1_line(3, 1.0)
        w = config.schedule.segments[0][1].weights
        assert w[0, 1] == w[1, 0] == w[1, 2] == w[2, 1] == 1.0
        assert w[0, 2] == w[2, 0] == 0.0
        assert config.x0 == (0.0, 1.0, 2.0)
        assert isinstance(config.policy, SequentialSlow)

    def test_spacing_follows_precision(self):
        assert example1_line(4, 0.5).x0 == (0.0, 0.5, 1.0, 1.5)

    def test_too_few_agents_rejected(self):
        with pytest.raises(InputError):
            example1_line(2, 1.0)

    def test_expected_annotation(self):
        config = example1_line(6, 1.0)
        assert config.expected.t_con_lower == 6 * 5 / 8.0
        assert config.expected.collocation is True  # half-level average


class TestExample2Sliding:
    def test_reference_start_and_coefficients(self):
        config = example2_sliding(3, 1.0, 1.0)
        assert config.x0 == (0.0, 0.5, 1.0)
        assert isinstance(config.policy, FixedAlpha)
        assert dict(config.policy.overrides) == {1: 0.5}

    def test_coefficients_are_geometric(self):
        config = example2_sliding(5, 1.0, 1.0)
        assert dict(config.policy.overrides) == {1: 0.125, 2: 0.25, 3: 0.5}

    def test_weights(self):
        w = example2_sliding(4, 1.0, 2.0).schedule.segments[0][1].weights
        assert w[0, 1] == w[1, 2] == w[2, 3] == 1.0
        assert w[1, 0] == w[2, 0] == 2.0
        assert np.all(w[3] == 0.0)  # stubborn last agent

    def test_b_below_a_rejected(self):
        with pytest.raises(InputError):
            example2_sliding(3, 2.0, 1.0)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_growth_doubles_per_agent(self, n):
        t_n = convergence_time(simulate(example2_sliding(n, 1.0, 1.0)))[0]
        t_next = convergence_time(simulate(example2_sliding(n + 1, 1.0, 1.0)))[0]
        assert t_next / t_n == 2.0


class TestRandomConnected:
    def test_deterministic_in_seed(self):
        a = random_connected(5, seed=123)
        b = random_connected(5, seed=123)
        assert a == b
        assert random_connected(5, seed=124) != a

    def test_single_agent_instantly_converged(self):
        traj = simulate(random_connected(1, seed=0))
        assert traj.status == "equilibrium"
        assert traj.events[0].t == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetric_mode_is_weight_balanced(self, seed):
        config = random_connected(4, seed=seed, symmetric=True)
        for _, g in config.schedule.segments:
            assert is_weight_balanced(g)

    @pytest.mark.parametrize("seed", range(15))
    def test_limit_graph_has_globally_reachable_node(self, seed):
        switching = (3, 0.5) if seed % 3 == 0 else None
        config = random_connected(2 + seed % 5, seed=seed, switching=switching)
        limit = config.schedule.unbounded_interactions_graph()
        assert has_globally_reachable_node(limit).found

    def test_weights_respect_declared_bounds(self):
        config = random_connected(6, seed=9, weight_range=(0.5, 2.0))
        w = config.schedule.segments[0][1].weights
        nz = w[w > 0]
        assert nz.min() >= 0.5 and nz.max() <= 2.0

    def test_switching_builds_periodic_schedule(self):
        config = random_connected(4, seed=3, switching=(3, 0.7))
        assert config.schedule.period == pytest.approx(2.1)
        assert len(config.schedule.segments) == 3


class TestEvenLineCollocation:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_lower_bound_when_collocation_forced(self, n):
        # Even agent counts put the preserved average exactly on a
        # threshold, forcing the long collocation endgame.
        traj = simulate(example1_line(n, 1.0))
        t_con = convergence_time(traj)[0]
        assert t_con >= n * (n - 1) / 8.0


class TestReferenceCorpus:
    def test_checked_in_scenarios_load_and_converge(self):
        import json
        from pathlib import Path

        corpus = sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))
        assert len(corpus) >= 8
        for path in corpus:
            config = scenario_from_json(json.loads(path.read_text()))
            traj = simulate(config)
            assert traj.status == "equilibrium", path.name
            t_con = convergence_time(traj)[0]
            if config.expected and config.expected.t_con is not None:
                assert t_con == pytest.approx(config.expected.t_con, rel=1e-12), path.name
            if config.expected and config.expected.t_con_lower is not None:
                assert t_con >= config.expected.t_con_lower * (1 - 1e-12), path.name


class TestScenarioJson:
    @pytest.mark.parametrize(
        "config",
        [
            example1_line(4, 0.5),
            example2_sliding(4, 1.0, 2.0),
            random_connected(4, seed=11, switching=(2, 0.5)),
            ScenarioConfig(schedule=example1_line(3, 1.0).schedule,
                           quantizer=GeneralQuantizer((0.0, 0.5, 1.5), (0.25, 1.0)),
                           x0=(0.0, 0.25, 1.5), policy=SequentialSlow()),
        ],
    )
    def test_round_trip(self, config):
        assert scenario_from_json(config.to_json()) == config

    def test_benchmark_scenarios_parse(self):
        # Unknown fields are rejected; every scenario the benchmark generates
        # has only known ones.
        workloads = _benchmark_workloads()
        root = Path(__file__).resolve().parents[1]
        cases = [case for make in workloads.WORKLOADS.values() for case in make(1, root)]
        for case in cases + [workloads.PROBE]:
            scenario_from_json(json.loads(case.text()))

    @pytest.mark.parametrize("field,value,message", [
        ("max_events", 2.5, "max_events must be an integer, got 2.5"),
        ("max_events", 3.0, "max_events must be an integer, got 3.0"),
        ("max_events", True, "max_events must be an integer, got True"),
        ("max_events", "7", "max_events must be an integer, got '7'"),
        ("max_events", None, "max_events must be an integer, got None"),
        ("horizon", "1", "horizon must be a real number, got '1'"),
        ("horizon", None, "horizon must be a real number, got None"),
    ])
    def test_rejects_limits_of_the_wrong_type(self, field, value, message):
        # 2.5 and 3.0 passed and then failed in ctypes; True ran as a limit of 1.
        config = example1_line(3, 1.0)
        with pytest.raises(InputError) as err:
            replace(config, **{field: value})
        assert str(err.value) == message

    def test_accepts_numpy_limits(self):
        config = replace(example1_line(3, 1.0), max_events=np.int64(7), horizon=np.float32(2.0))
        assert (type(config.max_events), config.max_events) == (int, 7)
        assert (type(config.horizon), config.horizon) == (float, 2.0)
        assert simulate(config).status == "equilibrium"

    def test_rejects_mismatched_x0(self):
        config = example1_line(3, 1.0)
        with pytest.raises(InputError):
            ScenarioConfig(
                schedule=config.schedule,
                quantizer=config.quantizer,
                x0=(0.0, 1.0),
                policy=config.policy,
                horizon=1.0,
            )

    @pytest.mark.parametrize("weight,x0,bad", [
        (1e308, (0.0, 0.0, 0.25), "segment 1, agent 1: its weights sum to inf"),
        (6e307, (-1.0, 1.0, 2.0), "segment 1, agent 0: its weights sum to 6e+307"),
        (1e300, (0.0, 1e10, -3e8), "segment 1, agent 0: its weights sum to 1e+300"),
    ], ids=["row-total-overflows", "twice-the-level-times-the-total", "large-levels"])
    def test_rejects_weights_whose_velocities_overflow(self, weight, x0, bad):
        # The second segment's weights, times twice the largest level
        # magnitude of x0, overflow; the first segment's do not.
        ok = line_graph(3)
        big = WeightedDigraph.from_edges(3, [(0, 1, weight), (1, 0, weight), (1, 2, weight)])
        schedule = GraphSchedule(((0.0, ok), (1.0, big)), 1.0, weight)
        with pytest.raises(InputError, match=f"^{re.escape(bad)}, and twice"):
            ScenarioConfig(schedule=schedule, quantizer=UniformQuantizer(1.0), x0=x0)

    def test_accepts_the_largest_weights_that_cannot_overflow(self):
        # 2 W M = 2 * 4e307 * 2 is finite.
        g = WeightedDigraph.from_edges(2, [(0, 1, 4e307), (1, 0, 4e307)])
        config = ScenarioConfig(schedule=GraphSchedule.time_invariant(g, 4e307, 4e307),
                                quantizer=UniformQuantizer(1.0), x0=(0.0, 2.0))
        assert simulate(config).converged
