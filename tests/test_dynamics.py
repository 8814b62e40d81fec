from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from qcl import (
    ContractViolation,
    FixedAlpha,
    GraphSchedule,
    InputError,
    ScenarioConfig,
    SequentialSlow,
    SimulationLimitError,
    Sliding,
    UniformQuantizer,
    WeightedDigraph,
    example1_line,
    example2_sliding,
    line_graph,
    resolve_sliding,
    selection_velocity,
    simulate,
)
from qcl import dynamics
from qcl.dynamics import policy_from_json
from qcl.scenarios import SplitMix64


def leader_chain(n: int, a: float = 1.0, b: float = 1.0) -> WeightedDigraph:
    edges = [(i, i + 1, a) for i in range(n - 1)]
    edges += [(i, 0, b) for i in range(1, n - 1)]
    return WeightedDigraph.from_edges(n, edges)


UNIT = UniformQuantizer(1.0)


class TestSelectionVelocity:
    def test_single_cell_gives_exact_zero(self):
        g = line_graph(4)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        z = np.zeros(4)
        assert np.all(selection_velocity(x, z, g, UNIT) == 0.0)

    def test_line_staircase(self):
        v = selection_velocity(
            np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]), line_graph(3), UNIT
        )
        assert np.array_equal(v, [1.0, 0.0, -1.0])

    def test_leader_chain_midpoint_selection(self):
        v = selection_velocity(
            np.array([0.0, 0.5, 1.0]),
            np.array([0.0, 0.5, 1.0]),
            leader_chain(3),
            UNIT,
        )
        assert np.array_equal(v, [0.5, 0.0, 0.0])

    def test_selection_outside_set_rejected(self):
        with pytest.raises(ContractViolation):
            selection_velocity(
                np.array([0.0, 1.0]), np.array([0.4, 1.0]), line_graph(2), UNIT
            )


class TestResolveSliding:
    def test_single_surface_agent_balances(self):
        # Interior agent held between a still leader and a still follower.
        res = resolve_sliding(np.array([0.0, 0.5, 1.0]), leader_chain(3), UNIT)
        assert res.alpha_of(1) == 0.5
        assert np.array_equal(res.velocity, [0.5, 0.0, 0.0])
        assert res.held == frozenset({1})
        assert res.departing == ()

    @pytest.mark.parametrize("n", range(3, 11))
    def test_chain_coefficients_exact_powers(self, n):
        x = np.array([0.0] + [0.5] * (n - 2) + [1.0])
        res = resolve_sliding(x, leader_chain(n), UNIT)
        for i in range(1, n - 1):
            assert res.alpha_of(i) == 0.5 ** (n - 1 - i)
        assert res.velocity[0] == 0.5 ** (n - 2)

    def test_full_hold_equilibrium(self):
        res = resolve_sliding(np.array([0.5, 1.0, 1.5]), line_graph(3), UNIT)
        assert np.array_equal(res.z, [1.0, 1.0, 1.0])
        assert not np.any(res.velocity)
        assert res.alpha_of(0) == 1.0 and res.alpha_of(2) == 0.0

    def test_departure_is_sign_consistent(self):
        # Agent on a surface pulled upward by two stubborn neighbours.
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
        res = resolve_sliding(np.array([0.5, 2.0, 2.0]), g, UNIT)
        assert dict(res.departing) == {0: 1}
        assert res.z[0] == 1.0
        assert res.velocity[0] == 2.0

    def test_projected_solve_ignores_unset_agent_slots(self):
        # resolve_sliding hands the projected solver a state whose agent
        # slots are not set yet; its result must not depend on them.
        g = line_graph(5)
        boxes = {i: (0.0, 1.0) for i in (1, 2, 3)}
        results = []
        for fill in (0.0, 1e300):
            z = np.array([0.0, fill, fill, fill, 1.0])
            held, departing = dynamics._pgs([1, 2, 3], boxes, z, g)
            results.append((held, departing, z.tolist()))
        assert results[0] == results[1]
        assert results[0][0] == {1, 2, 3}

    def test_agent_listening_to_nobody_broadcasts_midpoint(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        res = resolve_sliding(np.array([0.0, 0.5]), g, UNIT)
        assert res.z[1] == 0.25 + 0.25  # midpoint of [0, 1]
        assert res.velocity[1] == 0.0
        assert res.alpha_of(1) == 0.5
        assert res.velocity[0] == 0.5

    def test_fixed_alpha_pin_sustaining_hold(self):
        res = resolve_sliding(
            np.array([0.0, 0.5, 1.0]),
            leader_chain(3),
            UNIT,
            policy=FixedAlpha({1: 0.5}),
        )
        assert res.alpha_of(1) == 0.5
        assert res.velocity[1] == 0.0

    def test_fixed_alpha_stale_pin_released(self):
        # At the terminal state the pinned coefficient no longer holds the
        # agent; the resolver falls back to the full-hold solution.
        res = resolve_sliding(
            np.array([0.5, 0.5, 1.0]),
            leader_chain(3),
            UNIT,
            policy=FixedAlpha({1: 0.5}),
        )
        assert res.alpha_of(1) == 1.0
        assert not np.any(res.velocity)

    def test_fixed_alpha_rejects_out_of_range(self):
        with pytest.raises(ContractViolation):
            FixedAlpha({0: 1.5})

    def test_projected_iteration_matches_dense_path(self):
        rng = SplitMix64(99)
        quantizer = UniformQuantizer(0.5)
        for _ in range(150):
            n = 2 + rng.randint(5)
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j and rng.uniform() < 0.5:
                        w[i, j] = round(rng.uniform(0.5, 2.0), 6)
            g = WeightedDigraph(w)
            x = np.array(
                [
                    (rng.randint(7) + 1) * 0.25
                    if rng.uniform() < 0.5
                    else round(rng.uniform(0.0, 2.0), 3)
                    for _ in range(n)
                ]
            )
            dense = resolve_sliding(x, g, quantizer, cutoff=64)
            proj = resolve_sliding(x, g, quantizer, cutoff=0)
            assert dense.held == proj.held
            assert dict(dense.departing) == dict(proj.departing)
            assert np.max(np.abs(dense.z - proj.z)) <= 1e-8
            assert np.max(np.abs(dense.velocity - proj.velocity)) <= 1e-8


def _row_velocity_loop(row, z, z_i):
    mask = row > 0.0
    if not mask.any():
        return 0.0
    return float((row[mask] * (z[mask] - z_i)).sum())


def _build_hold_system_loop(active, boxes, z, g):
    col = {agent: c for c, agent in enumerate(active)}
    rows = []
    rhs = []
    for i in active:
        w_i = float(g.weights[i].sum())
        lo_i, hi_i = boxes[i]
        row = [0.0] * len(active)
        row[col[i]] = -w_i * (hi_i - lo_i)
        b = w_i * lo_i
        for j in range(g.n):
            a_ij = float(g.weights[i, j])
            if a_ij == 0.0:
                continue
            if j in col:
                lo_j, hi_j = boxes[j]
                if j != i:
                    row[col[j]] += a_ij * (hi_j - lo_j)
                b -= a_ij * lo_j
            else:
                b -= a_ij * float(z[j])
        rows.append(row)
        rhs.append(b)
    return rows, rhs, col


def _gaussian_solve_loop(a_rows, b):
    m = len(b)
    aug = [list(a_rows[r]) + [b[r]] for r in range(m)]
    for col in range(m):
        piv = col
        best = abs(aug[col][col])
        for r in range(col + 1, m):
            mag = abs(aug[r][col])
            if mag > best:
                best, piv = mag, r
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(col + 1, m):
            factor = aug[r][col] / aug[col][col]
            if factor != 0.0:
                for c in range(col, m + 1):
                    aug[r][c] -= factor * aug[col][c]
    out = [0.0] * m
    for r in range(m - 1, -1, -1):
        acc = aug[r][m]
        for c in range(r + 1, m):
            acc -= aug[r][c] * out[c]
        out[r] = acc / aug[r][r]
    return out


class TestSparseResolverMatchesLoopReference:
    """The sparse-row resolver helpers against the dense loops they replaced.

    They do the same arithmetic in the same order, so results must agree
    bit for bit (``repr`` tells -0.0 from 0.0).
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_hold_system_solution_and_velocities(self, seed):
        from qcl import random_connected

        g = random_connected(30, seed=seed).schedule.segments[0][1]
        rng = SplitMix64(seed)
        z = np.array([rng.uniform(-3.0, 3.0) for _ in range(g.n)])
        active = sorted({rng.randint(g.n) for _ in range(12)})
        boxes = {}
        for i in active:
            k = rng.randint(4) - 2
            boxes[i] = (float(k), float(k + 1))
        system = dynamics._build_hold_system(active, boxes, z, g)
        assert repr(system) == repr(_build_hold_system_loop(active, boxes, z, g))
        rows, rhs, _ = system
        assert repr(dynamics._gaussian_solve(rows, rhs)) == repr(_gaussian_solve_loop(rows, rhs))
        for i in range(g.n):
            assert repr(dynamics._velocity(g.rows[i], z, float(z[i]))) == repr(
                _row_velocity_loop(g.weights[i], z, float(z[i])))

    def test_elimination_with_row_swaps(self):
        rng = SplitMix64(9)
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(10)] for _ in range(10)]
        rhs = [rng.uniform(-1.0, 1.0) for _ in range(10)]
        assert repr(dynamics._gaussian_solve(rows, rhs)) == repr(_gaussian_solve_loop(rows, rhs))


class TestSimulate:
    def test_line_reference_trace_is_exact(self):
        config = example1_line(3, 1.0, policy=Sliding())
        traj = simulate(config)
        assert [ev.kind for ev in traj.events] == ["start", "equilibrium"]
        assert traj.events[1].t == 0.5
        assert traj.events[1].hits == (0, 2)
        assert traj.events[1].x == (0.5, 1.0, 1.5)
        assert traj.status == "equilibrium"

    def test_all_states_in_one_cell_is_immediate_equilibrium(self):
        config = ScenarioConfig(
            schedule=GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0),
            quantizer=UNIT,
            x0=(0.1, 0.2, 0.3),
            policy=Sliding(),
            horizon=10.0,
        )
        traj = simulate(config)
        assert len(traj.events) == 1
        assert traj.events[0].kind == "equilibrium"
        assert traj.events[0].t == 0.0

    def test_leader_chain_pinned_trace(self):
        config = example2_sliding(3, 1.0, 1.0)
        traj = simulate(config)
        assert [ev.kind for ev in traj.events] == ["start", "equilibrium"]
        start, end = traj.events
        assert start.velocity == (0.5, 0.0, 0.0)
        assert end.t == 1.0
        assert end.x == (0.5, 0.5, 1.0)

    def test_sequential_and_sliding_agree_on_reference_lines(self):
        for n in (3, 4, 6):
            t1 = simulate(example1_line(n, 1.0, policy=Sliding()))
            t2 = simulate(example1_line(n, 1.0, policy=SequentialSlow()))
            assert [e.t for e in t1.events] == [e.t for e in t2.events]
            assert t1.final_x.tolist() == t2.final_x.tolist()

    def test_event_limit_carries_partial_trajectory(self):
        config = example1_line(6, 1.0, policy=Sliding())
        config = ScenarioConfig(
            schedule=config.schedule,
            quantizer=config.quantizer,
            x0=config.x0,
            policy=config.policy,
            horizon=config.horizon,
            max_events=2,
        )
        with pytest.raises(SimulationLimitError) as err:
            simulate(config)
        assert len(err.value.trajectory.events) == 2

    def test_event_limit_message_estimates_remaining_crossings(self):
        # Three agents spanning two units at delta = 1e-9 need about
        # 3 * 2 / 1e-9 = 6e9 more threshold crossings.
        config = replace(example1_line(3, 1e-9, x0_spacing=1.0, policy=Sliding()),
                         max_events=40)
        with pytest.raises(SimulationLimitError, match="about 6e[+]09 level crossings remain"):
            simulate(config)

    def test_horizon_status(self):
        config = example1_line(6, 1.0, policy=Sliding(), horizon=0.25)
        traj = simulate(config)
        assert traj.status == "horizon"
        assert traj.events[-1].kind == "horizon"
        assert traj.events[-1].t == 0.25

    def test_topology_switch_events(self):
        # One-directional edges alternating direction each second.
        g1 = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        g2 = WeightedDigraph.from_edges(2, [(1, 0, 1.0)])
        sched = GraphSchedule(
            segments=((0.0, g1), (1.0, g2)), a_low=1.0, a_high=1.0, period=2.0
        )
        config = ScenarioConfig(
            schedule=sched,
            quantizer=UNIT,
            x0=(0.0, 4.0),
            policy=Sliding(),
            horizon=100.0,
        )
        traj = simulate(config)
        assert traj.status == "equilibrium"
        kinds = {ev.kind for ev in traj.events}
        assert "topology-switch" in kinds

    def test_threshold_hit_at_closed_form_time(self):
        # Agent 0 listens to a stubborn agent three levels up: velocity 3,
        # so it reaches the threshold 0.5 at exactly 0.5 / 3.
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        traj = simulate(ScenarioConfig(
            schedule=GraphSchedule.time_invariant(g, 1.0, 1.0),
            quantizer=UNIT,
            x0=(0.0, 3.0),
            horizon=100.0,
        ))
        ev = traj.events[1]
        assert (ev.t, ev.kind, ev.hits) == (0.5 / 3.0, "threshold-hit", (0,))
        assert ev.x == (0.5, 3.0)

    def test_switch_before_farther_threshold(self):
        # The threshold is 1/6 away, the switch 0.1 away.
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        sched = GraphSchedule(segments=((0.0, g), (0.1, g)), a_low=1.0, a_high=1.0)
        traj = simulate(ScenarioConfig(
            schedule=sched, quantizer=UNIT, x0=(0.0, 3.0), horizon=100.0,
        ))
        switch, hit = traj.events[1:3]
        assert (switch.t, switch.kind, switch.hits) == (0.1, "topology-switch", ())
        assert switch.x == (3.0 * 0.1, 3.0)
        assert (hit.kind, hit.hits, hit.x) == ("threshold-hit", (0,), (0.5, 3.0))

    def test_state_beyond_threshold_lattice_rejected(self):
        # 1e16 / delta is past 2^52: the thresholds around it collapse.
        with pytest.raises(InputError, match="agent 2"):
            simulate(ScenarioConfig(
                schedule=GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0),
                quantizer=UNIT,
                x0=(0.0, 1.0, 1e16),
                horizon=10.0,
            ))

    def test_stop_condition(self):
        config = example1_line(6, 1.0, policy=Sliding())
        traj = simulate(config, stop_condition=lambda t, x: t >= 1.0)
        assert traj.status == "stopped"

    def test_event_times_strictly_increase(self):
        rng = SplitMix64(123)
        from qcl import random_connected

        for seed in range(20):
            config = random_connected(2 + rng.randint(5), seed=seed)
            traj = simulate(config)
            times = [ev.t for ev in traj.events]
            assert all(b > a for a, b in zip(times, times[1:]))


class TestGeneralQuantizerSimulation:
    def test_uneven_levels_trace(self):
        from qcl import GeneralQuantizer, convergence_time

        quantizer = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        config = ScenarioConfig(
            schedule=GraphSchedule.time_invariant(line_graph(2), 1.0, 1.0),
            quantizer=quantizer,
            x0=(0.0, 5.0),
            policy=Sliding(),
            horizon=100.0,
        )
        traj = simulate(config)
        assert traj.status == "equilibrium"
        assert traj.final_x.tolist() == [2.0, 3.0]
        assert convergence_time(traj) == (pytest.approx(0.475), 1.0)

    def test_motion_beyond_last_threshold_runs_to_horizon(self):
        from qcl import GeneralQuantizer

        quantizer = GeneralQuantizer(levels=(0.0, 1.0), thresholds=(0.5,))
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        config = ScenarioConfig(
            schedule=GraphSchedule.time_invariant(g, 1.0, 1.0),
            quantizer=quantizer,
            x0=(10.0, 20.0),  # both clamp to the top level
            policy=Sliding(),
            horizon=5.0,
        )
        traj = simulate(config)
        assert traj.status == "equilibrium"


class TestTrajectoryAudit:
    def test_random_corpus_passes_full_audit(self):
        from qcl import audit_trajectory, random_connected

        for seed in range(30):
            switching = (2, 0.5) if seed % 5 == 0 else None
            config = random_connected(2 + seed % 5, seed=500 + seed,
                                      switching=switching)
            traj = simulate(config)
            assert audit_trajectory(traj, config) == [], f"seed {seed}"


class TestTrajectory:
    def test_state_at_interpolates_affinely(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        assert np.array_equal(traj.state_at(0.25), [0.25, 1.0, 1.75])
        assert np.array_equal(traj.state_at(100.0), [0.5, 1.0, 1.5])
        assert np.array_equal(traj.state_at(0.0), [0.0, 1.0, 2.0])

    def test_csv_layout(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,event,x_1,x_2,x_3,z_1,z_2,z_3,alpha_1,alpha_2,alpha_3"
        assert lines[1].startswith("0.0,start,")
        # alpha columns blank off-surface
        assert lines[1].endswith(",,,")

    def test_csv_samples_between_events(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        lines = traj.to_csv(stride=0.125).strip().split("\n")
        sample_rows = [ln for ln in lines if ",sample," in ln]
        assert len(sample_rows) == 3  # 0.125, 0.25, 0.375
        assert sample_rows[0].split(",")[0] == "0.125"

    def test_json_mirror_has_same_fields(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        obj = traj.to_json_obj()
        assert obj["status"] == "equilibrium"
        assert set(obj["events"][0]) == {"t", "event", "x", "z", "alpha"}
        assert obj["events"][1]["alpha"][1] is None


class TestPolicyJson:
    @pytest.mark.parametrize(
        "policy",
        [Sliding(), SequentialSlow(), FixedAlpha({1: 0.5, 2: 0.25})],
    )
    def test_round_trip(self, policy):
        assert policy_from_json(policy.to_json()) == policy
