from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcl import (
    GeneralQuantizer,
    GraphSchedule,
    InputError,
    ScenarioConfig,
    Sliding,
    Trajectory,
    TrajectoryEvent,
    UniformQuantizer,
    UnsupportedQuantizerError,
    WeightedDigraph,
    audit_trajectory,
    average_conservation,
    consensus_level,
    consensus_level_set,
    convergence_report,
    convergence_time,
    envelopes,
    example1_line,
    example2_sliding,
    kq_envelope,
    limit_value_check,
    line_graph,
    log_tcon_bound,
    random_connected,
    simulate,
    tcon_bound,
)
from qcl import _json
from qcl.analysis import EnvelopeAudit
from qcl.quantizers import extreme_sets
from qcl.scenarios import SplitMix64

UNIT = UniformQuantizer(1.0)


def enumerate_consensus_levels(x, quantizer) -> set[float]:
    """Independent oracle: intersect explicit per-agent level sets."""
    sets = []
    for xi in x:
        lo, hi = quantizer.krasovskii_set(float(xi))
        sets.append({lo, hi})
    common = set.intersection(*sets) if sets else set()
    # Intervals, not just endpoints: a level strictly inside someone's hull
    # cannot occur for single-jump sets, so endpoint intersection is exact.
    return common


class TestConsensusLevel:
    def test_one_shared_cell(self):
        assert consensus_level((0.5, 1.0, 1.5), UNIT) == 1.0

    def test_two_thresholds_single_common_level(self):
        assert consensus_level((0.5, 1.5), UNIT) == 1.0

    def test_disjoint_cells(self):
        assert consensus_level((0.0, 3.0), UNIT) is None

    def test_tie_reports_lower_level(self):
        assert consensus_level_set((0.5, 0.5), UNIT) == (0.0, 1.0)
        assert consensus_level((0.5, 0.5), UNIT) == 0.0

    def test_matches_enumeration_oracle(self):
        rng = SplitMix64(21)
        for _ in range(500):
            n = 1 + rng.randint(5)
            x = tuple(
                (rng.randint(9) - 4) * 0.5
                if rng.uniform() < 0.5
                else round(rng.uniform(-2.0, 2.0), 3)
                for _ in range(n)
            )
            got = set(consensus_level_set(x, UNIT))
            assert got == enumerate_consensus_levels(x, UNIT)

    def test_none_iff_cells_two_apart_or_no_shared_threshold(self):
        rng = SplitMix64(22)
        for _ in range(500):
            n = 2 + rng.randint(4)
            x = tuple(round(rng.uniform(-3.0, 3.0), 4) for _ in range(n))
            cells = [round(UNIT.quantize(v)) for v in x]
            gap = max(cells) - min(cells)
            level = consensus_level(x, UNIT)
            if gap >= 2:
                assert level is None
            elif gap == 0:
                assert level is not None


class TestConvergenceTime:
    def test_line_reference(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        assert convergence_time(traj) == (0.5, 1.0)

    def test_initial_consensus_is_time_zero(self):
        config = ScenarioConfig(
            schedule=GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0),
            quantizer=UNIT,
            x0=(0.9, 1.1, 1.4),
            policy=Sliding(),
            horizon=10.0,
        )
        assert convergence_time(simulate(config)) == (0.0, 1.0)

    def test_leader_chain_reference(self):
        traj = simulate(example2_sliding(3, 1.0, 1.0))
        assert convergence_time(traj) == (1.0, 1.0)

    def test_unconverged_returns_none(self):
        traj = simulate(example1_line(6, 1.0, policy=Sliding(), horizon=0.25))
        assert convergence_time(traj) is None


class TestTconBound:
    def test_line_staircase_value(self):
        assert tcon_bound((0.0, 1.0, 2.0), UNIT, 1.0, 1.0) == 162.0

    def test_zero_spread(self):
        assert tcon_bound((0.2, 0.3, 0.4), UNIT, 1.0, 1.0) == 0.0

    def test_leader_chain_start_value(self):
        assert tcon_bound((0.0, 0.5, 1.0), UNIT, 1.0, 1.0) == 81.0

    def test_general_quantizer_unsupported(self):
        q = GeneralQuantizer(levels=(0.0, 1.0), thresholds=(0.5,))
        with pytest.raises(UnsupportedQuantizerError):
            tcon_bound((0.0, 1.0), q, 1.0, 1.0)

    def test_log_matches_value_in_range(self):
        assert log_tcon_bound((0.0, 1.0, 2.0), UNIT, 1.0, 1.0) == pytest.approx(
            math.log(162.0), rel=1e-15)
        assert log_tcon_bound((0.2, 0.3, 0.4), UNIT, 1.0, 1.0) == -math.inf
        q = GeneralQuantizer(levels=(0.0, 1.0), thresholds=(0.5,))
        with pytest.raises(UnsupportedQuantizerError):
            log_tcon_bound((0.0, 1.0), q, 1.0, 1.0)

    @pytest.mark.parametrize("n, ratio", [(143, 1.0), (144, 1.0), (115, 4.0), (116, 4.0)])
    def test_beyond_float_range(self, n, ratio):
        # (n ratio)^n leaves the float range here: 143 and 115 gave inf,
        # 144 and 116 raised OverflowError.
        x0 = tuple(float(i % 3) for i in range(n))
        assert tcon_bound(x0, UNIT, 0.5, 0.5 * ratio) is None
        expected = math.log(2 * n) + n * math.log(n * ratio) + math.log(2.0)
        assert log_tcon_bound(x0, UNIT, 0.5, 0.5 * ratio) == pytest.approx(expected, rel=1e-15)


def _constant_trajectory() -> Trajectory:
    ev = TrajectoryEvent(
        t=0.0, kind="equilibrium", x=(0.2, 0.3), z=(0.0, 0.0),
        velocity=(0.0, 0.0), alpha=(None, None), hits=(), departing=(),
    )
    return Trajectory(UNIT, [ev], "equilibrium")


def _corrupted_trajectory() -> Trajectory:
    base = simulate(example1_line(3, 1.0, policy=Sliding()))
    bad = TrajectoryEvent(
        t=1.0, kind="threshold-hit", x=(-5.0, 1.0, 1.5), z=(-5.0, 1.0, 2.0),
        velocity=(0.0, 0.0, 0.0), alpha=(None, None, None), hits=(), departing=(),
    )
    return Trajectory(UNIT, base.events + [bad], base.status)


class TestEnvelopes:
    def test_reference_run_is_flat(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        audit = envelopes(traj)
        assert audit.ok
        assert [p[1] for p in audit.points] == [0.0, 0.0]
        assert [p[2] for p in audit.points] == [2.0, 2.0]

    def test_constant_trajectory_passes(self):
        assert envelopes(_constant_trajectory()).ok

    def test_corrupted_trajectory_fails_with_location(self):
        audit = envelopes(_corrupted_trajectory())
        assert not audit.ok
        assert audit.first_violation == 2
        assert audit.violations >= 1

    def test_kq_envelope_values(self):
        assert kq_envelope((0.5, 1.0, 1.5), UNIT) == (0.0, 2.0)


class TestAverageConservation:
    def test_balanced_run_preserves_average(self):
        traj = simulate(example1_line(4, 1.0, policy=Sliding()))
        assert average_conservation(traj) <= 1e-9

    def test_leader_chain_drifts(self):
        traj = simulate(example2_sliding(3, 1.0, 1.0))
        assert average_conservation(traj) > 0.0

    def test_single_event_trajectory_is_zero(self):
        assert average_conservation(_constant_trajectory()) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(n=300, rows=40, seed=1).via("rows past 8 and 128 terms")
    def test_matches_per_event_means(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-8, 8, (rows, n))
        x[rng.random((rows, n)) < 0.1] = -0.0
        events = [replace(_constant_trajectory().events[0], x=tuple(r), z=(0.0,) * n,
                          velocity=(0.0,) * n, alpha=(None,) * n) for r in x.tolist()]
        # The per-event form it replaced: one np.mean per event.
        mean0 = float(np.mean(events[0].x))
        expected = max(abs(float(np.mean(ev.x)) - mean0) for ev in events)
        got = average_conservation(Trajectory(UNIT, events, "equilibrium"))
        assert got.hex() == expected.hex()


class TestLimitValueCheck:
    def test_line_reference_passes(self):
        config = example1_line(3, 1.0, policy=Sliding())
        traj = simulate(config)
        assert limit_value_check(traj, config.schedule).status == "pass"

    def test_half_level_average_forces_collocation(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
        config = ScenarioConfig(
            schedule=GraphSchedule.time_invariant(g, 1.0, 1.0),
            quantizer=UNIT,
            x0=(0.0, 1.0),
            policy=Sliding(),
            horizon=10.0,
        )
        traj = simulate(config)
        assert traj.final_x.tolist() == [0.5, 0.5]
        assert limit_value_check(traj, config.schedule).status == "pass"

    def test_unbalanced_schedule_not_applicable(self):
        config = example2_sliding(3, 1.0, 1.0)
        traj = simulate(config)
        result = limit_value_check(traj, config.schedule)
        assert result.status == "not-applicable"


class TestReportsAndAudit:
    def test_report_fields_and_json_keys(self):
        config = example1_line(3, 1.0, policy=Sliding())
        traj = simulate(config)
        report = convergence_report(traj, config)
        assert report.converged
        assert report.t_con == 0.5
        assert report.s_star == 1.0
        assert report.q_infinity == 1.0
        assert report.bound == 162.0
        assert report.envelope_ok
        obj = report.to_json_obj()
        assert list(obj) == [
            "converged", "t_con", "s_star", "q_infinity", "bound",
            "average_drift", "envelope_ok",
        ]

    def test_bound_beyond_float_range_reported_as_log(self):
        config = random_connected(150, seed=0)
        report = convergence_report(simulate(config), config)
        assert report.bound is None
        assert report.log_bound == log_tcon_bound(
            config.x0, config.quantizer, config.a_low, config.a_high)
        obj = report.to_json_obj()
        assert obj["bound"] is None and obj["log_bound"] == report.log_bound
        assert '"log_bound": ' in _json.dumps(obj)

    def test_bound_absent_for_switching_schedules(self):
        g1 = line_graph(2)
        g2 = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        sched = GraphSchedule(
            segments=((0.0, g1), (1.0, g2)), a_low=1.0, a_high=1.0, period=2.0
        )
        config = ScenarioConfig(
            schedule=sched, quantizer=UNIT, x0=(0.1, 0.2), policy=Sliding(),
            horizon=10.0,
        )
        traj = simulate(config)
        assert convergence_report(traj, config).bound is None

    def test_audit_passes_on_clean_run(self):
        config = example1_line(4, 1.0, policy=Sliding())
        assert audit_trajectory(simulate(config), config) == []

    def test_audit_flags_corruption(self):
        config = example1_line(3, 1.0, policy=Sliding())
        problems = audit_trajectory(_corrupted_trajectory(), config)
        assert any("level range" in p for p in problems)
        assert any("envelope" in p for p in problems)

    def test_audit_flags_selections_outside_their_sets(self):
        config = random_connected(12, seed=3)
        traj = simulate(config)
        k = len(traj.events) // 2
        events = list(traj.events)
        z = list(events[k].z)
        z[2], z[7] = z[2] + 5.0, math.nan
        events[k] = replace(events[k], z=tuple(z))
        problems = audit_trajectory(Trajectory(traj.quantizer, events, traj.status), config)
        assert [p for p in problems if "Kq" in p] == [
            f"selection outside Kq for agent {i} at event {k}" for i in (2, 7)]

    @pytest.mark.parametrize("error,flagged", [(1e-6, True), (1e-11, False)])
    def test_audit_checks_velocities_within_tolerance(self, error, flagged):
        # The recorded velocities are checked against -L z to within 1e-9.
        config = random_connected(12, seed=3)
        traj = simulate(config)
        k = len(traj.events) // 2
        ev = traj.events[k]
        velocity = list(ev.velocity)
        velocity[5] += error
        events = list(traj.events)
        events[k] = replace(ev, velocity=tuple(velocity))
        problems = audit_trajectory(Trajectory(traj.quantizer, events, traj.status), config)
        expected = f"recorded velocity does not match -L z at event {k}"
        assert (expected in problems) == flagged


# The per-event envelope code that the array pass replaced, kept as the
# differential reference: one ``extreme_sets`` call per event.

def reference_convergence_time(traj: Trajectory) -> tuple[float, float] | None:
    if traj.status != "equilibrium":
        return None
    best: tuple[float, float] | None = None
    lo = -math.inf
    hi = math.inf
    for k in range(len(traj.t) - 1, -1, -1):
        low, high = extreme_sets(traj.x[k], traj.quantizer)
        lo = max(lo, high[0])
        hi = min(hi, low[1])
        if lo > hi:
            break
        best = (float(traj.t[k]), lo)
    return best


def reference_envelopes(traj: Trajectory) -> EnvelopeAudit:
    points = [(t, low[0], high[1]) for t, (low, high) in
              zip(traj.t.tolist(), (extreme_sets(x, traj.quantizer) for x in traj.x))]
    lower_ok = all(b >= a for (_, a, _), (_, b, _) in zip(points, points[1:]))
    upper_ok = all(b <= a for (_, _, a), (_, _, b) in zip(points, points[1:]))
    first = None
    for k in range(1, len(points)):
        if points[k][1] < points[k - 1][1] or points[k][2] > points[k - 1][2]:
            first = k
            break
    return EnvelopeAudit(points=tuple(points), lower_ok=lower_ok, upper_ok=upper_ok,
                         first_violation=first)


def _outcome(fn, *args):
    """``repr`` of the result, or the type and message of the error."""
    try:
        return repr(fn(*args))
    except InputError as err:
        return type(err), str(err)


def _rows_trajectory(quantizer, rows: list[list[float]], status: str) -> Trajectory:
    """A trajectory with the given states, one event per unit of time."""
    n = len(rows[0])
    events = [TrajectoryEvent(t=float(k), kind="threshold-hit", x=tuple(x), z=tuple(x),
                              velocity=(0.0,) * n, alpha=(None,) * n, hits=(), departing=())
              for k, x in enumerate(rows)]
    return Trajectory(quantizer, events, status)


ENVELOPE_QUANTIZERS = [
    UNIT,
    UniformQuantizer(0.1),
    GeneralQuantizer(levels=(-1.0, -0.0, 2.0, 7.0), thresholds=(-0.5, 1.0, 4.0)),
    GeneralQuantizer(levels=(-1.0, 1.0), thresholds=(0.0,)),
    GeneralQuantizer(levels=(3.0,), thresholds=()),
]


def _points(q) -> list[float]:
    """States where the sets change: thresholds and levels around zero, and
    beyond the outermost thresholds."""
    if isinstance(q, UniformQuantizer):
        return [k * 0.5 * q.delta for k in range(-7, 8)] + [-0.0]
    return [*q.levels, *q.thresholds, -100.0, 100.0, -0.0]


@st.composite
def envelope_runs(draw):
    """Runs of 1 to 40 events: a random prefix, then one row repeated (a
    constant run, all agents on one threshold for a two-level tie, or
    random), with optional states that are not finite or leave the lattice."""
    q = draw(st.sampled_from(ENVELOPE_QUANTIZERS))
    points = _points(q)
    n = draw(st.integers(0, 5))
    state = st.sampled_from(points) | st.builds(math.nextafter, st.sampled_from(points),
                                                st.sampled_from([-math.inf, math.inf]))
    row = st.lists(state, min_size=n, max_size=n)
    prefix = draw(st.lists(row, max_size=20))
    thresholds = q.thresholds if isinstance(q, GeneralQuantizer) else (0.5 * q.delta,)
    tail = draw(row | st.sampled_from(thresholds or (q.levels[0],)).map(lambda v: [v] * n))
    rows = prefix + [list(tail)] * draw(st.integers(1, 40 - len(prefix)))
    bad = [math.inf, -math.inf, math.nan]
    if isinstance(q, UniformQuantizer):
        bad += [2.0 ** 53 * q.delta, -1e17 * q.delta]
    for value in draw(st.lists(st.sampled_from(bad), max_size=2 if n else 0)):
        k, i = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
        rows[k] = [value if j == i else v for j, v in enumerate(rows[k])]
    return _rows_trajectory(q, rows, draw(st.sampled_from(["equilibrium", "horizon"])))


class TestEnvelopeArrays:
    """``convergence_time`` and ``envelopes`` read every event's extreme sets
    from one array pass; the per-event code they replaced must agree."""

    @settings(max_examples=300, deadline=None)
    @given(traj=envelope_runs())
    def test_match_per_event_code(self, traj):
        expected = _outcome(reference_envelopes, traj)
        assert _outcome(envelopes, traj) == expected
        if isinstance(expected, str):
            assert envelopes(traj).violations == reference_envelopes(traj).violations
        if isinstance(expected, str) or traj.status != "equilibrium":
            assert _outcome(convergence_time, traj) == _outcome(reference_convergence_time, traj)
        else:
            # A bad event raises its error wherever the backward scan stops.
            assert _outcome(convergence_time, traj) == expected

    def test_bad_event_raises_where_the_backward_scan_stops_first(self):
        # Event 1 shares no level with event 2, so the per-event scan stopped
        # there and never read the NaN of event 0.
        traj = _rows_trajectory(UNIT, [[math.nan, 0.0], [0.0, 3.0], [1.0, 1.0]], "equilibrium")
        assert reference_convergence_time(traj) == (2.0, 1.0)
        with pytest.raises(InputError, match="^z must be finite, got nan$"):
            convergence_time(traj)

    @pytest.mark.parametrize("general,bad", [
        *[(False, v) for v in (math.inf, -math.inf, math.nan, 2.0 ** 53, -1e17)],
        *[(True, v) for v in (math.inf, -math.inf, math.nan)]])
    def test_errors_on_bad_events(self, general, bad):
        # The texts the envelopes, the report and the audit gave before.
        config = example1_line(4, 1.0, policy=Sliding())
        if general:
            config = replace(config, quantizer=GeneralQuantizer((-1.0, 0.5, 2.0, 7.0),
                                                                (0.0, 1.0, 4.0)))
        traj = simulate(config)
        events = list(traj.events)
        k = len(events) // 2
        events[k] = replace(events[k], x=tuple(bad if i == 1 else v
                                               for i, v in enumerate(events[k].x)))
        traj = Trajectory(traj.quantizer, events, traj.status)
        if math.isfinite(bad):
            message = (f"x={bad!r} lies beyond the representable threshold lattice of "
                       "delta=1.0 (need |x|/delta < 2^52)")
        else:
            message = f"{'x' if general else 'z'} must be finite, got {bad!r}"
        for fn, args in ((envelopes, ()), (convergence_report, (config,)),
                         (audit_trajectory, (config,))):
            with pytest.raises(InputError) as err:
                fn(traj, *args)
            assert str(err.value) == message

    def test_audit_finds_general_selections_outside_their_sets(self):
        q = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        config = replace(example1_line(3, 1.0, policy=Sliding()), quantizer=q)
        traj = simulate(config)
        assert audit_trajectory(traj, config) == []
        events = list(traj.events)
        z = list(events[-1].z)
        z[0], z[2] = math.nan, z[2] + 5.0
        events[-1] = replace(events[-1], z=tuple(z))
        problems = audit_trajectory(Trajectory(q, events, traj.status), config)
        k = len(events) - 1
        assert [p for p in problems if "Kq" in p] == [
            f"selection outside Kq for agent {i} at event {k}" for i in (0, 2)]
