from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (KERNEL_PATHS, MUTANT_FLAGS, SHIPPED_FLAGS, assert_self_check_rejects,
                      build_kernel_variant, kernel_path)
from qcl import (ContractViolation, GeneralQuantizer, InputError, Sliding, UniformQuantizer,
                 WeightedDigraph, example1_line, quantizer_from_json, quantizers, resolve_sliding,
                 selection_velocity, simulate)
from qcl.quantizers import extreme_sets
from reference import krasovskii_scan as reference_scan, threshold_hits

DYADIC_DELTAS = (0.25, 0.5, 1.0, 2.0)


class TestUniformQuantize:
    def test_interior_of_cell(self):
        assert UniformQuantizer(1.0).quantize(0.49) == 0.0

    def test_threshold_takes_upper_level(self):
        assert UniformQuantizer(1.0).quantize(0.5) == 1.0

    @pytest.mark.parametrize("z,expected", [(-0.24, 0.0), (-0.25, 0.0)])
    def test_against_floor_formula(self, z, expected):
        q = UniformQuantizer(0.5)
        assert q.quantize(z) == expected
        assert q.quantize(z) == math.floor(z / 0.5 + 0.5) * 0.5

    def test_non_finite_rejected(self):
        q = UniformQuantizer(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                q.quantize(bad)

    @given(
        st.floats(-1e6, 1e6),
        st.sampled_from(DYADIC_DELTAS),
    )
    def test_matches_floor_formula_off_threshold(self, z, delta):
        q = UniformQuantizer(delta)
        if not q.is_threshold(z):
            assert q.quantize(z) == math.floor(z / delta + 0.5) * delta

    def test_cell_below_a_rounded_threshold(self):
        # 3.385 lies just below the threshold (338 + 0.5) * 0.01.
        q = UniformQuantizer(0.01)
        assert q.next_threshold(3.385, 1) == 3.3850000000000002
        assert q.quantize(3.385) == 338 * 0.01

    def test_unrepresentable_lattice_rejected(self):
        q = UniformQuantizer(1.0)
        for bad in (1e17, -1e300):
            with pytest.raises(InputError, match="representable threshold lattice"):
                q.quantize(bad)
            with pytest.raises(InputError, match="representable threshold lattice"):
                q.next_threshold(bad, 1)

    @pytest.mark.parametrize("bad", [2.0 ** 52, -2.0 ** 52, 1e16])
    def test_states_from_two_to_the_52_rejected(self, bad):
        # From 2^52 cells on, (k + 0.5) * delta rounds onto the levels: once
        # krasovskii_set(2^52) was (2^52, 2^52 + 1) and 2^52 a threshold.
        q = UniformQuantizer(1.0)
        for method in (q.krasovskii_set, q.is_threshold, q.quantize, q.surface_bounds,
                       lambda x: q.next_threshold(x, 1), lambda x: q.next_threshold(x, -1)):
            with pytest.raises(InputError, match="representable threshold lattice"):
                method(bad)

    def test_largest_state_below_two_to_the_52_is_on_the_lattice(self):
        q = UniformQuantizer(1.0)
        x = math.nextafter(2.0 ** 52, 0.0)  # 2^52 - 0.5, a threshold
        assert q.krasovskii_set(x) == q.surface_bounds(x) == (2.0 ** 52 - 1, 2.0 ** 52)
        assert q.is_threshold(x) and q.quantize(x) == 2.0 ** 52
        assert q.next_threshold(x, -1) == x - 1.0
        assert reference_scan([x, -x], q).boxes == {0: (2.0 ** 52 - 1, 2.0 ** 52),
                                                    1: (-2.0 ** 52, 1 - 2.0 ** 52)}

    @pytest.mark.parametrize("delta", [0.01, 0.1])
    def test_one_sided_neighbours_of_thresholds(self, delta):
        q = UniformQuantizer(delta)
        for k in range(-500, 500, 7):
            t = (k + 0.5) * delta
            lo, hi = q.surface_bounds(t)
            below, above = math.nextafter(t, -math.inf), math.nextafter(t, math.inf)
            assert q.next_threshold(below, 1) == t == q.next_threshold(above, -1)
            assert q.krasovskii_set(below) == (lo, lo)
            assert q.krasovskii_set(above) == (hi, hi)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.sampled_from(DYADIC_DELTAS),
    )
    def test_non_decreasing(self, z1, z2, delta):
        q = UniformQuantizer(delta)
        lo, hi = sorted((z1, z2))
        assert q.quantize(lo) <= q.quantize(hi)

    @given(st.floats(-1e9, 1e9), st.sampled_from(DYADIC_DELTAS))
    def test_within_half_cell(self, z, delta):
        q = UniformQuantizer(delta)
        assert abs(q.quantize(z) - z) <= delta / 2

    @given(st.integers(-10**6, 10**6), st.sampled_from(DYADIC_DELTAS + (0.1, 0.3)))
    def test_threshold_representation_is_bit_exact(self, k, delta):
        q = UniformQuantizer(delta)
        t = (k + 0.5) * delta
        assert q.is_threshold(t)
        assert q.surface_bounds(t) == (k * delta, (k + 1) * delta)


class TestKrasovskiiSet:
    @given(
        st.integers(-10**6, 10**6),
        st.sampled_from(DYADIC_DELTAS + (0.01, 0.1, 0.3)),
        st.integers(-3, 3),
    )
    def test_one_scan_matches_surface_bounds_then_quantize(self, k, delta, ulps):
        # On a threshold (ulps = 0) and a few floats either side of it.
        q = UniformQuantizer(delta)
        x = (k + 0.5) * delta
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        bounds = q.surface_bounds(x)
        expected = bounds if bounds is not None else (q.quantize(x), q.quantize(x))
        assert repr(q.krasovskii_set(x)) == repr(expected)

    def test_interior_singleton(self):
        assert UniformQuantizer(1.0).krasovskii_set(0.2) == (0.0, 0.0)

    def test_threshold_full_jump(self):
        assert UniformQuantizer(1.0).krasovskii_set(0.5) == (0.0, 1.0)

    def test_general_hull_of_adjacent_levels(self):
        q = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        assert q.krasovskii_set(3.0) == (1.0, 5.0)

    @given(st.floats(-100, 100), st.sampled_from(DYADIC_DELTAS))
    def test_contains_value_and_one_sided_limits(self, z, delta):
        q = UniformQuantizer(delta)
        lo, hi = q.krasovskii_set(z)
        assert lo <= q.quantize(z) <= hi
        assert lo <= q.quantize(math.nextafter(z, -math.inf)) <= hi
        assert lo <= q.quantize(math.nextafter(z, math.inf)) <= hi


class TestNextThreshold:
    def test_up_from_interior(self):
        assert UniformQuantizer(1.0).next_threshold(0.2, 1) == 0.5

    def test_strictly_beyond_a_threshold(self):
        assert UniformQuantizer(1.0).next_threshold(0.5, 1) == 1.5
        assert UniformQuantizer(1.0).next_threshold(0.5, -1) == -0.5

    def test_general_none_beyond_range(self):
        q = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        assert q.next_threshold(4.0, 1) is None
        assert q.next_threshold(4.0, -1) == 3.0
        assert q.next_threshold(-1.0, -1) is None

    @given(
        st.floats(-1e5, 1e5),
        st.sampled_from(DYADIC_DELTAS),
        st.sampled_from((1, -1)),
    )
    def test_strict_and_adjacent(self, x, delta, direction):
        q = UniformQuantizer(delta)
        t = q.next_threshold(x, direction)
        assert q.is_threshold(t)
        if direction > 0:
            assert t > x
            assert t - x <= delta * (1 + 1e-9)
        else:
            assert t < x
            assert x - t <= delta * (1 + 1e-9)


class TestGeneralQuantizer:
    def test_clamps_outside_span(self):
        q = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        assert q.quantize(-100.0) == 0.0
        assert q.quantize(100.0) == 5.0

    def test_threshold_upper_level(self):
        q = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        assert q.quantize(0.5) == 1.0
        assert q.quantize(3.0) == 5.0

    def test_delta_min(self):
        q = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        assert q.delta_min == 1.0
        assert GeneralQuantizer(levels=(2.0,), thresholds=()).delta_min == math.inf

    def test_validation(self):
        with pytest.raises(InputError):
            GeneralQuantizer(levels=(1.0, 0.0), thresholds=(0.5,))
        with pytest.raises(InputError):
            GeneralQuantizer(levels=(0.0, 1.0), thresholds=())
        with pytest.raises(InputError):
            GeneralQuantizer(levels=(0.0, 1.0), thresholds=(2.0,))
        with pytest.raises(InputError):
            GeneralQuantizer(levels=(), thresholds=())

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_non_decreasing(self, z1, z2):
        q = GeneralQuantizer(levels=(-1.0, 0.5, 2.0, 7.0), thresholds=(0.0, 1.0, 4.0))
        lo, hi = sorted((z1, z2))
        assert q.quantize(lo) <= q.quantize(hi)


class TestJson:
    def test_uniform_round_trip(self):
        q = UniformQuantizer(0.5)
        assert quantizer_from_json(q.to_json()) == q

    def test_general_round_trip(self):
        q = GeneralQuantizer(levels=(0.0, 1.0, 5.0), thresholds=(0.5, 3.0))
        assert quantizer_from_json(q.to_json()) == q

    def test_unknown_type(self):
        with pytest.raises(InputError):
            quantizer_from_json({"type": "logarithmic"})

    def test_bad_delta(self):
        with pytest.raises(InputError):
            UniformQuantizer(0.0)
        with pytest.raises(InputError):
            UniformQuantizer(math.inf)
        # Its thresholds round onto its levels: 0.5 * 5e-324 is 0.0.
        with pytest.raises(InputError, match="^delta must be at least 1e-323"):
            UniformQuantizer(5e-324)
        q = UniformQuantizer(1e-323)
        assert q.next_threshold(0.0, -1) == -5e-324 and q.next_threshold(0.0, 1) == 5e-324


# ---------------------------------------------------------------------------
# Scans over all agents against the per-agent methods
# ---------------------------------------------------------------------------

#: Steps whose thresholds (k + 0.5) * delta round differently from
#: k * delta + 0.5 * delta for many k, and dyadic ones.
SCAN_DELTAS = (1.0, 0.25, 0.1, 0.01, 1 / 3, 0.7, 2.5e-3)
GENERAL = GeneralQuantizer(levels=(-1.0, 0.5, 2.0, 7.0), thresholds=(0.0, 1.0, 4.0))


def _ulps(x: float, count: int) -> float:
    for _ in range(abs(count)):
        x = math.nextafter(x, math.copysign(math.inf, count))
    return x


#: General quantizers for the array rule: a threshold at 0.0 (where -0.0
#: lies), a level -0.0, and a single level with no threshold.
SET_QUANTIZERS = [GENERAL, GeneralQuantizer((-1.0, -0.0, 2.0), (-0.5, 1.0)),
                  GeneralQuantizer((3.0,), ())]


def _set_or_nan(quantizer, x: float) -> tuple[float, float]:
    try:
        return quantizer.krasovskii_set(x)
    except InputError:
        return (math.nan, math.nan)


@st.composite
def lattice_states(draw, delta: float, max_agents: int = 24) -> list[float]:
    """States on thresholds, 1-3 ulps beside them, on levels, at signed
    zeros and just below |x|/delta = 2^52, from few cells so that ties are
    common; all on the representable lattice, |x|/delta < 2^52."""
    def state():
        k = draw(st.one_of(st.integers(-6, 6), st.integers(-10**6, 10**6),
                           st.just(2**52 - 3), st.just(-2**52 + 2)))
        kind = draw(st.sampled_from(["threshold", "beside", "level", "zero", "inside"]))
        if kind == "zero":
            return draw(st.sampled_from([0.0, -0.0]))
        if kind == "level":
            return k * delta
        t = (k + 0.5) * delta
        if kind == "beside":
            return _ulps(t, draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        if kind == "inside":
            return (k + draw(st.floats(-0.49, 0.49))) * delta
        return t
    states = [state() for _ in range(draw(st.integers(0, max_agents)))]
    return [x for x in states if abs(x) / delta < 2.0 ** 52]


def _sets_reference(x, quantizer):
    """The per-agent loops the scan replaced: resolve_sliding's
    classification, kq_envelope and consensus_level_set."""
    boxes, levels, lows, highs = {}, {}, [], []
    lo_all, hi_all = -math.inf, math.inf
    for i, x_i in enumerate(x):
        lo, hi = quantizer.krasovskii_set(float(x_i))
        if lo == hi:
            levels[i] = lo
        else:
            boxes[i] = (lo, hi)
        lows.append(lo)
        highs.append(hi)
        lo_all, hi_all = max(lo_all, lo), min(hi_all, hi)
    envelope = (min(lows), max(highs)) if x else (math.inf, -math.inf)
    return boxes, levels, envelope, (lo_all, hi_all)


def _hits_reference(x, velocity, quantizer):
    """The arrival scan of the reference, ``threshold_hits``, as it read
    before it was one scan."""
    best = math.inf
    hits = []
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


def _scan_summary(x, quantizer):
    """The reference's ``krasovskii_scan`` and ``extreme_sets`` of x in the
    form of ``_sets_reference``."""
    z = np.full(len(x), math.nan)
    scan = reference_scan(x, quantizer, z=z)
    levels = {i: float(z[i]) for i in range(len(x)) if i not in scan.boxes}
    low, high = extreme_sets(x, quantizer)
    return scan.boxes, levels, (low[0], high[1]), (high[0], low[1])


def _resolved_scans(x, quantizer):
    """The scans as ``resolve_sliding`` runs them on the kernel path in use
    (the compiled resolve's own, or the reference's): the surface agents and the
    levels of the others, in the form of ``_sets_reference``, then the
    closest arrival and the states and velocity it comes from.  Even agents
    listen to an agent at the highest finite state and odd ones to one at
    the lowest, so that they move or depart; those two come last and are
    left out of the sets."""
    x = np.array(x, dtype=float)
    n = len(x)
    finite = [v for v in x.tolist() if math.isfinite(v)] or [0.0]
    states = np.concatenate([x, [max(finite), min(finite)]])
    g = WeightedDigraph.from_edges(n + 2, [(i, n + i % 2, 1.0) for i in range(n)])
    res = resolve_sliding(states, g, quantizer)
    arrival = quantizers._load_kernel().resolve(g, states, quantizer, Sliding(), frozenset(),
                                                64.0)[5]
    surface = {i for i, _ in res.alpha}
    return ([i for i in range(n) if i in surface],
            {i: z for i, z in enumerate(res.z[:n].tolist()) if i not in surface},
            arrival, states.tolist(), res.velocity.tolist())


def _resolved_scans_agree(x, quantizer) -> bool:
    """Whether ``_resolved_scans`` gives the per-agent methods' sets and
    arrival, or their error."""
    outcome = _outcome(_resolved_scans, x, quantizer)
    if not isinstance(outcome, str):
        return outcome == _outcome(_sets_reference, x, quantizer)
    surface, levels, arrival, states, velocity = _resolved_scans(x, quantizer)
    boxes, expected_levels = _sets_reference(x, quantizer)[:2]
    return (surface == list(boxes) and repr(levels) == repr(expected_levels)
            and repr(arrival) == repr(_hits_reference(states, velocity, quantizer)))


def _outside(x, selection, quantizer):
    """The agents whose selection lies outside their set by the array rule
    ``krasovskii_sets``, and the one agent that ``selection_velocity`` names
    (none where it accepts the selection)."""
    lo, hi = quantizer.krasovskii_sets(np.array(x, dtype=float))
    outside = np.flatnonzero(~((lo <= selection) & (selection <= hi))).tolist()
    try:
        selection_velocity(x, selection, WeightedDigraph.from_edges(len(x), []), quantizer)
    except ContractViolation as err:
        return outside, [int(re.match(r"selection z\[(\d+)\]", str(err))[1])]
    return outside, []


def _outcome(fn, *args):
    """``repr`` of the result, or the type and message of the error."""
    try:
        return repr(fn(*args))
    except Exception as err:  # noqa: BLE001 - compared by type and message
        return type(err), str(err)


class TestScansMatchPerAgentMethods:
    """Both scans against the per-agent methods: the same arithmetic, so
    ``repr``-equal, and the same errors.  The set scan is qcl's list code,
    the hit scan the reference's; on each kernel path the scans of
    ``resolve_sliding`` are compared too, on the compiled path the compiled
    resolve's ports of them."""

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), delta=st.sampled_from(SCAN_DELTAS))
    def test_sets_scan(self, path, data, delta):
        with kernel_path(path):
            q = UniformQuantizer(delta)
            x = data.draw(lattice_states(delta))
            selection = data.draw(st.lists(st.sampled_from(x + [math.nan, 0.0, -0.0]) if x else
                                           st.just(0.0), min_size=len(x), max_size=len(x)))
            as_array = data.draw(st.booleans())
            states = np.array(x) if as_array else tuple(x)
            expected = _sets_reference(x, q)
            assert repr(_scan_summary(states, q)) == repr(expected)
            assert repr(quantizers.kq_envelope(states, q)) == repr(expected[2])
            sets = [q.krasovskii_set(x_i) for x_i in x]
            outside = reference_scan(states, q, selection).outside
            assert outside == [
                i for i, ((lo, hi), s) in enumerate(zip(sets, selection)) if not lo <= s <= hi]
            if x:
                assert _outside(x, selection, q) == (outside, outside[:1])
            lo, hi = q.krasovskii_sets(np.array(x, dtype=float))
            assert repr(list(zip(lo.tolist(), hi.tolist()))) == repr(sets)
            assert _resolved_scans_agree(x, q)
            # The general quantizers' array rule, NaN where the method raises.
            general = data.draw(st.sampled_from(SET_QUANTIZERS))
            points = [*general.levels, *general.thresholds, -100.0, 100.0, -0.0]
            y = data.draw(st.lists(st.builds(_ulps, st.sampled_from(points), st.integers(-2, 2))
                                   | st.sampled_from([math.inf, -math.inf, math.nan]),
                                   max_size=12))
            expected = [_set_or_nan(general, v) for v in y]
            # One row or one column: the audit passes a whole trajectory.
            lo, hi = general.krasovskii_sets(np.array(y, dtype=float).reshape(
                data.draw(st.sampled_from([(1, -1), (-1, 1)]))))
            assert repr(list(zip(lo.ravel().tolist(), hi.ravel().tolist()))) == repr(expected)

    @pytest.mark.parametrize("delta", [1.7976931348623157e308, 1e308, 1e300])
    def test_sets_at_a_step_near_the_largest_float(self, delta):
        # A threshold (k + 0.5) * delta or a level k * delta beyond the float
        # range is inf, in the array rule as in the method, with no warning.
        q = UniformQuantizer(delta)
        x = [0.7 * delta, -0.2 * delta, 0.5 * delta, -0.5 * delta, -0.7 * delta, delta,
             1.7e308, -1.7976931348623157e308, 0.0, -0.0]
        lo, hi = q.krasovskii_sets(np.array(x))
        assert repr(list(zip(lo.tolist(), hi.tolist()))) == repr(
            [q.krasovskii_set(v) for v in x])

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), delta=st.sampled_from(SCAN_DELTAS))
    @example(data=None, delta=1.0).via("x = 0 moving either way, and repeated (x, v) pairs")
    def test_hits_scan(self, path, data, delta):
        with kernel_path(path):
            q = UniformQuantizer(delta)
            if data is None:
                x = [0.0, 0.2, 0.0, 0.2, 0.7, 0.7]
                velocity = [1.0, 1.0, -1.0, 1.0, -1.0, -1.0]
            else:
                x = data.draw(lattice_states(delta))
                velocity = data.draw(st.lists(
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, math.inf, math.nan]),
                    min_size=len(x), max_size=len(x)))
            expected = _hits_reference(x, velocity, q)
            assert repr(threshold_hits(np.array(x), np.array(velocity), q)) == repr(expected)
            assert _resolved_scans_agree(x, q)

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e17, -2.0 ** 53, 1e308,
                                     2.0 ** 52])
    @pytest.mark.parametrize("delta", [1.0, 1e-10])
    def test_states_off_the_lattice(self, path, bad, delta):
        # Non-finite states and states off the lattice, |x|/delta >= 2^52,
        # fail with the InputError of the per-agent methods.
        with kernel_path(path):
            q = UniformQuantizer(delta)
            x = np.array([0.25 * delta, bad, 0.5 * delta])
            for states in (x, tuple(x)):
                assert _outcome(_scan_summary, states, q) == \
                    _outcome(_sets_reference, x.tolist(), q)
            assert _outcome(_scan_summary, x, q)[0] is InputError
            # A state that does not move is never looked up.
            for v in (1.0, -1.0, 0.0):
                velocity = [0.0, v, 1.0]
                assert _outcome(threshold_hits, x, np.array(velocity), q) == \
                    _outcome(_hits_reference, x, velocity, q)
            # The resolve raises the per-agent methods' error.
            assert _resolved_scans_agree(x.tolist(), q)

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_general_quantizer_scans_per_agent(self, path):
        with kernel_path(path):
            x = [-2.0, 0.0, 0.3, 1.0, 4.0, 9.0]
            scan = reference_scan(x, GENERAL, [0.0, 0.5, 0.5, 2.0, 8.0, 7.0])
            assert _outside(x, [0.0, 0.5, 0.5, 2.0, 8.0, 7.0], GENERAL) == (scan.outside, [0])
            assert scan.boxes == {1: (-1.0, 0.5), 3: (0.5, 2.0), 4: (2.0, 7.0)}
            assert extreme_sets(x, GENERAL) == ((-1.0, -1.0), (7.0, 7.0))
            assert scan.outside == [0, 4]
            velocity = [1.0, -1.0, 1.0, 0.0, -1.0, 1.0]
            assert repr(threshold_hits(x, velocity, GENERAL)) == \
                repr(_hits_reference(x, velocity, GENERAL))
            for states in (x, [*GENERAL.thresholds, *GENERAL.levels, -9.0, 0.4], [math.nan, 0.3]):
                assert _resolved_scans_agree(states, GENERAL)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), delta=st.sampled_from(SCAN_DELTAS), general=st.booleans())
def test_extreme_sets_match_every_agents_set(data, delta, general):
    # extreme_sets reads two agents: the lowest and highest lo and hi of
    # all agents' sets must have its bits, and a NaN, an infinity or a
    # state off the lattice anywhere must raise the first bad agent's error
    # (the uniform states also come from test_sets_scan).
    q = GENERAL if general else UniformQuantizer(delta)
    points = [*GENERAL.levels, *GENERAL.thresholds, -100.0, -0.0]
    x = data.draw(st.lists(st.builds(_ulps, st.sampled_from(points), st.integers(-2, 2)),
                           max_size=8) if general else lattice_states(delta, 8))
    for bad in data.draw(st.lists(st.sampled_from(
            [math.nan, math.inf, -math.inf, 1e308, 2.0 ** 53 * delta, -2.0 ** 53 * delta,
             1e17 * delta, -2.0 ** 60 * delta]),
            max_size=3)):
        x.insert(data.draw(st.integers(0, len(x))), bad)
    states = np.array(x) if data.draw(st.booleans()) else tuple(x)

    def every_agent(x, q):
        lows, highs = zip(*[q.krasovskii_set(v) for v in x]) if x else ((), ())
        return ((min(lows, default=math.inf), min(highs, default=math.inf)),
                (max(lows, default=-math.inf), max(highs, default=-math.inf)))

    assert _outcome(extreme_sets, states, q) == _outcome(every_agent, x, q)


@pytest.mark.parametrize("old,new,flags", [
    ("return (k + 0.5) * delta;", "return k * delta + 0.5 * delta;", SHIPPED_FLAGS),
    ("*k = base + (lower <= x)", "*k = base + (lower < x)", MUTANT_FLAGS),
    ("for (int64_t i = 0; i < n; i++) {\n        double x = h->x[i]",
     "for (int64_t i = n - 1; i >= 0; i--) {\n        double x = h->x[i]", MUTANT_FLAGS),
    # bisect_left, which counts the thresholds below x: on a threshold the
    # count of a general quantizer's lookup is one short.
    ("bisect_right(q->thresholds, q->count, x)",
     "bisect_right(q->thresholds, q->count, nextafter(x, -INFINITY))", MUTANT_FLAGS),
    # Down from a state on threshold k - 1, threshold k - 1 itself.
    ("k - 1.0 - on", "k - 1.0", MUTANT_FLAGS),
], ids=["threshold-as-k-delta-plus-half-delta", "strict-cell-search", "ties-last-first",
        "general-count-bisect-left", "downward-scan-ignores-on"])
def test_mutated_scan_fails_self_check(monkeypatch, tmp_path, old, new, flags):
    build_kernel_variant(monkeypatch, tmp_path, old, new, flags)
    assert_self_check_rejects(tmp_path, "resolves", lambda: simulate(example1_line(5, 0.1)))
