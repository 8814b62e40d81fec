from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from qcl import GeneralQuantizer, InputError, UniformQuantizer, quantizer_from_json

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
