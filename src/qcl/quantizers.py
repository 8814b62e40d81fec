"""Static quantizers and their set-valued (Krasovskii) convexification.

A quantizer is a non-decreasing step map from the reals onto a discrete set
of output levels; each jump sits at a threshold strictly between two
consecutive levels.  The pointwise map returns the upper level *at* a
threshold (floor convention), but the dynamics never depends on that value:
the convexified set there is the full closed interval between the adjacent
levels, and that is what the sliding-mode resolver consumes.

Thresholds are the only values for which exact identity matters.  The
uniform quantizer materialises every threshold as ``(k + 0.5) * delta`` with
integer ``k`` and nothing else; a state is "on a threshold" iff it compares
bit-equal to that expression.  The simulator snaps states to these exact
values at events, so no epsilon comparison is needed anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class InputError(ValueError):
    """Raised for non-finite or otherwise malformed numeric inputs."""


def _require_finite(value: float, what: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InputError(f"{what} must be finite, got {value!r}")
    return v


_REQUIRED = object()


def json_field(obj, key: str, where: str, default=_REQUIRED):
    """``obj[key]`` of a parsed JSON object, else ``default`` if one is given.

    Raises InputError naming ``where`` and the field when ``obj`` is not an
    object or a required field is missing.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise InputError(f"{where} has no field {key!r}")
    return default


def kq_envelope(x, quantizer: Quantizer) -> tuple[float, float]:
    """(lowest, highest) level touched by the convexified sets of ``x``."""
    lows = []
    highs = []
    for xi in x:
        lo, hi = quantizer.krasovskii_set(float(xi))
        lows.append(lo)
        highs.append(hi)
    return min(lows), max(highs)


# Methods both quantizers share.  Each class binds them in its own body
# rather than inheriting them, so every method stays in its class's
# ``vars()``, where the benchmark's tracer looks methods up.

def _is_threshold(self, x: float) -> bool:
    return self._threshold_index(_require_finite(x, "x")) is not None


def _krasovskii_set(self, z: float) -> tuple[float, float]:
    bounds = self.surface_bounds(z)
    if bounds is not None:
        return bounds
    q = self.quantize(z)
    return (q, q)


def _level_span(self, x_values) -> float:
    """Width of the level range bracketing the given states."""
    lo, hi = kq_envelope(x_values, self)
    return hi - lo


@dataclass(frozen=True)
class UniformQuantizer:
    """Uniform lattice quantizer: levels ``k*delta``, thresholds ``(k+0.5)*delta``."""

    delta: float

    def __post_init__(self) -> None:
        d = _require_finite(self.delta, "delta")
        if d <= 0.0:
            raise InputError(f"delta must be positive, got {d}")
        object.__setattr__(self, "delta", d)

    # All threshold values must come from this one expression so that
    # bit-equality checks stay consistent across the code base.
    def _threshold(self, k: int) -> float:
        return (k + 0.5) * self.delta

    def _threshold_index(self, x: float) -> int | None:
        """Integer k with ``(k+0.5)*delta == x`` bit-exactly, else None."""
        base = math.floor(x / self.delta - 0.5)
        for k in (base - 1, base, base + 1):
            if self._threshold(k) == x:
                return k
        return None

    @property
    def delta_min(self) -> float:
        return self.delta

    is_threshold = _is_threshold

    def surface_bounds(self, x: float) -> tuple[float, float] | None:
        """Adjacent (lower, upper) levels when ``x`` is exactly a threshold."""
        k = self._threshold_index(_require_finite(x, "x"))
        if k is None:
            return None
        return (k * self.delta, (k + 1) * self.delta)

    def _index_above(self, x: float) -> int:
        """Smallest integer k with ``(k+0.5)*delta > x``."""
        base = math.floor(x / self.delta - 0.5)
        for k in (base - 1, base, base + 1, base + 2):
            if self._threshold(k) > x:
                return k
        # Only reachable when |x|/delta is far beyond 2^52, where the
        # thresholds next to x round onto x or below it.
        raise InputError(
            f"x={x!r} lies beyond the representable threshold lattice of delta={self.delta!r}"
        )

    def quantize(self, z: float) -> float:
        # The level of the cell below the next threshold up; on a threshold
        # that is the upper level (floor convention).
        return self._index_above(_require_finite(z, "z")) * self.delta

    krasovskii_set = _krasovskii_set

    def next_threshold(self, x: float, direction: int) -> float | None:
        """Closest threshold strictly beyond ``x`` in the given direction."""
        x = _require_finite(x, "x")
        if direction not in (1, -1):
            raise InputError(f"direction must be +1 or -1, got {direction!r}")
        if direction > 0:
            return self._threshold(self._index_above(x))
        base = math.floor(x / self.delta - 0.5)
        for k in (base + 1, base, base - 1, base - 2):
            t = self._threshold(k)
            if t < x:
                return t
        raise AssertionError("threshold scan exhausted")  # pragma: no cover

    level_span = _level_span

    def to_json(self) -> dict:
        return {"type": "uniform", "delta": self.delta}


@dataclass(frozen=True)
class GeneralQuantizer:
    """Finite quantizer given by an explicit level list and interleaved thresholds.

    Outside the representable span the map clamps to the extreme levels.
    """

    levels: tuple[float, ...]
    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(_require_finite(v, "level") for v in self.levels)
        thresholds = tuple(_require_finite(v, "threshold") for v in self.thresholds)
        if len(levels) < 1:
            raise InputError("need at least one level")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise InputError("levels must be strictly increasing")
        if len(thresholds) != len(levels) - 1:
            raise InputError("need exactly one threshold between consecutive levels")
        for k, t in enumerate(thresholds):
            if not (levels[k] < t < levels[k + 1]):
                raise InputError(
                    f"threshold {t} must lie strictly between levels "
                    f"{levels[k]} and {levels[k + 1]}"
                )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "thresholds", thresholds)

    @property
    def delta_min(self) -> float:
        if len(self.levels) == 1:
            return math.inf
        return min(b - a for a, b in zip(self.levels, self.levels[1:]))

    def _threshold_index(self, x: float) -> int | None:
        i = bisect_left(self.thresholds, x)
        if i < len(self.thresholds) and self.thresholds[i] == x:
            return i
        return None

    is_threshold = _is_threshold

    def surface_bounds(self, x: float) -> tuple[float, float] | None:
        k = self._threshold_index(_require_finite(x, "x"))
        if k is None:
            return None
        return (self.levels[k], self.levels[k + 1])

    def quantize(self, z: float) -> float:
        z = _require_finite(z, "z")
        # bisect_right puts an exact threshold into the upper cell,
        # matching the floor convention of the uniform map.
        return self.levels[bisect_right(self.thresholds, z)]

    krasovskii_set = _krasovskii_set

    def next_threshold(self, x: float, direction: int) -> float | None:
        x = _require_finite(x, "x")
        if direction not in (1, -1):
            raise InputError(f"direction must be +1 or -1, got {direction!r}")
        if direction > 0:
            i = bisect_right(self.thresholds, x)
            return self.thresholds[i] if i < len(self.thresholds) else None
        i = bisect_left(self.thresholds, x) - 1
        return self.thresholds[i] if i >= 0 else None

    level_span = _level_span

    def to_json(self) -> dict:
        return {
            "type": "general",
            "levels": list(self.levels),
            "thresholds": list(self.thresholds),
        }


Quantizer = UniformQuantizer | GeneralQuantizer


def quantizer_from_json(obj: dict) -> Quantizer:
    kind = json_field(obj, "type", "quantizer")
    if kind == "uniform":
        return UniformQuantizer(delta=json_field(obj, "delta", "quantizer"))
    if kind == "general":
        return GeneralQuantizer(
            levels=tuple(json_field(obj, "levels", "quantizer")),
            thresholds=tuple(json_field(obj, "thresholds", "quantizer")),
        )
    raise InputError(f"unknown quantizer type {kind!r}")
