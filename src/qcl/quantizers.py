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
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import wraps
from typing import Callable

import numpy as np


class InputError(ValueError):
    """Raised for non-finite or otherwise malformed numeric inputs."""


class KernelError(RuntimeError):
    """The compiled kernels, which every run needs, cannot be built: no C
    compiler, a build that does not compile, or one that fails its
    self-check."""


def _require_finite(value: float, what: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InputError(f"{what} must be finite, got {value!r}")
    return v


_REQUIRED = object()


def json_field(obj, key: str, where: str, default=_REQUIRED, parse=None):
    """``parse(obj[key])`` of a parsed JSON object, else ``default`` if one is given.

    An optional field that is absent or null takes its default.  Raises
    InputError naming ``where`` and the field when ``obj`` is not an object,
    a required field is missing or ``parse`` rejects its value.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object, got {type(obj).__name__}")
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in obj:
        raise InputError(f"{where} has no field {key!r}")
    try:
        return value if parse is None else parse(value)
    except (TypeError, ValueError, AttributeError, OverflowError) as err:
        raise InputError(f"{where} field {key!r} has the wrong type: {err}") from None


def json_keys(obj, allowed: tuple[str, ...], where: str) -> None:
    """Raise InputError naming the first field of the parsed JSON object
    ``obj`` that is not in ``allowed``: a misspelt optional field would
    otherwise take its default without a word.  Anything but an object
    passes, for ``json_field`` to reject."""
    if isinstance(obj, dict):
        for key in obj:
            if key not in allowed:
                raise InputError(f"unknown field {key!r} in {where}")


def json_float(value) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number, got {type(value).__name__}")


def json_bool(value) -> bool:
    """A JSON boolean; numbers and strings are not booleans."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected a boolean, got {type(value).__name__}")


def json_floats(value) -> tuple[float, ...]:
    """A JSON list of numbers as floats."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {type(value).__name__}")
    return tuple(map(json_float, value))


def json_int(value) -> int:
    """A JSON count as an int; a fractional value is rejected, not truncated,
    and booleans and strings are not counts."""
    if type(value) is int:  # bool is a subclass of int
        return value
    if not isinstance(value, float):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def json_agent(key: str) -> int:
    """A JSON object key that names an agent, as an int: an optional minus
    and ASCII digits only (``int`` would also take spaces, a plus sign,
    underscores and other scripts' digits)."""
    if re.fullmatch(r"-?[0-9]+", key) is None:
        raise ValueError(f"agent keys must be integers, got {key!r}")
    return int(key)


# The methods both quantizers share, written once over each class's lookup
# ``_cell(x) -> (k, on)``: ``k`` counts the thresholds at or below the finite
# state ``x``, so that ``x`` lies in the cell of level ``k``, and ``on`` says
# whether threshold ``k - 1`` equals ``x``.  ``_level(k)`` and
# ``_threshold(k)`` (None beyond the outermost one) read the rest.  Each
# class binds them in its own body rather than inheriting them, so every
# method stays in its class's ``vars()``, where the benchmark's tracer looks
# methods up.

def _is_threshold(self, x: float) -> bool:
    return self._cell(_require_finite(x, "x"))[1]


def _surface_bounds(self, x: float) -> tuple[float, float] | None:
    """Adjacent (lower, upper) levels when ``x`` is exactly a threshold."""
    k, on = self._cell(_require_finite(x, "x"))
    return (self._level(k - 1), self._level(k)) if on else None


def _quantize(self, z: float) -> float:
    # On a threshold the cell is the upper one (floor convention).
    return self._level(self._cell(_require_finite(z, "z"))[0])


def _krasovskii_set(self, z: float) -> tuple[float, float]:
    k, on = self._cell(_require_finite(z, self._set_argument))
    return (self._level(k - on), self._level(k))


def _next_threshold(self, x: float, direction: int) -> float | None:
    """Closest threshold strictly beyond ``x`` in the given direction, or
    None beyond the outermost one."""
    x = _require_finite(x, "x")
    if direction not in (1, -1):
        raise InputError(f"direction must be +1 or -1, got {direction!r}")
    k, on = self._cell(x)
    return self._threshold(k if direction > 0 else k - 1 - on)


def _level_span(self, x_values) -> float:
    """Width of the level range bracketing the given states."""
    lo, hi = kq_envelope(x_values, self)
    return hi - lo


@dataclass(frozen=True)
class UniformQuantizer:
    """Uniform lattice quantizer: levels ``k*delta``, thresholds ``(k+0.5)*delta``."""

    delta: float

    # The name that krasovskii_set's error gives a state that is not finite.
    # The two classes have always named it differently, and the build
    # self-check hashes the texts of the resolves that decline on a state.
    _set_argument = "z"

    def __post_init__(self) -> None:
        d = _require_finite(self.delta, "delta")
        if d <= 0.0:
            raise InputError(f"delta must be positive, got {d}")
        # At the smallest subnormal step (k + 0.5) * delta rounds onto the
        # levels, and the lookup needs thresholds strictly between them.
        if not 0.5 * d > 0.0:
            raise InputError(f"delta must be at least 1e-323, so that each threshold lies "
                             f"strictly between two levels, got {d!r}")
        object.__setattr__(self, "delta", d)

    # All threshold values must come from this one expression so that
    # bit-equality checks stay consistent across the code base.
    def _threshold(self, k: int) -> float:
        return (k + 0.5) * self.delta

    def _level(self, k: int) -> float:
        return k * self.delta

    def _cell(self, x: float) -> tuple[int, bool]:
        """The lookup of ``x``, which must lie on the representable threshold
        lattice, ``|x|/delta < 2^52``, as the compiled resolve and the
        scenario parser require: beyond it ``(k + 0.5) * delta`` rounds onto
        the levels.  On it threshold ``base - 1``, with ``base =
        floor(x/delta - 0.5)``, always lies below ``x`` and threshold
        ``base + 2`` above it, so ``k`` is ``base`` plus the count of
        thresholds ``base`` and ``base + 1`` at or below ``x``, and ``x``
        lies on a threshold when it equals one of those two."""
        if not abs(x) / self.delta < 2.0 ** 52:
            raise InputError(
                f"x={x!r} lies beyond the representable threshold lattice of "
                f"delta={self.delta!r} (need |x|/delta < 2^52)"
            )
        base = math.floor(x / self.delta - 0.5)
        lower, upper = self._threshold(base), self._threshold(base + 1)
        return base + (lower <= x) + (upper <= x), lower == x or upper == x

    @property
    def delta_min(self) -> float:
        return self.delta

    is_threshold = _is_threshold
    surface_bounds = _surface_bounds
    quantize = _quantize
    krasovskii_set = _krasovskii_set

    def krasovskii_sets(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``krasovskii_set`` of each element of ``x`` by the same operations
        (``_cell``'s), as the arrays ``(lo, hi)``; NaN for an element that is
        not finite or leaves the representable lattice, where the method
        raises."""
        delta = self.delta
        # Clipped to 2^53 cells, which leaves the lattice too, so that the
        # division cannot overflow.
        limit = 2.0 ** 53 * delta
        cells = np.minimum(np.maximum(x, -limit), limit) / delta
        base = np.floor(np.where(np.abs(cells) < 2.0 ** 52, cells, math.nan) - 0.5)
        # Near the largest float a threshold or a level overflows to +-inf,
        # as it does in the method.
        with np.errstate(over="ignore"):
            lower, upper = (base + 0.5) * delta, (base + 1.5) * delta
            k = base + (lower <= x) + (upper <= x)
            return (k - ((lower == x) | (upper == x))) * delta, k * delta

    next_threshold = _next_threshold
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

    # The name that krasovskii_set's error gives a state that is not finite.
    _set_argument = "x"

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

    def _threshold(self, k: int) -> float | None:
        return self.thresholds[k] if 0 <= k < len(self.thresholds) else None

    def _level(self, k: int) -> float:
        return self.levels[k]

    def _cell(self, x: float) -> tuple[int, bool]:
        k = bisect_right(self.thresholds, x)
        return k, k > 0 and self.thresholds[k - 1] == x

    is_threshold = _is_threshold
    surface_bounds = _surface_bounds
    quantize = _quantize
    krasovskii_set = _krasovskii_set

    def krasovskii_sets(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``krasovskii_set`` of each element of ``x`` by the same lookup, as
        the arrays ``(lo, hi)``; NaN for an element that is not finite."""
        thresholds, levels = np.array(self.thresholds, dtype=float), np.array(self.levels)
        k = np.searchsorted(thresholds, x, side="right")  # bisect_right
        # The padding NaN equals nothing: below the first threshold no state is on one.
        on = np.insert(thresholds, 0, math.nan)[k] == x
        finite = np.isfinite(x)
        return np.where(finite, levels[k - on], math.nan), np.where(finite, levels[k], math.nan)

    next_threshold = _next_threshold
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
        json_keys(obj, ("type", "delta"), "uniform quantizer")
        return UniformQuantizer(delta=json_field(obj, "delta", "quantizer", parse=json_float))
    if kind == "general":
        json_keys(obj, ("type", "levels", "thresholds"), "general quantizer")
        return GeneralQuantizer(
            levels=json_field(obj, "levels", "quantizer", parse=json_floats),
            thresholds=json_field(obj, "thresholds", "quantizer", parse=json_floats),
        )
    raise InputError(f"unknown quantizer type {kind!r}")


# ---------------------------------------------------------------------------
# Scans over all agents
# ---------------------------------------------------------------------------

def _load_once(load: Callable):
    """``load`` run on the first call only: later calls return its result,
    or raise again the ``KernelError`` that it raised, so that a build that
    fails is built once per process, not once per run."""
    outcome: list = []

    @wraps(load)
    def once():
        if not outcome:
            try:
                outcome.append(load())
            except KernelError as err:
                outcome.append(err)
        if isinstance(outcome[0], KernelError):
            raise outcome[0].with_traceback(None)
        return outcome[0]

    return once


@_load_once
def _load_kernel():
    """The compiled kernels (``_ckernel.Kernels``), built or loaded once per
    import, or ``KernelError``; every compiled path goes through this one."""
    from . import _ckernel

    return _ckernel.load()


def extreme_sets(x, quantizer: Quantizer) -> tuple[tuple[float, float], tuple[float, float]]:
    """``((lowest lo, lowest hi), (highest lo, highest hi))`` over the
    Krasovskii sets ``(lo, hi)`` of the agents of ``x``, or
    ``((inf, inf), (-inf, -inf))`` for no agents.

    On the representable lattice (|x|/delta < 2^52) ``krasovskii_set`` is
    monotone in the state, so these are the sets of the lowest and the
    highest agent.  Non-finite states and states beyond it go through
    every agent's set, so that the first bad agent raises its error.
    """
    values = x.tolist() if hasattr(x, "tolist") else x
    if not len(values):
        return (math.inf, math.inf), (-math.inf, -math.inf)
    low, high = min(values), max(values)
    # min and max pass over a NaN at some positions; a sum does not.
    if math.isfinite(sum(values)) and (not isinstance(quantizer, UniformQuantizer)
                                       or max(-low, high) / quantizer.delta < 2.0 ** 52):
        return quantizer.krasovskii_set(float(low)), quantizer.krasovskii_set(float(high))
    lows, highs = zip(*[quantizer.krasovskii_set(float(v)) for v in values])
    return (min(lows), min(highs)), (max(lows), max(highs))


def kq_envelope(x, quantizer: Quantizer) -> tuple[float, float]:
    """(lowest, highest) level touched by the convexified sets of ``x``."""
    low, high = extreme_sets(x, quantizer)
    return low[0], high[1]

