"""The single-pass JSON writer against the recursive writer it replaced,
and the compiled trajectory writer.

``reference_dumps`` is the old ``qcl._json.dumps``, kept verbatim: one call
per value, a string built and copied at every level.  The writer must give
the same bytes for every document, and the same exception type and message
for every document it refuses.  The compiled writer's own self-check
hashes its text on fixed trajectories (the ``writer`` group of
``_kernel_check.digests``), which the reference writer of
``tests/reference.py`` reproduces, and a differential test compares its
numbers with ``repr`` and ``.17g``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (MUTANT_FLAGS, SHIPPED_FLAGS, assert_self_check_rejects,
                      build_kernel_variant)
from qcl import (TrajectoryEvent, _json, _kernel_check, convergence_report, example1_line,
                 quantizers, simulate)
from qcl._json import dumps
from qcl.dynamics import KIND_NAMES


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    return format(v, ".17g")


def reference_dumps(obj, indent: int = 0) -> str:
    pad = " " * indent
    child = indent + 2

    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_dumps(v, child) for v in obj]
        return "[\n" + ",\n".join(" " * child + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {reference_dumps(v, child)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(" " * child + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def outcome(writer, obj, indent: int = 0):
    """The text ``writer`` gives, or the type and message of its error."""
    try:
        return writer(obj, indent)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.0]
finite = (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS))
floats = finite | finite.map(np.float64)
strings = st.text() | st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "☃",
                                       "\ud800", "𝄞", "a b"])
keys = strings | st.integers() | floats | st.booleans() | st.none()
scalars = floats | st.integers() | st.booleans() | st.none() | strings
#: Values the writer must refuse, with the reference's message.
POISON = [math.inf, -math.inf, math.nan, np.float64(math.inf), np.float64(math.nan),
          {1.0}, b"x", 1j, np.int64(3), object()]


def documents(leaves):
    # Lists of floats, with None, and with ints and bools as well.
    float_lists = st.lists(floats, max_size=12) | st.lists(floats, max_size=12).map(tuple)
    with_none = st.lists(floats | st.none(), max_size=12)
    mixed = st.lists(floats | st.none() | st.integers() | st.booleans(), max_size=12)
    return st.recursive(
        leaves | float_lists | with_none | mixed,
        lambda children: (st.lists(children, max_size=6)
                          | st.lists(children, max_size=6).map(tuple)
                          | st.dictionaries(keys, children, max_size=6)),
        max_leaves=15,
    )


@settings(max_examples=60, deadline=None)
@given(documents(scalars), st.integers(0, 5))
def test_writer_matches_reference(doc, indent):
    assert outcome(dumps, doc, indent) == outcome(reference_dumps, doc, indent)


@settings(max_examples=60, deadline=None)
@given(documents(scalars | st.sampled_from(POISON)), st.integers(0, 5))
def test_refusals_match_reference(doc, indent):
    # The first refused value in document order decides the error.
    assert outcome(dumps, doc, indent) == outcome(reference_dumps, doc, indent)


@pytest.mark.parametrize("doc", [
    [1.0, math.inf],
    {"events": [{"x": [0.5, -0.0, math.nan]}]},
    (1.0, None, np.float64(-math.inf)),
    [[1.0, 2.0], [3.0, {2.0}]],
    [1.0, math.nan, {1}],
    {"a": [1, 2], "b": {"c": object()}},
], ids=["inf-last", "nan-deep", "np-inf-in-mixed", "set-deep", "nan-before-set", "object"])
def test_refused_value_at_depth(doc):
    kind, message = outcome(reference_dumps, doc)
    with pytest.raises(kind) as err:
        dumps(doc)
    assert str(err.value) == message


def test_differential_test_catches_repr_float_lists(monkeypatch):
    # Negative control: floats written with repr instead of ".17g" (1.0 as
    # "1.0", 0.1 as "0.1") must fail the differential test.
    monkeypatch.setattr(_json, "_format_float", repr)
    assert dumps([0.1, 1.0]) != reference_dumps([0.1, 1.0])
    with pytest.raises(AssertionError):
        test_writer_matches_reference()


def test_a_staircase_round_builds_no_trajectory_events(monkeypatch):
    # simulate records columns, and the report and both exports read them;
    # the events are built only when one of them is read.
    built = []
    init = TrajectoryEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryEvent, "__init__", counted)
    config = example1_line(8, 1 / 64, x0_spacing=0.98)
    traj = simulate(config)
    convergence_report(traj, config)
    traj.to_csv()
    dumps(traj.to_json_obj())
    assert len(traj.events) == 1004 and built == []
    assert traj.events[-1].kind == "equilibrium" and len(built) == 1004


def test_writer_reusing_text_on_equality_fails_self_check(monkeypatch, tmp_path):
    # 0.0 == -0.0, so a column that repeats a value by == rather than by its
    # bits writes -0.0 as "0.0".
    build_kernel_variant(monkeypatch, tmp_path, "same_bits(v, c->value)", "v == c->value",
                         SHIPPED_FLAGS)
    assert_self_check_rejects(tmp_path, "writer")


def _differential_floats() -> np.ndarray:
    """About 100,000 finite floats: random bit patterns, magnitudes from
    1e-12 to 1e18, multiples of 1/64, decimals rounded to 0 to 12 places,
    and the ends of the compiled writer's exact range, 1e-10 and 1e17, with
    their neighbours."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 5_000, dtype=np.uint64).view(np.float64)
    magnitudes = 10.0 ** rng.uniform(-12.0, 18.0, 30_000) * rng.choice([-1.0, 1.0], 30_000)
    sixty_fourths = rng.integers(-2 ** 40, 2 ** 40, 25_000) / 64.0
    decimals = [round(v, p) for v, p in zip(rng.uniform(-1e6, 1e6, 25_000).tolist(),
                                            rng.integers(0, 13, 25_000).tolist())]
    # 4,000 floats on either side of each end, by their bits.
    ends = np.array([1e-10, 1e17]).view(np.int64)[:, None] + np.arange(-4_000, 4_000)
    edges = ends.ravel().view(np.float64) * rng.choice([-1.0, 1.0], ends.size)
    values = np.concatenate([bits, magnitudes, sixty_fourths, decimals, edges])
    return values[np.isfinite(values)]


def test_compiled_numbers_match_repr_and_17g():
    # Each float is written twice per format, as the time and as the state
    # of a one-agent row, so about 200,000 numbers per format; every one
    # must be repr's (CSV) and format(v, ".17g")'s (JSON).
    values = _differential_floats()
    rows = len(values)
    args = (values, np.zeros(rows, np.int64), values[::-1].reshape(-1, 1).copy(),
            np.zeros(rows, np.int64), np.zeros((1, 1)), np.full((1, 1), np.nan))
    write = quantizers._load_kernel().write
    times, states = values.tolist(), values[::-1].tolist()
    name = KIND_NAMES[0]
    assert write(False, 0, *args).splitlines() == [f"{t!r},{name},{x!r},0.0,"
                                                   for t, x in zip(times, states)]
    text = write(True, 0, *args)
    assert re.findall(r'"t": (.*),\n', text) == [format(t, ".17g") for t in times]
    assert re.findall(r'"x": \[\n +(.*)\n', text) == [format(x, ".17g") for x in states]


@pytest.mark.parametrize("old, new, flags", [
    ("int closed = !(m & 1);", "int closed = 0;", SHIPPED_FLAGS),
    ("(r == half && (*n & 1))", "r == half", MUTANT_FLAGS),
    ("if (*n == P17) {", "if (0) {", MUTANT_FLAGS),
    ("json ? 17 : 16", "17", MUTANT_FLAGS),
], ids=["open-interval-ends", "round-half-up", "no-decade-carry", "repr-switch-at-17"])
def test_mutated_exact_digits_fail_self_check(monkeypatch, tmp_path, old, new, flags):
    build_kernel_variant(monkeypatch, tmp_path, old, new, flags)
    assert_self_check_rejects(tmp_path, "writer")


def test_exact_states_reach_interval_ends_and_ties():
    # The self-check's floats that the mutants above depend on: a shortest
    # decimal that is an end of the rounding interval v +- ulp/2, of an even
    # significand, and exact ties at 17 digits, in exact arithmetic.
    exact = _kernel_check._exact_states()
    for v in exact[-3:]:
        ulp = Fraction(math.ulp(v))
        assert Fraction(repr(v)) in (Fraction(v) - ulp / 2, Fraction(v) + ulp / 2)
        assert (Fraction(v) / ulp).numerator % 2 == 0
    for v in exact[-7:-3]:
        digits = Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))
        assert digits.denominator == 2
