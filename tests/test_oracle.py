from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcl import (
    GeneralQuantizer,
    GraphSchedule,
    InputError,
    RegularizationUnstable,
    ScenarioConfig,
    Sliding,
    UniformQuantizer,
    WeightedDigraph,
    example1_line,
    example2_sliding,
    laplacian,
    line_graph,
    random_connected,
    simulate,
    simulate_regularized,
)
from qcl import dynamics, graphs, quantizers, suites

import reference
from conftest import (KERNEL_PATHS, ORACLE_REFERENCES, SHIPPED_FLAGS,
                      assert_self_check_rejects, build_kernel_variant, force_list_path,
                      kernel_path)


@pytest.mark.parametrize("name", list(ORACLE_REFERENCES))
def test_exact_trajectory_matches_regularized_run(name):
    # eps = 1e-3, h = 1e-5, up to 1.2 times the final event time plus 0.2.
    ok, detail = suites.oracle(suites.simulated([ORACLE_REFERENCES[name]]))
    assert ok, detail


def test_zero_edge_graph_state_is_constant():
    config = ScenarioConfig(
        schedule=GraphSchedule.time_invariant(WeightedDigraph.empty(3), 1.0, 1.0),
        quantizer=UniformQuantizer(1.0),
        x0=(0.3, 1.7, -2.4),
        policy=Sliding(),
        horizon=10.0,
    )
    run = simulate_regularized(config, eps=1e-3, h=1e-5, stride=0.1, t_end=1.0)
    assert np.all(run.states == np.array(config.x0))


def test_single_level_quantizer_state_is_constant():
    config = ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0),
        quantizer=GeneralQuantizer(levels=(0.0,), thresholds=()),
        x0=(0.3, 1.7, -2.4),
        horizon=10.0,
    )
    run = simulate_regularized(config, eps=1e-3, h=1e-5, stride=0.1, t_end=1.0)
    assert run.times.tolist() == [k * 0.1 for k in range(11)]
    assert np.all(run.states == np.array(config.x0))


def test_state_beyond_threshold_lattice_rejected():
    with pytest.raises(InputError, match="agent 2"):
        simulate_regularized(ScenarioConfig(
            schedule=GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0),
            quantizer=UniformQuantizer(1.0),
            x0=(0.0, 1.0, 1e16),
            horizon=10.0,
        ), eps=1e-3, h=1e-5)


def test_knot_count_is_capped():
    # 2^21 thresholds between the states; h passes the step-size guard.
    config = ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(2), 1.0, 1.0),
        quantizer=UniformQuantizer(1.0),
        x0=(0.0, 2.0 ** 21),
        horizon=10.0,
    )
    with pytest.raises(InputError, match="thresholds"):
        simulate_regularized(config, eps=1e-3, h=1e-12, t_end=0.01)


@pytest.mark.parametrize("stride,t_end", [
    (0.0, 1.0), (-0.1, 1.0), (float("nan"), 1.0), (float("inf"), 1.0),
    (0.1, float("inf")), (0.1, float("nan")),
])
def test_bad_sampling_rejected(stride, t_end):
    config = example1_line(3, 1.0, policy=Sliding())
    with pytest.raises(InputError, match="stride|t_end"):
        simulate_regularized(config, eps=1e-3, h=1e-5, stride=stride, t_end=t_end)


@pytest.mark.parametrize("stride", [1e-300, 5e-324, 1e-7])
def test_tiny_stride_rejected_before_sampling(stride):
    # 1e-300 asks for 1e299 samples, and 0.1 / 5e-324 overflows to inf;
    # each would run out of memory or raise OverflowError.  1e-7 asks for
    # 1e6 samples plus the one at t = 0, one past the cap.
    config = example1_line(3, 1.0)
    with pytest.raises(InputError, match="stride .* needs more than 1,000,000 sample rows"):
        simulate_regularized(config, eps=1e-3, h=1e-5, stride=stride, t_end=0.1)


def test_chain_crawl_speed_matches_geometric_factor():
    # Leader-chain with four agents: the regularized slide moves the first
    # agent at a * (a/(a+b))^2 = 0.25.
    config = example2_sliding(4, 1.0, 1.0, policy=Sliding())
    run = simulate_regularized(config, eps=1e-3, h=1e-5, stride=0.01, t_end=1.0)
    # measure velocity away from the initial transient
    i0, i1 = 50, 100
    speed = (run.states[i1][0] - run.states[i0][0]) / (
        run.times[i1] - run.times[i0]
    )
    assert speed == pytest.approx(0.25, rel=0.02)


def test_precondition_eps_below_quarter_cell():
    config = example1_line(3, 1.0, policy=Sliding())
    with pytest.raises(InputError):
        simulate_regularized(config, eps=0.3, h=1e-6)


def test_precondition_eps_below_half_the_smallest_threshold_gap():
    # Thresholds 0.02 apart between levels 1 apart: eps = 0.2 passes the
    # delta_min/4 bound, but the ramps overlap (knots 0.79, 1.19, 0.81,
    # 1.21): the oracle (h = 1e-3) stood at (0.966, 1.034) at t = 0.5 and at
    # (1, 1) from t = 5, where simulate rests at (0.99, 1.01).
    config = ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(2, 1.0), 1.0, 1.0),
        quantizer=GeneralQuantizer(levels=(0.0, 1.0, 2.0), thresholds=(0.99, 1.01)),
        x0=(0.5, 1.5),
        horizon=10.0,
    )
    assert simulate(config).final_x.tolist() == [0.99, 1.01]
    with pytest.raises(InputError, match=r"^eps must be below half the smallest threshold "
                       r"gap = 0\.01"):
        simulate_regularized(config, eps=0.2, h=1e-3, t_end=1.0)
    assert simulate_regularized(config, eps=0.009, h=5e-4, t_end=0.01).states.shape == (2, 2)


@pytest.mark.parametrize("quantizer,x0,threshold", [
    (GeneralQuantizer(levels=(0.0, 2e10, 4e10), thresholds=(1e10, 3e10)),
     (0.9e10, 1e10, 1.1e10), "10000000000.0"),
    (UniformQuantizer(1.0), (1e10, 1e10 + 1.0, 1e10 + 2.0), "9999999996.5"),
], ids=["general", "uniform"])
def test_precondition_eps_above_the_spacing_of_the_doubles_at_each_threshold(
        quantizer, x0, threshold):
    # At 1e10 the doubles lie about 2e-6 apart, so th - 1e-7 and th + 1e-7
    # round to th and the knots would not increase: the ramp would be a step.
    config = ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0),
        quantizer=quantizer, x0=x0, horizon=1.0)
    with pytest.raises(InputError, match=rf"^eps=1e-07 is too small for the threshold "
                       rf"{re.escape(threshold)}: th - eps and th \+ eps round to the same"):
        simulate_regularized(config, eps=1e-7, h=1e-30, t_end=1e-3)


def test_precondition_step_size_guard():
    config = example1_line(3, 1.0, policy=Sliding())
    # guard: h < eps / (4 * n * a_high * level_span) = 1e-3 / 24
    with pytest.raises(InputError):
        simulate_regularized(config, eps=1e-3, h=1e-4)


def test_refinement_decreases_deviation_monotonically():
    runs = suites.simulated([example2_sliding(3, 1.0, 1.0, policy=Sliding())])
    ok, detail = suites.oracle(runs, refinements=[(eps, eps / 100.0)
                                                  for eps in (1e-3, 5e-4, 2.5e-4)])
    assert ok, detail


# Element-wise loop kernel the oracle used before its list kernel; kept as
# the reference the list kernel must reproduce bit for bit.
def _interp_scalar(v, xp, fp):
    if v <= xp[0]:
        return fp[0]
    if v >= xp[-1]:
        return fp[-1]
    lo = 0
    hi = xp.shape[0] - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xp[mid] <= v:
            lo = mid
        else:
            hi = mid
    x0 = xp[lo]
    x1 = xp[lo + 1]
    if x1 == x0:
        return fp[lo]
    return fp[lo] + (fp[lo + 1] - fp[lo]) * (v - x0) / (x1 - x0)


def _rk4_chunk(x, lap, xp, fp, h, steps):
    n = x.shape[0]
    q = np.empty(n)
    k1 = np.empty(n)
    k2 = np.empty(n)
    k3 = np.empty(n)
    k4 = np.empty(n)
    tmp = np.empty(n)
    for _ in range(steps):
        for i in range(n):
            q[i] = _interp_scalar(x[i], xp, fp)
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc -= lap[i, j] * q[j]
            k1[i] = acc
        for i in range(n):
            tmp[i] = x[i] + 0.5 * h * k1[i]
        for i in range(n):
            q[i] = _interp_scalar(tmp[i], xp, fp)
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc -= lap[i, j] * q[j]
            k2[i] = acc
        for i in range(n):
            tmp[i] = x[i] + 0.5 * h * k2[i]
        for i in range(n):
            q[i] = _interp_scalar(tmp[i], xp, fp)
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc -= lap[i, j] * q[j]
            k3[i] = acc
        for i in range(n):
            tmp[i] = x[i] + h * k3[i]
        for i in range(n):
            q[i] = _interp_scalar(tmp[i], xp, fp)
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc -= lap[i, j] * q[j]
            k4[i] = acc
        for i in range(n):
            x[i] += (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
    return x


# (config, eps, h, t_end): wide ramps so the states cross them, at most
# 2,000 steps each; the periodic case crosses three topology switches, the
# n = 20 case has sparse Laplacian rows and the last case has uneven levels.
KERNEL_CASES = [
    (example1_line(3, 1.0, policy=Sliding()), 0.2, 1e-3, 2.0),
    (example2_sliding(4, 1.0, 1.0, policy=Sliding()), 0.2, 1e-3, 2.0),
    (random_connected(6, seed=0, switching=(3, 0.05)), 0.2, 5e-4, 0.2),
    (random_connected(20, seed=7), 0.2, 2.5e-4, 0.05),
    (ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(4), 1.0, 1.0),
        quantizer=GeneralQuantizer(levels=(-1.0, 0.0, 0.5, 2.0), thresholds=(-0.5, 0.25, 1.0)),
        x0=(-0.9, 0.1, 0.6, 1.8),
        horizon=10.0,
    ), 0.1, 1e-3, 2.0),
]
KERNEL_IDS = ["line3", "chain4", "random6-periodic", "random20", "general4"]


def _check_against_loop_reference(monkeypatch, config, eps, h, t_end):
    run = simulate_regularized(config, eps=eps, h=h, stride=0.01, t_end=t_end)
    # Re-run with the reference sample loop and the element-wise kernel,
    # fed the dense Laplacian of the segment.
    laps = []
    monkeypatch.setattr(reference, "laplacian", lambda g: laps.append(laplacian(g)) or laps[-1])
    monkeypatch.setattr(reference, "rk4_chunk", lambda x, rows, xp, fp, h, steps: list(
        _rk4_chunk(np.array(x), laps[-1], np.array(xp), np.array(fp), h, steps)))
    force_list_path(monkeypatch)
    ref = simulate_regularized(config, eps=eps, h=h, stride=0.01, t_end=t_end)
    assert len(laps) > 1
    assert np.array_equal(run.times, ref.times)
    assert np.array_equal(run.states, ref.states)


@pytest.mark.parametrize("config,eps,h,t_end", KERNEL_CASES, ids=KERNEL_IDS)
def test_kernel_bit_identical_to_loop_reference(monkeypatch, config, eps, h, t_end):
    assert quantizers._load_kernel() is not reference.KERNELS
    _check_against_loop_reference(monkeypatch, config, eps, h, t_end)


@pytest.mark.parametrize("config,eps,h,t_end", KERNEL_CASES, ids=KERNEL_IDS)
def test_list_kernel_bit_identical_to_loop_reference(monkeypatch, config, eps, h, t_end):
    force_list_path(monkeypatch)
    _check_against_loop_reference(monkeypatch, config, eps, h, t_end)


def test_cached_kernel_loads_without_compiler():
    assert quantizers._load_kernel() is not None
    # A fresh interpreter imports qcl without loading the kernel, then finds
    # the build cached.
    code = "\n".join([
        "import subprocess, sys",
        "from qcl import quantizers",
        "assert 'qcl._ckernel' not in sys.modules",
        "def compiler(*args, **kwargs):",
        "    raise AssertionError('compiler started')",
        "subprocess.run = subprocess.Popen = compiler",
        "print(quantizers._load_kernel() is not None)",
    ])
    src = str(Path(dynamics.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "True\n", out.stderr


def test_reordered_kernel_fails_self_check(monkeypatch, tmp_path):
    # Summing the final update right to left changes the last bits.  The
    # oracle needs the kernels, so it fails with the self-check's one error.
    build_kernel_variant(monkeypatch, tmp_path, "k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]",
                         "k4[i] + 2.0 * k3[i] + 2.0 * k2[i] + k1[i]", SHIPPED_FLAGS)
    config, eps, h, t_end = KERNEL_CASES[0]
    assert_self_check_rejects(tmp_path, "oracle", lambda: simulate_regularized(
        config, eps=eps, h=h, stride=0.01, t_end=t_end))


@pytest.mark.parametrize("x0,xp,fp,samples", [
    ([0.0, 1.0], [0.0], [0.0], 1),
    ([0.0, 1.0], [0.0, 1.0], [0.0], 1),
    ([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0], 1),
    ([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], -1),
], ids=["one-knot", "unequal-knots", "state-too-wide", "negative-samples"])
def test_compiled_kernel_rejects_chunks_that_do_not_fit(x0, xp, fp, samples):
    # The C code reads the knots, the state and the sample rows without
    # bounds checks; its graphs come from the schedule's own tables.
    schedule = GraphSchedule.time_invariant(line_graph(2), 1.0, 1.0)
    with pytest.raises(ValueError, match="do not fit together"):
        quantizers._load_kernel().regularized(schedule, x0, xp, fp, 0.1, 0.1, samples, 10.0)


def test_one_level_guard_bounds_the_step():
    # Both states lie on level 0, inside the ramp of the threshold 0.5:
    # with no level span the guard once vanished, and h = 1.0 returned
    # (6.08, -5.08), h = 1e-4 (0.488, 0.511) for a consensus at 0.49955.
    config = ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(2, 1000.0), 1000.0, 1000.0),
        quantizer=UniformQuantizer(1.0),
        x0=(0.4992, 0.4999),
        horizon=10.0,
    )
    for h in (1.0, 1e-4):
        with pytest.raises(InputError, match=r"^step h=.* too large for eps=0\.001: need "
                           r"h < 1\.25e-07$"):
            simulate_regularized(config, eps=1e-3, h=h, t_end=0.05)
    run = simulate_regularized(config, eps=1e-3, h=1e-7, t_end=0.05)
    assert run.states[-1] == pytest.approx([0.49955, 0.49955], abs=1e-6)


@pytest.mark.parametrize("quantizer", [GeneralQuantizer(levels=(0.0,), thresholds=()),
                                       UniformQuantizer(1.0)], ids=["one-level", "uniform"])
def test_negative_t_end_keeps_the_sample_at_zero(quantizer):
    config = ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(3), 1.0, 1.0),
        quantizer=quantizer,
        x0=(0.3, 1.7, -2.4),
        horizon=10.0,
    )
    run = simulate_regularized(config, eps=1e-3, h=1e-5, stride=0.1, t_end=-1.0)
    assert run.times.tolist() == [0.0]
    assert run.states.tolist() == [[0.3, 1.7, -2.4]]


@pytest.mark.parametrize("path", KERNEL_PATHS)
def test_unstable_run_raises_at_its_first_sample_past_the_bound(monkeypatch, path):
    # The guard keeps valid runs far below the bound, so the run gets a
    # lower one: the states (0, 1, 2) pass 1.5 at the first sample.
    with kernel_path(path):
        kernels = quantizers._load_kernel()
    monkeypatch.setattr(quantizers, "_load_kernel", lambda: kernels._replace(
        regularized=lambda *args: kernels.regularized(*args[:-1], 1.5)))
    with pytest.raises(RegularizationUnstable,
                       match=r"^state norm exploded at t=0\.01; reduce the step size h$"):
        simulate_regularized(example1_line(3, 1.0), eps=1e-3, h=1e-5, t_end=1.0)


def test_one_compiled_call_per_run_and_no_graph_lookup_in_python(monkeypatch):
    # The run reads the schedule's C tables and finds its segments in C.
    kernels = quantizers._load_kernel()
    calls = []
    monkeypatch.setattr(quantizers, "_load_kernel", lambda: kernels._replace(
        regularized=lambda *args: calls.append(args) or kernels.regularized(*args)))
    for owner, name in ((GraphSchedule, "graph_at"), (GraphSchedule, "next_switch_after"),
                        (graphs, "laplacian")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    config, eps, h, t_end = KERNEL_CASES[2]  # three topology switches
    simulate_regularized(config, eps=eps, h=h, stride=0.01, t_end=t_end)
    assert len(calls) == 1
