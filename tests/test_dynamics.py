from __future__ import annotations

import ctypes
import importlib.util
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcl import (
    ContractViolation,
    FixedAlpha,
    GeneralQuantizer,
    GraphSchedule,
    InputError,
    NoSlidingSelection,
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
    scenario_from_json,
    selection_velocity,
    simulate,
)
import reference
from conftest import (KERNEL_PATHS, MUTANT_FLAGS, SHIPPED_FLAGS, assert_self_check_rejects,
                      build_kernel_variant, counted_workspaces, force_list_path, kernel_path)
from qcl import _ckernel, dynamics, graphs, quantizers
from qcl._json import dumps
from qcl.dynamics import KIND_NAMES, policy_from_json
from qcl.scenarios import SplitMix64
from test_golden import (CASES as GOLDEN_CASES, DIGESTS as GOLDEN_DIGESTS, JSON_DIGESTS,
                         STRIDE_DIGESTS, digests)


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
        # The reference resolver hands its projected solver a state whose
        # agent slots are not set yet; its result must not depend on them
        # (the compiled one's: test_kernels.test_poisoned_workspace_*).
        g = line_graph(5)
        boxes = {i: (0.0, 1.0) for i in (1, 2, 3)}
        results = []
        for fill in (0.0, 1e300):
            z = np.array([0.0, fill, fill, fill, 1.0])
            held, departing, alphas = reference._pgs([1, 2, 3], boxes, z, g, 64)
            results.append((held, departing, alphas, z.tolist()))
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
        system = reference._build_hold_system(active, boxes, z, g)
        assert repr(system) == repr(_build_hold_system_loop(active, boxes, z, g))
        rows, rhs, _ = system
        assert repr(reference._gaussian_solve(rows, rhs)) == repr(_gaussian_solve_loop(rows, rhs))
        solution = reference._hold_solve(active, boxes, z, g)
        assert repr(solution) == repr(_gaussian_solve_loop(rows, rhs))
        velocities = reference._velocities(g, z, range(g.n))
        for i in range(g.n):
            assert repr(velocities[i]) == repr(_row_velocity_loop(g.weights[i], z, float(z[i])))

    def test_elimination_with_row_swaps(self):
        rng = SplitMix64(9)
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(10)] for _ in range(10)]
        rhs = [rng.uniform(-1.0, 1.0) for _ in range(10)]
        assert repr(reference._gaussian_solve(rows, rhs)) == repr(_gaussian_solve_loop(rows, rhs))


def _velocity_per_row(g, z, i):
    """The resolver's per-row velocity before the batched terms array."""
    index = np.flatnonzero(g.weights[i])
    if index.size == 0:
        return 0.0
    return float((g.weights[i][index] * (z[index] - float(z[i]))).sum())


def _gaussian_solve_lists(a_rows, b):
    """The resolver's list elimination, singular test included."""
    m = len(b)
    aug = [list(a_rows[r]) + [b[r]] for r in range(m)]
    scale = max(1.0, max((max(map(abs, row)) for row in a_rows), default=1.0))
    for col in range(m):
        piv = col
        best = abs(aug[col][col])
        for r in range(col + 1, m):
            mag = abs(aug[r][col])
            if mag > best:
                best, piv = mag, r
        if best <= 1e-12 * scale:
            raise reference._Singular()
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        for r in range(col + 1, m):
            row = aug[r]
            factor = row[col] / pivot_row[col]
            if factor != 0.0:
                row[col:] = [a - factor * b for a, b in zip(row[col:], pivot_row[col:])]
    out = [0.0] * m
    for r in range(m - 1, -1, -1):
        acc = aug[r][m]
        for c in range(r + 1, m):
            acc -= aug[r][c] * out[c]
        out[r] = acc / aug[r][r]
    return out


def _solve_or_singular(solve, *args):
    try:
        return repr(solve(*args))
    except reference._Singular:
        return "singular"


def _palette_hold_system(m: int, seed: int, palette: bool):
    """A graph, m surface agents, their boxes and a state.

    The palette draws few distinct weights, widths and states, with signed
    zeros, so that systems have pivot ties, zero factors, -0.0 entries and
    singular cases (agents that listen to nobody, or only to each other).
    """
    rng = np.random.default_rng(seed)
    n = m + int(rng.integers(0, 6))
    if palette:
        w = rng.choice([0.0] * 7 + [1.0, 2.0, 0.3], size=(n, n))
        lo = rng.choice([0.0, -0.0, -0.0, 1.0, -1.0], size=n)
        width = rng.choice([1.0, 0.7], size=n)
        z = rng.choice([0.0, 0.0, -0.0, 1.0, -1.1], size=n)
    else:
        w = rng.uniform(0.1, 3.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
        lo = rng.uniform(-5.0, 5.0, n)
        width = rng.uniform(0.01, 3.0, n)
        z = rng.uniform(-5.0, 5.0, n) * 10.0 ** rng.integers(-3, 4, n)
    np.fill_diagonal(w, 0.0)
    active = sorted(rng.choice(n, size=m, replace=False).tolist())
    boxes = {i: (float(lo[i]), float(lo[i] + width[i])) for i in active}
    return WeightedDigraph(w), active, boxes, z


class TestBatchedKernelsMatchReferences:
    """The batched velocities and the hold solvers against the per-row and
    list code they replace: the same arithmetic, so ``repr``-equal."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0).via("single agent, empty row")
    @example(n=300, seed=1).via("rows past 8 and 128 nonzeros")
    def test_velocities_match_per_row_sums(self, n, seed):
        rng = np.random.default_rng(seed)
        w = np.zeros((n, n))
        for i in range(n):
            # Empty rows, rows within numpy's 8-term unrolling, rows past it
            # and past its 128-term blocks.
            count = min(n - 1, int(rng.choice([0, rng.integers(1, 9), rng.integers(9, 129),
                                               rng.integers(129, 300)])))
            others = np.delete(np.arange(n), i)
            w[i, rng.choice(others, size=count, replace=False)] = rng.uniform(0.1, 10.0, count)
        g = WeightedDigraph(w)
        z = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        z[rng.random(n) < 0.3] = 1.0  # equal values give exact zero terms
        assert repr(reference._velocities(g, z, range(n))) == repr(
            [_velocity_per_row(g, z, i) for i in range(n)])

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), palette=st.booleans())
    def test_gaussian_solve_matches_list_reference(self, m, seed, palette):
        rng = np.random.default_rng(seed)
        if palette:
            # Few distinct values: zero factors, signed zeros, pivot-magnitude
            # ties and singular systems.
            aug = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -0.5], size=(m, m + 1))
        else:
            aug = rng.uniform(-1.0, 1.0, (m, m + 1)) * 10.0 ** rng.integers(-3, 4, (m, 1))
        rows, rhs = aug[:, :m].tolist(), aug[:, m].tolist()
        assert _solve_or_singular(reference._gaussian_solve, rows, rhs) == \
            _solve_or_singular(_gaussian_solve_lists, rows, rhs)

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), palette=st.booleans())
    @example(m=7, seed=6, palette=True).via("a pivot tie")
    @example(m=2, seed=161, palette=True).via("a -0.0 rhs in a row with a zero factor")
    @example(m=80, seed=3, palette=True).via("the largest palette system")
    def test_hold_solver_matches_list_reference(self, path, m, seed, palette):
        # The reference's list solver, with either kernels installed; its
        # compiled port runs inside the compiled resolve, whose outputs the
        # self-check's digest pins to it.
        g, active, boxes, z = _palette_hold_system(m, seed, palette)
        rows, rhs, _ = _build_hold_system_loop(active, boxes, z, g)
        with kernel_path(path):
            assert _solve_or_singular(reference._hold_solve, active, boxes, z, g) == \
                _solve_or_singular(_gaussian_solve_lists, rows, rhs)

    @pytest.mark.parametrize("m", [3, 13, 40])
    def test_ties_zero_factors_and_singular_systems(self, m):
        # Equal pivot magnitudes in the first column; row 1 needs no update
        # there and then pivots the second, so its -0.0 must stay (an update
        # would turn it into 0.0).  Then the same system with two equal rows.
        rows = [[1.0 if c <= r else -1.0 for c in range(m)] for r in range(m)]
        rows[1][:3] = [0.0, 4.0, -0.0]
        rhs = [float(r) for r in range(m)]
        assert repr(reference._gaussian_solve(rows, rhs)) == repr(_gaussian_solve_lists(rows, rhs))
        rows[-1] = list(rows[-2])
        with pytest.raises(reference._Singular):
            reference._gaussian_solve(rows, rhs)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_list_fallback_matches_golden_digest(monkeypatch, name):
    # Every case scans the quantizer at every event, and the random graphs
    # solve hold systems of up to 64 unknowns under all three policies; the
    # reference list code in simulate's own event loop, with the Python
    # writer, must give the same CSV, trajectory JSON, report and stride
    # exports as the compiled kernels.
    force_list_path(monkeypatch)
    csv, trajectory, report, stride = digests(name)
    assert csv == GOLDEN_DIGESTS[name]
    assert (trajectory, report) == JSON_DIGESTS[name]
    assert stride == STRIDE_DIGESTS.get(name)


def test_reordered_hold_solver_fails_self_check(monkeypatch, tmp_path):
    # Back-substitution summed right to left changes the last bits.  A run
    # needs the kernels, so it fails with the self-check's one error.
    build_kernel_variant(
        monkeypatch, tmp_path,
        "for (int64_t c = r + 1; c < m; c++)\n            acc -= row[c] * out[c];",
        "for (int64_t c = m - 1; c > r; c--)\n            acc -= row[c] * out[c];",
        SHIPPED_FLAGS)
    assert_self_check_rejects(tmp_path, "resolves",
                              lambda: simulate(GOLDEN_CASES["random40-s2-sequential-slow"]()))


@pytest.mark.parametrize("old,new,flags", [
    ("if (n < 8) {", "if (n > 0) {", SHIPPED_FLAGS),
    ("half -= half % 8;", "", MUTANT_FLAGS),
], ids=["sequential-fold", "unrounded-split"])
def test_velocities_in_another_order_fail_self_check(monkeypatch, tmp_path, old, new, flags):
    build_kernel_variant(monkeypatch, tmp_path, old, new, flags)
    assert_self_check_rejects(tmp_path, "row sums")


#: Resolves that run projected Gauss-Seidel: a pair of surface agents that
#: listen only to each other (singular), three surface candidates over a
#: cutoff of 2, and a departure that the re-check finds pushed back onto its
#: surface (``SequentialSlow``, agent 2 last stopped).
PGS_RESOLVES = {
    "singular": (WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)]),
                 [0.5, 0.5], UNIT, Sliding(), frozenset(), 64),
    "over-cutoff": (WeightedDigraph.from_edges(4, [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0)]),
                    [0.5, 0.5, 0.5, 3.0], UNIT, Sliding(), frozenset(), 2),
    "sign-inconsistent": (WeightedDigraph.from_edges(6, [
        (0, 4, 1.0), (0, 5, 1.5), (1, 0, 2.0), (1, 4, 1.0), (1, 5, 0.5), (2, 3, 2.0), (2, 4, 1.5),
        (3, 0, 2.0), (3, 5, 0.5), (4, 0, 1.0), (4, 1, 1.0), (5, 0, 1.5), (5, 2, 1.5), (5, 3, 1.0)]),
        [-1.5, -1.5, -0.5, 1.5, 2.0, 0.5], UNIT, SequentialSlow(), frozenset({2}), 64),
}


def _planted_digraph(draw, n: int) -> WeightedDigraph:
    """Each agent but a root listens to one agent before it in a random
    order, plus random edges; weights from 0.3 to 2."""
    order = draw(st.permutations(range(n)))
    weight = st.sampled_from([0.5, 1.0, 1.5, 2.0, 0.3, 1.7])
    edges = {(order[k], order[draw(st.integers(0, k - 1))]): draw(weight) for k in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n)):
        if i != j:
            edges[i, j] = draw(weight)
    return WeightedDigraph.from_edges(n, [(i, j, w) for (i, j), w in edges.items()])


#: Uneven gaps and thresholds off the midpoints.
GENERAL = GeneralQuantizer((-1.2, -0.4, 0.3, 1.0, 1.6, 2.9), (-0.9, -0.1, 0.62, 1.25, 2.1))
#: States of ``GENERAL``: on its thresholds, on its levels, an ulp beside a
#: threshold, inside a cell and beyond the outermost thresholds.
GENERAL_STATES = (*GENERAL.thresholds, *GENERAL.levels, math.nextafter(0.62, 1.0),
                  math.nextafter(-0.1, -1.0), 0.8, -3.0, 4.5)


def _states(draw, n: int, quantizer) -> list[float]:
    """n states of a uniform quantizer's lattice (on thresholds, levels and
    inside cells) or of ``GENERAL_STATES``."""
    if isinstance(quantizer, GeneralQuantizer):
        return draw(st.lists(st.sampled_from(GENERAL_STATES), min_size=n, max_size=n))
    return [(k + draw(st.sampled_from([0.5, 0.5, 0.0, 0.25, 0.37]))) * quantizer.delta
            for k in draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))]


@st.composite
def resolve_inputs(draw):
    """A planted digraph (each agent but a root listens to one agent before
    it in a random order, plus random edges) of at most 12 agents, with states
    on thresholds, levels and inside cells of a uniform quantizer or of
    ``GENERAL``, any policy (FixedAlpha pins on random agents, some off the
    surface or outside the graph), random last-stopped agents and now and
    then a cutoff of 2."""
    n = draw(st.integers(1, 12))
    g = _planted_digraph(draw, n)
    quantizer = draw(st.sampled_from([UNIT, UniformQuantizer(0.25), UniformQuantizer(1 / 3),
                                      UniformQuantizer(0.1), GENERAL]))
    pins = FixedAlpha(draw(st.dictionaries(st.integers(-1, n),
                                           st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]),
                                           max_size=4)))
    return (g, _states(draw, n, quantizer), quantizer,
            draw(st.sampled_from([Sliding(), SequentialSlow(), pins])),
            frozenset(draw(st.sets(st.integers(0, n - 1), max_size=3))),
            draw(st.sampled_from([64, 64, 64, 2])))


def _resolve_outcome(g, x, quantizer, policy, last_stopped, cutoff):
    """The fields of a resolve, in bits, or the type and message of its error."""
    try:
        res = resolve_sliding(np.array(x), g, quantizer, policy, last_stopped, cutoff)
    except (NoSlidingSelection, ContractViolation, InputError) as err:
        return type(err), str(err)
    return (res.z.tobytes(), res.velocity.tobytes(), [(i, a.hex()) for i, a in res.alpha],
            res.held, res.departing)


def _compiled_outcome(g, x, quantizer, policy, last_stopped, cutoff):
    """The fields of the compiled resolve, in the bits of ``_resolve_outcome``,
    or the type and message of the error of its decline."""
    try:
        out = quantizers._load_kernel().resolve(g, np.array(x), quantizer, policy, last_stopped,
                                                float(cutoff))
    except (NoSlidingSelection, ContractViolation, InputError) as err:
        return type(err), str(err)
    return out[0].tobytes(), out[1].tobytes(), [(i, a.hex()) for i, a in out[2]], out[3], out[4]


@pytest.mark.parametrize("path", KERNEL_PATHS)
@settings(max_examples=150, deadline=None)
@given(case=resolve_inputs())
@example(case=PGS_RESOLVES["singular"])
@example(case=PGS_RESOLVES["over-cutoff"])
@example(case=PGS_RESOLVES["sign-inconsistent"])
def test_compiled_resolve_matches_list_path(path, case):
    with kernel_path("lists"):
        expected = _resolve_outcome(*case)
    with kernel_path(path):
        assert _resolve_outcome(*case) == expected
        if not isinstance(expected[0], bytes):
            return
        g, x, quantizer, policy, last_stopped, cutoff = case
        out = quantizers._load_kernel().resolve(g, np.array(x), quantizer, policy, last_stopped,
                                                cutoff)
    assert repr(out[5]) == repr(reference.threshold_hits(np.array(x), out[1], quantizer))


@pytest.mark.parametrize("name", sorted(PGS_RESOLVES))
def test_compiled_resolve_runs_projected_gauss_seidel(monkeypatch, name):
    # The compiled resolve takes these states, which the reference sends to
    # projected Gauss-Seidel, and gives the reference's bits.
    out = _compiled_outcome(*PGS_RESOLVES[name])
    assert isinstance(out[0], bytes)
    projected, pgs = [], reference._pgs

    def counted_pgs(agents, *args):
        projected.append(agents)
        return pgs(agents, *args)

    monkeypatch.setattr(reference, "_pgs", counted_pgs)
    with kernel_path("lists"):
        assert _resolve_outcome(*PGS_RESOLVES[name]) == out
    assert projected


@settings(max_examples=150, deadline=None)
@given(case=resolve_inputs(), cutoff=st.sampled_from([0, 1, 2, 64]))
@example(case=PGS_RESOLVES["singular"], cutoff=64)
def test_compiled_pgs_matches_list_code(case, cutoff):
    # Cutoffs 0 and 1 send nearly every resolve with surface agents to
    # projected Gauss-Seidel, and let it polish at most that many held
    # agents.  The compiled resolve raises exactly where the reference does.
    case = (*case[:5], cutoff)
    with kernel_path("lists"):
        expected = _resolve_outcome(*case)
    assert _compiled_outcome(*case) == expected


def _csr_graph(n: int, seed: int) -> WeightedDigraph:
    """A random graph whose rows have 0, 7, 8, 128, 129 or 257 nonzeros, as
    many as n allows: every branch of numpy's pairwise summation."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        count = min(n - 1, int(rng.choice([0, 7, 8, 128, 129, 257])))
        others = np.delete(np.arange(n), i)
        w[i, rng.choice(others, size=count, replace=False)] = \
            rng.uniform(0.1, 10.0, count) * 10.0 ** rng.integers(-4, 5, count)
    return WeightedDigraph(w)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), tied=st.booleans())
@example(n=300, seed=0, tied=False).via("the longest rows")
@example(n=300, seed=1, tied=True).via("terms that are exactly zero")
def test_compiled_velocities_match_numpy(n, seed, tied):
    # Every agent sits on a level, so the compiled resolve sums every row
    # for its velocity; the reference sums them with numpy.
    g = _csr_graph(n, seed)
    rng = np.random.default_rng(seed)
    x = rng.integers(-10**6, 10**6, size=n) * 0.1
    if tied:
        x[rng.random(n) < 0.7] = 0.0
    case = (g, x, UniformQuantizer(0.1), Sliding(), frozenset(), 64)
    with kernel_path("lists"):
        expected = _resolve_outcome(*case)
    assert _compiled_outcome(*case) == expected


def test_simulate_takes_the_arrival_from_the_compiled_resolve(monkeypatch):
    # The closest arrival is scanned only in C, and simulate steps to the
    # one that the resolve gives it: the reference's scan in simulate's own
    # loop gives the same trajectory.
    assert not hasattr(dynamics, "threshold_hits") and not hasattr(quantizers, "threshold_hits")
    config = example1_line(5, 0.1)
    csv = simulate(config).to_csv()
    force_list_path(monkeypatch)
    assert simulate(config).to_csv() == csv


@pytest.mark.parametrize("old,new,flags", [
    ("(r_near == drop_near && e > worst)", "(r_near == drop_near && e >= worst)", SHIPPED_FLAGS),
    ("if (fabs(a) <= FEAS_SLACK)", "if (fabs(a) <= 2 * FEAS_SLACK)", MUTANT_FLAGS),
    ("if (v > worst) {", "if (v != 0.0 && v >= worst) {", MUTANT_FLAGS),
    ("if (p >= 0) {", "if (p >= 0 && g->totals[i] == 0.0) {", MUTANT_FLAGS),
], ids=["release-ties-to-highest", "wider-snap-slack", "stale-pin-ties-to-highest",
        "pins-not-excluded-from-candidates"])
def test_mutated_resolve_fails_self_check(monkeypatch, tmp_path, old, new, flags):
    build_kernel_variant(monkeypatch, tmp_path, old, new, flags)
    assert_self_check_rejects(tmp_path, "resolves", lambda: simulate(example1_line(5, 0.1)))


@pytest.mark.parametrize("path", KERNEL_PATHS)
@pytest.mark.parametrize("agent", [-1, 3, 2**70])
def test_last_stopped_agent_outside_the_graph_is_one_error(path, agent):
    # -1 once stood silently for agent 2; 3 raised IndexError only when a
    # release happened; ctypes would truncate 2**70 to 0.
    with kernel_path(path), pytest.raises(
            InputError, match=f"^last-stopped agent {agent} is not an agent of the 3-agent graph$"):
        resolve_sliding(np.array([0.5, 1.5, 2.5]), line_graph(3), UNIT, SequentialSlow(),
                        frozenset({agent}))


#: Two line graphs of six agents that switch at 0.25 and 1.0, when
#: threshold arrivals come too.
SWITCH_AT_ARRIVALS = ScenarioConfig(
    schedule=GraphSchedule(((0.0, line_graph(6)), (0.25, line_graph(6, 2.0)),
                            (1.0, line_graph(6))), 1.0, 2.0),
    quantizer=UniformQuantizer(0.25), x0=(0.0, 0.0, 0.0, 0.0, 0.6, 1.1),
    policy=SequentialSlow())


#: An arrival before the switch at 0.375 whose step t + dt rounds onto it:
#: the event there resolves under the next graph.
ROUNDS_ONTO_SWITCH = ScenarioConfig(
    schedule=GraphSchedule(((0.0, WeightedDigraph.from_edges(
        3, [(0, 2, 2.0), (1, 0, 1.0), (1, 2, 2.0), (2, 0, 1.0)])),
        (0.375, WeightedDigraph.from_edges(3, [(1, 0, 0.5), (2, 0, 0.5)]))), 0.3, 2.0),
    quantizer=UniformQuantizer(1 / 3), x0=(1.5, 1 / 3, 0.0), policy=Sliding())


#: Three agents between which nothing moves for the first second, then a
#: line graph: the state waits at rest for the switch at 1.0, and with a
#: horizon of 0.5 is recorded at rest at the horizon.
REST_BEFORE_SWITCH = ScenarioConfig(
    schedule=GraphSchedule(((0.0, WeightedDigraph(np.zeros((3, 3)))), (1.0, line_graph(3))),
                           1.0, 1.0),
    quantizer=UNIT, x0=(0.0, 1.0, 2.0), policy=SequentialSlow())


@st.composite
def run_inputs(draw):
    """A scenario: a line of up to 12 agents, a planted digraph, a schedule of
    planted digraphs that switch once or with a period, at binary-fraction
    times (an arrival can then coincide with a switch) or not (the cycles'
    switch times then round); a step that is a binary fraction or not;
    either policy; states on thresholds, on levels or inside cells; now and
    then a small event limit or a short horizon; now and then ``GENERAL``,
    with states of ``GENERAL_STATES``."""
    kind = draw(st.sampled_from(["line", "digraph", "switching", "periodic"]))
    n = draw(st.integers(3, 12) if kind == "line" else st.integers(2, 7))
    if kind == "line":
        graphs = [line_graph(n, draw(st.sampled_from([1.0, 0.5, 1.5, 0.3])))]
    else:
        graphs = [_planted_digraph(draw, n)
                  for _ in range(1 if kind == "digraph" else draw(st.integers(2, 3)))]
    dwell = draw(st.sampled_from([0.125, 0.25, 0.375, 1.0, 0.1, 0.35]))
    schedule = GraphSchedule(tuple((k * dwell, g) for k, g in enumerate(graphs)), 0.3, 2.0,
                             len(graphs) * dwell if kind == "periodic" else None)
    quantizer = draw(st.sampled_from([UNIT, UniformQuantizer(0.25), UniformQuantizer(1 / 64),
                                      UniformQuantizer(0.1), UniformQuantizer(1 / 3), GENERAL]))
    return ScenarioConfig(schedule=schedule, quantizer=quantizer, x0=_states(draw, n, quantizer),
                          policy=draw(st.sampled_from([Sliding(), SequentialSlow()])),
                          horizon=draw(st.sampled_from([1e6, 1e6, 0.3, 2.0])),
                          max_events=draw(st.sampled_from([400, 400, 1, 2, 5])))


def _run_outcome(config):
    """A run's events in bits, its status or the message of its event limit;
    or the type and message of its error."""
    try:
        traj, limit = simulate(config), None
    except SimulationLimitError as err:
        traj, limit = err.trajectory, str(err)
    except (NoSlidingSelection, ContractViolation, InputError) as err:
        return type(err), str(err)
    return limit, traj.status, [
        (ev.t.hex(), ev.kind, [v.hex() for v in ev.x + ev.z + ev.velocity],
         [None if a is None else a.hex() for a in ev.alpha], ev.hits, ev.departing)
        for ev in traj.events]


@pytest.mark.parametrize("path", KERNEL_PATHS)
@settings(max_examples=100, deadline=None)
@given(config=run_inputs())
@example(config=SWITCH_AT_ARRIVALS)
@example(config=replace(SWITCH_AT_ARRIVALS, max_events=4))
@example(config=example1_line(6, 0.1, x0_spacing=0.0937))
@example(config=ROUNDS_ONTO_SWITCH)
@example(config=REST_BEFORE_SWITCH)
@example(config=replace(REST_BEFORE_SWITCH, horizon=0.5))
def test_runs_match_list_path(path, config):
    with kernel_path("lists"):
        expected = _run_outcome(config)
    with kernel_path(path):
        assert _run_outcome(config) == expected


def _counting_advance(monkeypatch, kernels) -> list[int]:
    """Route ``simulate`` through ``kernels`` and count, per call of its
    compiled event loop, the events that call recorded."""
    recorded = []

    def advance(*args):
        out = kernels.advance(*args)
        recorded.append(len(out[0]))  # one row per event
        return out

    monkeypatch.setattr(quantizers, "_load_kernel", lambda: kernels._replace(advance=advance))
    return recorded


def test_staircase_runs_in_a_few_compiled_calls(monkeypatch):
    # A step that went back to Python would cost one call per event.  One
    # call records every event through its full chunks of 124 events of 8
    # agents, the equilibrium included.  The state that runs projected
    # Gauss-Seidel no longer stops it.
    recorded = _counting_advance(monkeypatch, quantizers._load_kernel())
    traj = simulate(example1_line(8, 1 / 64, x0_spacing=0.98))
    assert len(traj.events) == 1004
    assert recorded == [1004]


@pytest.mark.parametrize("struct,mirror", [("qcl_work", _ckernel._Struct),
                                           ("qcl_graph", _ckernel._Graph),
                                           ("qcl_schedule", _ckernel._Schedule),
                                           ("qcl_quantizer", _ckernel._Quantizer)])
def test_c_structs_match_their_ctypes_mirrors(struct, mirror):
    # ctypes lays a structure out from its _fields_ alone: a member added,
    # dropped or moved on one side only would have C and Python read each
    # other's fields.
    body = re.search(rf"struct {struct} {{(.*?)}};", _ckernel.SOURCE.read_text(), re.S)
    kinds = {"double": ctypes.c_double, "int64_t": ctypes.c_int64}
    members = []
    for declaration in body.group(1).split(";")[:-1]:
        m = re.fullmatch(r"\s*(?:const )?(double|int64_t|struct qcl_graph) (\*?)(\w+)\s*",
                         declaration)
        assert m is not None, declaration
        members.append((m.group(3), ctypes.c_void_p if m.group(2) else kinds[m.group(1)]))
    assert members == mirror._fields_


def test_periodic_runs_use_the_compiled_event_loop(monkeypatch):
    # The compiled loop records the switches and the equilibrium too.  The
    # switch times k * 0.7 + 0.35 round.
    recorded = _counting_advance(monkeypatch, quantizers._load_kernel())
    config = replace(example1_line(8, 1 / 64, x0_spacing=0.98), schedule=GraphSchedule(
        ((0.0, line_graph(8)), (0.35, line_graph(8, 2.0))), 1.0, 2.0, 0.7))
    traj = simulate(config)
    assert len(traj.events) == 1097
    assert recorded == [1097]
    assert sum(ev.kind == "topology-switch" for ev in traj.events) > 50


def _benchmark_workloads():
    """``benchmark/workloads.py``, which generates the benchmark's scenarios."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("qcl_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["staircase", "wide-surface"])
def test_benchmark_resolves_never_leave_the_compiled_path(monkeypatch, workload):
    # The package has no Python resolver or event loop left, and the one
    # call of the compiled event loop of every run on these workloads ends
    # the run: none declines (at seed 1, 106 and 13 resolves once went to
    # Python while the compiled resolve declined projected Gauss-Seidel, 9
    # and 9 under FixedAlpha, and 14 and 0 while a general quantizer ran in
    # Python).
    assert not hasattr(dynamics, "_resolve_python") and not hasattr(dynamics, "_pgs")
    assert not hasattr(dynamics, "_certified_terminal") and not hasattr(dynamics, "_Recorder")
    kernels, statuses = quantizers._load_kernel(), []

    def advance(*args):
        out = kernels.advance(*args)
        statuses.append(out[3])
        return out

    monkeypatch.setattr(quantizers, "_load_kernel", lambda: kernels._replace(advance=advance))
    root = Path(__file__).resolve().parents[1]
    for case in _benchmark_workloads().WORKLOADS[workload](1, root):
        simulate(scenario_from_json(json.loads(case.text())))
    assert statuses and set(statuses) <= {"equilibrium", "horizon", "limit"}


def _counting_kernels(monkeypatch) -> list[str]:
    """Route ``simulate`` and ``resolve_sliding`` through the compiled
    kernels and log each call of ``advance`` and ``resolve``."""
    kernels, calls = quantizers._load_kernel(), []

    def counted(name):
        def call(*args):
            calls.append(name)
            return getattr(kernels, name)(*args)
        return call

    monkeypatch.setattr(quantizers, "_load_kernel", lambda: kernels._replace(
        advance=counted("advance"), resolve=counted("resolve")))
    return calls


@pytest.mark.parametrize("workload", ["staircase", "wide-surface"])
def test_benchmark_events_leave_the_compiled_loop_only_at_rest(monkeypatch, workload):
    # The compiled loop records threshold hits, topology switches, full
    # chunks, the state at rest, the horizon and the event limit: each run
    # is one advance call, and no resolve is made outside it.  At seed 1 the
    # Python loop once recorded 113 and 72 events while switches, general
    # quantizers and full chunks went back to it, and later one state at
    # rest per run.
    calls = _counting_kernels(monkeypatch)
    root = Path(__file__).resolve().parents[1]
    cases = _benchmark_workloads().WORKLOADS[workload](1, root)
    for case in cases:
        simulate(scenario_from_json(json.loads(case.text())))
    assert calls == ["advance"] * len(cases)


def test_every_run_is_one_advance_call(monkeypatch):
    # The golden corpus, the oracle workload's references, and runs that
    # end at either form of the horizon, at the event limit and wait at rest
    # for a switch: one advance call each, and no resolve outside it.
    calls = _counting_kernels(monkeypatch)
    root = Path(__file__).resolve().parents[1]
    configs = [GOLDEN_CASES[name]() for name in sorted(GOLDEN_CASES)]
    configs += [scenario_from_json(json.loads(case.text()))
                for case in _benchmark_workloads().WORKLOADS["oracle"](1, root)]
    line = example1_line(6, 0.1, x0_spacing=0.0937)
    configs += [replace(line, horizon=0.3), replace(line, max_events=3), REST_BEFORE_SWITCH,
                replace(REST_BEFORE_SWITCH, horizon=0.5)]
    statuses = []
    for config in configs:
        try:
            statuses.append(simulate(config).status)
        except SimulationLimitError as err:
            statuses.append(err.trajectory.status)
    assert calls == ["advance"] * len(configs)
    assert statuses[-4:] == ["horizon", "limit", "equilibrium", "horizon"]
    assert [ev.kind for ev in simulate(REST_BEFORE_SWITCH).events][:2] == \
        ["start", "topology-switch"]


def test_event_loop_resumes_after_a_full_chunk_and_grown_buffers(monkeypatch):
    # A chunk of three 12-agent events in fresh kernels.  The workspace
    # grows once, before the run's first call, to the 12 agents and their
    # 12 unknowns; the one advance call empties each full chunk and resumes
    # in that workspace from the event where the chunk filled, and records
    # every event.
    monkeypatch.setattr(_ckernel, "CHUNK", 3 * (4 * 12 + 1))
    built = counted_workspaces(monkeypatch)
    recorded = _counting_advance(monkeypatch, quantizers._load_kernel.__wrapped__())
    config = example1_line(12, 1 / 16, x0_spacing=0.3)
    compiled = _run_outcome(config)
    assert recorded == [len(compiled[2])] and recorded[0] > 10 * 3
    assert built == [(0, 0), (12, 12)]
    force_list_path(monkeypatch)
    assert compiled == _run_outcome(config)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
@example(n=1, seed=0, density=1.0).via("single agent, empty row")
@example(n=30, seed=1, density=0.5).via("weights of mixed magnitude")
def test_graph_tables_hold_the_csr_and_row_totals_bit_for_bit(n, seed, density):
    # Weights from 1e-12 to 1e12, so row totals round, and rows with no
    # neighbours.  The totals are compared with the reference's rows and
    # with out_weight.
    rng = np.random.default_rng(seed)
    w = rng.choice([0.1, 1 / 3, 1.0, 1e-12, 7e11, 2.5e-7], size=(n, n))
    w *= rng.uniform(size=(n, n)) < density
    w[rng.uniform(size=n) < 0.3] = 0.0
    np.fill_diagonal(w, 0.0)
    g = WeightedDigraph(w)
    size, address = _ckernel._tables()[1](g)
    struct = _ckernel._Graph.from_address(address)
    assert size == struct.n == n
    _, cols, values, ends = g.csr
    totals = np.array([row.total for row in reference.sparse_rows(g)])
    assert totals.tolist() == [g.out_weight(i) for i in range(n)]
    expected = (np.array(ends, dtype=np.int64), cols, values, totals)
    for array, pointer in zip(expected, (struct.ends, struct.cols, struct.vals, struct.totals)):
        assert ctypes.string_at(pointer, array.nbytes) == array.tobytes()


def test_compiled_simulate_builds_no_sparse_rows():
    # Graphs reach the C code as numpy CSR arrays; the per-row Python tuples
    # that the list resolver read are gone from the package.
    config = example1_line(12, 1 / 16, x0_spacing=0.3, policy=SequentialSlow())
    g = config.schedule.graph_at(0.0)
    assert len(simulate(config).events) > 10
    assert not hasattr(g, "rows") and not hasattr(graphs, "SparseRow")


def test_workspace_grows_a_few_times_over_the_wide_surface_workload(monkeypatch):
    # Surface sets of up to 64 unknowns on 40 to 160 agents.  A run's
    # workspace is sized before its first call for its agents and the
    # min(n, 64) unknowns that the default dense cutoff allows, so one is
    # built per increase in the agent count, 5 in all with the empty first
    # one.
    built = counted_workspaces(monkeypatch)
    kernels = quantizers._load_kernel.__wrapped__()  # a fresh workspace
    monkeypatch.setattr(quantizers, "_load_kernel", lambda: kernels)
    root = Path(__file__).resolve().parents[1]
    expected = [(0, 0)]
    for case in _benchmark_workloads().WORKLOADS["wide-surface"](1, root):
        config = scenario_from_json(json.loads(case.text()))
        if len(config.x0) > expected[-1][0]:
            expected.append((len(config.x0), min(len(config.x0), 64)))
        simulate(config)
    assert built == expected and len(built) <= 5


@pytest.mark.parametrize("old,new,flags,group", [
    ("            w->x[w->hit[h]] = w->threshold[h];\n", "", SHIPPED_FLAGS, "runs"),
    ("w->x[i] = w->x[i] + w->y[i] * dt;", "w->x[i] = fma(w->y[i], dt, w->x[i]);", MUTANT_FLAGS,
     "runs"),
    ("ts - t < w->dt) {", "ts - t < w->dt || t + dt >= ts) {", MUTANT_FLAGS, "runs"),
    ("            w->kind = KIND_SWITCH;\n", "", MUTANT_FLAGS, "runs"),
    ("k = floor(t / s->period);", "k = floor(t / s->period) + 1.0;", MUTANT_FLAGS, "runs"),
    ("seg < sc->count; seg++) {", "seg < sc->count - 1; seg++) {", MUTANT_FLAGS, "rest runs"),
    ("seg = sc->periodic ? 0 : idx;", "seg = idx;", MUTANT_FLAGS, "rest runs"),
    (": ts > horizon) {", ": 0) {", MUTANT_FLAGS, "rest runs"),
    ("w->y[i] * (horizon - t);", "w->y[i] * dt;", MUTANT_FLAGS, "runs"),
], ids=["unsnapped-hit", "fused-step", "step-rounds-onto-switch", "switch-row-without-kind",
        "cycle-window-shifted", "certify-skips-last-graph", "certify-skips-earlier-segments",
        "rest-ignores-horizon", "horizon-step-by-dt"])
def test_mutated_event_loop_fails_self_check(monkeypatch, tmp_path, old, new, flags, group):
    build_kernel_variant(monkeypatch, tmp_path, old, new, flags)
    assert_self_check_rejects(tmp_path, group)


@pytest.mark.parametrize("old,new,flags", [
    ("            z[i] = target;\n        }\n",
     "            w->y[i] = target;\n        }\n        for (int64_t r = 0; r < m; r++)\n"
     "            if (totals[active[r]] != 0.0)\n                z[active[r]] = w->y[active[r]];\n",
     SHIPPED_FLAGS),
    ("    snap = 10.0 * PGS_TOL * scale;", "    snap = -1.0;", MUTANT_FLAGS),
], ids=["jacobi-sweep", "unsnapped-ends"])
def test_mutated_pgs_fails_self_check(monkeypatch, tmp_path, old, new, flags):
    # A Jacobi sweep computes every target from the previous sweep's z.
    build_kernel_variant(monkeypatch, tmp_path, old, new, flags)
    assert_self_check_rejects(tmp_path, "resolves")


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
        from qcl import convergence_time

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


def _state_at_scan(traj, t):
    """``Trajectory.state_at`` with the linear segment search it used before bisection."""
    events = traj.events
    if t <= events[0].t:
        return np.array(events[0].x)
    idx = len(events) - 1
    for k in range(len(events) - 1):
        if events[k].t <= t < events[k + 1].t:
            idx = k
            break
    ev = events[idx]
    if idx == len(events) - 1 and traj.status == "equilibrium":
        return np.array(ev.x)
    return np.array(ev.x) + (t - ev.t) * np.array(ev.velocity)


class TestTrajectory:
    def test_state_at_interpolates_affinely(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        assert np.array_equal(traj.state_at(0.25), [0.25, 1.0, 1.75])
        assert np.array_equal(traj.state_at(100.0), [0.5, 1.0, 1.5])
        assert np.array_equal(traj.state_at(0.0), [0.0, 1.0, 2.0])

    def test_state_at_rejects_nan(self):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        with pytest.raises(InputError, match="time must be a number"):
            traj.state_at(math.nan)

    @pytest.mark.parametrize("status", ["equilibrium", "horizon"])
    def test_state_at_matches_linear_scan(self, status):
        traj = simulate(example1_line(6, 0.25, policy=SequentialSlow()))
        events = list(traj.events)
        # A repeated event time: the later event starts the segment.
        events.insert(2, replace(events[1], velocity=(9.0,) * 6))
        traj = dynamics.Trajectory(traj.quantizer, events, status)
        times = [ev.t for ev in events]
        probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])] + [-1.0, times[-1] + 1.0]
        for t in probes:
            assert repr(traj.state_at(t).tolist()) == repr(_state_at_scan(traj, t).tolist())

    @pytest.mark.parametrize("widths,message", [
        # Once a CSV whose header had 11 columns and whose row had 9 cells.
        ([(3, 2, 3, 2)], "event 0 has 3 states, 2 selections, 3 velocities and 2 "
                         "coefficients, where event 0 has 3 states"),
        # Once numpy's "inhomogeneous shape" ValueError.
        ([(3, 3, 3, 3), (2, 2, 2, 2)], "event 1 has 2 states, 2 selections, 2 velocities "
                                       "and 2 coefficients, where event 0 has 3 states"),
    ], ids=["one-event", "two-events"])
    def test_events_of_unequal_widths_are_an_input_error(self, widths, message):
        events = [dynamics.TrajectoryEvent(float(k), "start", (0.0,) * nx, (0.0,) * nz,
                                           (0.0,) * nv, (None,) * na, (), ())
                  for k, (nx, nz, nv, na) in enumerate(widths)]
        with pytest.raises(InputError, match=f"^{message}$"):
            dynamics.Trajectory(UNIT, events, "equilibrium")

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

    def test_both_exports_of_one_stride_build_the_samples_once(self):
        # to_csv and to_json_obj of one stride read one set of sampled
        # columns; only the last stride's columns are kept.
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        csv = traj.to_csv(stride=0.125)
        rows = traj._rows(0.125)
        dumps(traj.to_json_obj(stride=0.125))
        assert traj._rows(0.125) is rows
        assert traj._rows(0.25) is not rows
        again = traj._rows(0.125)
        assert again is not rows
        assert [a.tobytes() for a in again] == [a.tobytes() for a in rows]
        assert traj.to_csv(stride=0.125) == csv
        t, kind, x, src, z, alpha = rows
        assert [KIND_NAMES[k] for k in kind] == ["start", "sample", "sample", "sample",
                                                 "equilibrium"]
        assert t.tolist() == [0.0, 0.125, 0.25, 0.375, 0.5] and src.tolist() == [0, 0, 0, 0, 1]
        assert x.flags.c_contiguous and x.shape == (5, 3) and z is traj.z and alpha is traj.alpha

    @pytest.mark.parametrize("stride", [0.0, -0.125, float("nan"), float("inf")])
    def test_bad_stride_rejected(self, stride):
        traj = simulate(example1_line(3, 1.0, policy=Sliding()))
        with pytest.raises(InputError, match="stride"):
            traj.to_csv(stride=stride)
        with pytest.raises(InputError, match="stride"):
            traj.to_json_obj(stride=stride)

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
