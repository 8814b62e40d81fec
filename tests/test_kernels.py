"""The compiled kernels as qcl's only backend: the loader, the errors of a
resolve that declines, the build self-check's digests, the workspace
buffers that carry nothing from one call to the next, and a build under
AddressSanitizer and UndefinedBehaviorSanitizer."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import MUTANT_FLAGS, build_kernel_variant, counted_workspaces
from qcl import (ContractViolation, FixedAlpha, GraphSchedule, InputError, KernelError,
                 NoSlidingSelection, ScenarioConfig, SequentialSlow, SimulationLimitError, Sliding,
                 UniformQuantizer, WeightedDigraph, _ckernel, _kernel_check, cli, example1_line,
                 line_graph, quantizers, random_connected, resolve_sliding, selection_velocity,
                 simulate, simulate_regularized)
from test_golden import CASES, DIGESTS, JSON_DIGESTS, STRIDE_DIGESTS, digests


def _fresh_loader(monkeypatch, cache_dir) -> None:
    """The next kernel load builds or loads anew, with ``cache_dir`` as the
    cache."""
    monkeypatch.setattr(_ckernel, "CACHE", cache_dir)
    monkeypatch.setattr(quantizers, "_load_kernel", quantizers._load_once(quantizers._load_kernel.__wrapped__))


def _run(tmp_path, capsys) -> tuple[int, str, str]:
    """``qcl run`` of a line of four agents into ``tmp_path / "out"``: the
    exit code, stdout and stderr."""
    code = cli.main(["run", "--builder", "example1", "--n", "4", "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    return code, out, err


def test_no_compiler_is_one_error_line(monkeypatch, tmp_path, capsys):
    _fresh_loader(monkeypatch, tmp_path / "cache")
    monkeypatch.setattr(_ckernel.shutil, "which", lambda name: None)
    code, out, err = _run(tmp_path, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: no C compiler: qcl builds its kernels with cc, "
                   "which is not on the PATH\n")
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


def test_build_that_does_not_compile_is_one_error_line(monkeypatch, tmp_path, capsys):
    build_kernel_variant(monkeypatch, tmp_path, "#define FULL 2", "#define FULL 2 +")
    code, out, err = _run(tmp_path, capsys)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: cc could not build _kernels\.c: .*error.*\n", err)
    assert list((tmp_path / "cache").iterdir()) == []


def test_failed_build_is_built_once_per_process(monkeypatch, tmp_path):
    # A KernelError is remembered: qcl sweep, which records each cell's
    # error and goes on, once built and self-checked again for every cell.
    build_kernel_variant(monkeypatch, tmp_path, "#define FULL 2", "#define FULL 2 +")
    builds, build = [], _ckernel._build
    monkeypatch.setattr(_ckernel, "_build", lambda *args: builds.append(args) or build(*args))
    errors = []
    for _ in range(2):
        with pytest.raises(KernelError, match="^cc could not build _kernels.c: ") as err:
            quantizers._load_kernel()
        errors.append(err.value)
    assert len(builds) == 1 and errors[0] is errors[1]


def test_unwritable_cache_builds_in_a_temporary_directory(monkeypatch, tmp_path, capsys):
    # Below a regular file nothing can be created, whoever runs the test.
    code, out, _ = _run(tmp_path / "cached", capsys)
    (tmp_path / "file").write_text("")
    _fresh_loader(monkeypatch, tmp_path / "file" / "cache")
    assert _run(tmp_path, capsys) == (code, out, "")
    for name in ("trajectory.csv", "trajectory.json", "report.json"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (tmp_path / "cached" / "out" / name).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cached", "file", "out"]


def test_mutant_flags_pass_the_self_check(monkeypatch, tmp_path):
    # The control of the mutants built with MUTANT_FLAGS: the unmutated
    # source built with them is accepted, cached, and gives every golden
    # digest.
    build_kernel_variant(monkeypatch, tmp_path, "#define FULL 2", "#define FULL 2")
    assert quantizers._load_kernel() is not reference.KERNELS
    assert len(list((tmp_path / "cache").iterdir())) == 1
    for name in CASES:
        csv, trajectory, report, stride = digests(name)
        assert (csv, trajectory, report) == (DIGESTS[name], *JSON_DIGESTS[name])
        assert stride == STRIDE_DIGESTS.get(name)
    assert _ckernel.FLAGS == MUTANT_FLAGS


def _reference_digests() -> dict[str, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the weights of 1e308
        return dict(_kernel_check.digests(reference.KERNELS))


def test_reference_gives_the_checked_in_digests():
    # A build is accepted when it reproduces these sha256s; they are the
    # reference list code's, so the C code ports it bit for bit.
    found = _reference_digests()
    assert found == _kernel_check.DIGESTS, "the reference differs in groups " + ", ".join(
        group for group, digest in _kernel_check.DIGESTS.items() if found.get(group) != digest)


def test_self_check_hashes_only_the_outputs_of_the_kernels(monkeypatch):
    # The runs of the check go through Kernels.advance alone: the text that
    # simulate gives an event limit is no part of a build's bits.
    monkeypatch.setattr(SimulationLimitError, "__str__", lambda self: "reworded")
    assert _reference_digests() == _kernel_check.DIGESTS


def test_decline_reasons_match_the_c_codes():
    codes = dict(re.findall(r"^#define QCL_(\w+) (\d+)$", _ckernel.SOURCE.read_text(), re.M))
    assert codes == {name: str(k) for k, name in enumerate(_ckernel.DECLINES, 1)}


UNIT = UniformQuantizer(1.0)


def _case(n, edges, x, policy=Sliding(), stopped=(), cutoff=64):
    return WeightedDigraph.from_edges(n, edges), np.array(x), UNIT, policy, frozenset(stopped), \
        cutoff


#: A resolve for each reason of a decline (``_kernel_check._decline_states``),
#: and the error that the compiled resolve and the reference raise.
DECLINES = {
    "STATE": (_case(2, [(0, 1, 1.0)], [0.0, np.nan]),
              InputError, "z must be finite, got nan"),
    "PGS_STALLED": (_case(3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1e-9), (1, 2, 1e-9)],
                          [0.5, 0.5, 1.0], cutoff=0),
                    NoSlidingSelection, "projected Gauss-Seidel did not converge"),
    "PGS_SPLIT": (_case(4, [(0, 1, 1e300), (0, 2, 1.0), (0, 3, 1e308), (1, 2, 1e300),
                            (1, 3, 2.0), (2, 1, 1e308), (2, 3, 1e308), (3, 0, 1e300),
                            (3, 1, 2.0), (3, 2, 1e300)], [-2.0, 0.0, -0.5, -2.5],
                        SequentialSlow(), [2], cutoff=1),
                  NoSlidingSelection, "inconsistent projected solution for agent 2"),
    "PIN_NAN": (_case(4, [(0, 2, 1.0), (1, 0, 0.5), (1, 2, 1e308), (1, 3, 2.0), (2, 0, 0.5),
                          (2, 3, 5e307), (3, 0, 5e307), (3, 1, 1.0)], [3.0, 2.5, 3.0, 2.5],
                      FixedAlpha({0: 0.0, 3: 1.0}), [0, 3]),
                InputError, _ckernel.PIN_OVERFLOW.format(3)),
    "DEPARTURE": (_case(5, [(0, 4, 1e-6), (1, 0, 0.5), (1, 3, 3.0), (3, 2, 1.0), (4, 3, 1e6)],
                        [2.5, -1.5, 2.5, -2.5, -0.5], SequentialSlow(), [0, 3]),
                  NoSlidingSelection, "departure of agent 1 is not sign-consistent"),
    "BOX": (_case(3, [(2, 0, 1e308), (2, 1, 5e307)], [-2.5, -2.5, -2.5], stopped=[2],
                  cutoff=1),
            ContractViolation, "resolved z[2]=nan left [-3.0, -2.0]"),
}


@pytest.mark.parametrize("reason", _ckernel.DECLINES)
def test_declines_raise_the_reference_error(reason):
    # The kernels' resolve, as resolve_sliding calls it: resolve_sliding
    # itself rejects the weights of the overflowing cases first.
    case, error, message = DECLINES[reason]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        quantizers._load_kernel().resolve(*case[:5], float(case[5]))
    with warnings.catch_warnings(), pytest.raises(error, match=f"^{re.escape(message)}$"):
        warnings.simplefilter("ignore", RuntimeWarning)
        reference.resolve(*case)


@pytest.mark.parametrize("reason", ["PGS_SPLIT", "PIN_NAN", "BOX"])
def test_direct_calls_reject_weights_whose_velocities_overflow(reason):
    # Weights up to 1e308 once reached the resolver through a direct call,
    # which then reported the symptom (a decline) instead of the overflow;
    # ScenarioConfig rejects them with the same message.
    g, x, _, policy, stopped, cutoff = DECLINES[reason][0]
    with pytest.raises(InputError, match=r"^agent \d: its weights sum to .*, and twice that "
                       r"times the largest level magnitude .* of x overflows, so its velocity "
                       r"would not be finite$"):
        resolve_sliding(x, g, UNIT, policy, stopped, cutoff)
    z = np.array([UNIT.krasovskii_set(v)[0] for v in x])
    with pytest.raises(InputError, match=r"^agent \d: its weights sum to"):
        selection_velocity(x, z, g, UNIT)


def test_weights_of_1e308_are_rejected_by_every_public_entry():
    g = WeightedDigraph.from_edges(2, [(0, 1, 1e308), (1, 0, 1.0)])
    x = np.array([0.0, 2.0])
    message = ("agent 0: its weights sum to 1e+308, and twice that times the largest level "
               "magnitude 2.0 of {} overflows, so its velocity would not be finite")
    with pytest.raises(InputError, match=f"^{re.escape(message.format('x'))}$"):
        resolve_sliding(x, g, UNIT)
    with pytest.raises(InputError, match=f"^{re.escape(message.format('x'))}$"):
        selection_velocity(x, x, g, UNIT)
    with pytest.raises(InputError, match=f"^segment 0, {re.escape(message.format('x0'))}$"):
        ScenarioConfig(GraphSchedule.time_invariant(g, 1.0, 1e308), UNIT, tuple(x))


def test_declines_are_the_self_checks():
    # The self-check pins each decline that this file tests, in bits.
    checked = [(g.weights.tobytes(), x.tobytes(), policy, stopped, cutoff)
               for g, x, _, policy, stopped, cutoff in _kernel_check._decline_states()]
    for reason, (case, _, _) in DECLINES.items():
        g, x, _, policy, stopped, cutoff = case
        assert reason == "STATE" or (g.weights.tobytes(), x.tobytes(), policy, stopped,
                                     cutoff) in checked


@pytest.mark.parametrize("cutoff", ["64", None, [64], True, 1j, float("nan")])
def test_cutoff_that_is_not_a_number_is_an_input_error(cutoff):
    case = DECLINES["PGS_SPLIT"][0]
    with pytest.raises(InputError, match="^cutoff must be a number"):
        resolve_sliding(case[1], case[0], UNIT, cutoff=cutoff)


def test_cutoffs_of_every_real_type_agree():
    g, x, q, policy, stopped, _ = DECLINES["DEPARTURE"][0]
    x = np.array([2.5, -1.5, 2.0, -2.5, -0.5])
    results = {repr(resolve_sliding(x, g, q, Sliding(), frozenset(), cutoff))
               for cutoff in (64, 64.0, np.int64(64), np.float32(64.0), 2 ** 70, np.inf)}
    assert len(results) == 1


# -- poisoned buffers ------------------------------------------------------------

#: The buffers that the binding fills before a resolve or a run's first
#: call, and that the C code carries from one call of a run to the next
#: (``colmap`` holds -1 from the workspace's making on, restored by the C
#: code).
FILLED = ("x", "stopped", "pins", "pin_alpha", "colmap")
#: Fields of ``struct qcl_work`` that each call writes before it reads them.
WRITTEN = ("n_surface", "count", "dt", "n_rows", "n_ints", "reason", "agent")


class _Hooked:
    """A ctypes function that calls ``before(*args)`` first; attributes set
    on it go to the function."""

    def __init__(self, fn, before):
        object.__setattr__(self, "_fn", fn)
        object.__setattr__(self, "_before", before)

    def __setattr__(self, name, value):
        setattr(self._fn, name, value)

    def __call__(self, *args):
        self._before(*args)
        return self._fn(*args)


def _poisoned_kernels(monkeypatch, also=()):
    """Fresh compiled kernels whose every ``qcl_advance`` and ``qcl_resolve``
    call first fills each workspace buffer but those of ``FILLED`` (and with
    those named in ``also``) with NaN or 1e300, in turn, or 0x5A5A5A5A, and
    whose export buffers, and the states and work of the oracle, start as
    0x5A bytes.  Returns the kernels and the workspaces."""
    works, calls = [], [0]

    class Recorded(_ckernel._Work):
        def __init__(self, n, m):
            super().__init__(n, m)
            works.append(self)

    def poison(table, address, *args):
        calls[0] += 1
        value = (np.nan, 1e300)[calls[0] % 2]
        w = next(w for w in works if w.address == address)
        for name, ctype, _ in _ckernel._BUFFERS:
            if name not in FILLED or name in also:
                view = np.frombuffer(w.buf[name], np.float64 if ctype is ctypes.c_double
                                     else np.int64)
                view[:] = value if ctype is ctypes.c_double else 0x5A5A5A5A
        for name in WRITTEN:
            setattr(w.struct, name, value if name == "dt" else 0x5A5A5A5A)

    class Lib:
        def __init__(self, lib):
            self.qcl_advance = _Hooked(lib.qcl_advance, poison)
            self.qcl_resolve = _Hooked(lib.qcl_resolve, poison)
            self.qcl_regularized = lib.qcl_regularized

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, dtype=float):
            return np.full(shape, 0x5A, dtype)

    bind_advance = _ckernel._bind_advance
    monkeypatch.setattr(_ckernel, "_Work", Recorded)
    monkeypatch.setattr(_ckernel, "_bind_advance", lambda lib: bind_advance(Lib(lib)))
    monkeypatch.setattr(_ckernel, "np", Numpy())
    kernels = quantizers._load_kernel.__wrapped__()
    monkeypatch.setattr(quantizers, "_load_kernel", lambda: kernels)
    return kernels, works, calls


def _outcome(name):
    try:
        return digests(name)
    except (InputError, NoSlidingSelection, ContractViolation) as err:
        return type(err), str(err)


def test_poisoned_workspace_gives_the_golden_digests_in_either_order(monkeypatch):
    # Every buffer that a call reads it has written first, and so has the
    # binding: one workspace serves every run of a process, so a stale byte
    # would make a run depend on the runs before it.
    oracle = oracle_outcomes()
    _, works, calls = _poisoned_kernels(monkeypatch)
    names = sorted(CASES)
    forward = {name: _outcome(name) for name in names}
    backward = {name: _outcome(name) for name in reversed(names)}
    assert forward == backward == {
        name: (DIGESTS[name], *JSON_DIGESTS[name], STRIDE_DIGESTS.get(name)) for name in names}
    assert len(works) > 3 and calls[0] > 2 * len(names)
    assert oracle_outcomes() == oracle


def test_poisoned_state_changes_the_digests(monkeypatch):
    # The negative control: the same poison in the states as well.
    _poisoned_kernels(monkeypatch, also=("x",))
    names = sorted(CASES)[:10]
    changed = [name for name in names if _outcome(name) != (
        DIGESTS[name], *JSON_DIGESTS[name], STRIDE_DIGESTS.get(name))]
    assert changed == names


def test_poison_shows_a_buffer_that_the_c_code_does_not_initialise(monkeypatch, tmp_path):
    # The negative control of the C code: a build whose hold systems keep
    # the old bytes of their matrix, loaded past the self-check, changes
    # golden digests under the same poison.
    build_kernel_variant(monkeypatch, tmp_path, "        for (int64_t c = 0; c < m; c++)\n"
                         "            row[c] = 0.0;\n", "")
    monkeypatch.setattr(_kernel_check, "first_difference", lambda kernels: None)
    _poisoned_kernels(monkeypatch)
    assert any(_outcome(name) != (DIGESTS[name], *JSON_DIGESTS[name], STRIDE_DIGESTS.get(name))
               for name in sorted(CASES))


def oracle_cases() -> list[tuple]:
    """``(config, eps, h, t_end)`` of oracle runs at a stride of 0.01: the
    five ``test_oracle.KERNEL_CASES``, then one agent, a graph with an empty
    row, a period whose switches fall inside samples, and no sample but the
    one at 0."""
    from test_oracle import KERNEL_CASES

    pair = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])  # agent 2 listens to nobody
    line = WeightedDigraph.from_edges(3, [(0, 1, 0.7), (1, 0, 0.7), (1, 2, 0.7), (2, 1, 0.7)])
    return KERNEL_CASES + [
        (ScenarioConfig(GraphSchedule.time_invariant(WeightedDigraph.empty(1), 1.0, 1.0), UNIT,
                        (0.45,)), 0.2, 1e-2, 0.3),
        (ScenarioConfig(GraphSchedule.time_invariant(pair, 1.0, 1.0), UNIT, (0.35, 0.6, 0.55)),
         0.2, 1e-3, 0.3),
        (ScenarioConfig(GraphSchedule(((0.0, line), (0.013, pair)), 0.7, 1.0, 0.03), UNIT,
                        (0.2, 0.45, 0.9)), 0.2, 1e-3, 0.1),
        (ScenarioConfig(GraphSchedule.time_invariant(line, 0.7, 0.7), UNIT, (0.2, 0.45, 0.9)),
         0.2, 1e-3, 0.005),
    ]


def oracle_outcomes() -> list[tuple]:
    """The times and states of each of ``oracle_cases``, in bytes."""
    runs = [simulate_regularized(config, eps=eps, h=h, stride=0.01, t_end=t_end)
            for config, eps, h, t_end in oracle_cases()]
    return [(run.times.tobytes(), run.states.shape, run.states.tobytes()) for run in runs]


def test_oracle_cases_reach_their_edge_shapes():
    runs = [simulate_regularized(config, eps=eps, h=h, stride=0.01, t_end=t_end)
            for config, eps, h, t_end in oracle_cases()[5:]]
    assert [run.states.shape for run in runs] == [(31, 1), (31, 3), (11, 3), (1, 3)]
    # Only the agents that listen to someone move.
    one, empty_row, periodic, _ = runs
    assert np.all(one.states == 0.45)
    assert (empty_row.states[-1] != empty_row.states[0]).tolist() == [True, True, False]
    assert np.all(periodic.states[-1] != periodic.states[0])


def _resolver_edge_shapes() -> dict[str, tuple]:
    """The resolver's edge shapes at the sizing of its hold buffers, by
    name: ``(n, unknowns, thunk)``, where ``thunk()`` gives the bits of one
    resolve or run on ``n`` agents, whose workspace holds ``unknowns``
    unknowns."""
    def resolve(x, g, cutoff=64.0):
        def thunk():
            r = resolve_sliding(np.array(x, float), g, UNIT, cutoff=cutoff)
            return repr((r.z.tobytes(), r.velocity.tobytes(), r.alpha, sorted(r.held),
                         r.departing))
        return thunk

    # Agent 0 listens to the 139 others, which listen to it and to their
    # neighbours on a line: 140 agents on thresholds, 112 of which depart.
    star = WeightedDigraph.from_edges(140, [(0, j, 1.0 + j / 7) for j in range(1, 140)]
                                      + [(j, 0, 0.5) for j in range(1, 140)]
                                      + [(j, j + d, 1.0) for j in range(1, 140)
                                         for d in (-1, 1) if 0 < j + d < 140])
    on_thresholds = [0.5 + (i * 7 % 5) - 2 for i in range(140)]
    return {
        "one-agent": (1, 1, resolve([0.5], WeightedDigraph.empty(1))),
        "empty-graph": (5, 5, resolve([0.5, 1.0, -1.5, 2.5, 0.2], WeightedDigraph.empty(5))),
        # Projected Gauss-Seidel polishes 28 held agents.
        "row-past-128": (140, 64, resolve(on_thresholds, star)),
        "row-past-128-dense": (140, 140, resolve(on_thresholds, star, math.inf)),
        "cutoff-0": (6, 0, resolve([0.5, 1.5, 0.5, 2.5, 1.5, 0.5], line_graph(6, 1.0), 0.0)),
        "negative-cutoff": (6, 0, resolve([0.5, 1.5, 0.5, 2.5, 1.5, 0.5], line_graph(6, 1.0),
                                          -1.5)),
        # Two candidates, solved densely in the two unknowns.
        "cutoff-2.5": (6, 2, resolve([0.5, 1.5, 1.0, 1.0, 2.0, 2.0], line_graph(6, 1.0), 2.5)),
        "one-threshold": (12, 12, resolve([0.5] * 12,
                                          random_connected(12, seed=3).schedule.graph_at(0.0),
                                          math.inf)),
        "64-candidates": (80, 64, resolve([0.5 + i % 3 if i < 64 else 0.25 + i % 2
                                           for i in range(80)], line_graph(80, 1.0))),
        # 1,004 events of 8 agents, in chunks of 124.
        "full-chunk": (8, 8, lambda: simulate(example1_line(8, 1 / 64, x0_spacing=0.98))
                       .to_csv()),
    }


def resolver_edge_outcomes(fresh) -> dict[str, str]:
    """The sha256 of the bits of each of ``_resolver_edge_shapes``, each in
    the new workspace of the kernels ``fresh()``."""
    load, outcomes = quantizers._load_kernel, {}
    try:
        for name, (_, _, thunk) in _resolver_edge_shapes().items():
            kernels = fresh()
            quantizers._load_kernel = lambda: kernels
            outcomes[name] = hashlib.sha256(thunk().encode()).hexdigest()
    finally:
        quantizers._load_kernel = load
    return outcomes


def test_each_edge_shape_builds_one_workspace_of_the_least_size(monkeypatch):
    # A resolve or a run on n agents at the cutoff c builds, in fresh
    # kernels, one workspace whose hold buffers hold min(n, floor(c))
    # unknowns (0 for c < 0), and the run's calls after a full chunk build
    # no other.
    built = counted_workspaces(monkeypatch)
    resolver_edge_outcomes(quantizers._load_kernel.__wrapped__)
    assert built == [size for n, m, _ in _resolver_edge_shapes().values()
                     for size in ((0, 0), (n, m))]


# -- sanitizers ------------------------------------------------------------------

#: A build under AddressSanitizer and UndefinedBehaviorSanitizer: -O1 with
#: frame pointers and debug lines for the reports, every check fatal, and
#: the shipped float flags.
SANITIZE_FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
                  "-fno-sanitize-recover=all", *_ckernel.FLAGS[1:])

#: Run in a process with the sanitizer runtimes: the self-check of the
#: library named by the first argument, then the golden cases, the oracle
#: cases and the resolver's edge shapes with it; prints the first group in
#: which the self-check finds a difference (None for none), how many golden
#: cases differ, and the outcomes of the oracle and the edge shapes as
#: ``repr`` prints them.
_SANITIZED_RUN = """
import sys
from qcl import _ckernel, _kernel_check, quantizers
from test_golden import CASES, DIGESTS, JSON_DIGESTS, STRIDE_DIGESTS, digests
from test_kernels import oracle_outcomes, resolver_edge_outcomes

kernels = _ckernel._bind(sys.argv[1])
differs = _kernel_check.first_difference(kernels)
quantizers._load_kernel = lambda: kernels
print(differs, sum(digests(name) != (DIGESTS[name], *JSON_DIGESTS[name],
                                     STRIDE_DIGESTS.get(name)) for name in CASES))
print(oracle_outcomes())
print(resolver_edge_outcomes(lambda: _ckernel._bind(sys.argv[1])))
"""


def _sanitized_run(tmp_path, source: str, flags=SANITIZE_FLAGS) -> subprocess.CompletedProcess:
    """``_SANITIZED_RUN`` on ``source`` built with ``flags`` under
    ``tmp_path``.  The library needs the runtimes loaded first, and CPython's
    own allocator hands out blocks without the redzones that catch a read
    past a buffer, so the run uses malloc."""
    cc, library = shutil.which("cc"), tmp_path / "_kernels-sanitized.so"
    subprocess.run([cc, *flags, "-o", str(library), "-x", "c", "-"], input=source.encode(),
                   capture_output=True, check=True)
    runtimes = [subprocess.run([cc, f"-print-file-name={name}"], capture_output=True, text=True,
                               check=True).stdout.strip() for name in ("libasan.so", "libubsan.so")]
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "LD_PRELOAD": " ".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONMALLOC": "malloc",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    return subprocess.run([sys.executable, "-c", _SANITIZED_RUN, str(library)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_sanitized_build_passes_the_self_check_and_goldens_without_a_report(tmp_path):
    # The oracle's runs and the resolver's edge shapes, each in a workspace
    # of the least size, give the bits of the shipped build too.
    run = _sanitized_run(tmp_path, _ckernel.SOURCE.read_text())
    edges = resolver_edge_outcomes(quantizers._load_kernel.__wrapped__)
    assert (run.returncode, run.stdout, run.stderr) == (
        0, f"None 0\n{oracle_outcomes()!r}\n{edges!r}\n", "")


def test_sanitized_build_reports_a_read_past_a_row(tmp_path):
    # The negative control: the row sum of fewer than 8 terms reads one term
    # too many, past the CSR arrays at a graph's last row.  The self-check
    # fails first without reading past them; a golden run then does.
    old = "for (int64_t k = 0; k < n; k++)\n            res += vals[k]"
    source = _ckernel.SOURCE.read_text()
    assert source.count(old) == 1
    run = _sanitized_run(tmp_path, source.replace(old, old.replace("k < n", "k <= n")),
                         ("-O0", *SANITIZE_FLAGS[1:]))
    assert run.returncode != 0 and run.stdout == ""
    assert "ERROR: AddressSanitizer: heap-buffer-overflow" in run.stderr
    assert "in pairwise_terms" in run.stderr
