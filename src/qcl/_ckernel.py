"""Build, cache and load the compiled kernels ``_kernels.c``, qcl's only
implementation of its resolver, event loop, regularized oracle and export
writer.

The first ``load`` compiles the source with the system C compiler into the
package's ``__pycache__``, under a name keyed by the source, the flags and the
compiler, and installs the build only after its self-check
(``_kernel_check.first_difference``) accepts it.  Later loads reuse the cached
library and start no compiler.  Where the cache cannot be written (an
installed package), each process builds and checks its own copy in a
temporary directory.  With no compiler, or a build that fails to compile
or its self-check, ``load`` raises ``KernelError`` and caches nothing.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import weakref
from contextlib import suppress
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# The interpreter's own sha256: hashlib would load OpenSSL, which adds about
# 3.5 MiB of resident memory to a process that never needed it.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = Path(__file__).with_name("_kernels.c")
CACHE = Path(__file__).with_name("__pycache__")
#: No fast-math and no contraction into fused multiply-adds, so every
#: operation rounds as it does in Python.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")


class Kernels(NamedTuple):
    """The compiled entry points (``tests/reference.py`` implements the same
    interface in Python)."""

    #: ``resolve(g, x, quantizer, policy, last_stopped, cutoff)``: the fields
    #: of ``dynamics.resolve_sliding``'s ``Resolution`` under any policy and
    #: either quantizer, then the closest threshold arrival of its velocity,
    #: ``(dt, [(agent, threshold), ...])`` with every agent tied at it; a
    #: state with no consistent selection raises the error of its decline
    #: (see ``DECLINES``).
    resolve: Callable[..., tuple]
    #: ``advance(schedule, x0, quantizer, policy, cutoff, horizon,
    #: max_events)``: the whole run of ``dynamics.simulate`` from ``x0``,
    #: ``(table, kinds, records, status, t, x)``: one row ``t, x, z, velocity,
    #: alpha`` per event, their kinds and records as ``Trajectory`` stores
    #: them, the status (``"equilibrium"``, ``"horizon"`` or ``"limit"``), and
    #: the time and state where the run stopped; a resolve that declines
    #: raises its error.
    advance: Callable[..., tuple]
    #: ``regularized(schedule, x0, xp, fp, h, stride, samples, blow_up)``:
    #: the RK4 run of ``dynamics.simulate_regularized``, ``(states,
    #: unstable)``: one row per sample ``k * stride``, ending before the first
    #: sample whose largest ``|x_i|`` exceeds ``blow_up``, ``unstable`` (0 for
    #: none).
    regularized: Callable[..., tuple]
    #: ``write(json, indent, t, kind, x, src, z, alpha)``: the text of the
    #: rows of a trajectory export (see ``qcl_write``), or None for a JSON
    #: number that is not finite, which ``qcl._json`` refuses with its error.
    write: Callable[..., str | None]


def load() -> Kernels:
    """The compiled kernels, built and checked on first use."""
    from .quantizers import KernelError

    cc = shutil.which("cc")
    if cc is None:
        raise KernelError("no C compiler: qcl builds its kernels with cc, "
                          "which is not on the PATH")
    cc = os.path.realpath(cc)
    source = SOURCE.read_bytes()
    key = sha256(b"\0".join([source, *map(str.encode, FLAGS), cc.encode()]))
    target = CACHE / f"_kernels-{key.hexdigest()[:16]}.so"
    if target.exists():
        return _bind(str(target))
    try:
        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=CACHE)
    except OSError:
        # A read-only cache: this process builds its own copy, which the
        # loaded library outlives.
        with tempfile.TemporaryDirectory(prefix="qcl-kernels-") as scratch:
            return _build(cc, source, str(Path(scratch) / "_kernels.so"))
    os.close(fd)
    try:
        kernels = _build(cc, source, tmp)
        os.replace(tmp, target)
        return kernels
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp)


def _build(cc: str, source: bytes, path: str) -> Kernels:
    """The kernels compiled from ``source`` into ``path``, which must pass
    the self-check; its module is imported only for a new build."""
    from ._kernel_check import first_difference
    from .quantizers import KernelError

    built = subprocess.run([cc, *FLAGS, "-o", path, "-x", "c", "-"], input=source,
                           capture_output=True)
    if built.returncode:
        lines = built.stderr.decode(errors="replace").splitlines()
        errors = [line for line in lines if "error" in line] or lines or ["no output"]
        raise KernelError(f"cc could not build {SOURCE.name}: {errors[0].strip()}")
    kernels = _bind(path)
    group = first_difference(kernels)
    if group is not None:
        raise KernelError(f"the build of {SOURCE.name} failed its self-check: its outputs "
                          f"differ from the reference bits in group {group!r}")
    return kernels


def _bind(path: str) -> Kernels:
    return Kernels(*_bind_advance(ctypes.CDLL(path)), _bind_write(ctypes.PyDLL(path)))


class _Graph(ctypes.Structure):
    """``struct qcl_graph``: a graph's CSR arrays."""

    _fields_ = [("n", ctypes.c_int64), ("ends", ctypes.c_void_p), ("cols", ctypes.c_void_p),
                ("vals", ctypes.c_void_p), ("totals", ctypes.c_void_p)]


class _Schedule(ctypes.Structure):
    """``struct qcl_schedule``: a schedule's segment starts, graphs and period."""

    _fields_ = [("count", ctypes.c_int64), ("starts", ctypes.c_void_p),
                ("graphs", ctypes.c_void_p), ("periodic", ctypes.c_int64),
                ("period", ctypes.c_double)]


class _Quantizer(ctypes.Structure):
    """``struct qcl_quantizer``: a uniform step, or a general quantizer's table."""

    _fields_ = [("delta", ctypes.c_double), ("count", ctypes.c_int64),
                ("thresholds", ctypes.c_void_p), ("levels", ctypes.c_void_p)]


#: The buffers of ``struct qcl_work``: name, C type and length in agents n,
#: hold-system unknowns m or the chunk of ``qcl_advance``.
_BUFFERS = (("x", ctypes.c_double, "n"), ("y", ctypes.c_double, "n"),
            ("z", ctypes.c_double, "n"), ("stopped", ctypes.c_int64, "n"),
            ("pins", ctypes.c_int64, "n"), ("pin_alpha", ctypes.c_double, "n"),
            ("pinned", ctypes.c_int64, "n"), ("surface", ctypes.c_int64, "n"),
            ("bounds", ctypes.c_double, "2n"), ("hit", ctypes.c_int64, "n"),
            ("threshold", ctypes.c_double, "n"),
            ("alpha", ctypes.c_double, "n"), ("sign", ctypes.c_int64, "n"),
            ("mark", ctypes.c_int64, "n"), ("active", ctypes.c_int64, "n"),
            ("box", ctypes.c_double, "2n"), ("aug", ctypes.c_double, "m(m+1)"),
            ("out", ctypes.c_double, "m"), ("slot", ctypes.c_int64, "n"),
            ("colmap", ctypes.c_int64, "n"), ("rows", ctypes.c_double, "rows"),
            ("ints", ctypes.c_int64, "ints"), ("kinds", ctypes.c_int64, "kinds"))
#: The least length of the chunk of ``qcl_advance``, in doubles of its rows
#: and in integers of its records (32 KiB each); ``advance`` empties a full
#: chunk and calls it again.
CHUNK = 2 ** 12
#: What ``qcl_advance`` returns when the chunk is full and at the event limit.
_FULL, _LIMIT = 2, 4


class _Struct(ctypes.Structure):
    """``struct qcl_work``."""

    _fields_ = ([(name, ctypes.c_void_p) for name, _, _ in _BUFFERS]
                + [(name, ctypes.c_int64)
                   for name in ("rows_cap", "ints_cap", "n_pins", "n_surface", "count")]
                + [(name, ctypes.c_double) for name in ("dt", "t")]
                + [(name, ctypes.c_int64)
                   for name in ("n_stopped", "n_rows", "n_ints", "kind", "reason", "agent")])


class _Work:
    """The buffers of ``resolve`` and ``advance``, for up to ``n`` agents
    and hold systems of up to ``m`` unknowns, reused from call to call and
    replaced by a larger one before a resolve or run that needs more.

    ``buf`` maps each buffer of ``_BUFFERS`` to its ctypes array, ``x``,
    ``y``, ``z``, ``rows``, ``ints`` and ``kinds`` are numpy views of the
    same memory, made once, and ``struct`` points the C code at all of
    them.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        sizes = {"n": n, "2n": 2 * n, "m": m, "m(m+1)": m * (m + 1),
                 "rows": max(CHUNK, 4 * n + 1), "ints": max(CHUNK, 3 * n + 2)}
        sizes["kinds"] = sizes["rows"] // 5  # an event has at least 5 numbers
        self.buf = {name: (ctype * sizes[size])() for name, ctype, size in _BUFFERS}
        self.buf["colmap"][:] = [-1] * n
        self.x, self.y, self.z, self.rows = (np.frombuffer(self.buf[name])
                                             for name in ("x", "y", "z", "rows"))
        self.ints, self.kinds = (np.frombuffer(self.buf[name], dtype=np.int64)
                                 for name in ("ints", "kinds"))
        self.struct = _Struct(*map(ctypes.addressof, self.buf.values()), sizes["rows"],
                              sizes["ints"])
        self.address = ctypes.addressof(self.struct)


def _tables():
    """``(c_schedule, c_graph, c_quantizer)``, the C tables of schedules,
    graphs and quantizers.

    ``c_schedule(s)`` gives ``(n, address of s's struct qcl_schedule)`` for
    a ``GraphSchedule``, and ``c_graph(g)`` ``(n, address of g's struct
    qcl_graph)`` for a graph.  Each graph's CSR arrays are copied for C once
    from numpy: ``ends``, ``cols`` and ``vals`` from ``g.csr``, and the row
    totals from ``g.weights.sum(axis=1)``, which has the bits of
    ``g.out_weight``.  ``c_quantizer(q)`` gives the address of q's struct
    qcl_quantizer: a ``GeneralQuantizer``'s thresholds and levels, sorted as
    that class keeps them, or the step of a uniform one, written into one
    struct that serves every uniform quantizer, which the next call may
    overwrite.  The tables of a graph, a schedule or a general quantizer are
    built once and live as long as it does.
    """
    from .quantizers import GeneralQuantizer

    tables: dict[tuple[str, int], tuple] = {}

    def cached(obj, kind: str, build: Callable) -> tuple:
        entry = tables.get((kind, id(obj)))
        if entry is None:
            entry = tables[kind, id(obj)] = build(obj)
            # The entry lives as long as the object, and its id with it.
            weakref.finalize(obj, tables.pop, (kind, id(obj)), None)
        return entry

    def graph_table(g) -> tuple:
        _, cols, values, ends = g.csr
        with np.errstate(over="ignore"):  # a total may overflow to inf
            totals = g.weights.sum(axis=1)
        arrays = tuple((ctype * len(a)).from_buffer_copy(np.ascontiguousarray(a, dtype))
                       for ctype, dtype, a in (
                           (ctypes.c_int64, np.int64, ends),
                           (ctypes.c_int64, np.int64, cols),
                           (ctypes.c_double, np.float64, values),
                           (ctypes.c_double, np.float64, totals)))
        graph = _Graph(g.n, *map(ctypes.addressof, arrays))
        return g.n, ctypes.addressof(graph), (graph, arrays)

    def schedule_table(s) -> tuple:
        graphs = [cached(g, "graph", graph_table) for _, g in s.segments]
        arrays = ((ctypes.c_double * len(graphs))(*s._starts),
                  (_Graph * len(graphs))(*[graph for _, _, (graph, _) in graphs]))
        schedule = _Schedule(len(graphs), *map(ctypes.addressof, arrays), s.period is not None,
                             s.period or 0.0)
        return graphs[0][0], ctypes.addressof(schedule), (schedule, arrays, graphs)

    def c_schedule(s) -> tuple[int, int]:
        return cached(s, "schedule", schedule_table)[:2]

    def c_graph(g) -> tuple[int, int]:
        return cached(g, "graph", graph_table)[:2]

    def quantizer_table(q) -> tuple:
        arrays = ((ctypes.c_double * len(q.thresholds))(*q.thresholds),
                  (ctypes.c_double * len(q.levels))(*q.levels))
        struct = _Quantizer(0.0, len(q.thresholds), *map(ctypes.addressof, arrays))
        return ctypes.addressof(struct), (struct, arrays)

    uniform = _Quantizer()

    def c_quantizer(q) -> int:
        if isinstance(q, GeneralQuantizer):
            return cached(q, "quantizer", quantizer_table)[0]
        uniform.delta = q.delta
        return ctypes.addressof(uniform)

    return c_schedule, c_graph, c_quantizer


#: The reasons of a decline of ``qcl_resolve``, numbered from 1 as the
#: ``QCL_*`` codes of ``_kernels.c`` number them.
DECLINES = ("STATE", "PGS_STALLED", "PGS_SPLIT", "PIN_NAN", "DEPARTURE", "BOX")


def _raise_decline(reason: int, i: int, quantizer, x: np.ndarray, z: np.ndarray):
    """Raise the error, with the text of the reference resolver
    (``tests/reference.py``), of a resolve that declined for ``reason`` (a
    code of ``DECLINES``) at agent ``i`` of the state ``x`` and selection
    ``z``.  A state that is not finite or lies off the lattice gets the
    InputError of ``quantizer.krasovskii_set``, the scan that a resolve
    starts with."""
    from .dynamics import ContractViolation, NoSlidingSelection
    from .quantizers import InputError

    name = DECLINES[reason - 1] if 0 < reason <= len(DECLINES) else None
    if name in ("STATE", "BOX"):
        lo, hi = quantizer.krasovskii_set(float(x[i]))
    errors = {
        "BOX": lambda: ContractViolation(f"resolved z[{i}]={z[i]} left [{lo}, {hi}]"),
        "PGS_STALLED": lambda: NoSlidingSelection("projected Gauss-Seidel did not converge"),
        "PGS_SPLIT": lambda: NoSlidingSelection(f"inconsistent projected solution for agent {i}"),
        "PIN_NAN": lambda: InputError(PIN_OVERFLOW.format(i)),
        "DEPARTURE": lambda: NoSlidingSelection(f"departure of agent {i} is not sign-consistent"),
    }
    raise errors.get(name, lambda: RuntimeError(
        f"the compiled resolve declined ({reason}) at agent {i}, where the reference does not"))()


#: The message of a pinned agent whose velocity is NaN: its terms
#: ``a_ij (z_j - z_i)`` overflowed to infinities of both signs.
PIN_OVERFLOW = ("the velocity of pinned agent {} is not finite: "
                "its weights times the level differences overflow")


def _bind_advance(lib: ctypes.CDLL):
    """Wrap ``qcl_resolve`` as ``resolve``, for ``dynamics.resolve_sliding``,
    ``qcl_advance`` as ``advance``, for ``dynamics.simulate``, and
    ``qcl_regularized`` as ``regularized``, for
    ``dynamics.simulate_regularized``, on one set of ``_tables``.

    ``x`` must be a float64 array with one state per agent and ``cutoff`` a
    float, not NaN.  ``reserve`` sizes the workspace before the first call
    of a resolve or a run.  The policy's pins on agents outside the graph
    are dropped, as the resolver ignores them; last-stopped agents outside
    the graph are a ValueError.  A full chunk is copied out and the run goes
    on in the same workspace.  A decline raises its error
    (``_raise_decline``).  Oracle states and knots that do not fit are a
    ValueError.
    """
    from .dynamics import EVENT_KINDS, FixedAlpha, SequentialSlow

    c_schedule, c_graph, c_quantizer = _tables()
    work = _Work(0, 0)

    def reserve(n: int, cutoff: float) -> _Work:
        """The workspace, grown to at least n agents and min(n,
        floor(cutoff)) unknowns (0 for a negative cutoff), the most that the
        C code's guards m <= cutoff let a dense hold system have."""
        nonlocal work
        m = int(min(max(cutoff, 0.0), n))
        if n > work.n or m > work.m:
            work = _Work(max(n, work.n), max(m, work.m))
        return work

    c_resolve, c_advance, c_regularized = lib.qcl_resolve, lib.qcl_advance, lib.qcl_regularized
    c_resolve.restype = c_advance.restype = ctypes.c_int
    c_resolve.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                          ctypes.c_int64, ctypes.c_double]
    c_advance.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                          ctypes.c_double, ctypes.c_double, ctypes.c_int64]
    c_regularized.restype = ctypes.c_int64
    c_regularized.argtypes = ([ctypes.c_void_p] * 4 + [ctypes.c_int64] + [ctypes.c_double] * 2
                              + [ctypes.c_int64, ctypes.c_double, ctypes.c_void_p])

    def run(n: int, x: np.ndarray, stopped: tuple, quantizer, policy, cutoff: float,
            call) -> tuple:
        """``call(w, q, sequential)`` in the workspace ``w`` that holds the
        state ``x`` with the last-stopped agents ``stopped``, at t = 0 with
        the kind of a start, made again until it returns anything but 2;
        returns its status and workspace."""
        sequential = isinstance(policy, SequentialSlow)
        pins = [pin for pin in policy.overrides if 0 <= pin[0] < n] \
            if isinstance(policy, FixedAlpha) else []
        q = c_quantizer(quantizer)
        w = reserve(n, cutoff)
        s = w.struct
        w.x[:n] = x
        w.buf["stopped"][:len(stopped)] = stopped
        s.t, s.n_stopped, s.kind, s.n_pins = 0.0, len(stopped), 0, len(pins)
        if pins:
            w.buf["pins"][:len(pins)], w.buf["pin_alpha"][:len(pins)] = zip(*pins)
        status = _FULL
        while status == _FULL:
            status = call(w, q, sequential)
        if status not in (0, _LIMIT):
            _raise_decline(s.reason, s.agent, quantizer, w.x, w.z)
        return status, w

    def resolve(g, x: np.ndarray, quantizer, policy, last_stopped, cutoff: float) -> tuple:
        n, graph = c_graph(g)
        stopped = tuple(sorted(last_stopped))
        if stopped and not 0 <= stopped[0] <= stopped[-1] < n:
            raise ValueError(f"last-stopped agents {stopped} lie outside the {n} agents")
        _, w = run(n, x, stopped, quantizer, policy, cutoff, lambda w, q, sequential:
                   c_resolve(graph, w.address, q, sequential, w.struct.n_stopped, cutoff))
        buf, s = w.buf, w.struct
        k, count = s.n_surface, s.count
        surface, signs = buf["surface"][:k], buf["sign"][:k]
        z, velocity = w.z[:n].copy(), w.y[:n].copy()
        z.flags.writeable = velocity.flags.writeable = False
        return (z, velocity, tuple(zip(surface, buf["alpha"][:k])),
                frozenset([i for i, sign in zip(surface, signs) if not sign]),
                tuple([(i, sign) for i, sign in zip(surface, signs) if sign]),
                (s.dt, list(zip(buf["hit"][:count], buf["threshold"][:count]))))

    def advance(schedule, x0: np.ndarray, quantizer, policy, cutoff: float, horizon: float,
                max_events: int) -> tuple:
        n, table = c_schedule(schedule)
        rows: list[np.ndarray] = []
        kinds: list[np.ndarray] = []
        ints: list[np.ndarray] = []
        budget = min(max_events, 2 ** 62)  # C takes an int64

        def call(w: _Work, q: int, sequential: bool) -> int:
            nonlocal budget
            s = w.struct
            status = c_advance(table, w.address, q, sequential, cutoff, horizon, budget)
            if s.n_rows:
                rows.append(w.rows[:s.n_rows * (4 * n + 1)].copy())
                kinds.append(w.kinds[:s.n_rows].copy())
                ints.append(w.ints[:s.n_ints].copy())
                budget -= s.n_rows
            return status

        status, w = run(n, x0, (), quantizer, policy, cutoff, call)
        s = w.struct
        return (np.concatenate(rows).reshape(-1, 4 * n + 1), np.concatenate(kinds),
                np.concatenate(ints), "limit" if status else EVENT_KINDS[s.kind], s.t,
                w.x[:n].copy())

    def regularized(schedule, x0, xp: list[float], fp: list[float], h: float, stride: float,
                    samples: int, blow_up: float) -> tuple[np.ndarray, int]:
        n, table = c_schedule(schedule)
        if len(x0) != n or len(fp) != len(xp) or len(xp) < 2 or samples < 0:  # C checks none
            raise ValueError("the states, knots and samples of an oracle run do not fit together")
        states, knots, work = np.empty((samples + 1, n)), np.array([xp, fp], float), np.empty(6 * n)
        states[0] = x0
        unstable = c_regularized(table, states.ctypes.data, knots.ctypes.data,
                                 knots[1].ctypes.data, len(xp), h, stride, samples, blow_up,
                                 work.ctypes.data)
        return (states[:unstable] if unstable else states), unstable

    return resolve, advance, regularized


#: The dtypes of ``write``'s arrays ``t, kind, x, src, z, alpha``.
_WRITE_DTYPES = (np.float64, np.int64, np.float64, np.int64, np.float64, np.float64)


def _bind_write(lib: ctypes.PyDLL):
    """Wrap ``qcl_write`` as ``write(json, indent, t, kind, x, src, z,
    alpha)``.

    ``lib`` is a ``PyDLL`` handle, so the call holds the GIL, which CPython's
    formatter needs, and raises the Python error that the formatter sets
    when it runs out of memory.  ``kind`` indexes ``KIND_NAMES``.  The arrays
    go to C by address, their types and shapes checked here; the C code
    checks the indices in ``kind`` and ``src``.
    """
    from .dynamics import KIND_NAMES
    from ._json import _quote

    c_write = lib.qcl_write
    c_write.restype = ctypes.c_int64
    c_write.argtypes = ([ctypes.c_int64] * 5 + [ctypes.c_void_p] * 6
                        + [ctypes.c_int64, ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p,
                           ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p])
    formatter = [ctypes.cast(f, ctypes.c_void_p).value for f in (
        ctypes.pythonapi.PyOS_double_to_string, ctypes.pythonapi.PyMem_Free)]
    tables = []
    for names in (KIND_NAMES, [_quote(name) for name in KIND_NAMES]):
        name_at = np.cumsum([0] + [len(name) for name in names], dtype=np.int64)
        tables.append((len(names), "".join(names).encode("ascii"), name_at.ctypes.data, name_at))

    def write(json: bool, indent: int, t: np.ndarray, kind: np.ndarray, x: np.ndarray,
              src: np.ndarray, z: np.ndarray, alpha: np.ndarray) -> str | None:
        rows, n = len(t), z.shape[1]
        arrays = (t, kind, x, src, z, alpha)
        if (x.shape != (rows, n) or alpha.shape != z.shape or kind.shape != (rows,)
                or src.shape != (rows,) or indent < 0
                or not all(a.flags.c_contiguous and a.dtype == dtype
                           for a, dtype in zip(arrays, _WRITE_DTYPES))):
            raise ValueError("the columns of a trajectory export do not fit together")
        args = [bool(json), indent, rows, n, len(z), *[a.ctypes.data for a in arrays],
                *tables[bool(json)][:3]]
        cap = c_write(*args, None, 0, *formatter)
        # Not zero-filled: the C code writes every byte before the size it
        # returns, and only those are read.
        out = np.empty(cap, np.uint8)
        size = c_write(*args, out.ctypes.data, cap, *formatter)
        if size == -2:
            return None
        if size == -4:
            raise ValueError("an export row names no kind or event")
        if size < 0:  # -1; the capacity comes from the C code, so never -3
            raise MemoryError("no memory for a trajectory export")
        return str(memoryview(out)[:size], "ascii")

    return write
