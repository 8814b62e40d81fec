"""Build, cache and load the compiled kernels ``_kernels.c``.

The first ``load`` compiles the source with the system C compiler into the
package's ``__pycache__``, under a name keyed by the source, the flags and the
compiler, and installs the build only after ``check`` accepts it.  Later
loads reuse the cached library and start no compiler.  ``load`` returns None
when there is no compiler, the build or the check fails, or the cache cannot
be written; the caller then keeps its own kernels.
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.ctypeslib import ndpointer

from .quantizers import SetScan

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
    """The compiled entry points, each in the interface of its list code."""

    #: ``rk4_chunk(x, rows, xp, fp, h, steps)``, as ``dynamics._rk4_chunk``.
    rk4_chunk: Callable[[list, list, list, list, float, int], list]
    #: ``hold_solve(g, active, boxes, z)``: the coefficients of the hold
    #: system of ``active`` in its order, or None when it is singular.
    hold_solve: Callable[[object, list, dict, np.ndarray], list | None]
    #: ``pgs(g, agents, boxes, z, cutoff)``, as ``dynamics._pgs_lists``.
    pgs: Callable[[object, list, dict, np.ndarray, float], tuple]
    #: ``velocities(g, z, agents)``, as ``dynamics._velocities``.
    velocities: Callable[[object, np.ndarray, object], list]
    #: ``uniform_sets(delta, x, selection, z)``, as
    #: ``quantizers._krasovskii_scan_lists``, or None when it declines.
    uniform_sets: Callable[..., SetScan | None]
    #: ``uniform_hits(delta, x, velocity)``, as
    #: ``quantizers._threshold_hits_lists``, or None when it declines.
    uniform_hits: Callable[..., tuple[float, list[tuple[int, float]]] | None]
    #: ``resolve(g, x, delta, sequential, last_stopped, cutoff)``: the fields
    #: of ``dynamics.resolve_sliding``'s ``Resolution`` under the Sliding
    #: (SequentialSlow when ``sequential``) policy, then the
    #: ``threshold_hits`` of its velocity; or None when it declines.
    resolve: Callable[..., tuple | None]
    #: ``advance(g, x, delta, sequential, last_stopped, cutoff, t, ts,
    #: horizon, budget)``: ``(values, alphas, ints, t, x, hits, resolution)``,
    #: the events that ``qcl_advance`` recorded, as ``dynamics._events``
    #: reads them, the time, state and hit agents where it stopped, and
    #: ``resolve`` of that state.
    advance: Callable[..., tuple]


def load(check: Callable[[Kernels], bool]) -> Kernels | None:
    """The compiled kernels, built and checked by ``check`` on first use."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    cc = os.path.realpath(cc)
    tmp = None
    try:
        source = SOURCE.read_bytes()
        key = sha256(b"\0".join([source, *map(str.encode, FLAGS), cc.encode()]))
        target = CACHE / f"_kernels-{key.hexdigest()[:16]}.so"
        if target.exists():
            return _bind(ctypes.CDLL(str(target)))
        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=CACHE)
        os.close(fd)
        subprocess.run([cc, *FLAGS, "-o", tmp, "-x", "c", "-"], input=source,
                       capture_output=True, check=True)
        kernels = _bind(ctypes.CDLL(tmp))
        if not check(kernels):
            return None
        os.replace(tmp, target)
        return kernels
    except (OSError, subprocess.CalledProcessError):
        return None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> Kernels:
    c_graph = _graph_table()
    work = _Work(1, 1)

    def reserve(n: int, m: int = 0) -> _Work:
        """The workspace, grown to at least n agents and m unknowns."""
        nonlocal work
        if n > work.n or m > work.m:
            work = _Work(max(n, work.n), max(m, work.m))
        return work

    return Kernels(_bind_rk4_chunk(lib), _bind_hold_solve(lib, c_graph, reserve),
                   _bind_pgs(lib, c_graph, reserve), _bind_velocities(lib, c_graph, reserve),
                   *_bind_scans(lib, reserve),
                   *_bind_advance(lib, c_graph, reserve))


def _bind_rk4_chunk(lib: ctypes.CDLL):
    """Wrap ``qcl_rk4_chunk`` in the list interface of ``dynamics._rk4_chunk``."""
    floats = ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = ndpointer(np.int64, flags="C_CONTIGUOUS")
    c_chunk = lib.qcl_rk4_chunk
    c_chunk.restype = None
    c_chunk.argtypes = [floats, ctypes.c_int64, ints, ints, floats, floats, floats,
                        ctypes.c_int64, ctypes.c_double, ctypes.c_int64, floats]

    def chunk(x: list[float], rows: list[list[tuple[int, float]]], xp: list[float],
              fp: list[float], h: float, steps: int) -> list[float]:
        n = len(x)
        start = [0]
        col: list[int] = []
        val: list[float] = []
        for row in rows:
            for j, l in row:
                col.append(j)
                val.append(l)
            start.append(len(col))
        # The C kernel indexes without bounds checks.
        if (len(rows) != n or len(fp) != len(xp) or len(xp) < 2
                or not all(0 <= j < n for j in col)):
            raise ValueError("the rows, knots and states of an RK4 chunk do not fit together")
        state = np.array(x, dtype=np.float64)
        c_chunk(state, n, np.array(start, dtype=np.int64), np.array(col, dtype=np.int64),
                np.array(val, dtype=np.float64), np.array(xp, dtype=np.float64),
                np.array(fp, dtype=np.float64), len(xp), h, steps, np.empty(6 * n))
        return state.tolist()

    return chunk


class _Graph(ctypes.Structure):
    """``struct qcl_graph``: a graph's CSR arrays."""

    _fields_ = [("n", ctypes.c_int64), ("ends", ctypes.c_void_p), ("cols", ctypes.c_void_p),
                ("vals", ctypes.c_void_p), ("totals", ctypes.c_void_p)]


#: The buffers of ``struct qcl_work``: name, C type and length in agents n,
#: unknowns m or the chunk of ``qcl_advance``.
_BUFFERS = (("x", ctypes.c_double, "n"), ("y", ctypes.c_double, "n"),
            ("z", ctypes.c_double, "n"), ("agents", ctypes.c_int64, "n"),
            ("stopped", ctypes.c_int64, "n"), ("surface", ctypes.c_int64, "n"),
            ("bounds", ctypes.c_double, "2n"), ("outside", ctypes.c_int64, "n"),
            ("hit", ctypes.c_int64, "n"), ("threshold", ctypes.c_double, "n"),
            ("alpha", ctypes.c_double, "n"), ("sign", ctypes.c_int64, "n"),
            ("mark", ctypes.c_int64, "n"), ("active", ctypes.c_int64, "n"),
            ("box", ctypes.c_double, "2n"), ("aug", ctypes.c_double, "m(m+1)"),
            ("out", ctypes.c_double, "m"), ("slot", ctypes.c_int64, "n"),
            ("colmap", ctypes.c_int64, "n"), ("rows", ctypes.c_double, "rows"),
            ("ints", ctypes.c_int64, "ints"))
#: The least length of the chunk of ``qcl_advance``, in doubles of its rows
#: and in integers of its records (32 KiB each); it stops when it is full.
CHUNK = 2 ** 12


class _Struct(ctypes.Structure):
    """``struct qcl_work``."""

    _fields_ = ([(name, ctypes.c_void_p) for name, _, _ in _BUFFERS]
                + [(name, ctypes.c_int64)
                   for name in ("m", "rows_cap", "ints_cap", "n_surface", "n_outside", "count")]
                + [(name, ctypes.c_double) for name in ("dt", "t")]
                + [(name, ctypes.c_int64) for name in ("n_stopped", "n_rows", "n_ints")])


class _Work:
    """The buffers of every entry point but the RK4 chunk, for up to ``n``
    agents and hold systems of up to ``m`` unknowns, reused from call to call
    and replaced by a larger one only when a call needs more.

    ``buf`` maps each buffer of ``_BUFFERS`` to its ctypes array, ``x``,
    ``y``, ``z`` and ``rows`` are numpy views of the same memory, made once
    (on a 2-core Xeon, copying 6 states into one takes about 0.5 us, asking
    numpy for an array's address 0.9 us), and ``struct`` points the C code
    at all of them.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        sizes = {"n": n, "2n": 2 * n, "m": m, "m(m+1)": m * (m + 1),
                 "rows": max(CHUNK, 4 * n + 1), "ints": max(CHUNK, 3 * n + 2)}
        self.buf = {name: (ctype * sizes[size])() for name, ctype, size in _BUFFERS}
        self.buf["colmap"][:] = [-1] * n
        self.x, self.y, self.z, self.rows = (np.frombuffer(self.buf[name])
                                             for name in ("x", "y", "z", "rows"))
        self.struct = _Struct(*map(ctypes.addressof, self.buf.values()), m,
                              sizes["rows"], sizes["ints"])
        self.address = ctypes.addressof(self.struct)


def _graph_table():
    """``c_graph(g)``: ``(n, address of g's struct qcl_graph, what keeps that
    alive)``, each graph's CSR arrays copied for C once and shared by every
    entry point that reads them."""
    graphs: dict[int, tuple] = {}

    def c_graph(g) -> tuple[int, int, tuple]:
        entry = graphs.get(id(g))
        if entry is None:
            _, cols, values, ends = g.csr
            cols = np.ascontiguousarray(cols, dtype=np.int64)
            values = np.ascontiguousarray(values, dtype=np.float64)
            arrays = ((ctypes.c_int64 * len(ends))(*ends),
                      (ctypes.c_int64 * len(cols)).from_buffer_copy(cols),
                      (ctypes.c_double * len(values)).from_buffer_copy(values),
                      (ctypes.c_double * g.n)(*[row.total for row in g.rows]))
            struct = _Graph(g.n, *map(ctypes.addressof, arrays))
            entry = graphs[id(g)] = (g.n, ctypes.addressof(struct), (struct, arrays))
            # The entry lives as long as the graph, and its id with it.
            weakref.finalize(g, graphs.pop, id(g), None)
        return entry

    return c_graph


def _bind_hold_solve(lib: ctypes.CDLL, c_graph, reserve):
    """Wrap ``qcl_hold_solve`` for ``dynamics._hold_solve``.

    A call costs O(m) Python work for m unknowns: each graph's CSR arrays are
    copied for C once, and the workspace is reused.
    """
    c_solve = lib.qcl_hold_solve
    c_solve.restype = ctypes.c_int
    c_solve.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]

    def hold_solve(g, active: list[int], boxes: dict[int, tuple[float, float]],
                   z: np.ndarray) -> list[float] | None:
        n, graph, _ = c_graph(g)
        m = len(active)
        w = reserve(max(n, m), m)
        w.buf["active"][:m] = active
        w.buf["box"][:2 * m] = [v for i in active for v in boxes[i]]
        # The C code checks the agents; z must have one float64 per agent, and
        # from_buffer takes only a writable, contiguous array.
        if len(z) != n or z.dtype != np.float64:
            raise ValueError("the states of a hold system do not fit the graph")
        status = c_solve(graph, m, ctypes.addressof(ctypes.c_double.from_buffer(z)), w.address)
        if status == 2:
            raise ValueError("an agent of a hold system lies outside the graph")
        return None if status else w.buf["out"][:m]

    return hold_solve


def _bind_pgs(lib: ctypes.CDLL, c_graph, reserve):
    """Wrap ``qcl_pgs`` for ``dynamics._pgs``: ``(held, departing, alphas)``
    with ``z`` updated in place, or the ``NoSlidingSelection`` of the list
    code, with ``z`` then left as it was."""
    from .dynamics import NoSlidingSelection

    c_pgs = lib.qcl_pgs
    c_pgs.restype = ctypes.c_int
    c_pgs.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                      ctypes.c_double]

    def pgs(g, agents: list[int], boxes: dict[int, tuple[float, float]], z: np.ndarray,
            cutoff: float) -> tuple[set[int], dict[int, int], dict[int, float]]:
        n, graph, _ = c_graph(g)
        m, k = len(agents), len(boxes)
        if z.shape != (n,):
            raise ValueError("the states of a projected solve do not fit the graph")
        unknowns = 0
        while True:
            w = reserve(max(n, m, k), unknowns)
            w.buf["active"][:m] = agents
            w.buf["slot"][:m] = range(m)
            w.buf["box"][:2 * m] = [v for i in agents for v in boxes[i]]
            w.buf["bounds"][:2 * k] = [v for box in boxes.values() for v in box]
            w.z[:n] = z
            status = c_pgs(graph, w.address, m, k, cutoff)
            if status != 3:
                break
            unknowns = w.struct.count
        if status == 1:
            raise NoSlidingSelection("projected Gauss-Seidel did not converge")
        if status == 2:
            raise NoSlidingSelection(
                f"inconsistent projected solution for agent {w.struct.count}")
        if status == 4:
            raise ValueError("an agent of a projected solve lies outside the graph")
        z[:] = w.z[:n]
        signs = w.buf["sign"][:m]
        return ({i for i, sign in zip(agents, signs) if not sign},
                {i: sign for i, sign in zip(agents, signs) if sign},
                dict(zip(agents, w.buf["alpha"][:m])))

    return pgs


def _bind_velocities(lib: ctypes.CDLL, c_graph, reserve):
    """Wrap ``qcl_velocities`` for ``dynamics._velocities``.

    A call copies the agents and the selection into the workspace and
    allocates no numpy array.
    """
    c_velocities = lib.qcl_velocities
    c_velocities.restype = ctypes.c_int
    c_velocities.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]

    def velocities(g, z: np.ndarray, agents) -> list[float]:
        n, graph, _ = c_graph(g)
        if not isinstance(agents, (list, range)):
            agents = list(agents)
        k = len(agents)
        w = reserve(max(n, k))
        if z.shape != (n,):
            raise ValueError("the selection does not fit the graph")
        w.buf["agents"][:k] = agents
        w.z[:n] = z
        if c_velocities(graph, w.address, k):
            raise ValueError("an agent of a velocity lies outside the graph")
        return w.buf["y"][:k]

    return velocities


def _bind_scans(lib: ctypes.CDLL, reserve):
    """Wrap ``qcl_uniform_sets`` and ``qcl_uniform_hits``.

    Each call copies its inputs into the workspace and allocates no numpy
    array.  A wrapper returns None, so that the caller runs its list code,
    when the C code reports a state off the threshold lattice or the inputs
    are not n numbers each.
    """
    c_sets, c_hits = lib.qcl_uniform_sets, lib.qcl_uniform_hits
    c_sets.restype = c_hits.restype = ctypes.c_int
    c_sets.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int64]
    c_hits.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]

    def load(x, y) -> _Work | None:
        """The workspace holding x, and y unless it is None.

        An array is copied through numpy, anything else through ctypes,
        which takes only a sequence of exactly n numbers.
        """
        try:
            n = len(x)
            w = reserve(n)
            for values, name in ((x, "x"), (y, "y")):
                if isinstance(values, np.ndarray):
                    if values.shape != (n,):
                        return None
                    getattr(w, name)[:n] = values
                elif values is not None:
                    w.buf[name][:n] = values
        except (TypeError, ValueError):
            return None
        return w

    def uniform_sets(delta: float, x, selection=None,
                     z: np.ndarray | None = None) -> SetScan | None:
        w = load(x, selection)
        if w is None or c_sets(w.address, len(x), delta, selection is not None):
            return None
        n = len(x)
        if z is not None:
            z[:] = w.z[:n]
        s, bounds = w.struct, w.buf["bounds"]
        k = s.n_surface
        boxes = dict(zip(w.buf["surface"][:k], zip(bounds[0:2 * k:2], bounds[1:2 * k:2]))) \
            if k else {}
        return SetScan(boxes, w.buf["outside"][:s.n_outside])

    def uniform_hits(delta: float, x, velocity) -> tuple[float, list[tuple[int, float]]] | None:
        w = load(x, velocity)
        if w is None or c_hits(w.address, len(x), delta):
            return None
        k = w.struct.count
        return w.struct.dt, list(zip(w.buf["hit"][:k], w.buf["threshold"][:k]))

    return uniform_sets, uniform_hits


def _bind_advance(lib: ctypes.CDLL, c_graph, reserve):
    """Wrap ``qcl_advance`` as ``resolve``, for ``dynamics.resolve_sliding``,
    and ``advance``, for ``dynamics.simulate``.

    ``x`` must be a float64 array with one state per agent.  The resolution
    is None, so that the caller runs its Python code, when the C code
    declines, a last-stopped agent is not an integer of the graph or the
    cutoff is not a number.  The hold buffers grow when the C code asks for
    more, and the loop then goes on in the larger workspace.
    """
    c_advance = lib.qcl_advance
    c_advance.restype = ctypes.c_int
    c_advance.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_int64,
                          ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_int64]

    def advance(g, x: np.ndarray, delta: float, sequential: bool, last_stopped, cutoff,
                t: float = 0.0, ts: float = math.inf, horizon: float = math.inf,
                budget: int = 0) -> tuple:
        n, graph, _ = c_graph(g)
        stopped = list(last_stopped) if sequential else []
        values: list[float] = []
        alphas: list[float | None] = []
        ints: list[int] = []
        try:
            if stopped and not 0 <= min(stopped) <= max(stopped) < n:
                return values, alphas, ints, t, x, None, None
            w = reserve(n)
            w.x[:n] = x
            w.buf["stopped"][:len(stopped)] = stopped
            s = w.struct
            s.t, s.n_stopped = t, len(stopped)
            budget = min(budget, CHUNK)  # a chunk holds fewer events; C takes an int64
            while True:
                status = c_advance(graph, w.address, delta, sequential, cutoff, ts, horizon,
                                   budget)
                if s.n_rows:
                    rows = w.rows[:s.n_rows * (4 * n + 1)].reshape(s.n_rows, -1)
                    alpha = rows[:, 3 * n + 1:]
                    values += rows[:, :3 * n + 1].ravel().tolist()
                    alphas += np.where(np.isnan(alpha), None, alpha).ravel().tolist()
                    ints += w.buf["ints"][:s.n_ints]
                    budget -= s.n_rows
                if status != 3:
                    break
                grown = reserve(n, s.count)
                grown.x[:n] = w.x[:n]
                grown.buf["stopped"][:s.n_stopped] = w.buf["stopped"][:s.n_stopped]
                grown.struct.t, grown.struct.n_stopped = s.t, s.n_stopped
                w, s = grown, grown.struct
        except (TypeError, ctypes.ArgumentError):
            return values, alphas, ints, t, x, None, None
        hits = None
        if ints:
            t, x, hits = s.t, w.x[:n].copy(), tuple(w.buf["stopped"][:s.n_stopped])
        if status:
            return values, alphas, ints, t, x, hits, None
        buf = w.buf
        k, count = s.n_surface, s.count
        surface, signs = buf["surface"][:k], buf["sign"][:k]
        z, velocity = w.z[:n].copy(), w.y[:n].copy()
        z.flags.writeable = velocity.flags.writeable = False
        return values, alphas, ints, t, x, hits, (
            z, velocity, tuple(zip(surface, buf["alpha"][:k])),
            frozenset([i for i, sign in zip(surface, signs) if not sign]),
            tuple([(i, sign) for i, sign in zip(surface, signs) if sign]),
            (s.dt, list(zip(buf["hit"][:count], buf["threshold"][:count]))))

    def resolve(g, x: np.ndarray, delta: float, sequential: bool, last_stopped,
                cutoff) -> tuple | None:
        return advance(g, x, delta, sequential, last_stopped, cutoff)[-1]

    return resolve, advance
