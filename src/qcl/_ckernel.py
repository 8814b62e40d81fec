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
    #: ``velocities(g, z, agents)``, as ``dynamics._velocities``.
    velocities: Callable[[object, np.ndarray, object], list]
    #: ``uniform_sets(delta, x, selection, z)``, as
    #: ``quantizers._krasovskii_scan_lists``, or None when it declines.
    uniform_sets: Callable[..., SetScan | None]
    #: ``uniform_hits(delta, x, velocity)``, as
    #: ``quantizers._threshold_hits_lists``, or None when it declines.
    uniform_hits: Callable[..., tuple[float, list[tuple[int, float]]] | None]


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
    return Kernels(_bind_rk4_chunk(lib), _bind_hold_solve(lib, c_graph),
                   _bind_velocities(lib, c_graph), *_bind_scans(lib))


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


class _HoldWork(ctypes.Structure):
    """``struct qcl_hold_work``: reused buffers for hold systems of up to
    ``m`` unknowns among up to ``n`` agents."""

    _fields_ = [("active", ctypes.c_void_p), ("box", ctypes.c_void_p), ("aug", ctypes.c_void_p),
                ("out", ctypes.c_void_p), ("colmap", ctypes.c_void_p)]

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.active_buffer = (ctypes.c_int64 * m)()
        self.box_buffer = (ctypes.c_double * (2 * m))()
        self.out_buffer = (ctypes.c_double * m)()
        self.buffers = (self.active_buffer, self.box_buffer, (ctypes.c_double * (m * (m + 1)))(),
                        self.out_buffer, (ctypes.c_int64 * n)(*[-1] * n))
        super().__init__(*map(ctypes.addressof, self.buffers))
        self.address = ctypes.addressof(self)


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


def _bind_hold_solve(lib: ctypes.CDLL, c_graph):
    """Wrap ``qcl_hold_solve`` for ``dynamics._hold_solve``.

    A call costs O(m) Python work for m unknowns: each graph's CSR arrays are
    copied for C once, and the work buffers are reused, grown only when a
    larger system or graph arrives.
    """
    c_solve = lib.qcl_hold_solve
    c_solve.restype = ctypes.c_int
    c_solve.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    work = _HoldWork(1, 1)

    def hold_solve(g, active: list[int], boxes: dict[int, tuple[float, float]],
                   z: np.ndarray) -> list[float] | None:
        nonlocal work
        n, graph, _ = c_graph(g)
        m = len(active)
        if m > work.m or n > work.n:
            work = _HoldWork(max(m, work.m), max(n, work.n))
        work.active_buffer[:m] = active
        work.box_buffer[:2 * m] = [v for i in active for v in boxes[i]]
        # The C code checks the agents; z must have one float64 per agent, and
        # from_buffer takes only a writable, contiguous array.
        if len(z) != n or z.dtype != np.float64:
            raise ValueError("the states of a hold system do not fit the graph")
        status = c_solve(graph, m, ctypes.addressof(ctypes.c_double.from_buffer(z)),
                         work.address)
        if status == 2:
            raise ValueError("an agent of a hold system lies outside the graph")
        return None if status else work.out_buffer[:m]

    return hold_solve


class _VelocityWork:
    """Reused buffers for the velocities of up to ``k`` agents among up to
    ``n``: the agents, their velocities and a numpy view of the selection."""

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.agents, self.out = (ctypes.c_int64 * k)(), (ctypes.c_double * k)()
        self.z = (ctypes.c_double * n)()
        self.z_view = np.frombuffer(self.z)
        self.addresses = tuple(map(ctypes.addressof, (self.agents, self.z, self.out)))


def _bind_velocities(lib: ctypes.CDLL, c_graph):
    """Wrap ``qcl_velocities`` for ``dynamics._velocities``.

    A call copies the agents and the selection into buffers reused from call
    to call, grown only for more agents or a larger graph, and allocates no
    numpy array.
    """
    c_velocities = lib.qcl_velocities
    c_velocities.restype = ctypes.c_int
    c_velocities.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                             ctypes.c_void_p, ctypes.c_void_p]
    work = _VelocityWork(1, 1)

    def velocities(g, z: np.ndarray, agents) -> list[float]:
        nonlocal work
        n, graph, _ = c_graph(g)
        if not isinstance(agents, (list, range)):
            agents = list(agents)
        k = len(agents)
        if k > work.k or n > work.n:
            work = _VelocityWork(max(k, work.k), max(n, work.n))
        if z.shape != (n,):
            raise ValueError("the selection does not fit the graph")
        work.agents[:k] = agents
        work.z_view[:n] = z
        if c_velocities(graph, k, *work.addresses):
            raise ValueError("an agent of a velocity lies outside the graph")
        return work.out[:k]

    return velocities


class _Sets(ctypes.Structure):
    """``struct qcl_sets``."""

    _fields_ = [("x", ctypes.c_void_p), ("sel", ctypes.c_void_p), ("z", ctypes.c_void_p),
                ("surface", ctypes.c_void_p), ("box", ctypes.c_void_p),
                ("outside", ctypes.c_void_p), ("n_surface", ctypes.c_int64),
                ("n_outside", ctypes.c_int64), ("low", ctypes.c_double),
                ("high", ctypes.c_double), ("common_low", ctypes.c_double),
                ("common_high", ctypes.c_double)]


class _Hits(ctypes.Structure):
    """``struct qcl_hits``."""

    _fields_ = [("x", ctypes.c_void_p), ("v", ctypes.c_void_p), ("agent", ctypes.c_void_p),
                ("threshold", ctypes.c_void_p), ("count", ctypes.c_int64),
                ("dt", ctypes.c_double)]


class _ScanWork:
    """Reused buffers for scans of up to ``n`` agents, shared by both scans.

    ``y`` holds the selections of a set scan or the velocities of a hit
    scan; ``agents`` and ``values`` the surface agents and their boxes, or
    the tied agents and their thresholds.
    """

    def __init__(self, n: int):
        self.n = n
        self.x, self.y, self.z = ((ctypes.c_double * n)() for _ in range(3))
        self.agents, self.outside = (ctypes.c_int64 * n)(), (ctypes.c_int64 * n)()
        self.values = (ctypes.c_double * (2 * n))()
        # numpy views of the same memory, made once: on a 2-core Xeon,
        # copying 6 states into one takes about 0.5 us, asking numpy for an
        # array's address 0.9 us (ctypes.from_buffer, writable arrays only).
        self.x_view, self.y_view, self.z_view = map(np.frombuffer, (self.x, self.y, self.z))
        self.y_address = ctypes.addressof(self.y)
        self.sets = _Sets(*map(ctypes.addressof, (self.x, self.y, self.z, self.agents,
                                                    self.values, self.outside)))
        self.hits = _Hits(*map(ctypes.addressof, (self.x, self.y, self.agents, self.values)))
        self.sets_address = ctypes.addressof(self.sets)
        self.hits_address = ctypes.addressof(self.hits)


def _bind_scans(lib: ctypes.CDLL):
    """Wrap ``qcl_uniform_sets`` and ``qcl_uniform_hits``.

    Each call copies its inputs into buffers reused from call to call, grown
    only for a larger state, and allocates no numpy array.  A wrapper returns
    None, so that the caller runs its list code, when the C code reports a
    state off the threshold lattice or the inputs are not n numbers each.
    """
    c_sets, c_hits = lib.qcl_uniform_sets, lib.qcl_uniform_hits
    for fn in (c_sets, c_hits):
        fn.restype = ctypes.c_int
        fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]
    work = _ScanWork(1)

    def load(x, y) -> _ScanWork | None:
        """The work buffers holding x, and y unless it is None.

        An array is copied through numpy, anything else through ctypes,
        which takes only a sequence of exactly n numbers.
        """
        nonlocal work
        try:
            n = len(x)
            if n > work.n:
                work = _ScanWork(n)
            for values, buffer, view in ((x, work.x, work.x_view), (y, work.y, work.y_view)):
                if isinstance(values, np.ndarray):
                    if values.shape != (n,):
                        return None
                    view[:n] = values
                elif values is not None:
                    buffer[:n] = values
        except (TypeError, ValueError):
            return None
        return work

    def uniform_sets(delta: float, x, selection=None,
                     z: np.ndarray | None = None) -> SetScan | None:
        w = load(x, selection)
        if w is None:
            return None
        n = len(x)
        sets = w.sets
        sets.sel = None if selection is None else w.y_address
        if c_sets(w.sets_address, n, delta):
            return None
        if z is not None:
            z[:] = w.z_view[:n]
        k = sets.n_surface
        boxes = dict(zip(w.agents[:k], zip(w.values[0:2 * k:2], w.values[1:2 * k:2]))) if k else {}
        return SetScan(boxes, sets.low, sets.high, sets.common_low, sets.common_high,
                       w.outside[:sets.n_outside])

    def uniform_hits(delta: float, x, velocity) -> tuple[float, list[tuple[int, float]]] | None:
        w = load(x, velocity)
        if w is None or c_hits(w.hits_address, len(x), delta):
            return None
        hits = w.hits
        k = hits.count
        return hits.dt, list(zip(w.agents[:k], w.values[:k]))

    return uniform_sets, uniform_hits
