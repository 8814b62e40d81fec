"""Build, cache and load the compiled RK4 oracle kernel ``_rk4.c``.

The first ``load`` compiles the source with the system C compiler into the
package's ``__pycache__``, under a name keyed by the source, the flags and the
compiler, and installs the build only after ``check`` accepts it.  Later
loads reuse the cached library and start no compiler.  ``load`` returns None
when there is no compiler, the build or the check fails, or the cache cannot
be written; the caller then keeps its own kernel.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.ctypeslib import ndpointer

# The interpreter's own sha256: hashlib would load OpenSSL, which adds about
# 3.5 MiB of resident memory to a process that never needed it.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = Path(__file__).with_name("_rk4.c")
CACHE = Path(__file__).with_name("__pycache__")
#: No fast-math and no contraction into fused multiply-adds, so every
#: operation rounds as it does in Python.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

Kernel = Callable[[list, list, list, list, float, int], list]


def load(check: Callable[[Kernel], bool]) -> Kernel | None:
    """The compiled kernel, built and checked by ``check`` on first use."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    cc = os.path.realpath(cc)
    tmp = None
    try:
        source = SOURCE.read_bytes()
        key = sha256(b"\0".join([source, *map(str.encode, FLAGS), cc.encode()]))
        target = CACHE / f"_rk4-{key.hexdigest()[:16]}.so"
        if target.exists():
            return _bind(ctypes.CDLL(str(target)))
        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_rk4-", suffix=".tmp", dir=CACHE)
        os.close(fd)
        subprocess.run([cc, *FLAGS, "-o", tmp, "-x", "c", "-"], input=source,
                       capture_output=True, check=True)
        kernel = _bind(ctypes.CDLL(tmp))
        if not check(kernel):
            return None
        os.replace(tmp, target)
        return kernel
    except (OSError, subprocess.CalledProcessError):
        return None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> Kernel:
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
