from __future__ import annotations

from contextlib import contextmanager
from functools import cache

import numpy as np
import pytest

from qcl import (
    Sliding,
    WeightedDigraph,
    example1_line,
    example2_sliding,
    simulate,
    simulate_regularized,
)
import reference
from qcl import KernelError, _ckernel, quantizers
from qcl.cli import _bfs_reachability as bfs_reachability

#: The four references that the exact run is checked against the
#: regularized oracle on.
ORACLE_REFERENCES = {
    "line3": example1_line(3, 1.0, policy=Sliding()),
    "line4": example1_line(4, 1.0, policy=Sliding()),
    "chain3": example2_sliding(3, 1.0, 1.0, policy=Sliding()),
    "chain4": example2_sliding(4, 1.0, 1.0, policy=Sliding()),
}


@cache
def reference_oracle_run(name: str):
    """``(trajectory, regularized run)`` of a reference at eps = 1e-3, h = 1e-5.

    The run samples every 0.01 up to 1.2 times the final event time plus
    0.2.  Computed once per test session; callers must not modify it.
    """
    config = ORACLE_REFERENCES[name]
    traj = simulate(config)
    run = simulate_regularized(config, eps=1e-3, h=1e-5, stride=0.01,
                               t_end=traj.final_t * 1.2 + 0.2)
    return traj, run


def force_list_path(mp) -> None:
    """Make qcl run the reference list code (``tests/reference.py``) in place
    of its compiled kernels: every compiled path goes through the one loader
    ``quantizers._load_kernel``."""
    mp.setattr(quantizers, "_load_kernel", lambda: reference.KERNELS)


#: The compiled kernels, and the reference list code in their place.
KERNEL_PATHS = ["compiled", "lists"]


@contextmanager
def kernel_path(path: str):
    """Run the compiled kernels, or the reference list code in their place."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "lists":
            force_list_path(mp)
        yield


#: The flags of most self-check mutants: -O0 compiles ``_kernels.c`` in
#: about a third of the time of the shipped -O2, and the unmutated source
#: built with them passes the self-check
#: (``test_kernels.test_mutant_flags_pass_the_self_check``).
MUTANT_FLAGS = ("-O0", *_ckernel.FLAGS[1:])
#: The shipped flags, which one mutant of each mutant test keeps.
SHIPPED_FLAGS = _ckernel.FLAGS


def build_kernel_variant(mp, tmp_path, old: str, new: str,
                         flags: tuple[str, ...] = MUTANT_FLAGS) -> None:
    """Make the next kernel load build ``_kernels.c`` with its one occurrence
    of ``old`` replaced by ``new``, with ``flags``, into an empty cache under
    ``tmp_path``."""
    source = _ckernel.SOURCE.read_text()
    assert source.count(old) == 1
    variant = tmp_path / "_kernels.c"
    variant.write_text(source.replace(old, new))
    mp.setattr(_ckernel, "SOURCE", variant)
    mp.setattr(_ckernel, "CACHE", tmp_path / "cache")
    mp.setattr(_ckernel, "FLAGS", flags)
    mp.setattr(quantizers, "_load_kernel", quantizers._load_once(quantizers._load_kernel.__wrapped__))


def assert_self_check_rejects(tmp_path, call=None) -> None:
    """``call()`` (by default the kernel load) raises the self-check's
    KernelError, and the build under ``tmp_path`` is not cached on disk;
    the loader raises that error again without building again."""
    with pytest.raises(KernelError, match="failed its self-check"):
        (call or quantizers._load_kernel)()
    assert list((tmp_path / "cache").iterdir()) == []


def oracle_globally_reachable(g: WeightedDigraph) -> tuple[bool, set[int]]:
    """Direct-definition check: some node reachable from every other node."""
    reach = bfs_reachability(g)
    witnesses = {
        v for v in range(g.n) if all(reach[u][v] for u in range(g.n))
    }
    return bool(witnesses), witnesses


def random_digraph(rng, n: int, density: float = 0.35) -> WeightedDigraph:
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < density:
                w[i, j] = 1.0
    return WeightedDigraph(w)
