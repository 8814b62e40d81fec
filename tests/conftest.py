from __future__ import annotations

from contextlib import contextmanager

import pytest

import reference
from qcl import KernelError, _ckernel, quantizers, suites

#: The four references that the exact run is checked against the
#: regularized oracle on.
ORACLE_REFERENCES = suites.oracle_references()


def counted_workspaces(mp) -> list[tuple[int, int]]:
    """Make ``_ckernel._Work`` record the agents and the unknowns that the
    hold buffers hold of each workspace that it builds, in a list that it
    returns."""
    built = []

    class Counted(_ckernel._Work):
        def __init__(self, n, m):
            super().__init__(n, m)
            unknowns = len(self.buf["out"])
            assert len(self.buf["aug"]) == unknowns * (unknowns + 1)
            built.append((n, unknowns))

    mp.setattr(_ckernel, "_Work", Counted)
    return built


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


def assert_self_check_rejects(tmp_path, group: str, call=None) -> None:
    """``call()`` (by default the kernel load) raises the self-check's
    KernelError, which names ``group`` as the first group that differs, and
    the build under ``tmp_path`` is not cached on disk; the loader raises
    that error again without building again."""
    with pytest.raises(KernelError, match=f"failed its self-check: .* in group '{group}'$"):
        (call or quantizers._load_kernel)()
    assert list((tmp_path / "cache").iterdir()) == []
