"""The public surface: what the package exports and what the benchmark wraps."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import qcl
from qcl import _ckernel


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("qcl_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_surface():
    # The tracer replaces each target in its owner's own namespace, so an
    # inherited method would not be found there.
    for layer, owner, attr in _load_tracing().targets(qcl):
        assert attr in vars(owner), (layer, owner, attr)

    for name in qcl.__all__:
        assert getattr(qcl, name) is not None, name

    for name in ("NetworkState", "SurfaceMode", "next_event",
                 "unbounded_interactions_graph"):
        assert name not in qcl.__all__
        assert not hasattr(qcl, name)
    assert not hasattr(qcl.dynamics, "next_event")
    assert not hasattr(qcl.graphs, "unbounded_interactions_graph")
    assert not hasattr(qcl.TrajectoryEvent, "state")
    assert not hasattr(qcl.ScenarioConfig, "with_policy")
    assert list(inspect.signature(qcl.simulate).parameters) == ["config"]  # no stop callback


def test_import_leaves_out_the_cli_and_the_suites():
    # A fresh import compiles each module it loads when no bytecode is
    # cached, so check-only code would slow every process that simulates.
    src = str(Path(qcl.__file__).resolve().parents[1])
    code = "import qcl, sys; print(sorted({'qcl.cli', 'qcl.suites'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_no_blas_in_the_package():
    # BLAS kernels are chosen for the CPU at run time and round differently
    # from one another, so the output bits would depend on the host.
    package = Path(qcl.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.MatMult), (path.name, node.lineno)
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"dot", "inner", "vdot", "matmul", "linalg"}, \
                    (path.name, node.lineno, node.attr)


def test_one_compiled_resolve_and_no_per_primitive_kernels():
    # Every compiled entry point is a second implementation that the
    # self-check must cover.  The resolve and the event loop run the hold
    # solver, row sums, scans and projected Gauss-Seidel as static helpers;
    # exporting them again would fork the resolve.  The oracle's whole run
    # and the export writer are the entry points outside the resolve.
    assert _ckernel.Kernels._fields == ("resolve", "advance", "regularized", "write")
    exported = re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\s*\([^;{]*\)\s*\{",
                          _ckernel.SOURCE.read_text(), re.M)
    assert exported == ["qcl_resolve", "qcl_advance", "qcl_regularized", "qcl_write"]
