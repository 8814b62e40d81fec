"""The public surface: what the package exports and what the benchmark wraps."""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import qcl


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
    assert "cutoff" not in inspect.signature(qcl.simulate).parameters
