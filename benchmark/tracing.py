"""Spans around the calls into each qcl layer, recorded from outside qcl.

``Tracer.install`` replaces the public functions and methods named in
``targets`` with wrappers that record one span per call into a layer: its
layer, the function name, start and end in ns of ``clock``, and the span
that was open when it started.  A call made from inside the same layer is
passed through without a span, so a layer's spans are exactly the calls into
it from other layers or from the benchmark.  ``Tracer.remove`` restores the
originals.  Spans are held in flat arrays until ``write`` saves them.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

LAYERS = ("scenarios", "quantizers", "graphs", "resolve", "simulate", "oracle",
          "analysis", "export")

_QUANTIZER_METHODS = ("is_threshold", "surface_bounds", "quantize", "krasovskii_set",
                      "next_threshold", "level_span")


def targets(qcl) -> list[tuple[str, object, str]]:
    """``(layer, owner, attribute)`` of every traced function or method."""
    q, g, d, a = qcl.quantizers, qcl.graphs, qcl.dynamics, qcl.analysis
    out = [("scenarios", qcl.scenarios, "scenario_from_json"),
           ("quantizers", q, "quantizer_from_json")]
    out += [("quantizers", cls, m) for cls in (q.UniformQuantizer, q.GeneralQuantizer)
            for m in _QUANTIZER_METHODS]
    out += [("graphs", g.GraphSchedule, m)
            for m in ("graph_at", "next_switch_after", "graphs_active_from")]
    out += [("graphs", g.WeightedDigraph, "out_weight"), ("graphs", g, "laplacian"),
            ("resolve", d, "resolve_sliding"),
            ("simulate", d, "simulate"),
            ("oracle", d, "simulate_regularized"),
            ("analysis", a, "convergence_report"),
            ("export", d.Trajectory, "to_csv"), ("export", d.Trajectory, "to_json_obj"),
            ("export", qcl._json, "dumps")]
    return out


class Tracer:
    def __init__(self, clock: Callable[[], int] = perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.layer = array("b")
        self.name = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []
        #: Set by the caller: the size of the surface set of a state vector.
        self.surface_of: Callable[[np.ndarray], int] = lambda x: 0
        #: ``surface_of`` of the state passed to each ``resolve_sliding`` call.
        self.surfaces: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        layer_id = LAYERS.index(layer)
        name_id = len(self.names)
        self.names.append(name)
        spans_layer, spans_name = self.layer, self.name
        parent, start, end, open_ = self.parent, self.start, self.end, self._open
        clock = self.clock
        record_state = layer == "resolve"

        def traced(*args, **kwargs):
            top = open_[-1]
            if top >= 0 and spans_layer[top] == layer_id:
                return fn(*args, **kwargs)
            if record_state:
                self.surfaces.append(self.surface_of(args[0]))
            idx = len(start)
            spans_layer.append(layer_id)
            spans_name.append(name_id)
            parent.append(top)
            end.append(0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, qcl) -> None:
        """Wrap every target, including re-exports of a module function
        under the same object in other qcl modules."""
        modules = [m for name, m in sorted(vars(qcl).items())
                   if type(m) is type(qcl)] + [qcl]
        for layer, owner, attr in targets(qcl):
            fn = vars(owner)[attr]
            wrapped = self._wrap(layer, f"{getattr(owner, '__name__', owner)}.{attr}", fn)
            owners = [owner]
            if isinstance(owner, type(qcl)):
                owners += [m for m in modules if m is not owner and vars(m).get(attr) is fn]
            for o in owners:
                self._patches.append((o, attr, fn))
                setattr(o, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------------

    def per_layer(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time (seconds) of each layer."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.int8).astype(np.int64)
        dur = (end - start).astype(float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for k, name in enumerate(LAYERS):
            mask = layer == k
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()) * 1e-9,
                "self_s": float(self_ns[mask].sum()) * 1e-9,
            }
        return out

    def write(self, path: Path) -> None:
        """Save the spans as CSV: id, parent, layer, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("id,parent,layer,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{LAYERS[self.layer[i]]},"
                        f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]}\n")
