"""Seeded scenario generators for the benchmark workloads.

Every random input is drawn here from the workload seed with Python's own
``random.Random`` and handed to qcl as scenario JSON, so qcl receives only
the generated inputs.  This module does not import qcl.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Regularized-oracle settings used by every oracle call in the benchmark.
ORACLE_EPS = 1e-3
ORACLE_H = 1e-5
ORACLE_STRIDE = 0.01

#: Seed of the n=160 wide-surface graph.  Its convergence report fails on
#: every run (see README), so its input must not depend on the workload seed.
#: This graph reaches surface sets of 76 agents, past the dense cutoff of 64,
#: so the projected Gauss-Seidel path runs too.
WIDE_FIXED_SEED = 1

#: Corpus files on which qcl is known to be wrong.  ``line_n4`` has the
#: half-level average 1.5, so its states must collocate there; qcl leaves
#: agent 1 at 1.4999999999999993 and its limit level is 1, not q(1.5) = 2.
KNOWN_FAULTS = {"line_n4": ("limit levels", "expected collocation")}


@dataclass(frozen=True)
class Case:
    """One scenario of a workload and what the benchmark knows about it."""

    name: str
    scenario: dict
    #: ``(a, b)`` weights of a stubborn-leader chain, checked against the
    #: closed-form convergence time and coefficients.
    chain: tuple[float, float] | None = None
    #: Run the regularized oracle up to this time and compare it with the
    #: exact run.
    oracle_t_end: float | None = None
    #: The scenario file's ``expected`` block is checked.
    corpus: bool = False
    #: Openings of check messages that a known fault of qcl produces on this
    #: case every time.  Such a finding counts the case's ``simulate`` as a
    #: failed operation instead of failing the run (see README).
    known_fault: tuple[str, ...] = ()

    def text(self) -> str:
        return json.dumps(self.scenario)


def _weight(rng: random.Random, lo: float, hi: float) -> float:
    return min(max(round(rng.uniform(lo, hi), 12), lo), hi)


def _planted_edges(
    rng: random.Random,
    n: int,
    density: float,
    lo: float,
    hi: float,
    symmetric: bool = False,
) -> list[dict]:
    """Random digraph with a planted spanning in-tree toward a random root.

    Every agent reaches the root along the tree, so the root is globally
    reachable.  ``symmetric`` mirrors each weight, which balances the graph.
    """
    w: dict[tuple[int, int], float] = {}
    root = rng.randrange(n)
    order = [i for i in range(n) if i != root]
    rng.shuffle(order)
    connected = [root]
    for v in order:
        parent = connected[rng.randrange(len(connected))]
        w[v, parent] = _weight(rng, lo, hi)
        if symmetric:
            w[parent, v] = w[v, parent]
        connected.append(v)
    for i in range(n):
        for j in range(i + 1 if symmetric else 0, n):
            if i != j and (i, j) not in w and rng.random() < density:
                w[i, j] = _weight(rng, lo, hi)
                if symmetric:
                    w[j, i] = w[i, j]
    return [{"i": i, "j": j, "w": v} for (i, j), v in sorted(w.items())]


def _scenario(
    n: int,
    segments: list[list[dict]],
    quantizer: dict,
    x0: list[float],
    policy: dict,
    a_low: float = 1.0,
    a_high: float = 1.0,
    dwell: float | None = None,
    horizon: float = 1e9,
) -> dict:
    return {
        "schedule": {
            "n": n,
            "segments": [
                {"t": k * dwell if dwell else 0.0, "edges": edges}
                for k, edges in enumerate(segments)
            ],
            "period": len(segments) * dwell if dwell else None,
            "a_low": a_low,
            "a_high": a_high,
        },
        "quantizer": quantizer,
        "x0": x0,
        "policy": policy,
        "horizon": horizon,
        "max_events": 100_000,
        "expected": None,
    }


def line_case(name: str, n: int, delta: float, spacing: float, offset: float,
              policy: str, oracle_t_end: float | None = None) -> Case:
    """Symmetric line with unit weights, states ``offset + spacing * i``."""
    edges = []
    for i in range(n - 1):
        edges += [{"i": i, "j": i + 1, "w": 1.0}, {"i": i + 1, "j": i, "w": 1.0}]
    x0 = [offset + spacing * i for i in range(n)]
    scenario = _scenario(n, [edges], {"type": "uniform", "delta": delta}, x0,
                         {"type": policy})
    return Case(name, scenario, oracle_t_end=oracle_t_end)


def chain_case(name: str, n: int, a: float, b: float, pinned: bool,
               oracle_t_end: float | None = None) -> Case:
    """Stubborn-leader chain: agent i listens to i+1 (weight a) and to 0 (b).

    Interior agents start on the threshold 0.5 and hold there with the
    coefficients ``(a/(a+b))^(n-1-i)``; ``pinned`` prescribes those
    coefficients through the fixed-alpha policy.
    """
    edges = [{"i": i, "j": i + 1, "w": a} for i in range(n - 1)]
    edges += [{"i": i, "j": 0, "w": b} for i in range(1, n - 1)]
    edges.sort(key=lambda e: (e["i"], e["j"]))
    ratio = a / (a + b)
    if pinned:
        policy = {"type": "fixed-alpha",
                  "alpha": {str(i): ratio ** (n - 1 - i) for i in range(1, n - 1)}}
    else:
        policy = {"type": "sliding"}
    t_con = ((a + b) / a) ** (n - 2) / (2.0 * a)
    x0 = [0.0] + [0.5] * (n - 2) + [1.0]
    scenario = _scenario(n, [edges], {"type": "uniform", "delta": 1.0}, x0, policy,
                         a_low=min(a, b), a_high=max(a, b), horizon=4.0 * t_con)
    return Case(name, scenario, chain=(a, b), oracle_t_end=oracle_t_end)


def random_case(name: str, rng: random.Random, n: int, delta: float = 1.0,
                cells: float = 4.0, segments: int = 1, dwell: float | None = None,
                symmetric: bool = False) -> Case:
    """Planted random digraph(s), weights in [0.5, 2], states over ``cells`` cells."""
    graphs = [_planted_edges(rng, n, 0.3, 0.5, 2.0, symmetric) for _ in range(segments)]
    x0 = [round(rng.uniform(0.0, cells * delta), 12) for _ in range(n)]
    scenario = _scenario(n, graphs, {"type": "uniform", "delta": delta}, x0,
                         {"type": "sliding"}, a_low=0.5, a_high=2.0, dwell=dwell)
    return Case(name, scenario)


def general_case(name: str, rng: random.Random, n: int, levels: int) -> Case:
    """Planted random digraph under a non-uniform quantizer.

    Level gaps are drawn from [0.5, 1.5] and each threshold sits at a random
    point between its two levels, not at the midpoint.
    """
    lv = [0.0]
    for _ in range(levels - 1):
        lv.append(round(lv[-1] + rng.uniform(0.5, 1.5), 12))
    th = [round(lo + rng.uniform(0.3, 0.7) * (hi - lo), 12) for lo, hi in zip(lv, lv[1:])]
    x0 = [round(rng.uniform(lv[0], lv[-1]), 12) for _ in range(n)]
    edges = _planted_edges(rng, n, 0.3, 0.5, 2.0)
    scenario = _scenario(n, [edges], {"type": "general", "levels": lv, "thresholds": th},
                         x0, {"type": "sliding"}, a_low=0.5, a_high=2.0)
    return Case(name, scenario)


def corpus_cases(root: Path) -> list[Case]:
    paths = sorted((root / "scenarios").glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no scenario corpus under {root / 'scenarios'}")
    return [Case(p.stem, json.loads(p.read_text()), corpus=True,
                 known_fault=KNOWN_FAULTS.get(p.stem, ())) for p in paths]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def staircase(seed: int, root: Path) -> list[Case]:
    """Many events with small surface sets."""
    rng = random.Random(seed)
    cases = []
    # A dyadic delta: the uniform quantizer's rounding agrees with its
    # threshold lattice only when delta is a power of two (see README).
    delta = 1 / 64
    # Two lines per size: the cost of an event depends on how the offset
    # lines the agents up against the lattice, so one line per size would
    # make the round time follow the seed.
    for k, n in enumerate((8, 8, 6, 6, 5, 5)):
        spacing = rng.uniform(0.97, 1.0)
        offset = rng.uniform(0.0, delta)
        for policy in ("sequential-slow", "sliding"):
            cases.append(line_case(f"line{n}.{k}-{policy}", n, delta, spacing, offset, policy))
    for k, n in enumerate((4, 5, 6)):
        dwell = rng.randint(4, 12) / 64.0  # exact binary fraction: switch times are exact
        cases.append(random_case(f"periodic{n}", rng, n, delta=0.25, cells=16.0,
                                 segments=3, dwell=dwell, symmetric=(k == 0)))
    cases.append(general_case("general6", rng, 6, levels=10))
    return cases + corpus_cases(root)


def wide_surface(seed: int, root: Path) -> list[Case]:
    """Few events with large surface sets."""
    rng = random.Random(seed)
    # Two graphs per size: the cost of an event depends on the surface sets a
    # graph produces, so single graphs would make events_per_s follow the seed.
    cases = [random_case(f"random{n}-{k}", rng, n) for n in (40, 70, 100) for k in (1, 2)]
    cases.append(random_case("random160", random.Random(WIDE_FIXED_SEED), 160))
    for n in (12, 16, 20):
        a = round(rng.uniform(0.5, 1.5), 6)
        b = round(a * rng.uniform(1.0, 2.0), 6)
        for pinned in (True, False):
            policy = "fixed-alpha" if pinned else "sliding"
            cases.append(chain_case(f"chain{n}-{policy}", n, a, b, pinned))
    return cases


def oracle(seed: int, root: Path) -> list[Case]:
    """Regularized RK4 oracle on the line and chain references."""
    rng = random.Random(seed)
    t_end = 0.1
    cases = []
    for n in (3, 4):
        spacing = rng.uniform(0.51, 0.58)  # first threshold hit before t_end
        cases.append(line_case(f"line{n}", n, 1.0, spacing, 0.0, "sliding", t_end))
    for n in (3, 4):
        a = round(rng.uniform(0.8, 1.2), 6)
        b = round(a * rng.uniform(1.0, 1.5), 6)
        cases.append(chain_case(f"chain{n}", n, a, b, pinned=False, oracle_t_end=t_end))
    return cases


WORKLOADS = {
    "staircase": staircase,
    "wide-surface": wide_surface,
    "oracle": oracle,
}

#: Fixed line reference timed on every workload for ``oracle_us_per_step``
#: and used to warm up all layers during set-up.
PROBE = line_case("probe-line3", 3, 1.0, 0.55, 0.0, "sliding", oracle_t_end=0.08)
