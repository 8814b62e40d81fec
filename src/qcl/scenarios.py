"""Reference scenario constructors and seeded random scenario generation.

The two reference families are the symmetric line graph with a one-cell
staircase initial condition (slow convergence proportional to the number of
quantization levels spanned) and the stubborn-leader chain whose interior
agents start on a threshold and slide, making the convergence time grow
exponentially with the network size.

Random scenarios are reproducible across implementations: generation uses a
splitmix-style 64-bit sequence keyed only by the seed, and weights are
rounded to 12 decimal digits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    FixedAlpha,
    SelectionPolicy,
    SequentialSlow,
    Sliding,
    _require_finite_velocities,
    policy_from_json,
)
from .graphs import GraphSchedule, WeightedDigraph, schedule_from_json
from .quantizers import (InputError, Quantizer, UniformQuantizer, json_agent, json_bool,
                         json_field, json_float, json_floats, json_int, json_keys,
                         quantizer_from_json)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Portable 64-bit generator: state advances by the golden-ratio gamma."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + u * (hi - lo)

    def randint(self, n: int) -> int:
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for k in range(len(items) - 1, 0, -1):
            j = self.randint(k + 1)
            items[k], items[j] = items[j], items[k]


def _round12(v: float) -> float:
    return round(v, 12)


@dataclass(frozen=True)
class ExpectedOutcome:
    """Optional annotation of analytically known results."""

    t_con: float | None = None
    q_infinity: float | None = None
    collocation: bool | None = None
    t_con_lower: float | None = None
    alpha: tuple[tuple[int, float], ...] | None = None

    def to_json(self) -> dict:
        return {
            "t_con": self.t_con,
            "q_infinity": self.q_infinity,
            "collocation": self.collocation,
            "t_con_lower": self.t_con_lower,
            "alpha": None if self.alpha is None else
            {str(a): v for a, v in self.alpha},
        }


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything one run needs: schedule, quantizer, start, policy, limits."""

    schedule: GraphSchedule
    quantizer: Quantizer
    x0: tuple[float, ...]
    policy: SelectionPolicy = field(default_factory=Sliding)
    horizon: float = 1e6
    max_events: int = 100_000
    expected: ExpectedOutcome | None = None

    def __post_init__(self) -> None:
        x0 = tuple(float(v) for v in self.x0)
        if len(x0) != self.schedule.n:
            raise InputError("x0 length must match the agent count")
        if not all(np.isfinite(x0)):
            raise InputError("x0 must be finite")
        if isinstance(self.quantizer, UniformQuantizer):
            # Beyond 2^52 cells the thresholds (k + 0.5) * delta round onto
            # each other and the lattice no longer exists.
            delta = self.quantizer.delta
            for i, v in enumerate(x0):
                if not abs(v) / delta < 2.0 ** 52:
                    raise InputError(
                        f"agent {i}: x0={v!r} is beyond the threshold lattice of "
                        f"delta={delta!r} (need |x0|/delta < 2^52)"
                    )
        for k, (_, g) in enumerate(self.schedule.segments):
            _require_finite_velocities(g, x0, self.quantizer, f"segment {k}, ", "x0")
        if isinstance(self.policy, FixedAlpha):
            for agent, _ in self.policy.overrides:
                if not 0 <= agent < len(x0):
                    raise InputError(f"the fixed-alpha policy pins agent {agent}, "
                                     f"outside the agents [0, {len(x0)}) of the scenario")
        # bool is an int, and numpy's scalars register with numbers.
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, numbers.Real):
            raise InputError(f"horizon must be a real number, got {self.horizon!r}")
        if not (self.horizon > 0.0):
            raise InputError("horizon must be positive")
        if isinstance(self.max_events, bool) or not isinstance(self.max_events, numbers.Integral):
            raise InputError(f"max_events must be an integer, got {self.max_events!r}")
        if self.max_events < 1:
            raise InputError("max_events must be positive")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "max_events", int(self.max_events))

    @property
    def n(self) -> int:
        return self.schedule.n

    @property
    def a_low(self) -> float:
        return self.schedule.a_low

    @property
    def a_high(self) -> float:
        return self.schedule.a_high

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioConfig):
            return NotImplemented
        return (
            self.schedule == other.schedule
            and self.quantizer == other.quantizer
            and self.x0 == other.x0
            and self.policy == other.policy
            and self.horizon == other.horizon
            and self.max_events == other.max_events
        )

    def to_json(self) -> dict:
        return {
            "schedule": self.schedule.to_json(),
            "quantizer": self.quantizer.to_json(),
            "x0": list(self.x0),
            "policy": self.policy.to_json(),
            "horizon": self.horizon,
            "max_events": self.max_events,
            "expected": None if self.expected is None else self.expected.to_json(),
        }


def scenario_from_json(obj: dict) -> ScenarioConfig:
    json_keys(obj, ("schedule", "quantizer", "x0", "policy", "horizon", "max_events",
                    "expected"), "scenario")
    expected = None
    raw = json_field(obj, "expected", "scenario", None)
    if raw is not None:
        json_keys(raw, ("t_con", "q_infinity", "collocation", "t_con_lower", "alpha"),
                  "expected")
        alpha = json_field(raw, "alpha", "expected", None,
                           lambda a: tuple(sorted((json_agent(k), json_float(v))
                                                  for k, v in a.items())))
        # Keys such as "1" and "01" name one agent.
        agents = [agent for agent, _ in alpha or ()]
        for agent, other in zip(agents, agents[1:]):
            if agent == other:
                raise InputError(f"expected field 'alpha' gives agent {agent} more than one "
                                 "coefficient")
        expected = ExpectedOutcome(
            t_con=json_field(raw, "t_con", "expected", None, json_float),
            q_infinity=json_field(raw, "q_infinity", "expected", None, json_float),
            collocation=json_field(raw, "collocation", "expected", None, json_bool),
            t_con_lower=json_field(raw, "t_con_lower", "expected", None, json_float),
            alpha=alpha,
        )
    return ScenarioConfig(
        schedule=schedule_from_json(json_field(obj, "schedule", "scenario")),
        quantizer=quantizer_from_json(json_field(obj, "quantizer", "scenario")),
        x0=json_field(obj, "x0", "scenario", parse=json_floats),
        policy=policy_from_json(obj.get("policy", {"type": "sliding"})),
        horizon=json_field(obj, "horizon", "scenario", 1e6, json_float),
        max_events=json_field(obj, "max_events", "scenario", 100_000, json_int),
        expected=expected,
    )


# ---------------------------------------------------------------------------
# Reference constructors
# ---------------------------------------------------------------------------

def line_graph(n: int, weight: float = 1.0) -> WeightedDigraph:
    """Symmetric line: each agent listens to its immediate neighbours."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, weight))
        edges.append((i + 1, i, weight))
    return WeightedDigraph.from_edges(n, edges)


def example1_line(
    n: int,
    delta: float,
    policy: SelectionPolicy | None = None,
    x0_spacing: float | None = None,
    horizon: float | None = None,
) -> ScenarioConfig:
    """Line-graph staircase scenario with one agent per quantization level.

    States start one cell apart (``x0_i = spacing * i`` with the spacing
    defaulting to ``delta``), all weights are 1, and the default policy is
    the sequential-slow selection.  Convergence time scales with the number
    of levels the initial spread covers, hence inversely with the precision
    when the spread is held fixed.
    """
    if n < 3:
        raise InputError(f"need at least 3 agents, got {n}")
    quantizer = UniformQuantizer(delta=delta)
    spacing = delta if x0_spacing is None else float(x0_spacing)
    x0 = tuple(spacing * i for i in range(n))
    mean = sum(x0) / n
    collocation = quantizer.is_threshold(mean)
    spread_levels = (quantizer.quantize(x0[-1]) - quantizer.quantize(x0[0])) / delta
    expected = ExpectedOutcome(
        q_infinity=None if collocation else quantizer.quantize(mean),
        collocation=collocation,
        # The slow-convergence floor n*levels/8 binds only when the
        # half-level average forces exact collocation.
        t_con_lower=n * spread_levels / 8.0 if collocation else None,
    )
    return ScenarioConfig(
        schedule=GraphSchedule.time_invariant(line_graph(n), a_low=1.0, a_high=1.0),
        quantizer=quantizer,
        x0=x0,
        policy=SequentialSlow() if policy is None else policy,
        horizon=float(100 * n * max(1.0, spread_levels)) if horizon is None else horizon,
        expected=expected,
    )


def example2_sliding(
    n: int,
    a: float,
    b: float,
    policy: SelectionPolicy | None = None,
    horizon: float | None = None,
) -> ScenarioConfig:
    """Stubborn-leader chain whose interior agents slide on a threshold.

    Agent ``n`` never moves, interior agents start exactly on the first
    threshold and hold there with coefficients ``(a/(a+b))^(n-i)``, and
    agent 1 crawls at a speed that shrinks geometrically with ``n``, so the
    measured convergence time doubles per added agent when ``a == b``.
    """
    if n < 3:
        raise InputError(f"need at least 3 agents, got {n}")
    if not (0.0 < a <= b):
        raise InputError(f"need 0 < a <= b, got a={a}, b={b}")
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, a))
    for i in range(1, n - 1):
        edges.append((i, 0, b))
    g = WeightedDigraph.from_edges(n, edges)
    quantizer = UniformQuantizer(delta=1.0)
    x0 = (0.0,) + (0.5,) * (n - 2) + (1.0,)
    ratio = a / (a + b)
    alpha = tuple((i, ratio ** (n - 1 - i)) for i in range(1, n - 1))
    t_con = ((a + b) / a) ** (n - 2) / (2.0 * a)
    expected = ExpectedOutcome(
        t_con=t_con,
        q_infinity=1.0,
        collocation=False,
        t_con_lower=2.0 ** (n - 2) / (2.0 * a),
        alpha=alpha,
    )
    return ScenarioConfig(
        schedule=GraphSchedule.time_invariant(g, a_low=min(a, b), a_high=max(a, b)),
        quantizer=quantizer,
        x0=x0,
        policy=FixedAlpha(dict(alpha)) if policy is None else policy,
        horizon=4.0 * t_con if horizon is None else horizon,
        expected=expected,
    )


# ---------------------------------------------------------------------------
# Seeded random scenarios
# ---------------------------------------------------------------------------

def _planted_graph(
    rng: SplitMix64,
    n: int,
    edge_density: float,
    a_low: float,
    a_high: float,
    symmetric: bool,
) -> WeightedDigraph:
    """Random graph guaranteed to have a globally reachable node.

    A random spanning in-tree toward a random root makes the root reachable
    from everyone; extra edges are sprinkled on top.  Symmetric mode mirrors
    every weight, which also makes the graph weight-balanced.
    """

    def weight() -> float:
        return min(max(_round12(rng.uniform(a_low, a_high)), a_low), a_high)

    w = np.zeros((n, n))
    root = rng.randint(n)
    order = [i for i in range(n) if i != root]
    rng.shuffle(order)
    connected = [root]
    for v in order:
        parent = connected[rng.randint(len(connected))]
        value = weight()
        w[v, parent] = value
        if symmetric:
            w[parent, v] = value
        connected.append(v)
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if w[i, j] == 0.0 and rng.uniform() < edge_density:
                    value = weight()
                    w[i, j] = value
                    w[j, i] = value
    else:
        for i in range(n):
            for j in range(n):
                if i != j and w[i, j] == 0.0 and rng.uniform() < edge_density:
                    w[i, j] = weight()
    return WeightedDigraph(w)


def random_connected(
    n: int,
    seed: int,
    edge_density: float = 0.3,
    weight_range: tuple[float, float] = (0.5, 2.0),
    switching: tuple[int, float] | None = None,
    symmetric: bool = False,
    delta: float = 1.0,
    x0_cells: float = 4.0,
    policy: SelectionPolicy | None = None,
    horizon: float = 1e9,
    max_events: int = 100_000,
) -> ScenarioConfig:
    """Deterministic-in-seed scenario with a planted globally reachable node.

    ``switching=(k, dwell)`` produces a periodic schedule of ``k`` segment
    graphs, each ``dwell`` long and each independently planted, so the graph
    of persistent interactions keeps a globally reachable node.
    """
    if n < 1:
        raise InputError("need at least one agent")
    if not (0.0 < edge_density <= 1.0):
        raise InputError("edge_density must be in (0, 1]")
    a_low, a_high = weight_range
    rng = SplitMix64(seed)
    if n == 1:
        graphs = [WeightedDigraph.empty(1)]
    else:
        count = switching[0] if switching else 1
        graphs = [
            _planted_graph(rng, n, edge_density, a_low, a_high, symmetric)
            for _ in range(count)
        ]
    if switching and n > 1:
        count, dwell = switching
        segments = tuple((k * float(dwell), graphs[k]) for k in range(count))
        schedule = GraphSchedule(
            segments=segments,
            a_low=a_low,
            a_high=a_high,
            period=count * float(dwell),
        )
    else:
        schedule = GraphSchedule.time_invariant(graphs[0], a_low=a_low, a_high=a_high)
    x0 = tuple(_round12(rng.uniform(0.0, x0_cells * delta)) for _ in range(n))
    return ScenarioConfig(
        schedule=schedule,
        quantizer=UniformQuantizer(delta=delta),
        x0=x0,
        policy=Sliding() if policy is None else policy,
        horizon=horizon,
        max_events=max_events,
    )
