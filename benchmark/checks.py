"""Output checks that recompute everything from the scenario JSON.

Nothing here calls qcl.  Trajectory events are read through their ``t``,
``kind``, ``x``, ``z``, ``velocity`` and ``alpha`` fields, and every
quantity they are checked against (Krasovskii sets, ``-L z``, level
envelopes, convergence times, the paper's bound) is recomputed with this
module's own arithmetic.  Each check returns a list of problem strings; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

import numpy as np

#: Largest drift of the state average allowed on weight-balanced schedules.
DRIFT_TOL = 1e-9
#: Largest sup-norm deviation of the oracle from the exact run.
ORACLE_TOL = 5e-3
#: Relative tolerance of the chain crawl speed measured on the oracle.
CRAWL_RTOL = 0.02
#: Relative tolerance of closed-form values (chain t_con and coefficients).
CLOSED_FORM_RTOL = 1e-9
_LOG_MAX_FLOAT = math.log(1.7976931348623157e308)


class Quantizer:
    """Krasovskii sets of a uniform or general quantizer, from its JSON."""

    def __init__(self, spec: dict):
        self.uniform = spec["type"] == "uniform"
        if self.uniform:
            self.delta = float(spec["delta"])
        else:
            self.levels = [float(v) for v in spec["levels"]]
            self.thresholds = [float(v) for v in spec["thresholds"]]

    def kset(self, x: float) -> tuple[float, float]:
        """Closed level interval of ``x``: two levels on a threshold, else one."""
        if self.uniform:
            d = self.delta
            k = math.floor(x / d - 0.5)
            for kk in (k - 1, k, k + 1):
                if (kk + 0.5) * d == x:
                    return kk * d, (kk + 1) * d
            # Off-threshold: the cell (kk - 0.5) d < x < (kk + 0.5) d.
            kk = math.floor(x / d + 0.5)
            while (kk + 0.5) * d < x:
                kk += 1
            while (kk - 0.5) * d > x:
                kk -= 1
            return kk * d, kk * d
        k = bisect_left(self.thresholds, x)
        if k < len(self.thresholds) and self.thresholds[k] == x:
            return self.levels[k], self.levels[k + 1]
        return self.levels[k], self.levels[k]

    def on_threshold(self, x: float) -> bool:
        lo, hi = self.kset(x)
        return lo != hi

    def level(self, x: float) -> float:
        """Pointwise quantizer value: the upper level on a threshold."""
        return self.kset(x)[1]


class Schedule:
    """Weight matrices and switch times of a schedule, from its JSON."""

    def __init__(self, spec: dict):
        self.n = int(spec["n"])
        self.starts = [float(seg["t"]) for seg in spec["segments"]]
        self.weights = []
        for seg in spec["segments"]:
            w = np.zeros((self.n, self.n))
            for e in seg["edges"]:
                w[int(e["i"]), int(e["j"])] = float(e["w"])
            self.weights.append(w)
        self.period = None if spec.get("period") is None else float(spec["period"])
        self.a_low = float(spec["a_low"])
        self.a_high = float(spec["a_high"])

    @property
    def time_invariant(self) -> bool:
        return len(self.starts) == 1

    def weights_at(self, t: float) -> np.ndarray:
        """Active weights on the right-open segment containing ``t``."""
        local = t
        if self.period is not None:
            k = math.floor(t / self.period)
            for kk in (k + 1, k, k - 1):
                if 0 <= kk and kk * self.period <= t < (kk + 1) * self.period:
                    local = t - kk * self.period
                    break
        idx = max(i for i, s in enumerate(self.starts) if s <= local)
        return self.weights[idx]

    def next_switch(self, t: float) -> float:
        if self.period is None:
            return min((s for s in self.starts if s > t), default=math.inf)
        k = math.floor(t / self.period)
        later = [
            kk * self.period + off
            for kk in (k - 1, k, k + 1, k + 2) if kk >= 0
            for off in self.starts + [self.period]
            if kk * self.period + off > t
        ]
        return min(later)

    def balanced(self) -> bool:
        return all(
            np.all(np.abs(w.sum(axis=1) - w.sum(axis=0)) <= 1e-12) for w in self.weights
        )


def rk4_steps(schedule: Schedule, t_end: float, h: float, stride: float) -> int:
    """RK4 steps of one regularized run: each sample interval is split at
    switch times and each piece is covered by ``ceil(length / h)`` steps."""
    steps = 0
    t = 0.0
    for k in range(1, int(math.floor(t_end / stride + 1e-9)) + 1):
        target = k * stride
        while t < target:
            seg_end = min(schedule.next_switch(t), target)
            steps += max(1, math.ceil((seg_end - t) / h - 1e-9))
            t = seg_end
    return steps


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def common_levels(x, q: Quantizer) -> tuple[float, float] | None:
    """Interval of levels shared by every agent's Krasovskii set, or None."""
    lo, hi = -math.inf, math.inf
    for xi in x:
        a, b = q.kset(xi)
        lo, hi = max(lo, a), min(hi, b)
    return (lo, hi) if lo <= hi else None


def convergence(events, q: Quantizer) -> tuple[float, float] | None:
    """Earliest event time from which one level is shared at every later
    event, with the lowest such level."""
    best = None
    lo, hi = -math.inf, math.inf
    for ev in reversed(events):
        for xi in ev.x:
            a, b = q.kset(xi)
            lo, hi = max(lo, a), min(hi, b)
        if lo > hi:
            break
        best = (ev.t, lo)
    return best


def log_bound(x0, q: Quantizer, schedule: Schedule) -> float:
    """Natural log of the paper's worst-case convergence time
    ``(1/delta) (n/a_low) (n a_high/a_low)^n max_ij |q(x_i)-q(x_j)|``;
    ``-inf`` when the quantized start is already in consensus."""
    levels = [q.level(v) for v in x0]
    spread = max(levels) - min(levels)
    if spread == 0.0:
        return -math.inf
    n = len(x0)
    lo, hi = schedule.a_low, schedule.a_high
    return (-math.log(q.delta) + math.log(n / lo) + n * math.log(n * hi / lo)
            + math.log(spread))


# ---------------------------------------------------------------------------
# Trajectory checks
# ---------------------------------------------------------------------------

def check_selections(events, q: Quantizer) -> list[str]:
    """Each recorded z_i lies in the Krasovskii set of x_i."""
    problems = []
    for k, ev in enumerate(events):
        for i, (xi, zi) in enumerate(zip(ev.x, ev.z)):
            lo, hi = q.kset(xi)
            if not (lo <= zi <= hi):
                problems.append(f"event {k}: z_{i}={zi!r} outside [{lo!r}, {hi!r}]")
    return problems


def check_velocities(events, schedule: Schedule) -> list[str]:
    """Each recorded velocity equals -L z for the graph active at the event."""
    problems = []
    for k, ev in enumerate(events):
        w = schedule.weights_at(ev.t)
        z = np.array(ev.z)
        lz = w.sum(axis=1) * z - w @ z
        expected = -lz
        scale = 1.0 + w.sum(axis=1) * np.abs(z) + w @ np.abs(z)
        err = np.abs(np.array(ev.velocity) - expected)
        bad = np.nonzero(err > 1e-9 * scale)[0]
        if bad.size:
            i = int(bad[0])
            problems.append(
                f"event {k}: velocity_{i}={ev.velocity[i]!r} but -(Lz)_{i}={expected[i]!r}"
            )
    return problems


def check_envelopes(events, q: Quantizer) -> list[str]:
    """The level envelopes are monotone and stay inside the initial range."""
    problems = []
    lo0 = min(q.kset(v)[0] for v in events[0].x)
    hi0 = max(q.kset(v)[1] for v in events[0].x)
    prev_lo, prev_hi = lo0, hi0
    for k, ev in enumerate(events):
        lo = min(q.kset(v)[0] for v in ev.x)
        hi = max(q.kset(v)[1] for v in ev.x)
        if lo < lo0 or hi > hi0:
            problems.append(f"event {k}: levels [{lo}, {hi}] left the initial [{lo0}, {hi0}]")
        if lo < prev_lo or hi > prev_hi:
            problems.append(f"event {k}: envelope [{lo}, {hi}] widened from [{prev_lo}, {prev_hi}]")
        prev_lo, prev_hi = lo, hi
    return problems


def check_consensus(events, status: str, q: Quantizer) -> list[str]:
    """The run ends in a certified equilibrium with a level shared by all."""
    problems = []
    if status != "equilibrium":
        problems.append(f"run ended with status {status!r}")
    if common_levels(events[-1].x, q) is None:
        problems.append(f"final state {events[-1].x} shares no level")
    return problems


def check_balanced(events, q: Quantizer) -> list[str]:
    """On weight-balanced schedules the average is preserved and the limit
    level equals q(mean), or the states collocate."""
    n = len(events[0].x)
    mean0 = math.fsum(events[0].x) / n
    problems = []
    drift = max(abs(math.fsum(ev.x) / n - mean0) for ev in events)
    if drift > DRIFT_TOL:
        problems.append(f"average drifted by {drift:.3e}")
    if q.uniform:
        final = events[-1].x
        shared = common_levels(final, q)
        qmean = q.level(mean0)
        collocated = all(v == final[0] for v in final)
        if not collocated and not (shared and shared[0] <= qmean <= shared[1]):
            problems.append(f"limit levels {shared} miss q(mean)={qmean!r}")
    return problems


def check_report(events, status: str, report, case, q: Quantizer,
                 schedule: Schedule) -> list[str]:
    """qcl's report against the recomputed t_con, level, drift and bound.

    ``report`` is None when the report call failed; the bound is then still
    checked against the recomputed convergence time.
    """
    problems = []
    conv = convergence(events, q) if status == "equilibrium" else None
    bound_applies = schedule.time_invariant and q.uniform
    if conv is not None and bound_applies:
        lb = log_bound(case.scenario["x0"], q, schedule)
        if conv[0] > 0.0 and not math.log(conv[0]) <= lb + 1e-12:
            problems.append(f"t_con={conv[0]!r} exceeds the bound exp({lb!r})")
    if report is not None:
        got = None if report.t_con is None else (report.t_con, report.s_star)
        if got != conv:
            problems.append(f"report (t_con, s_star)={got} but recomputed {conv}")
        if report.converged != (conv is not None):
            problems.append(f"report converged={report.converged}")
        if bound_applies:
            lb = log_bound(case.scenario["x0"], q, schedule)
            # A bound beyond float range has no float value to compare.
            if lb < _LOG_MAX_FLOAT:
                want = math.exp(lb) if lb > -math.inf else 0.0
                if report.bound is None or not (
                    report.bound == want or _rel_close(report.bound, want, 1e-9)
                ):
                    problems.append(f"report bound={report.bound!r} but recomputed {want!r}")
        elif report.bound is not None:
            problems.append("report has a bound for a schedule it does not apply to")
        n = len(events[0].x)
        mean0 = math.fsum(events[0].x) / n
        drift = max(abs(math.fsum(ev.x) / n - mean0) for ev in events)
        if abs(report.average_drift - drift) > 1e-12:
            problems.append(f"report average_drift={report.average_drift!r}, recomputed {drift!r}")
        if report.envelope_ok != (not check_envelopes(events, q)):
            problems.append(f"report envelope_ok={report.envelope_ok}")
    if case.chain is not None:
        a, b = case.chain
        n = len(events[0].x)
        t_con = ((a + b) / a) ** (n - 2) / (2.0 * a)
        if conv is None or not _rel_close(conv[0], t_con, CLOSED_FORM_RTOL):
            problems.append(f"chain t_con {conv} != ((a+b)/a)^(n-2)/(2a) = {t_con!r}")
        for i in range(1, n - 1):
            want = (a / (a + b)) ** (n - 1 - i)
            got_alpha = events[0].alpha[i]
            if got_alpha is None or not _rel_close(got_alpha, want, CLOSED_FORM_RTOL):
                problems.append(f"chain alpha_{i}={got_alpha!r} != {want!r}")
    if case.corpus and case.scenario.get("expected"):
        problems += check_expected(events, case.scenario["expected"], conv)
    return problems


def check_expected(events, expected: dict, conv) -> list[str]:
    """The ``expected`` block of a corpus file."""
    problems = []
    t_con = None if conv is None else conv[0]
    if expected.get("t_con") is not None:
        if t_con is None or not _rel_close(t_con, expected["t_con"], CLOSED_FORM_RTOL):
            problems.append(f"t_con {t_con!r} != expected {expected['t_con']!r}")
    if expected.get("t_con_lower") is not None:
        if t_con is None or t_con < expected["t_con_lower"] * (1 - 1e-12):
            problems.append(f"t_con {t_con!r} below expected {expected['t_con_lower']!r}")
    if expected.get("q_infinity") is not None:
        if conv is None or conv[1] != expected["q_infinity"]:
            problems.append(f"limit level {conv} != expected {expected['q_infinity']!r}")
    if expected.get("collocation"):
        final = events[-1].x
        if any(v != final[0] for v in final):
            problems.append(f"expected collocation, final state {final}")
    for agent, value in (expected.get("alpha") or {}).items():
        got = events[0].alpha[int(agent)]
        if got is None or not _rel_close(got, value, CLOSED_FORM_RTOL):
            problems.append(f"alpha_{agent}={got!r} != expected {value!r}")
    return problems


# ---------------------------------------------------------------------------
# Exports and the oracle
# ---------------------------------------------------------------------------

def _same(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _event_matches(ev, t, kind, x, z, alpha) -> bool:
    n = len(ev.x)
    return (
        _same(t, ev.t) and kind == ev.kind
        and len(x) == len(z) == len(alpha) == n
        and all(_same(a, b) for a, b in zip(x, ev.x))
        and all(_same(a, b) for a, b in zip(z, ev.z))
        and all((a is None and b is None) or (a is not None and b is not None and _same(a, b))
                for a, b in zip(alpha, ev.alpha))
    )


def check_csv(events, text: str) -> list[str]:
    """The CSV export parses back to the recorded events bit for bit."""
    lines = text.rstrip("\n").split("\n")
    n = len(events[0].x)
    header = (["t", "event"] + [f"x_{i + 1}" for i in range(n)]
              + [f"z_{i + 1}" for i in range(n)] + [f"alpha_{i + 1}" for i in range(n)])
    if lines[0].split(",") != header:
        return ["CSV header mismatch"]
    if len(lines) - 1 != len(events):
        return [f"CSV has {len(lines) - 1} rows for {len(events)} events"]
    for k, (line, ev) in enumerate(zip(lines[1:], events)):
        cells = line.split(",")
        if len(cells) != 2 + 3 * n:
            return [f"CSV row {k} has {len(cells)} cells"]
        x = [float(c) for c in cells[2:2 + n]]
        z = [float(c) for c in cells[2 + n:2 + 2 * n]]
        alpha = [None if c == "" else float(c) for c in cells[2 + 2 * n:]]
        if not _event_matches(ev, float(cells[0]), cells[1], x, z, alpha):
            return [f"CSV row {k} differs from event {k}"]
    return []


def check_json(events, status: str, text: str) -> list[str]:
    """The JSON export parses back to the recorded events bit for bit."""
    obj = json.loads(text)
    if obj.get("n") != len(events[0].x) or obj.get("status") != status:
        return ["JSON n/status mismatch"]
    rows = obj.get("events", [])
    if len(rows) != len(events):
        return [f"JSON has {len(rows)} rows for {len(events)} events"]
    for k, (row, ev) in enumerate(zip(rows, events)):
        alpha = [None if a is None else float(a) for a in row["alpha"]]
        if not _event_matches(ev, float(row["t"]), row["event"],
                              [float(v) for v in row["x"]], [float(v) for v in row["z"]], alpha):
            return [f"JSON row {k} differs from event {k}"]
    return []


def exact_state(events, status: str, t: float) -> np.ndarray:
    """State of the exact run at ``t``: affine between events, constant after
    a final equilibrium."""
    times = [ev.t for ev in events]
    k = max(0, bisect_left(times, t) - 1)
    if k + 1 < len(times) and times[k + 1] == t:
        k += 1
    ev = events[k]
    if t <= times[0] or (k == len(events) - 1 and status == "equilibrium"):
        return np.array(ev.x)
    return np.array(ev.x) + (t - ev.t) * np.array(ev.velocity)


def check_oracle(events, status: str, times, states, case) -> list[str]:
    """The oracle stays within ORACLE_TOL of the exact run; on a chain the
    first agent crawls at a (a/(a+b))^(n-2)."""
    problems = []
    worst = max(
        float(np.max(np.abs(exact_state(events, status, float(t)) - s)))
        for t, s in zip(times, states)
    )
    if not worst <= ORACLE_TOL:
        problems.append(f"oracle deviates from the exact run by {worst:.3e}")
    if case.chain is not None:
        a, b = case.chain
        n = len(events[0].x)
        want = a * (a / (a + b)) ** (n - 2)
        i0, i1 = len(times) // 2, len(times) - 1
        speed = (states[i1][0] - states[i0][0]) / (times[i1] - times[i0])
        if not _rel_close(float(speed), want, CRAWL_RTOL):
            problems.append(f"chain agent 1 crawls at {speed!r}, expected {want!r}")
    return problems


def check_trajectory(case, events, status: str) -> list[str]:
    """Every check on one exact trajectory that needs only its events."""
    q = Quantizer(case.scenario["quantizer"])
    schedule = Schedule(case.scenario["schedule"])
    problems = check_selections(events, q)
    problems += check_velocities(events, schedule)
    problems += check_envelopes(events, q)
    problems += check_consensus(events, status, q)
    if schedule.balanced():
        problems += check_balanced(events, q)
    return problems
