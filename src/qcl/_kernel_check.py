"""The self-check that a build of ``_kernels.c`` must pass before qcl uses it.

Each compiled entry point must reproduce the bits of the list code it
ports on fixed inputs chosen so that a change in the rounding or order of
any operation shows.  ``dynamics`` runs it only when a build is new.
"""

from __future__ import annotations

import numpy as np

from .dynamics import _build_hold_system, _gaussian_solve, _rk4_chunk_lists, _Singular
from .graphs import WeightedDigraph


def kernels_agree(kernels) -> bool:
    """Whether both compiled entry points give the bits of their list code."""
    return _rk4_agrees(kernels.rk4_chunk) and _hold_solve_agrees(kernels.hold_solve)


def _rk4_agrees(kernel) -> bool:
    """Whether ``kernel`` gives the list kernel's bits on a fixed set of chunks.

    Two large steps from each of 16 spread-out states reach every knot
    segment and both clamps, and keep each update comparable to the state,
    so a change in the rounding of any operation shows in the result.  The
    rows need not form a Laplacian.
    """
    rows = [[(0, 1.3), (1, -0.7), (3, 0.2)], [(0, -1.1), (1, 2.3), (2, -0.9)],
            [(1, -0.6), (2, 1.7), (3, -1.3)], [(0, 0.4), (2, -1.2), (3, 0.9)]]
    xp = [-1.9, -0.7, 0.4, 1.6, 2.2]
    fp = [-1.7, -0.2, 0.3, 1.1, 2.6]

    def bits(chunk, k: int) -> list[str]:
        x = [((7 * k + 3 * i) % 13 - 6) / 2.7 for i in range(4)]
        return [v.hex() for v in chunk(x, rows, xp, fp, 0.3, 2)]

    return all(bits(kernel, k) == bits(_rk4_chunk_lists, k) for k in range(16))


def _hold_solve_agrees(kernel) -> bool:
    """Whether ``kernel`` gives the bits of ``_build_hold_system`` and
    ``_gaussian_solve``, singular cases included, on a fixed set of systems.

    On the spread-out graph every rounding shows.  On the path, whose
    weights are symmetric, each end row ties with its neighbour for the
    first pivot.  On the last graph, agent 0's pivot equals the tolerance
    (singular), agent 1's lies just above it while a rhs is far larger than
    every entry, and agent 4's rhs is -0.0 in a row with a zero factor.
    """
    spread = WeightedDigraph(np.array(
        [[(1 + (3 * i + 5 * j) % 7) / 2.9 if i != j and (i + 2 * j) % 5 else 0.0
          for j in range(9)] for i in range(9)]))
    path = WeightedDigraph.from_edges(9, [
        edge for i in range(8) for w in [(1 + (5 * i) % 7) / 3.7]
        for edge in ((i, i + 1, w), (i + 1, i, w))])
    edge_cases = WeightedDigraph.from_edges(
        6, [(0, 3, 1e-12), (1, 3, 2e-12), (2, 3, 0.5), (4, 5, 0.75)])
    z = np.array([((5 * i) % 9 - 4) / 1.7 for i in range(9)])
    systems = [
        (g, active, {i: ((i * k) % 5 - 2.3, (i * k) % 5 - 2.3 + (1 + (i + k) % 3) / 3.1)
                     for i in active}, z)
        for g in (spread, path) for k in range(8)
        for active in [[i for i in range(9) if (i * k + k) % 4 != 3]]
    ] + [
        (edge_cases, [0], {0: (0.0, 1.0)}, z[:6]),
        (edge_cases, [1, 2, 4], {1: (-20.0, -19.0), 2: (0.0, 1.0), 4: (-0.0, 1.0)},
         np.array([0.0, 0.0, 0.0, -10.0, 0.0, 0.0])),
    ]

    def lists(g, active, boxes, z) -> list[float] | None:
        rows, rhs, _ = _build_hold_system(active, boxes, z, g)
        try:
            return _gaussian_solve(rows, rhs)
        except _Singular:
            return None

    def bits(solution: list[float] | None) -> list[str] | None:
        return None if solution is None else [v.hex() for v in solution]

    return all(bits(kernel(*system)) == bits(lists(*system)) for system in systems)
