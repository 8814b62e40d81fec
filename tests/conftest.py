from __future__ import annotations

import numpy as np

from qcl import WeightedDigraph
from qcl.cli import _bfs_reachability as bfs_reachability


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
