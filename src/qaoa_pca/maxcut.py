"""Classical MaxCut machinery: the diagonal cost spectrum and its brute-force optimum.

Vertex assignments z in {+1, -1}^n are encoded as bitmasks: bit i set means
z_i = -1. Energies follow the convention E(z) = -C(z) where C is the cut value,
so minimizing energy maximizes the cut and the ground state is the optimal cut.
Bit i of an index addresses vertex i (little-endian).
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedGraph


def cost_diagonal(wg: WeightedGraph) -> np.ndarray:
    """Energy diagonal of length 2^n: entry b is E(z_b) = -C(z_b)."""
    n = wg.graph.n
    indices = np.arange(1 << n, dtype=np.uint32)
    cut = np.zeros(1 << n, dtype=np.float64)
    for (u, v), w in sorted(wg.weights.items()):
        cut += w * (((indices >> np.uint32(u)) ^ (indices >> np.uint32(v))) & np.uint32(1))
    return -cut


def brute_force_cmin(wg: WeightedGraph) -> tuple[float, int]:
    """Exhaustive minimum of the energy diagonal, and the bitmask of the lowest assignment that attains it."""
    energies = cost_diagonal(wg)
    b = int(np.argmin(energies))
    return float(energies[b]), b
