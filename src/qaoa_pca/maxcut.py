"""Classical MaxCut machinery: cut values, the diagonal cost spectrum, brute-force optima.

Vertex assignments z in {+1, -1}^n are encoded as bitmasks: bit i set means
z_i = -1. Energies follow the convention E(z) = -C(z) where C is the cut value,
so minimizing energy maximizes the cut and the ground state is the optimal cut.
Bit i of an index addresses vertex i (little-endian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import MAX_VERTICES, WeightedGraph


@dataclass(frozen=True)
class Assignment:
    """A two-coloring of n vertices, packed as a bitmask (bit i set means z_i = -1)."""

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"assignment length must be in 1..{MAX_VERTICES}, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"assignment bits {self.bits:#x} out of range for n={self.n}")


def cut_value(wg: WeightedGraph, a: Assignment) -> float:
    """Total weight of edges whose endpoints lie on opposite sides of the assignment."""
    if a.n != wg.graph.n:
        raise ValueError(f"assignment length {a.n} != vertex count {wg.graph.n}")
    total = 0.0
    for (u, v), w in wg.weights.items():
        if ((a.bits >> u) ^ (a.bits >> v)) & 1:
            total += w
    return total


def cost_diagonal(wg: WeightedGraph) -> np.ndarray:
    """Energy diagonal of length 2^n: entry b is E(z_b) = -C(z_b)."""
    n = wg.graph.n
    indices = np.arange(1 << n, dtype=np.uint32)
    cut = np.zeros(1 << n, dtype=np.float64)
    for (u, v), w in sorted(wg.weights.items()):
        cut += w * (((indices >> np.uint32(u)) ^ (indices >> np.uint32(v))) & np.uint32(1))
    return -cut


def brute_force_cmin(wg: WeightedGraph) -> tuple[float, Assignment]:
    """Exhaustive minimum of the energy diagonal; ties break to the lowest index."""
    energies = cost_diagonal(wg)
    b = int(np.argmin(energies))
    return float(energies[b]), Assignment(wg.graph.n, b)
