import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from qaoa_pca.graphs import MAX_VERTICES, Graph, WeightedGraph, assign_random_weights, unit_weights
from qaoa_pca.maxcut import brute_force_cmin, cost_diagonal


# the oracle: cut values summed edge by edge, sharing no code with cost_diagonal


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


def triangle():
    return unit_weights(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})))


def test_assignment_validation():
    Assignment(3, 0b101)
    with pytest.raises(ValueError):
        Assignment(3, 0b1000)
    with pytest.raises(ValueError):
        Assignment(2, -1)


def test_cut_value_single_edge():
    wg = unit_weights(Graph(2, frozenset({(0, 1)})))
    assert cut_value(wg, Assignment(2, 0b00)) == 0.0
    assert cut_value(wg, Assignment(2, 0b01)) == 1.0
    assert cut_value(wg, Assignment(2, 0b10)) == 1.0
    assert cut_value(wg, Assignment(2, 0b11)) == 0.0


def test_cut_value_triangle_max_is_two():
    wg = triangle()
    cuts = [cut_value(wg, Assignment(3, b)) for b in range(8)]
    assert max(cuts) == 2.0
    assert cuts[0] == 0.0 and cuts[7] == 0.0


def test_cut_value_weighted():
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    wg = WeightedGraph(g, {(0, 1): 0.25, (1, 2): 4.0})
    # separate vertex 1 from both neighbours
    assert cut_value(wg, Assignment(3, 0b010)) == 4.25


def test_cut_value_size_mismatch():
    with pytest.raises(ValueError):
        cut_value(triangle(), Assignment(4, 0))


def test_cost_diagonal_matches_cut_values():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 7):
        all_edges = list(itertools.combinations(range(n), 2))
        picked = [e for e in all_edges if rng.random() < 0.6]
        if not picked:
            picked = [all_edges[0]]
        wg = assign_random_weights(Graph(n, frozenset(picked)), seed=int(rng.integers(1 << 30)))
        diag = cost_diagonal(wg)
        assert diag.shape == (1 << n,)
        for bits in range(1 << n):
            assert diag[bits] == pytest.approx(-cut_value(wg, Assignment(n, bits)), abs=1e-12)


@pytest.mark.parametrize("n", range(1, MAX_VERTICES + 1))
def test_cost_diagonal_is_bit_symmetric(n):
    # flipping every bit keeps every cut, and the engine evolves half the state on that:
    # diag[x] and diag[~x] = diag[2^n - 1 - x] must agree in every bit, the sign of zero included
    rng = np.random.default_rng(n)
    all_edges = list(itertools.combinations(range(n), 2))
    for trial in range(8):
        picked = frozenset(e for e in all_edges if rng.random() < 0.5)
        g = Graph(n, picked)
        wg = unit_weights(g) if trial % 2 else assign_random_weights(g, seed=int(rng.integers(1 << 30)))
        diag = cost_diagonal(wg)
        assert diag.tobytes() == diag[::-1].tobytes()


def test_brute_force_cmin_triangle():
    cmin, best = brute_force_cmin(triangle())
    assert cmin == -2.0
    assert cut_value(triangle(), Assignment(3, best)) == 2.0


def test_brute_force_cmin_weighted_path():
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    wg = WeightedGraph(g, {(0, 1): 1.5, (1, 2): 2.5})
    cmin, best = brute_force_cmin(wg)
    assert cmin == -4.0
    assert best in (0b010, 0b101)


def test_brute_force_cmin_prefers_first_minimum():
    # single edge: assignments 1 and 2 both cut it; argmin takes the lower index
    wg = unit_weights(Graph(2, frozenset({(0, 1)})))
    _, best = brute_force_cmin(wg)
    assert best == 1
