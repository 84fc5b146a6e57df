"""Graph instance sets: enumeration, isomorphism-free sampling, edge weights, persistence.

Graphs are simple, undirected, 0-indexed. A graph on n vertices is encoded as an
upper-triangular adjacency bitmask: pair (u, v) with u < v occupies bit
``_pair_index(n)[(u, v)]``, its position in ``_pairs(n)``: (0,1), (0,2), ..., (0,n-1), (1,2), ...
Isomorphism classes are identified by the minimum bitmask over all vertex
relabelings (the canonical key).

`MAX_VERTICES` is the one vertex bound of the package, enforced by `Graph`:
every stage names a record by its canonical key, whose tables hold a mask in a
uint32, so no graph has more than 8 vertices (C(8, 2) = 28 <= 32 bits). Below 8
vertices a key ORs a table of all n! relabelings; at 8 it picks the top four labels
from a table of the 1680 ordered 4-tuples first (`_split_key`). Exhaustive enumeration walks all
2^C(n,2) edge sets on each call, keeping no cache, so it stops earlier, at `MAX_ENUMERATION_VERTICES`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .records import write_text_atomic

MAX_VERTICES = 8
MAX_ENUMERATION_VERTICES = 7

GRAPH_SET_HEADER = "# graph-set v1"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count and a frozenset of (u, v) pairs with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e} is not a valid pair with u < v < n={self.n}")


@dataclass(frozen=True)
class WeightedGraph:
    """Graph with a strictly positive weight per edge (all 1.0 in the unweighted case)."""

    graph: Graph
    weights: dict[tuple[int, int], float]

    def __post_init__(self):
        if set(self.weights) != self.graph.edges:
            raise ValueError("weights must have exactly one entry per edge")
        for e, w in self.weights.items():
            if not (w > 0 and np.isfinite(w)):
                raise ValueError(f"weight of edge {e} must be a finite positive real, got {w}")


@dataclass(frozen=True)
class CanonicalKey:
    """Isomorphism-class identifier: minimal adjacency bitmask over all relabelings."""

    n: int
    bits: int

    def id_string(self) -> str:
        # fixed widths so lexicographic order matches (n, bits) order
        return f"n{self.n:02d}k{self.bits:012x}"


def unit_weights(g: Graph) -> WeightedGraph:
    return WeightedGraph(g, {e: 1.0 for e in g.edges})


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {uv: k for k, uv in enumerate(_pairs(n))}


def graph_to_mask(g: Graph) -> int:
    idx = _pair_index(g.n)
    mask = 0
    for e in g.edges:
        mask |= 1 << idx[e]
    return mask


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = _pairs(n)
    return Graph(n, frozenset(pairs[k] for k in range(len(pairs)) if (mask >> k) & 1))


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    reach = 1
    frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= adj[v]
        frontier = nxt & ~reach
        reach |= frontier
    return reach == (1 << g.n) - 1


def _tuples(n: int, k: int) -> np.ndarray:
    """The ordered k-tuples of distinct vertices, (n!/(n-k)!, k) uint8 in `itertools.permutations` order."""
    return np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n), k)), np.uint8).reshape(-1, k)


def _destination_bits(n: int, labels: np.ndarray) -> np.ndarray:
    """(C(n,2), r) uint32 table for r relabelings, vertex w taking label labels[w, j] in relabeling j:
    entry [pair, j] is the bit that pair moves to, and 0 when an endpoint's label is n (unlabeled).

    Pair-major and C-contiguous, so the relabelings of one pair are one row. uint32 holds a mask
    because C(MAX_VERTICES, 2) = 28 <= 32.
    """
    pairs = _pairs(n)
    bit = np.zeros((n + 1, n + 1), dtype=np.uint32)  # row and column n, the unlabeled end, stay 0
    for k, (u, v) in enumerate(pairs):
        bit[u, v] = bit[v, u] = 1 << k
    table = np.empty((len(pairs), labels.shape[1]), dtype=np.uint32)
    for k, (u, v) in enumerate(pairs):
        table[k] = bit[labels[u], labels[v]]
    return table


@lru_cache(maxsize=None)
def _label_table(n: int, k: int) -> np.ndarray:
    """(C(n,2), n!/(n-k)!) uint32 relabeling table, one column per ordered k-tuple t of `_tuples(n, k)`:
    entry [pair, t] is the destination bit of that pair when t[j] takes label n-k+j, and 0 when an
    endpoint is unlabeled. With k = n the columns are all n! relabelings."""
    tuples = _tuples(n, k)
    labels = np.full((n, len(tuples)), n, dtype=np.uint8)
    labels[tuples.T, np.arange(len(tuples))] = np.arange(n - k, n, dtype=np.uint8)[:, None]
    return _destination_bits(n, labels)


def _orbit_masks(n: int, mask: int, k: int | None = None) -> np.ndarray:
    """`mask` relabeled by each column of `_label_table(n, k)` as a uint32 vector; with the default
    k = n, all n! relabelings (with repeats for automorphisms)."""
    weights = _label_table(n, n if k is None else k)
    acc = np.zeros(weights.shape[1], dtype=np.uint32)
    pair = 0
    m = mask
    while m:
        if m & 1:
            acc |= weights[pair]
        m >>= 1
        pair += 1
    return acc


@lru_cache(maxsize=None)
def _low_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stage two of `_split_key`: the low bits of the relabelings that give a k-tuple the top labels.

    Slot order lists the n-k other vertices, ascending, then the tuple; the low pairs are the slot
    pairs whose first slot is below n-k, the first C(n,2) - C(k,2). Returns `source`, the
    (n!/(n-k)!, low) uint32 input bit that each tuple's slot pair reads, and `weights`, the
    (low, (n-k)!) float32 destination bit of each slot pair under each order of the other vertices.
    """
    low = len(_pairs(n)) - k * (k - 1) // 2
    tuples = _tuples(n, k)
    labeled = np.zeros((len(tuples), n), dtype=bool)
    np.put_along_axis(labeled, tuples, True, axis=1)
    slots = np.hstack([np.nonzero(~labeled)[1].reshape(-1, n - k).astype(np.uint8), tuples])
    # slot x "takes label" slots[t, x], the vertex in it: each slot pair maps to its input pair
    source = _destination_bits(n, slots.T)[:low].T.copy()
    orders = _tuples(n - k, n - k)
    top = np.broadcast_to(np.arange(n - k, n, dtype=np.uint8), (len(orders), k))
    weights = _destination_bits(n, np.hstack([orders, top]).T)[:low].astype(np.float32)
    return source, weights


def _split_key(n: int, mask: int) -> int:
    """Minimum relabeling of `mask`, its top k = n//2 labels chosen first.

    A relabeling's top C(k,2) bits are the pairs among labels n-k..n-1, set by the k-tuple that
    takes them alone, so the minimum lies among the tuples whose top bits are least (stage one,
    `_label_table(n, k)`). Each of those scores every order of the other vertices at once (stage
    two, `_low_tables`): an order's low bits are the sum of the destination bits of the slot pairs
    that are edges. The float32 product is exact: every partial sum is a sum of distinct powers of
    two below 2^22 (at n = 8), within float32's 24-bit significand.
    """
    k = n // 2
    top = _orbit_masks(n, mask, k)
    best = top.min()
    source, weights = _low_tables(n, k)
    edges = (source[top == best] & np.uint32(mask)) != 0
    return int(best) + int((edges @ weights).min())


def canonical_key(g: Graph) -> CanonicalKey:
    """Minimum adjacency bitmask over all n! relabelings; equal keys iff isomorphic.

    Below `MAX_VERTICES` it is the minimum of `_orbit_masks`; at `MAX_VERTICES` it is `_split_key`,
    which tabulates 8!/4! = 1680 tuples instead of 8! = 40320 relabelings.
    """
    mask = graph_to_mask(g)
    if g.n < MAX_VERTICES:
        return CanonicalKey(g.n, int(_orbit_masks(g.n, mask).min()))
    return CanonicalKey(g.n, _split_key(g.n, mask))


def graph_id(g: Graph) -> str:
    return canonical_key(g).id_string()


def enumerate_connected_nonisomorphic(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Representatives are the canonical-key masks themselves, returned in ascending
    key order. Each call sweeps all 2^C(n,2) edge sets anew (no cache), so n is capped at
    MAX_ENUMERATION_VERTICES.
    """
    if not 2 <= n <= MAX_ENUMERATION_VERTICES:
        raise ValueError(f"enumeration supports 2..{MAX_ENUMERATION_VERTICES} vertices, got {n}")
    seen = np.zeros(1 << (n * (n - 1) // 2), dtype=bool)
    reps: list[Graph] = []
    for m in range(seen.size):
        if seen[m]:
            continue
        # ascending sweep: the smallest unseen mask is the minimum of its orbit,
        # i.e. the canonical key of its isomorphism class
        seen[_orbit_masks(n, m)] = True
        g = graph_from_mask(n, m)
        if is_connected(g):
            reps.append(g)
    return reps


def sample_connected_nonisomorphic(n: int, count: int, seed: int) -> list[Graph]:
    """`count` pairwise non-isomorphic connected n-vertex graphs via rejection sampling.

    Uniform random edge masks are filtered to connected graphs and deduplicated by
    canonical key, so the distribution is labeled-uniform, not uniform over
    isomorphism classes. Deterministic given `seed`. Raises if `count` distinct
    classes are not found within the attempt budget.
    """
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"sampling supports 2..{MAX_VERTICES} vertices, got {n}")
    if count < 1:
        raise ValueError("count must be >= 1")
    attempt_budget = max(10_000, 200 * count)
    npairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    found: dict[int, None] = {}  # canonical bits of each class, in order of first sighting
    attempts = 0
    while len(found) < count and attempts < attempt_budget:
        mask = int(rng.integers(0, 1 << npairs))
        attempts += 1
        g = graph_from_mask(n, mask)
        if not is_connected(g):
            continue
        found.setdefault(canonical_key(g).bits)
    if len(found) < count:
        raise ValueError(
            f"found only {len(found)} of {count} connected non-isomorphic graphs on "
            f"{n} vertices within {attempt_budget} attempts"
        )
    return [graph_from_mask(n, bits) for bits in found]


def assign_random_weights(g: Graph, seed: int) -> WeightedGraph:
    """Independent uniform weights on (0, 1] per edge, in sorted-edge order; pure in (g, seed)."""
    rng = np.random.default_rng(seed)
    draws = 1.0 - rng.random(len(g.edges))  # rng.random is [0, 1), so weights land in (0, 1]
    return WeightedGraph(g, {e: float(w) for e, w in zip(sorted(g.edges), draws)})


def save_graph_set(path, graphs: list[WeightedGraph]) -> None:
    """Write a graph set as line-oriented text; see `load_graph_set` for the format."""
    lines = [GRAPH_SET_HEADER]
    for wg in graphs:
        lines.append("")
        lines.append(f"{wg.graph.n} {len(wg.graph.edges)}")
        for u, v in sorted(wg.graph.edges):
            lines.append(f"{u} {v} {wg.weights[(u, v)]!r}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_graph_set(path) -> list[WeightedGraph]:
    """Parse a graph-set file: the `GRAPH_SET_HEADER` line first, then records of `n m`
    (m >= 1) and m lines `u v w`, blank-line separated, `#` comments allowed. Raises
    ValueError naming the offending line; a graph that `Graph` or `WeightedGraph`
    refuses is named by its `n m` line."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    def fail(lineno: int, msg: str):
        raise ValueError(f"{path}:{lineno}: {msg}")

    nonblank = ((no, text) for no, text in enumerate(raw, 1) if text.strip())
    no, first = next(nonblank, (1, ""))
    if first.strip() != GRAPH_SET_HEADER:
        fail(no, f"expected the version line {GRAPH_SET_HEADER!r} first, got {first!r}")
    # (line number, text) of each line after it that is not a comment
    body = ((no, text) for no, text in nonblank if not text.lstrip().startswith("#"))

    graphs: list[WeightedGraph] = []
    for header_no, text in body:
        try:
            n, m = map(int, text.split())
        except ValueError:  # too few or too many fields, or one that is not an integer
            fail(header_no, f"expected record header 'n m' of two integers, got {text!r}")
        if m < 1:
            fail(header_no, f"edge count must be at least 1, got {m}")
        edges: dict[tuple[int, int], float] = {}
        for no, text in itertools.islice(body, m):  # takes the record's edge lines from body
            try:
                u, v, w = text.split()
                u, v, w = int(u), int(v), float(w)
            except ValueError:
                fail(no, f"expected edge line 'u v w' of two integers and a number, got {text!r}")
            if (u, v) in edges:
                fail(no, f"duplicate edge ({u}, {v})")
            edges[(u, v)] = w
        if len(edges) < m:
            fail(len(raw), f"unexpected end of file: expected {m} edges, got {len(edges)}")
        try:
            graphs.append(WeightedGraph(Graph(n, frozenset(edges)), edges))
        except ValueError as exc:  # the vertex bound, pair and weight rules
            fail(header_no, str(exc))
    return graphs
