import itertools
import tracemalloc

import numpy as np
import pytest

from qaoa_pca.graphs import (
    MAX_VERTICES,
    Graph,
    WeightedGraph,
    _label_table,
    _low_tables,
    _orbit_masks,
    assign_random_weights,
    canonical_key,
    enumerate_connected_nonisomorphic,
    graph_from_mask,
    graph_to_mask,
    is_connected,
    load_graph_set,
    sample_connected_nonisomorphic,
    save_graph_set,
    unit_weights,
)


def path_graph(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def complete_graph(n):
    return Graph(n, frozenset(itertools.combinations(range(n), 2)))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # endpoints must be ordered u < v
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(0, frozenset())
    with pytest.raises(ValueError):
        Graph(9, frozenset())


def test_weighted_graph_validates_weights():
    g = path_graph(3)
    WeightedGraph(g, {(0, 1): 0.5, (1, 2): 1.0})
    with pytest.raises(ValueError):
        WeightedGraph(g, {(0, 1): 0.5})  # missing an edge
    with pytest.raises(ValueError):
        WeightedGraph(g, {(0, 1): 0.5, (1, 2): 1.0, (0, 2): 1.0})  # extra edge
    with pytest.raises(ValueError):
        WeightedGraph(g, {(0, 1): 0.0, (1, 2): 1.0})  # weights must be positive
    with pytest.raises(ValueError):
        WeightedGraph(g, {(0, 1): float("nan"), (1, 2): 1.0})


def test_is_connected():
    assert is_connected(Graph(1, frozenset()))
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(2, frozenset()))
    assert not is_connected(Graph(4, frozenset({(0, 1), (2, 3)})))
    assert is_connected(complete_graph(6))


def test_mask_round_trip():
    g = path_graph(4)
    assert graph_from_mask(4, graph_to_mask(g)) == g


def test_canonical_key_invariant_under_relabeling():
    # relabel a 5-vertex graph by every permutation; the key must not move
    g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)}))
    base = canonical_key(g)
    for perm in itertools.permutations(range(5)):
        edges = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
        assert canonical_key(Graph(5, edges)) == base


def test_canonical_key_invariant_under_relabeling_at_max_n():
    # 8 vertices is the largest n canonical keys support; relabel by a sample of permutations
    cycle = {(i, i + 1) for i in range(7)} | {(0, 7)}
    g = Graph(8, frozenset(cycle | {(1, 5), (2, 6)}))
    base = canonical_key(g)
    rng = np.random.default_rng(8)
    for _ in range(50):
        perm = rng.permutation(8)
        edges = frozenset(tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in g.edges)
        assert canonical_key(Graph(8, edges)) == base
    assert base.bits <= graph_to_mask(g)


def relabeled_masks(g):
    """The mask of every relabeling of g, by brute force in plain Python.

    Pair (u, v), u < v, is bit k in the order (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    bit = {uv: k for k, uv in enumerate(itertools.combinations(range(g.n), 2))}
    return [
        sum(1 << bit[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in g.edges)
        for perm in itertools.permutations(range(g.n))
    ]


def test_canonical_key_matches_permutation_oracle():
    rng = np.random.default_rng(20)
    cases = [(n, 4) for n in range(2, 8)] + [(8, 3)]
    graphs = [
        Graph(n, frozenset(uv for uv in itertools.combinations(range(n), 2) if rng.random() < 0.5))
        for n, count in cases
        for _ in range(count)
    ]
    # graphs on which every relabeling ties or nearly ties: edgeless, K8, C8, K4,4, the star K1,7, two disjoint K4
    k4s = itertools.chain(itertools.combinations(range(4), 2), itertools.combinations(range(4, 8), 2))
    symmetric = [
        *(Graph(n, frozenset()) for n in (1, 2, 8)),
        complete_graph(8),
        Graph(8, frozenset({(i, i + 1) for i in range(7)} | {(0, 7)})),
        Graph(8, frozenset((u, v) for u in range(4) for v in range(4, 8))),
        Graph(8, frozenset((0, v) for v in range(1, 8))),
        Graph(8, frozenset(k4s)),
    ]
    for g in graphs + symmetric:
        assert canonical_key(g).bits == min(relabeled_masks(g)), (g.n, sorted(g.edges))
    # enumeration marks whole orbits seen, not only their minimum: every relabeling is there, and nothing else
    for g in [g for g in graphs if 4 <= g.n <= 6] + [path_graph(5), complete_graph(6)]:
        assert set(_orbit_masks(g.n, graph_to_mask(g)).tolist()) == set(relabeled_masks(g)), (g.n, sorted(g.edges))


def symmetric_8():
    """8-vertex graphs on which every relabeling ties or nearly ties: edgeless, K8, C8, K4,4, K1,7, two K4."""
    k4s = itertools.chain(itertools.combinations(range(4), 2), itertools.combinations(range(4, 8), 2))
    return [
        Graph(8, frozenset()),
        complete_graph(8),
        Graph(8, frozenset({(i, i + 1) for i in range(7)} | {(0, 7)})),
        Graph(8, frozenset((u, v) for u in range(4) for v in range(4, 8))),
        Graph(8, frozenset((0, v) for v in range(1, 8))),
        Graph(8, frozenset(k4s)),
    ]


def test_canonical_key_at_8_vertices_is_the_minimum_of_the_full_orbit():
    # the two-stage key against the OR of all 8! relabelings; __wrapped__ keeps the 4.5 MB table out of the cache
    full = _label_table.__wrapped__(8, 8)
    rng = np.random.default_rng(33)
    graphs = [graph_from_mask(8, int(m)) for m in rng.integers(0, 1 << 28, 300)]
    graphs += [Graph(8, frozenset(uv for uv in itertools.combinations(range(8), 2) if rng.random() < p))
               for p in (0.15, 0.85) for _ in range(50)]
    for g in graphs + symmetric_8():
        rows = [k for k in range(28) if graph_to_mask(g) >> k & 1]
        assert canonical_key(g).bits == int(np.bitwise_or.reduce(full[rows], axis=0).min()), sorted(g.edges)


def test_keys_use_the_tuple_table_at_8_vertices_and_the_full_table_below():
    assert MAX_VERTICES * (MAX_VERTICES - 1) // 2 <= 32  # a mask fits a uint32
    _label_table.cache_clear()
    canonical_key(path_graph(7))
    canonical_key(path_graph(8))
    assert _label_table.cache_info().currsize == 2
    assert _label_table(8, 4).shape == (28, 1680) and _label_table(8, 4).dtype == np.uint32
    assert _label_table(7, 7).shape == (21, 5040) and _label_table(7, 7).dtype == np.uint32
    assert _label_table.cache_info().currsize == 2  # both were the cached ones: no other table was built


def test_keying_8_vertex_graphs_caches_no_table_over_1_mb():
    _label_table.cache_clear()
    _low_tables.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for g in [path_graph(8), *symmetric_8()]:
            canonical_key(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0 < held < 1 << 20


def test_canonical_key_separates_nonisomorphic():
    star = Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    path = path_graph(4)
    assert canonical_key(star) != canonical_key(path)


def test_canonical_key_id_string_format():
    key = canonical_key(path_graph(2))
    assert key.id_string() == "n02k000000000001"


def test_graph_rejects_more_than_8_vertices():
    assert MAX_VERTICES == 8
    canonical_key(path_graph(8))
    with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.8, got 9"):
        path_graph(9)
    with pytest.raises(ValueError):
        path_graph(11)


@pytest.mark.parametrize("n,count", [(2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)])
def test_enumeration_counts_small(n, count):
    graphs = enumerate_connected_nonisomorphic(n)
    assert len(graphs) == count
    assert all(is_connected(g) for g in graphs)
    keys = {canonical_key(g).bits for g in graphs}
    assert len(keys) == count
    # representatives come back in canonical form, ascending
    masks = [graph_to_mask(g) for g in graphs]
    assert masks == sorted(masks)
    assert all(graph_to_mask(g) == canonical_key(g).bits for g in graphs)


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_connected_nonisomorphic(8)
    with pytest.raises(ValueError):
        enumerate_connected_nonisomorphic(1)


def test_sampling_deterministic_and_distinct():
    a = sample_connected_nonisomorphic(6, 15, seed=3)
    b = sample_connected_nonisomorphic(6, 15, seed=3)
    assert a == b
    keys = {canonical_key(g).bits for g in a}
    assert len(keys) == 15
    assert all(is_connected(g) for g in a)


def test_sampling_exhausts_when_asking_too_many():
    # only 2 connected classes exist on 3 vertices
    with pytest.raises(ValueError):
        sample_connected_nonisomorphic(3, 5, seed=0)


def test_assign_random_weights_bounds_and_determinism():
    g = complete_graph(5)
    wg1 = assign_random_weights(g, seed=11)
    wg2 = assign_random_weights(g, seed=11)
    assert wg1 == wg2
    ws = np.array(list(wg1.weights.values()))
    assert np.all(ws > 0) and np.all(ws <= 1)
    assert assign_random_weights(g, seed=12) != wg1


def test_graph_set_round_trip(tmp_path):
    graphs = [unit_weights(g) for g in enumerate_connected_nonisomorphic(4)]
    graphs.append(assign_random_weights(complete_graph(5), seed=5))
    path = tmp_path / "set.graphs"
    save_graph_set(path, graphs)
    loaded = load_graph_set(path)
    assert loaded == graphs  # weights serialized via repr, so equality is exact


def test_graph_set_empty_round_trip(tmp_path):
    path = tmp_path / "empty.graphs"
    save_graph_set(path, [])
    assert path.read_text() == "# graph-set v1\n"
    assert load_graph_set(path) == []


def test_graph_set_with_a_generated_line_still_loads(tmp_path):
    # graph sets written by earlier versions carry a `# generated` comment after the header
    path = tmp_path / "set.graphs"
    path.write_text("# graph-set v1\n# generated 2026-01-01T00:00:00+00:00\n\n2 1\n0 1 1.0\n")
    assert load_graph_set(path) == [unit_weights(path_graph(2))]


@pytest.mark.parametrize(
    "body",
    [
        "not-a-header\n",
        "# graph-set v1\n\n2 1\n1 0 1.0\n",  # endpoints out of order
        "# graph-set v1\n\n2 2\n0 1 1.0\n0 1 2.0\n",  # duplicate edge
        "# graph-set v1\n\n2 1\n0 1 -1.0\n",  # nonpositive weight
        "# graph-set v1\n\n3 2\n0 1 1.0\n",  # truncated record
        "# graph-set v1\n\n2 1\n0 x 1.0\n",  # unparseable
        "# graph-set v1\n\n2 0\n",  # no edges
        "# graph-set v1\n\n3 -2\n",  # negative edge count
    ],
)
def test_graph_set_malformed_inputs(tmp_path, body):
    path = tmp_path / "bad.graphs"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        load_graph_set(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "record,message",
    [
        ("3 1\n2 1 1.0\n", "edge (2, 1) is not a valid pair with u < v < n=3"),
        ("2 1\n0 1 -0.5\n", "weight of edge (0, 1) must be a finite positive real, got -0.5"),
    ],
    ids=["pair", "weight"],
)
def test_graph_set_names_the_record_header_for_a_graph_rule(tmp_path, record, message):
    # pair and weight rules belong to Graph and WeightedGraph; the loader names the record's `n m` line
    path = tmp_path / "bad.graphs"
    path.write_text("# graph-set v1\n\n2 1\n0 1 1.0\n\n# the bad record\n" + record)
    with pytest.raises(ValueError) as err:
        load_graph_set(path)
    assert str(err.value) == f"{path}:7: {message}"


@pytest.mark.parametrize(
    "body,lineno,first",
    [
        ("2 1\n0 1 1.0\n", 1, "2 1"),
        ("\n# graph-set v9\n\n2 1\n0 1 1.0\n", 2, "# graph-set v9"),
    ],
    ids=["headerless", "other-version"],
)
def test_graph_set_must_begin_with_its_version_line(tmp_path, body, lineno, first):
    # a file of another format version, or of none, is refused rather than read as v1
    path = tmp_path / "set.graphs"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        load_graph_set(path)
    assert str(err.value) == f"{path}:{lineno}: expected the version line '# graph-set v1' first, got {first!r}"


def test_graph_set_rejects_more_than_8_vertices_at_the_record_header(tmp_path):
    path = tmp_path / "big.graphs"
    path.write_text("# graph-set v1\n\n2 1\n0 1 1.0\n\n9 2\n0 1 1.0\n7 8 0.5\n")
    with pytest.raises(ValueError) as err:
        load_graph_set(path)
    assert str(err.value) == f"{path}:6: vertex count must be in 1..8, got 9"
