import itertools

import numpy as np
import pytest

from qaoa_pca.graphs import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    WeightedGraph,
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


def test_total_weight_and_weight_list_order():
    g = Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
    wg = WeightedGraph(g, {(0, 2): 3.0, (0, 1): 1.0, (1, 2): 2.0})
    assert wg.total_weight == 6.0
    assert wg.weight_list() == [1.0, 3.0, 2.0]  # (0,1), (0,2), (1,2)


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


def permutation_min_mask(g):
    """Canonical bits by brute force: the least mask over every relabeling, in plain Python.

    Pair (u, v), u < v, is bit k in the order (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    bit = {uv: k for k, uv in enumerate(itertools.combinations(range(g.n), 2))}
    return min(
        sum(1 << bit[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in g.edges)
        for perm in itertools.permutations(range(g.n))
    )


def test_canonical_key_matches_permutation_oracle():
    rng = np.random.default_rng(20)
    cases = [(n, 4) for n in range(2, 8)] + [(8, 3)]
    for n, count in cases:
        for _ in range(count):
            pairs = itertools.combinations(range(n), 2)
            g = Graph(n, frozenset(uv for uv in pairs if rng.random() < 0.5))
            assert canonical_key(g).bits == permutation_min_mask(g), sorted(g.edges)


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
    ws = np.array(wg1.weight_list())
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


def test_graph_set_timestamp_line(tmp_path):
    path = tmp_path / "set.graphs"
    save_graph_set(path, [unit_weights(path_graph(2))], timestamp="2026-01-01T00:00:00")
    text = path.read_text()
    assert "# generated 2026-01-01T00:00:00" in text
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
    ],
)
def test_graph_set_malformed_inputs(tmp_path, body):
    path = tmp_path / "bad.graphs"
    path.write_text(body)
    with pytest.raises(GraphFormatError) as err:
        load_graph_set(path)
    assert str(path) in str(err.value)


def test_graph_set_rejects_more_than_8_vertices_at_the_record_header(tmp_path):
    path = tmp_path / "big.graphs"
    path.write_text("# graph-set v1\n\n2 1\n0 1 1.0\n\n9 2\n0 1 1.0\n7 8 0.5\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph_set(path)
    assert str(err.value) == f"{path}:6: vertex count must be in 1..8, got 9"
