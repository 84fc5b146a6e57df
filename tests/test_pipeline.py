import hashlib
import json
import warnings

import numpy as np
import pytest

from qaoa_pca.engine import ParameterVector, approximation_ratio, objective
from qaoa_pca.graphs import Graph, graph_id, unit_weights
from qaoa_pca.maxcut import brute_force_cmin, cost_diagonal
from qaoa_pca.optimizer import OptimizerConfig
from qaoa_pca.pca import ParameterMatrix, PCAModel, fit
from qaoa_pca.pipeline import (
    Checkpoint,
    _encode,
    _pca_task,
    EvalConfig,
    REPORT_CONFIGURATIONS,
    TrainingConfig,
    build_eval_set,
    build_graph_set,
    compare,
    config_hash,
    evaluate_pca,
    evaluate_standard,
    graph_id,
    render_report,
    run_training,
    stable_hash,
)
from qaoa_pca.records import RunRecord
from qaoa_pca.stats import median

FAST_OPT = OptimizerConfig(max_evals=120)


def small_training_cfg(**kw):
    defaults = dict(p=2, optimizer=FAST_OPT)
    defaults.update(kw)
    return TrainingConfig(**defaults)


def small_training_set():
    return build_graph_set(4, 4, False, seed=3)


def test_stable_hash_is_stable_and_sensitive():
    assert stable_hash(1, "a", 2) == stable_hash(1, "a", 2)
    assert stable_hash(1, "a", 2) != stable_hash(1, "a", 3)
    assert stable_hash(12, "a") != stable_hash(1, "2a")  # separator blocks collisions
    assert 0 <= stable_hash("x") < 2**64


def test_config_hash_tracks_content():
    a = TrainingConfig(p=2, seed=1)
    b = TrainingConfig(p=2, seed=1)
    c = TrainingConfig(p=2, seed=2)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(p=3)


def test_eval_config_validation():
    EvalConfig(p=4, k_components=2)
    with pytest.raises(ValueError):
        EvalConfig(p=4, k_components=6)  # more than half the 2p parameters
    with pytest.raises(ValueError):
        EvalConfig(p=8, k_components=3)  # odd component counts are not run
    with pytest.raises(ValueError):
        EvalConfig(p=2, k_components=2, restarts=0)


def test_build_graph_set_counts_and_weights():
    unweighted = build_graph_set(4, 5, False, seed=0)
    assert len(unweighted) == 6 + 21
    assert all(w == 1.0 for wg in unweighted for w in wg.weight_list())

    weighted_a = build_graph_set(4, 4, True, seed=5)
    weighted_b = build_graph_set(4, 4, True, seed=5)
    assert weighted_a == weighted_b
    assert build_graph_set(4, 4, True, seed=6) != weighted_a


def test_build_eval_set_deterministic():
    a = build_eval_set(6, 12, seed=9)
    b = build_eval_set(6, 12, seed=9)
    assert a == b
    assert len({graph_id(wg.graph) for wg in a}) == 12


def test_run_training_shapes_and_energy_bound():
    ids, X, records = run_training(small_training_cfg(), small_training_set())
    assert X.rows.shape == (6, 4)
    assert ids == sorted(ids)
    for wg, row, rec in zip(small_training_set(), X.rows, records):
        diag = cost_diagonal(wg)
        energy = objective(diag, ParameterVector.from_array(row))
        # optimized energy can never sit above the uniform-state value
        assert energy <= -wg.total_weight / 2 + 1e-9
        assert rec.evals <= FAST_OPT.max_evals


def test_run_training_deterministic():
    a = run_training(small_training_cfg(), small_training_set())
    b = run_training(small_training_cfg(), small_training_set())
    assert a[0] == b[0]
    assert np.array_equal(a[1].rows, b[1].rows)
    assert a[2] == b[2]


def test_run_training_row_length_scales_with_p():
    _, X, _ = run_training(small_training_cfg(p=4, optimizer=OptimizerConfig(max_evals=40)), small_training_set())
    assert X.rows.shape == (6, 8)


def test_run_training_parallel_matches_serial():
    serial = run_training(small_training_cfg(), small_training_set())
    parallel = run_training(small_training_cfg(), small_training_set(), workers=2)
    assert serial[0] == parallel[0]
    assert np.array_equal(serial[1].rows, parallel[1].rows)
    assert serial[2] == parallel[2]


def test_run_training_checkpoint_resume(tmp_path):
    ckpt = tmp_path / "train.ckpt"
    cfg = small_training_cfg()
    graphs = small_training_set()

    # first pass covers only half the set
    run_training(cfg, graphs=graphs[:3], checkpoint_path=ckpt)
    lines_after_partial = ckpt.read_text().splitlines()
    assert len(lines_after_partial) == 3

    # resume over the full set: only the remaining graphs are computed
    full = run_training(cfg, graphs=graphs, checkpoint_path=ckpt)
    assert len(ckpt.read_text().splitlines()) == 6
    fresh = run_training(cfg, graphs=graphs)
    assert full[0] == fresh[0]
    assert np.array_equal(full[1].rows, fresh[1].rows)
    assert full[2] == fresh[2]

    # a third run finds everything done and appends nothing
    again = run_training(cfg, graphs=graphs, checkpoint_path=ckpt)
    assert len(ckpt.read_text().splitlines()) == 6
    assert again[2] == fresh[2]


def test_checkpoint_ignores_other_configs_and_torn_lines(tmp_path):
    path = tmp_path / "mixed.ckpt"
    keys = {"n04k000000000007": "cfg-a", "n04k000000000008": "cfg-a"}
    ck = Checkpoint(path, keys)
    rec = RunRecord("n04k000000000007", "standard", 1, 2, 9, 0.5, (0.1, 0.2))
    ck.add(rec)
    ck.close()
    with open(path, "a") as fh:
        fh.write('{"config": "cfg-b", "graph_id": "n04k000000000008", "method": "standard",'
                 ' "layers": 1, "param_count": 2, "evals": 3, "approx_ratio": 0.4, "best_params": [0, 0]}\n')
        fh.write('{"config": "cfg-a", "graph_id": "torn')  # crashed mid-write

    resumed = Checkpoint(path, keys)
    assert set(resumed.done) == {"n04k000000000007"}
    assert resumed.done["n04k000000000007"] == rec
    # a record is reused only under the key given for its own graph id
    assert Checkpoint(path, {"n04k000000000007": "cfg-b"}).done == {}


def test_checkpoint_skips_json_lines_that_are_not_records(tmp_path):
    # valid JSON that is not an object, or names no string graph id, is skipped like a torn line
    path = tmp_path / "odd.ckpt"
    keys = {"n04k000000000007": "cfg-a"}
    rec = RunRecord("n04k000000000007", "standard", 1, 2, 9, 0.5, (0.1, 0.2))
    ck = Checkpoint(path, keys)
    ck.add(rec)
    ck.close()
    good = path.read_text()
    path.write_text('123\n[1, 2]\n"text"\nnull\n{"config": "cfg-a", "graph_id": [1]}\n' + good)
    assert Checkpoint(path, keys).done == {rec.graph_id: rec}
    path.write_text("123\n")
    assert Checkpoint(path, keys).done == {}


def test_checkpoint_torn_tail_does_not_swallow_next_record(tmp_path):
    # a run cut off mid-line leaves no final newline; the next record must start its own line
    ckpt = tmp_path / "train.ckpt"
    cfg = small_training_cfg()
    graphs = small_training_set()
    run_training(cfg, graphs=graphs[:3], checkpoint_path=ckpt)
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[:-20])

    full = run_training(cfg, graphs=graphs, checkpoint_path=ckpt)
    lines = ckpt.read_text().splitlines()
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line)["graph_id"])
        except json.JSONDecodeError:
            pass
    assert len(lines) == 7  # two whole lines, the torn one, then four new records
    assert sorted(parsed) == sorted(full[0])  # every graph has one readable line

    # a third run finds every graph done and appends nothing
    before = ckpt.read_bytes()
    again = run_training(cfg, graphs=graphs, checkpoint_path=ckpt)
    assert ckpt.read_bytes() == before
    assert again[2] == full[2]


def test_checkpoint_record_visible_before_close(tmp_path):
    # every finished graph reaches the file at once, so a killed run loses none
    path = tmp_path / "live.ckpt"
    keys = {"n04k000000000007": "cfg-a"}
    ck = Checkpoint(path, keys)
    rec = RunRecord("n04k000000000007", "standard", 1, 2, 9, 0.5, (0.1, 0.2))
    ck.add(rec)
    try:
        assert Checkpoint(path, keys).done == {rec.graph_id: rec}
    finally:
        ck.close()
    assert path.read_text() == (
        '{"config": "cfg-a", "graph_id": "n04k000000000007", "method": "standard", "layers": 1,'
        ' "param_count": 2, "evals": 9, "approx_ratio": 0.5, "best_params": [0.1, 0.2]}\n'
    )


def key_of(obj) -> str:
    parts = []
    _encode(obj, parts)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def test_checkpoint_key_hashes_values():
    assert key_of((1, 2.0)) != key_of((1.0, 2))
    assert key_of(np.float64(0.5)) == key_of(0.5)
    assert key_of(0.1 + 0.2) != key_of(0.3)  # floats exactly
    assert key_of(("ab", "c")) != key_of(("a", "bc"))
    assert key_of(np.zeros(2)) != key_of(np.zeros(2, dtype=np.float32))
    assert key_of(np.zeros((2, 1))) != key_of(np.zeros((1, 2)))
    assert key_of(OptimizerConfig()) == key_of(OptimizerConfig())
    assert key_of(OptimizerConfig()) != key_of(OptimizerConfig(max_evals=999))
    for unkeyable in ({"a": 1}, np.array([None])):  # no stage shares a dict; object arrays hold addresses
        with pytest.raises(TypeError):
            key_of(unkeyable)


def test_evaluate_standard_sorted_and_bounded():
    eval_set = build_eval_set(5, 8, seed=2)
    records = evaluate_standard(1, eval_set, optimizer_cfg=FAST_OPT)
    ids = [r.graph_id for r in records]
    assert ids == sorted(ids)
    assert all(r.evals <= FAST_OPT.max_evals for r in records)
    assert all(r.method == "standard" and r.param_count == 2 for r in records)
    assert all(0.0 <= r.approx_ratio <= 1.0 for r in records)


def test_evaluate_standard_k2_exact():
    k2 = [unit_weights(Graph(2, frozenset({(0, 1)})))]
    records = evaluate_standard(1, k2)
    assert records[0].approx_ratio >= 0.999


def test_evaluate_standard_checkpoint_tells_weightings_apart(tmp_path):
    # eval seeds 1 and 2 both sample graph n05k00000000003a, under different weights
    ckpt = tmp_path / "std.ckpt"
    evaluate_standard(1, build_eval_set(5, 3, seed=1), checkpoint_path=ckpt)
    eval_set = build_eval_set(5, 3, seed=2)
    resumed = evaluate_standard(1, eval_set, checkpoint_path=ckpt)
    assert resumed == evaluate_standard(1, eval_set)
    ratio = {r.graph_id: r.approx_ratio for r in resumed}["n05k00000000003a"]
    assert ratio == pytest.approx(0.9627, abs=1e-4)  # the seed-1 weighting gives 0.7693


def test_stages_reject_duplicate_graphs():
    k2 = unit_weights(Graph(2, frozenset({(0, 1)})))
    with pytest.raises(ValueError, match="duplicate graphs: n02k000000000001"):
        evaluate_standard(1, [k2, k2])
    with pytest.raises(ValueError, match="duplicate graphs"):
        run_training(small_training_cfg(), graphs=[k2, k2])


def test_evaluate_standard_depth_helps_on_median():
    eval_set = build_eval_set(5, 10, seed=4)
    shallow = evaluate_standard(1, eval_set, optimizer_cfg=OptimizerConfig(max_evals=400))
    deep = evaluate_standard(2, eval_set, optimizer_cfg=OptimizerConfig(max_evals=400))
    med1 = median([r.approx_ratio for r in shallow])
    med2 = median([r.approx_ratio for r in deep])
    if med2 < med1:
        warnings.warn(f"median ratio dropped from p=1 ({med1:.4f}) to p=2 ({med2:.4f})")


@pytest.fixture(scope="module")
def trained_model():
    cfg = TrainingConfig(p=2, optimizer=OptimizerConfig(max_evals=300))
    ids, X, records = run_training(cfg, small_training_set())
    return X, fit(X), records


def test_evaluate_pca_deterministic_and_labeled(trained_model):
    X, model, _ = trained_model
    eval_set = build_eval_set(5, 6, seed=8)
    cfg = EvalConfig(p=2, k_components=2, n_eval=5, count=6, restarts=1, seed=5)
    a = evaluate_pca(cfg, model, eval_set, X, optimizer_cfg=FAST_OPT)
    b = evaluate_pca(cfg, model, eval_set, X, optimizer_cfg=FAST_OPT)
    assert a == b
    assert all(r.method == "pca" and r.param_count == 2 and r.layers == 2 for r in a)
    ids = [r.graph_id for r in a]
    assert ids == sorted(ids)


def test_evaluate_pca_ratio_recomputes_from_stored_params(trained_model):
    X, model, _ = trained_model
    eval_set = build_eval_set(5, 5, seed=11)
    cfg = EvalConfig(p=2, k_components=2, n_eval=5, count=5, restarts=2, seed=6)
    for rec in evaluate_pca(cfg, model, eval_set, X, optimizer_cfg=FAST_OPT):
        wg = next(w for w in eval_set if graph_id(w.graph) == rec.graph_id)
        energy = objective(cost_diagonal(wg), ParameterVector.from_array(np.array(rec.best_params)))
        cmin, _ = brute_force_cmin(wg)
        assert rec.approx_ratio == pytest.approx(approximation_ratio(energy, cmin), abs=1e-9)


def test_evaluate_pca_full_basis_recovers_training_quality(trained_model):
    """With every component retained, reduced runs should roughly match full training."""
    X, model, train_records = trained_model
    graphs = small_training_set()
    trained_by_id = {r.graph_id: r.approx_ratio for r in train_records}
    for wg in graphs:
        # k = 2p: EvalConfig allows k <= p only, so the per-graph task is called directly
        rec = _pca_task(wg, graph_id(wg.graph), model, X, 4, 3, 9, OptimizerConfig(max_evals=300))
        assert rec.approx_ratio >= trained_by_id[rec.graph_id] - 0.05


def test_evaluate_pca_checkpoint_resume(trained_model, tmp_path):
    X, model, _ = trained_model
    ckpt = tmp_path / "pca.ckpt"
    eval_set = build_eval_set(5, 6, seed=8)
    cfg = EvalConfig(p=2, k_components=2, n_eval=5, count=6, restarts=2, seed=5)

    def evaluate(graphs, checkpoint_path=None):
        return evaluate_pca(cfg, model, graphs, X, optimizer_cfg=FAST_OPT, checkpoint_path=checkpoint_path)

    # first pass covers only half the set
    evaluate(eval_set[:3], ckpt)
    assert len(ckpt.read_text().splitlines()) == 3

    # resume over the full set: only the remaining graphs are computed
    full = evaluate(eval_set, ckpt)
    assert len(ckpt.read_text().splitlines()) == 6
    fresh = evaluate(eval_set)
    assert full == fresh

    # a third run finds everything done and appends nothing
    again = evaluate(eval_set, ckpt)
    assert len(ckpt.read_text().splitlines()) == 6
    assert again == fresh


def test_evaluate_pca_checkpoint_recomputes_for_changed_inputs(trained_model, tmp_path):
    # the model and the training matrix change under an unchanged config (same model_ref)
    X, model, _ = trained_model
    ckpt = tmp_path / "pca.ckpt"
    eval_set = build_eval_set(5, 3, seed=8)
    cfg = EvalConfig(p=2, k_components=2, restarts=1, seed=5, model_ref="model.pca")
    evaluate_pca(cfg, model, eval_set, X, optimizer_cfg=FAST_OPT, checkpoint_path=ckpt)
    shifted = PCAModel(model.p, model.mean + 0.1, model.components, model.eigenvalues)
    scaled = ParameterMatrix(X.rows * 1.5)
    for m, x in ((shifted, X), (model, scaled)):
        resumed = evaluate_pca(cfg, m, eval_set, x, optimizer_cfg=FAST_OPT, checkpoint_path=ckpt)
        assert resumed == evaluate_pca(cfg, m, eval_set, x, optimizer_cfg=FAST_OPT)
    assert len(ckpt.read_text().splitlines()) == 9


def test_evaluate_pca_rejects_mismatched_model(trained_model):
    X, model, _ = trained_model
    eval_set = build_eval_set(5, 3, seed=1)
    with pytest.raises(ValueError):
        evaluate_pca(EvalConfig(p=4, k_components=2), model, eval_set, X)


def test_compare_identical_records_is_null():
    recs = [
        RunRecord(f"n05k{i:012x}", "pca", 2, 2, 50 + i, 0.9, (0.0,) * 4) for i in range(10)
    ]
    row = compare(recs, recs, "same_layers", training_set="unweighted")
    assert row.p_value_evals == 1.0
    assert row.rbc_evals == 0.0
    assert row.p_value_ratio == 1.0
    assert row.rbc_ratio == 0.0
    assert row.n_pairs == 10


def test_compare_dominant_side_hits_minus_one():
    pca = [RunRecord(f"n05k{i:012x}", "pca", 2, 2, 10 + i, 0.9, (0.0,) * 4) for i in range(12)]
    base = [RunRecord(f"n05k{i:012x}", "standard", 2, 4, 100 + i, 0.9, (0.0,) * 4) for i in range(12)]
    row = compare(pca, base, "same_layers")
    assert row.rbc_evals == -1.0
    assert row.p_value_evals < 0.01
    swapped = compare(base, pca, "same_layers")
    assert swapped.rbc_evals == 1.0
    assert swapped.p_value_evals == row.p_value_evals


def test_compare_misaligned_lists_name_offenders():
    pca = [RunRecord("n05k000000000001", "pca", 2, 2, 10, 0.9, (0.0,) * 4)]
    base = [RunRecord("n05k000000000002", "standard", 2, 4, 20, 0.9, (0.0,) * 4)]
    with pytest.raises(ValueError) as err:
        compare(pca, base, "same_params")
    assert "n05k000000000001" in str(err.value)
    assert "n05k000000000002" in str(err.value)
    with pytest.raises(ValueError):
        compare(pca, base * 2, "same_params")


def test_report_configuration_matrix():
    cfgs = REPORT_CONFIGURATIONS
    assert len(cfgs) == 12
    assert len(set(cfgs)) == 12
    for ts, p, k in cfgs:
        assert ts in ("unweighted", "weighted")
        assert (p, k) in {(2, 2), (4, 2), (4, 4), (8, 2), (8, 4), (8, 8)}
        assert k <= p
    assert {(p, k) for _, p, k in cfgs} == {(2, 2), (4, 2), (4, 4), (8, 2), (8, 4), (8, 8)}


def test_render_report_structure():
    def row(ts, p, k, kind):
        from qaoa_pca.records import ComparisonRow

        return ComparisonRow(
            training_set=ts, layers=p, param_count=k, baseline_kind=kind, n_pairs=4,
            median_evals=10.0, median_evals_baseline=20.0, p_value_evals=0.5, rbc_evals=-1.0,
            median_ratio=0.9, median_ratio_baseline=0.95, p_value_ratio=0.6, rbc_ratio=-0.5,
        )

    rows = [
        (row(ts, p, k, "same_layers"), row(ts, p, k, "same_params"))
        for ts, p, k in REPORT_CONFIGURATIONS
    ]
    text = render_report(rows)
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    assert len(lines) == 2 + 12  # header + separator + data
    assert "Training Set" in lines[0] and "# Param." in lines[0]
    assert all(line.count("|") == lines[0].count("|") for line in lines)
