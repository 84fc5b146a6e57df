"""The benchmark's calls into the package must keep working.

Every function the benchmark traces must exist where perfbench/spans.py looks
for it; spans.py is parsed, not imported, so the benchmark directory is only
read. The other tests make the calls perfbench/workloads.py makes.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from qaoa_pca import optimizer
from qaoa_pca.engine import ParameterVector, approximation_ratio, evolve
from qaoa_pca.graphs import graph_id
from qaoa_pca.maxcut import cost_diagonal
from qaoa_pca.optimizer import OptimizerConfig, train_graph
from qaoa_pca.pca import ParameterMatrix, fit, load_model
from qaoa_pca.pipeline import Checkpoint, EvalConfig, TrainingConfig, build_graph_set, evaluate_pca, run_training
from qaoa_pca.records import read_matrix

from oracles import expectation

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TRACED tuple")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    for name, modname, attr in targets:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert cls is not None and member in vars(cls), f"{name}: {modname}.{attr} is not in the class dict"
        else:
            assert callable(getattr(owner, attr, None)), f"{name}: {modname}.{attr} is not a callable"


def test_workload_configs_construct():
    EvalConfig(p=8, k_components=2, n_eval=8, count=12, restarts=5, seed=2024, model_ref="p8_model.pca")
    TrainingConfig(training_set="unweighted", p=2, vertex_range=(5, 6), seed=2024)


def test_wrapped_checkpoint_add_sees_every_finished_graph(tmp_path):
    # workloads.completion_times times each graph by wrapping Checkpoint.add like this
    cfg = TrainingConfig(training_set="unweighted", p=2, vertex_range=(5, 6), seed=2024)
    cfg = dataclasses.replace(cfg, optimizer=OptimizerConfig(max_evals=60))
    every = build_graph_set(5, 6, weighted=False, seed=2024)
    graphs = [wg for n in (5, 6) for wg in [g for g in every if g.graph.n == n][:2]]
    seen = []
    original = Checkpoint.__dict__["add"]

    def add(self, rec):
        original(self, rec)
        seen.append(rec.graph_id)

    Checkpoint.add = add
    try:
        ids, _, _ = run_training(cfg, graphs=graphs, checkpoint_path=tmp_path / "t.ckpt", workers=1)
    finally:
        Checkpoint.add = original
    assert seen == ids


def test_spot_check_evolves_a_record_s_angles():
    # checks.spot_check rebuilds a record's angles from its best_params tuple like this
    wg = build_graph_set(4, 4, weighted=True, seed=2024)[3]
    rec = train_graph(wg, graph_id(wg.graph), 2, OptimizerConfig(max_evals=40))
    diag = cost_diagonal(wg)
    sv = evolve(diag, ParameterVector.from_array(np.asarray(rec.best_params, dtype=float)))
    assert approximation_ratio(expectation(sv, diag), float(diag.min())) == rec.approx_ratio


@pytest.mark.parametrize("reduced", [False, True])
def test_objective_observer_reads_the_layer_count(monkeypatch, reduced):
    # spans.Tracer counts amplitude updates from params.p, the second argument of every objective call
    seen = []
    original = optimizer.objective

    def objective(diag, params):
        seen.append(params.p)
        return original(diag, params)

    monkeypatch.setattr(optimizer, "objective", objective)
    graphs = build_graph_set(4, 4, weighted=False, seed=2024)[:2]
    cfg = OptimizerConfig(max_evals=15)
    if reduced:
        X = ParameterMatrix(np.random.default_rng(0).uniform(-1, 1, (6, 4)))
        ecfg = EvalConfig(p=2, k_components=2, n_eval=4, count=2, restarts=2, seed=2024, model_ref="m.pca")
        records = evaluate_pca(ecfg, fit(X), graphs, X, cfg)
    else:
        records = [train_graph(wg, graph_id(wg.graph), 2, cfg) for wg in graphs]
    assert len(seen) >= sum(rec.evals for rec in records) > 0
    assert set(seen) == {2}


@pytest.mark.parametrize("name", ["checks.py", "workloads.py", "run.py"])
def test_every_benchmark_import_resolves(name):
    # the benchmark imports the package inside its functions, so a removed name
    # would otherwise fail only when the benchmark reaches that call
    path = SPANS.parent / name
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qaoa_pca":
            module = importlib.import_module(node.module)
            found += [(node.lineno, node.module, alias.name, hasattr(module, alias.name)) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qaoa_pca":
                    importlib.import_module(alias.name)
                    found.append((node.lineno, alias.name, "", True))
    assert found, f"{path} imports nothing from qaoa_pca"
    missing = [f"{name}:{line}: {mod}.{attr}" for line, mod, attr, ok in found if not ok]
    assert not missing, f"names the benchmark imports are gone: {missing}"


def test_checked_in_p8_inputs_load_and_refit_to_the_model():
    # workloads.check_p8_inputs makes this comparison; a model rule the inputs break fails here first
    inputs = SPANS.parent / "inputs" / "eval-pca-p8"
    model = load_model(inputs / "p8_model.pca")
    _, rows = read_matrix(inputs / "p8_matrix.csv")
    refit = fit(ParameterMatrix(rows))
    assert refit.p == model.p == 8
    assert np.array_equal(refit.mean, model.mean)
    assert np.array_equal(refit.components, model.components)
    assert np.array_equal(refit.eigenvalues, model.eigenvalues)
