"""The benchmark's calls into the package must keep working.

Tier-1 loads perfbench/checks.py, spans.py and workloads.py read-only (`oracles.load_benchmark`) and calls their
`Tracer`, `TRACED`, `completion_times`, `check_p8_inputs`, `Checks`, `spot_check` and, in two other files, `BUILDERS`.
"""

import ast
import importlib
import sys

import numpy as np
import pytest

from qaoa_pca.graphs import graph_id
from qaoa_pca.optimizer import OptimizerConfig, train_graph
from qaoa_pca.pca import ParameterMatrix, fit
from qaoa_pca.pipeline import EvalConfig, build_graph_set, evaluate_pca, evaluate_standard

from oracles import PERFBENCH, load_benchmark

checks = load_benchmark("checks")
spans = load_benchmark("spans")
workloads = load_benchmark("workloads")


def test_every_traced_target_resolves():
    assert spans.TRACED
    for name, modname, attr in spans.TRACED:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert cls is not None and member in vars(cls), f"{name}: {modname}.{attr} is not in the class dict"
        else:
            assert callable(getattr(owner, attr, None)), f"{name}: {modname}.{attr} is not a callable"


@pytest.mark.parametrize("reduced", [False, True])
def test_objective_observer_reads_the_layer_count(reduced):
    # run.py checks minimize_evals against the objective spans; amp_updates reads params.p of each call
    graphs = build_graph_set(4, 4, weighted=False, seed=2024)[:2]
    cfg = OptimizerConfig(max_evals=15)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        if reduced:
            X = ParameterMatrix(np.random.default_rng(0).uniform(-1, 1, (6, 4)))
            evaluate_pca(EvalConfig(p=2, k_components=2, restarts=2, seed=2024), fit(X), graphs, X, cfg)
        else:
            evaluate_standard(2, graphs, cfg)
    finally:
        tracer.uninstall()
    calls = tracer.summary()["engine.objective"]["calls"]
    assert calls == tracer.counts["minimize_evals"] > 0
    assert tracer.counts["amp_updates"] == calls * 2 * 4 * 16  # p * n * 2^n per call


def test_wrapped_checkpoint_add_sees_every_finished_graph(tmp_path):
    serial = workloads.BUILDERS["train-p2"]()
    stamps = []
    with workloads.completion_times(stamps):
        records = serial.stage(serial.graphs, tmp_path / "t.ckpt")
    assert [gid for gid, _ in stamps] == [rec.graph_id for rec in records]


def test_spot_check_evolves_a_record_s_angles():
    wg = build_graph_set(4, 4, weighted=True, seed=2024)[3]
    rec = train_graph(wg, graph_id(wg.graph), 2, OptimizerConfig(max_evals=40))
    result = checks.Checks()
    checks.spot_check(result, wg.graph.n, dict(wg.weights), rec.best_params, rec.approx_ratio, "spot check")
    assert (result.attempted, result.failures) == (3, [])


@pytest.mark.parametrize("name", ["checks.py", "workloads.py", "run.py"])
def test_every_benchmark_import_resolves(name):
    # the benchmark imports the package inside its functions, so a removed name
    # would otherwise fail only when the benchmark reaches that call
    path = PERFBENCH / name
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
    result = checks.Checks()
    workloads.check_p8_inputs(result)  # a model rule the checked-in inputs break fails here first
    assert (result.attempted, result.failures) == (1, [])


def test_loading_the_benchmark_writes_nothing_under_it(monkeypatch, tmp_path):
    # bytecode writing on, into an empty prefix; listings, as perfbench/run.py may have left a __pycache__ there
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    before = sorted(PERFBENCH.rglob("*"))
    for name in ("checks", "spans", "workloads"):
        monkeypatch.delitem(sys.modules, name)
        load_benchmark(name)
    assert sorted(PERFBENCH.rglob("*")) == before
    assert not any(tmp_path.iterdir())
