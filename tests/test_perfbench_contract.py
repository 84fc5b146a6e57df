"""The benchmark's calls into the package must keep working.

Every function the benchmark traces must exist where perfbench/spans.py looks
for it; spans.py is parsed, not imported, so the benchmark directory is only
read. The other tests make the calls perfbench/workloads.py makes.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from qaoa_pca.optimizer import OptimizerConfig
from qaoa_pca.pipeline import Checkpoint, EvalConfig, TrainingConfig, build_graph_set, run_training

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
