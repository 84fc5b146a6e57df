"""The three benchmark workloads, each a closed loop driven by this process.

Inputs are fixed per workload and built from GEN_SEED; the run's --seed only
permutes the order in which the graphs (or the independent CLI calls) are
issued. Per-graph results do not depend on that order, so the paper's metrics
and the reference comparison repeat exactly across seeds, while the timing
still sees a different schedule on every seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    Checks,
    as_record,
    check_record,
    read_graph_set,
    read_matrix_csv,
    read_records_csv,
    spot_check,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"

GEN_SEED = 2024  # generator seed of every workload's inputs (the criterion 6/7 fixture seed)
BUDGET = 1000  # OptimizerConfig().max_evals, the per-start evaluation budget
TRAIN_PER_N = 2  # train-p2: the first 2 graphs of each vertex count 5 and 6
EVAL_P8_GRAPHS = 12  # eval-pca-p8: sampled weighted 8-vertex graphs
CLI_EVAL_GRAPHS = 2  # cli-pipeline: sampled weighted 7-vertex graphs
RESUME_MIN_REPEATS = 5
RESUME_WINDOW_S = 1.0

clock = time.perf_counter


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def order(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


@dataclass
class Outcome:
    """What a workload hands back for the metrics: timings, records, checks."""

    checks: Checks
    records: list[dict]
    wall_s: list[float] = field(default_factory=list)  # one per pass
    graph_s: dict[str, list[float]] = field(default_factory=dict)  # per graph (or CLI call), one per pass
    resume_s: list[float] = field(default_factory=list)  # every resumed call
    graphs_done: int = 0
    busy_s: float = 0.0
    extra: dict = field(default_factory=dict)


# ---- serial workloads: one public stage call per pass, workers=1 -----------


@dataclass
class Serial:
    graphs: list  # WeightedGraph, fixed order
    stage: Callable  # (graphs, checkpoint path) -> list[RunRecord], one public stage call


def build_train_p2() -> Serial:
    from qaoa_pca.pipeline import TrainingConfig, build_graph_set, run_training

    cfg = TrainingConfig(training_set="unweighted", p=2, vertex_range=(5, 6), seed=GEN_SEED)
    every = build_graph_set(5, 6, weighted=False, seed=GEN_SEED)
    graphs = [wg for n in (5, 6) for wg in [g for g in every if g.graph.n == n][:TRAIN_PER_N]]

    def stage(gs, ckpt):
        return run_training(cfg, graphs=gs, checkpoint_path=ckpt, workers=1)[2]

    return Serial(graphs, stage)


def build_eval_pca_p8() -> Serial:
    from qaoa_pca.optimizer import OptimizerConfig
    from qaoa_pca.pca import ParameterMatrix, load_model
    from qaoa_pca.pipeline import EvalConfig, build_eval_set, evaluate_pca
    from qaoa_pca.records import read_matrix

    model = load_model(INPUTS / "eval-pca-p8" / "p8_model.pca")
    _, rows = read_matrix(INPUTS / "eval-pca-p8" / "p8_matrix.csv")
    training = ParameterMatrix(rows)
    graphs = build_eval_set(8, EVAL_P8_GRAPHS, seed=GEN_SEED)
    cfg = EvalConfig(
        p=8, k_components=2, n_eval=8, count=EVAL_P8_GRAPHS, restarts=5, seed=GEN_SEED,
        model_ref="p8_model.pca",
    )

    def stage(gs, ckpt):
        return evaluate_pca(cfg, model, gs, training, OptimizerConfig(), checkpoint_path=ckpt, workers=1)

    return Serial(graphs, stage)


def check_p8_inputs(checks: Checks) -> None:
    """The checked-in model is what pca.fit gives on the checked-in matrix."""
    import numpy as np
    from qaoa_pca.pca import ParameterMatrix, fit, load_model
    from qaoa_pca.records import read_matrix

    model = load_model(INPUTS / "eval-pca-p8" / "p8_model.pca")
    _, rows = read_matrix(INPUTS / "eval-pca-p8" / "p8_matrix.csv")
    refit = fit(ParameterMatrix(rows))
    same = (
        refit.p == model.p
        and np.array_equal(refit.mean, model.mean)
        and np.array_equal(refit.components, model.components)
        and np.array_equal(refit.eigenvalues, model.eigenvalues)
    )
    checks.check(same, "eval-pca-p8: checked-in model differs from fit(checked-in matrix)")


@contextlib.contextmanager
def completion_times(stamps: list[tuple[str, float]]):
    """Append (graph id, clock()) each time a stage hands a finished graph to its checkpoint."""
    from qaoa_pca.pipeline import Checkpoint

    original = Checkpoint.__dict__["add"]

    def add(self, rec):
        original(self, rec)
        stamps.append((rec.graph_id, clock()))

    Checkpoint.add = add
    try:
        yield
    finally:
        Checkpoint.add = original


def run_serial(wl: Serial, name: str, seed: int, seconds: float, work: Path, tracer) -> Outcome:
    """Passes of one stage call over the graphs, each followed by the same call resumed from its checkpoint."""
    checks = Checks()
    if name == "eval-pca-p8":
        check_p8_inputs(checks)
    issue = order(wl.graphs, seed)
    passes: list[dict] = []
    out = Outcome(checks, [])
    if tracer:
        tracer.active = True
    stamps: list[tuple[str, float]] = []
    start = clock()
    while True:
        ckpt = work / f"pass{len(passes)}.ckpt"
        stamps.clear()
        t_pass = clock()
        with completion_times(stamps):
            recs = wl.stage(issue, ckpt)
        out.wall_s.append(clock() - t_pass)
        checks.check(len(stamps) == len(issue), f"{name}: {len(stamps)} of {len(issue)} graphs checkpointed")
        previous = t_pass
        for gid, t in stamps:
            out.graph_s.setdefault(gid, []).append(t - previous)
            previous = t
        out.graphs_done += len(recs)
        passes.append({rec.graph_id: rec for rec in recs})
        # resume: the same call against the finished checkpoint, nothing left to compute;
        # repeated after every pass so the samples span the run like the pass timings do
        resume_until = clock() + RESUME_WINDOW_S
        for i in itertools.count(1):
            t0 = clock()
            resumed = wl.stage(issue, ckpt)
            out.resume_s.append(clock() - t0)
            if tracer or (i >= RESUME_MIN_REPEATS and clock() >= resume_until):
                break
        elapsed = clock() - start
        if tracer or elapsed + elapsed / len(passes) > seconds:
            break
    out.busy_s = sum(out.wall_s)
    if tracer:
        tracer.active = False
    out.extra["t_end"] = clock()

    first = passes[0]
    for i, got in enumerate(passes):
        for gid, rec in got.items():
            check_record(checks, as_record(rec) | {"best_params": rec.best_params}, BUDGET, f"{name} {gid}")
            if i:
                checks.check(rec == first[gid], f"{name} {gid}: pass {i} differs from pass 0")
    for rec in resumed:
        checks.check(rec == first.get(rec.graph_id), f"{name} {rec.graph_id}: resumed record differs")
    wg = issue[0]
    probe = first[_gid(wg)]
    spot_check(checks, wg.graph.n, dict(wg.weights), probe.best_params, probe.approx_ratio, name)
    out.records = [as_record(first[_gid(wg)]) for wg in wl.graphs]
    return out


def _gid(wg) -> str:
    from qaoa_pca.pipeline import graph_id

    return graph_id(wg.graph)


# ---- cli-pipeline: the qaoa-pca chain, then the same chain resumed ----------


def chain(seed: int, workers: int, d: Path) -> list[tuple[str, list[str]]]:
    """The CLI calls of one pass; the independent calls are issued in seeded order."""
    common = ["--no-timestamp", "--workers", str(workers)]
    f = lambda name: str(d / name)  # noqa: E731
    evaluate = [
        ["evaluate", "--graphs", f("eval.graphs"), "--model", f("model.pca"), "--components", "2",
         "--matrix", f("params.csv"), "--seed", str(GEN_SEED), "--checkpoint", f("pca.ckpt"),
         "--out", f("pca_p2_k2.csv")],
        ["evaluate", "--graphs", f("eval.graphs"), "--standard", "--p", "2",
         "--checkpoint", f("std2.ckpt"), "--out", f("standard_p2.csv")],
        ["evaluate", "--graphs", f("eval.graphs"), "--standard", "--p", "1",
         "--checkpoint", f("std1.ckpt"), "--out", f("standard_p1.csv")],
    ]
    compare = [
        ["compare", "--pca", f("pca_p2_k2.csv"), "--baseline", f("standard_p2.csv"),
         "--kind", "same_layers", "--training-set", "unweighted", "--out", f("cmp_same_layers.json")],
        ["compare", "--pca", f("pca_p2_k2.csv"), "--baseline", f("standard_p1.csv"),
         "--kind", "same_params", "--training-set", "unweighted", "--out", f("cmp_same_params.json")],
    ]
    calls = [
        ["gen-graphs", "--n", "4", "--out", f("train.graphs")],
        ["gen-graphs", "--n", "7", "--count", str(CLI_EVAL_GRAPHS), "--weighted", "--seed", str(GEN_SEED),
         "--out", f("eval.graphs")],
        ["train", "--graphs", f("train.graphs"), "--p", "2", "--seed", str(GEN_SEED),
         "--checkpoint", f("train.ckpt"), "--records", f("train_records.csv"), "--out", f("params.csv")],
        ["fit-pca", "--matrix", f("params.csv"), "--out", f("model.pca")],
        *order(evaluate, seed),
        *order(compare, seed),
    ]
    return [(argv[0], argv + common) for argv in calls]


RECORD_FILES = ("train_records.csv", "pca_p2_k2.csv", "standard_p2.csv", "standard_p1.csv")
OPTIMIZING = ("train", "evaluate")


def _call_subprocess(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "qaoa_pca.cli", *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    return proc.returncode, proc.stderr


def _call_inprocess(argv: list[str]) -> tuple[int, str]:
    from qaoa_pca.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_chain(calls, call, checks: Checks, label: str) -> tuple[float, list[tuple[str, float]]] | None:
    """Run the calls in order; None (and a failed check) on the first non-zero exit."""
    times = []
    t_chain = clock()
    for sub, argv in calls:
        t0 = clock()
        code, err = call(argv)
        times.append((sub, clock() - t0))
        if not checks.check(code == 0, f"{label} {sub} exited {code}: {err.strip()[-300:]}"):
            return None
    return clock() - t_chain, times


def snapshot(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.suffix != ".ckpt"}


def run_cli(seed: int, seconds: float, work: Path, tracer) -> Outcome:
    checks = Checks()
    out = Outcome(checks, [])
    workers = 1 if tracer else nproc()
    call = _call_inprocess if tracer else _call_subprocess
    cli_s: dict[str, float] = {}
    start = clock()
    while True:
        d = work / f"pass{len(out.wall_s)}"
        d.mkdir()
        calls = chain(seed, workers, d)
        if tracer:
            tracer.active = True
        first = run_chain(calls, call, checks, "first pass")
        if first is None:
            break
        before = snapshot(d)
        again = run_chain(calls, call, checks, "resumed pass")
        if tracer:
            tracer.active = False
            out.extra["t_end"] = clock()
        if again is None:
            break
        after = snapshot(d)
        for fname, data in before.items():
            checks.check(after.get(fname) == data, f"resumed pass rewrote {fname} differently")
        records = [r for fname in RECORD_FILES for r in read_records_csv(d / fname)]
        out.wall_s.append(first[0])
        out.resume_s.append(again[0])
        per_call = {"train": len(read_records_csv(d / "train_records.csv")), "evaluate": CLI_EVAL_GRAPHS}
        for i, (sub, t) in enumerate(first[1]):
            if sub in OPTIMIZING:
                out.graph_s.setdefault(f"{i}:{sub}", []).append(t / per_call[sub])
        out.graphs_done += len(records)
        for sub, t in first[1] + again[1]:
            cli_s[sub] = cli_s.get(sub, 0.0) + t
        if not out.records:
            out.records = records
            out.extra["first_calls"] = first[1]
            _check_cli_outputs(checks, d, records)
        elapsed = clock() - start
        if tracer or elapsed + elapsed / len(out.wall_s) > seconds:
            break
    out.busy_s = sum(out.wall_s)
    out.extra["cli_s"] = cli_s
    if tracer and out.records:
        out.extra["pool"] = _pool_walls(seed, work, checks)
    return out


def _check_cli_outputs(checks: Checks, d: Path, records: list[dict]) -> None:
    for rec in records:
        check_record(checks, rec, BUDGET, f"cli-pipeline {rec['method']} p{rec['layers']} {rec['graph_id']}")
    n_train = len(read_graph_set(d / "train.graphs"))
    checks.check(len(records) == n_train + 3 * CLI_EVAL_GRAPHS, f"cli-pipeline: {len(records)} records")
    # dense spot check on the first training graph, angles from the matrix file
    from qaoa_pca.graphs import Graph
    from qaoa_pca.pipeline import graph_id

    n, edges = read_graph_set(d / "train.graphs")[0]
    gid = graph_id(Graph(n, frozenset(edges)))
    theta = read_matrix_csv(d / "params.csv")[gid]
    ratio = next(r["approx_ratio"] for r in records if r["graph_id"] == gid and r["method"] == "standard")
    spot_check(checks, n, edges, theta, ratio, "cli-pipeline")


def _pool_walls(seed: int, work: Path, checks: Checks) -> dict[str, float]:
    """Untraced optimizing calls at nproc workers, for the pool efficiency."""
    d = work / "pool"
    d.mkdir()
    walls = {"workers": nproc(), "train": 0.0, "evaluate": 0.0}
    done = run_chain(chain(seed, nproc(), d), _call_inprocess, checks, "pool pass")
    if done:
        for sub, t in done[1]:
            if sub in OPTIMIZING:
                walls[sub] += t
    shutil.rmtree(d, ignore_errors=True)
    return walls


# ---- set-up probes -----------------------------------------------------------


def setup_only(name: str) -> None:
    """What a fresh process pays before the workload's first graph."""
    if name == "cli-pipeline":
        import qaoa_pca.cli  # noqa: F401  # every CLI call pays this import
    else:
        BUILDERS[name]()


BUILDERS = {"train-p2": build_train_p2, "eval-pca-p8": build_eval_pca_p8}
