"""Experiment orchestration: training sets, per-graph training, reduced-parameter
evaluation, paired baselines, and the comparison report.

Every random choice flows from a master seed through stable_hash, so any stage
rerun with the same configuration reproduces its artifacts byte for byte.
Long stages checkpoint per graph into an append-only JSONL file and can be cut
off and resumed; a record is reused only when everything it was computed from
is unchanged (see `_run_stage`).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .graphs import (
    Graph,
    WeightedGraph,
    assign_random_weights,
    enumerate_connected_nonisomorphic,
    graph_id,
    sample_connected_nonisomorphic,
    unit_weights,
)
from .optimizer import OptimizerConfig, optimize_graph, train_graph
from .pca import ParameterMatrix, PCAModel, expand, sample_coefficients
from .records import METHOD_PCA, ComparisonRow, RunRecord
from .stats import wilcoxon_signed_rank

TRAINING_SETS = ("unweighted", "weighted")
DEPTHS = (1, 2, 4, 8)  # the circuit depths of the full-parameter stages
BASELINE_KINDS = ("same_layers", "same_params")

# every (training set, layers, retained components) cell of the report
REPORT_CONFIGURATIONS = tuple(
    (ts, p, k)
    for ts in TRAINING_SETS
    for (p, k) in ((2, 2), (4, 2), (4, 4), (8, 2), (8, 4), (8, 8))
)


def stable_hash(*parts) -> int:
    """64-bit integer digest of the stringified parts; stable across runs and platforms."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class TrainingConfig:
    # training_set, vertex_range and seed are read by nothing in the package;
    # they stay because the benchmark workloads pass them (ROADMAP item 2)
    training_set: str = "unweighted"
    p: int = 2
    vertex_range: tuple[int, int] = (5, 7)
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.p not in DEPTHS:
            raise ValueError(f"p must be one of {DEPTHS}, got {self.p}")


@dataclass(frozen=True)
class EvalConfig:
    p: int
    k_components: int
    # n_eval, count and model_ref are read by nothing in the package; they stay
    # because the benchmark workloads pass them (ROADMAP item 2)
    n_eval: int = 8
    count: int = 1000
    restarts: int = 5
    seed: int = 0
    model_ref: str = ""

    def __post_init__(self):
        if not (1 <= self.k_components <= self.p):
            raise ValueError(
                f"k_components must be in 1..{self.p} for p={self.p}"
                f" (at most half the 2p parameters), got {self.k_components}"
            )
        if self.k_components % 2 != 0:
            raise ValueError(f"k_components must be even, got {self.k_components}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")


class Checkpoint:
    """Append-only JSONL of finished per-graph records, one `{"config": key, ...record}` a line.

    `keys` maps each graph id to the key its record must carry to be reused: a
    hash of everything the record was computed from, this package's code
    included (`_run_stage` makes them). `done` holds the records the file held
    under those keys when opened. A line is
    kept in the file but ignored, and its graph recomputed, when reading it raises
    KeyError, TypeError or ValueError: a blank line, a line torn by a cut-off run,
    JSON other than an object, an object whose graph id is missing or not in
    `keys`, a line under another key, and a record with a field missing or refused
    by `RunRecord`. Each `add` opens the file, appends one line and closes it, so
    no file stays open between records; the first ends a torn final line with a newline.
    """

    def __init__(self, path, keys: dict[str, str]):
        self.path = Path(path)
        self.keys = keys
        self.done: dict[str, RunRecord] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            lines = []
        self._torn = bool(lines) and not lines[-1].endswith("\n")
        for line in lines:
            try:
                obj = json.loads(line)
                gid = obj["graph_id"]
                if obj["config"] == keys[gid]:
                    self.done[gid] = RunRecord(
                        gid, obj["method"], obj["layers"], obj["param_count"],
                        obj["evals"], obj["approx_ratio"], tuple(obj["best_params"]),
                    )
            except (KeyError, TypeError, ValueError):  # a line the class docstring lists
                continue

    def add(self, rec: RunRecord) -> None:
        line = json.dumps({"config": self.keys[rec.graph_id], **asdict(rec)}) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:  # a killed run keeps every finished graph
            fh.write("\n" + line if self._torn else line)
        self._torn = False


def _attach_weights(graphs: list[Graph], weighted: bool, seed: int) -> list[WeightedGraph]:
    if not weighted:
        return [unit_weights(g) for g in graphs]
    return [assign_random_weights(g, stable_hash(seed, "weights", graph_id(g))) for g in graphs]


def build_graph_set(v_lo: int, v_hi: int, weighted: bool, seed: int) -> list[WeightedGraph]:
    """All connected non-isomorphic graphs on v_lo..v_hi vertices, ascending."""
    graphs = []
    for n in range(v_lo, v_hi + 1):
        graphs.extend(enumerate_connected_nonisomorphic(n))
    return _attach_weights(graphs, weighted, seed)


def build_eval_set(n: int, count: int, seed: int, weighted: bool = True) -> list[WeightedGraph]:
    """`count` sampled non-isomorphic n-vertex instances with persistent weights."""
    graphs = sample_connected_nonisomorphic(n, count, stable_hash(seed, "eval-sample", n))
    return _attach_weights(graphs, weighted, seed)


def _pca_task(wg, gid, model, training_X, k, restarts, seed, opt) -> RunRecord:
    starts = (
        sample_coefficients(model, k, training_X, stable_hash(seed, "pca-init", gid, r))
        for r in range(restarts)
    )
    return optimize_graph(wg, gid, METHOD_PCA, starts, partial(expand, model), opt)


def _map_tasks(fn, tasks, workers: int):
    workers = min(workers, len(tasks))  # under fork a pool starts every worker at its first submit
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(fn, *zip(*tasks))
    else:
        for t in tasks:
            yield fn(*t)


# the package's own code, one input of every checkpoint key: each module's name and bytes
_SOURCE = hashlib.sha256(
    pickle.dumps([(f.name, f.read_bytes()) for f in sorted(Path(__file__).parent.glob("*.py"))], protocol=5)
).digest()


def _run_stage(
    graphs: list[WeightedGraph], fn, shared: tuple, checkpoint_path, workers: int
) -> dict[str, RunRecord]:
    """fn(wg, gid, *shared) on each graph; the records by graph id, in graph order.

    An empty set is rejected, and so are two isomorphic graphs, which would
    share an id. Each record reaches the checkpoint when its graph's result
    comes back, in graph order. A checkpointed record is reused only under the
    key of what it was computed from: fn, the shared arguments, the numpy version
    (the optimizer's trajectory depends on numpy's arithmetic), the package's own
    source (`_SOURCE`) and the weighted graph. The key hashes their pickles, which
    round-trip these values, so two different inputs never share a key; an equal
    value that pickles otherwise (a shared object, a strided array) only misses,
    and is recomputed.
    """
    if not graphs:
        raise ValueError("the graph set is empty: there is nothing to compute")
    ids = [graph_id(wg.graph) for wg in graphs]
    todo = dict(zip(ids, graphs))
    if len(todo) != len(ids):
        dupes = sorted({g for g in ids if ids.count(g) > 1})
        raise ValueError(f"graph set contains duplicate graphs: {', '.join(dupes)}")
    checkpoint = None
    done = {}
    if checkpoint_path:
        stage = hashlib.sha256(pickle.dumps((fn.__qualname__, shared, np.__version__, _SOURCE), protocol=5))
        keys = {}
        for gid, wg in todo.items():
            h = stage.copy()
            h.update(pickle.dumps((wg.graph.n, sorted(wg.weights.items())), protocol=5))
            keys[gid] = h.hexdigest()[:16]
        checkpoint = Checkpoint(checkpoint_path, keys)
        done = dict(checkpoint.done)
    for rec in _map_tasks(fn, [(wg, gid, *shared) for gid, wg in todo.items() if gid not in done], workers):
        done[rec.graph_id] = rec
        if checkpoint:
            checkpoint.add(rec)
    return {gid: done[gid] for gid in todo}


def run_training(
    cfg: TrainingConfig, graphs: list[WeightedGraph], checkpoint_path=None, workers: int = 1
) -> tuple[list[str], ParameterMatrix, list[RunRecord]]:
    """Train every graph at depth cfg.p; rows keep the graph-set order."""
    done = _run_stage(graphs, train_graph, (cfg.p, cfg.optimizer), checkpoint_path, workers)
    rows = np.array([rec.best_params for rec in done.values()], dtype=np.float64)
    return list(done), ParameterMatrix(rows), list(done.values())


def evaluate_standard(
    p: int,
    eval_set: list[WeightedGraph],
    optimizer_cfg: OptimizerConfig = OptimizerConfig(),
    checkpoint_path=None,
    workers: int = 1,
) -> list[RunRecord]:
    """Full-parameter runs on each evaluation graph, sorted by graph id."""
    cfg = TrainingConfig(p=p, optimizer=optimizer_cfg)  # the depth rule of run_training
    done = _run_stage(eval_set, train_graph, (cfg.p, cfg.optimizer), checkpoint_path, workers)
    return [done[gid] for gid in sorted(done)]


def evaluate_pca(
    cfg: EvalConfig,
    model: PCAModel,
    eval_set: list[WeightedGraph],
    training_X: ParameterMatrix,
    optimizer_cfg: OptimizerConfig = OptimizerConfig(),
    checkpoint_path=None,
    workers: int = 1,
) -> list[RunRecord]:
    """Reduced runs over cfg.k_components coefficients, sorted by graph id.

    Each graph gets cfg.restarts starts drawn from the training projection
    ranges; the best-ratio restart wins and its evaluation count is recorded.
    """
    if cfg.p != model.p:
        raise ValueError(f"config p={cfg.p} but the model was fit at p={model.p}")
    if training_X.p != model.p:
        raise ValueError(f"training matrix p={training_X.p} does not match model p={model.p}")
    shared = (model, training_X, cfg.k_components, cfg.restarts, cfg.seed, optimizer_cfg)
    done = _run_stage(eval_set, _pca_task, shared, checkpoint_path, workers)
    return [done[gid] for gid in sorted(done)]


def compare(
    pca_records: list[RunRecord],
    baseline_records: list[RunRecord],
    baseline_kind: str,
    training_set: str = "",
) -> ComparisonRow:
    """Paired signed-rank comparison on evaluation counts and approximation ratios."""
    if baseline_kind not in BASELINE_KINDS:
        raise ValueError(f"baseline_kind must be one of {BASELINE_KINDS}, got {baseline_kind!r}")
    if not pca_records:
        raise ValueError("empty record lists")
    a_ids = [r.graph_id for r in pca_records]
    b_ids = [r.graph_id for r in baseline_records]
    if a_ids != b_ids:
        offending = sorted(set(a_ids).symmetric_difference(b_ids)) or [
            f"{x} vs {y}" for x, y in zip(a_ids, b_ids) if x != y
        ]
        raise ValueError(f"record lists not aligned by graph_id: {', '.join(offending[:20])}")
    shapes = sorted({(r.layers, r.param_count) for r in pca_records})
    if len(shapes) != 1:
        raise ValueError(f"PCA records mix (layers, param_count) {shapes}")
    [(layers, param_count)] = shapes
    name, want = ("layers", layers) if baseline_kind == "same_layers" else ("param_count", param_count)
    got = sorted({getattr(r, name) for r in baseline_records} - {want})
    if got:
        raise ValueError(f"{baseline_kind} needs baseline {name} {want}, got {got}")
    evals = [r.evals for r in pca_records], [r.evals for r in baseline_records]
    ratio = [r.approx_ratio for r in pca_records], [r.approx_ratio for r in baseline_records]
    test_evals = wilcoxon_signed_rank(*evals)
    test_ratio = wilcoxon_signed_rank(*ratio)
    return ComparisonRow(
        training_set=training_set,
        layers=layers,
        param_count=param_count,
        baseline_kind=baseline_kind,
        n_pairs=len(pca_records),
        median_evals=float(np.median(evals[0])),
        median_evals_baseline=float(np.median(evals[1])),
        p_value_evals=test_evals.p_value,
        rbc_evals=test_evals.rbc,
        median_ratio=float(np.median(ratio[0])),
        median_ratio_baseline=float(np.median(ratio[1])),
        p_value_ratio=test_ratio.p_value,
        rbc_ratio=test_ratio.rbc,
    )


def pca_records_filename(training_set: str, p: int, k: int) -> str:
    return f"pca_{training_set}_p{p}_k{k}.csv"


def standard_records_filename(p: int) -> str:
    return f"standard_p{p}.csv"


def scatter_filename(training_set: str, p: int, k: int) -> str:
    return f"scatter_{training_set}_p{p}_k{k}.csv"


# (header, 0 for the same_layers comparison or 1 for same_params, ComparisonRow field) of each column
REPORT_COLUMNS = (
    ("Training Set", 0, "training_set"),
    ("# Layers", 0, "layers"),
    ("# Param.", 0, "param_count"),
    ("Iter. Med.", 0, "median_evals"),
    ("Iter. Med. (Same # Layers)", 0, "median_evals_baseline"),
    ("Iter. P-Val. (Same # Layers)", 0, "p_value_evals"),
    ("Iter. RBC (Same # Layers)", 0, "rbc_evals"),
    ("Iter. Med. (Same # Param.)", 1, "median_evals_baseline"),
    ("Iter. P-Val. (Same # Param.)", 1, "p_value_evals"),
    ("Iter. RBC (Same # Param.)", 1, "rbc_evals"),
    ("Ratio Med.", 0, "median_ratio"),
    ("Ratio Med. (Same # Layers)", 0, "median_ratio_baseline"),
    ("Ratio P-Val. (Same # Layers)", 0, "p_value_ratio"),
    ("Ratio RBC (Same # Layers)", 0, "rbc_ratio"),
    ("Ratio Med. (Same # Param.)", 1, "median_ratio_baseline"),
    ("Ratio P-Val. (Same # Param.)", 1, "p_value_ratio"),
    ("Ratio RBC (Same # Param.)", 1, "rbc_ratio"),
)


def render_report(rows: list[tuple[ComparisonRow, ComparisonRow]]) -> str:
    """Markdown comparison table: one line per configuration, both baselines.

    Each pair holds the same_layers and same_params `compare` rows of one PCA record list.
    """
    lines = ["# Reduced-parameter QAOA comparison", ""]
    lines.append("| " + " | ".join(header for header, _, _ in REPORT_COLUMNS) + " |")
    lines.append("|" + "|".join([" --- "] * len(REPORT_COLUMNS)) + "|")
    for pair in rows:
        values = (getattr(pair[side], name) for _, side, name in REPORT_COLUMNS)
        cells = [format(v, ".4g") if isinstance(v, float) else str(v) for v in values]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)
