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
import itertools
import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, is_dataclass
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
from .pca import CoefficientVector, ParameterMatrix, PCAModel, expand, sample_coefficients
from .records import METHOD_PCA, ComparisonRow, RunRecord, record_from_dict, record_to_dict
from .stats import PairedSample, median, wilcoxon_signed_rank

TRAINING_SETS = ("unweighted", "weighted")
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


def config_hash(cfg) -> str:
    """Short hex fingerprint of a config's repr, for provenance headers."""
    return hashlib.sha256(repr(cfg).encode("utf-8")).hexdigest()[:12]


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
        if self.p not in (1, 2, 4, 8):
            raise ValueError(f"p must be one of 1, 2, 4, 8, got {self.p}")


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
        if self.p < 1:
            raise ValueError(f"p must be at least 1, got {self.p}")
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

    `keys` maps each graph id to the key its record must carry to be reused.
    Lines under any other key, and lines that are not a JSON object with a
    string graph id, are preserved and ignored; a truncated final line
    (cut-off run) is skipped on load, and the first `add` ends it with a
    newline so the new record starts a line of its own.
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
            except json.JSONDecodeError:  # blank or torn line
                continue
            if not isinstance(obj, dict) or not isinstance(obj.get("graph_id"), str):
                continue  # valid JSON, but not a record line
            key = keys.get(obj["graph_id"])
            if key is None or obj.get("config") != key:
                continue
            rec = record_from_dict(obj)
            self.done[rec.graph_id] = rec
        self._fh = None

    def add(self, rec: RunRecord) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._torn:
                self._fh.write("\n")
                self._torn = False
        self._fh.write(json.dumps({"config": self.keys[rec.graph_id], **record_to_dict(rec)}) + "\n")
        self._fh.flush()  # a killed run keeps every finished graph
        self.done[rec.graph_id] = rec

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


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
        sample_coefficients(model, k, training_X, stable_hash(seed, "pca-init", gid, r)).coeffs
        for r in range(restarts)
    )

    def angles(c):
        return expand(model, CoefficientVector(c))

    return optimize_graph(wg, gid, METHOD_PCA, starts, angles, opt)


def _map_tasks(fn, tasks, workers: int):
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(fn, *zip(*tasks), chunksize=max(1, len(tasks) // (8 * workers)))
    else:
        for t in tasks:
            yield fn(*t)


def _encode(obj, out: list[bytes]) -> None:
    """Append the value of obj to out, tagged by type and framed by length, so
    that no two different values give the same bytes."""
    t = type(obj)  # exact types first: this runs for every value on every stage call
    if t is float:
        out.append(b"f" + struct.pack("<d", obj))
    elif t is int or t is str or t is bool or obj is None:
        data = str(obj).encode("utf-8")
        out.append(b"%s%d:%s" % (t.__name__.encode(), len(data), data))
    elif t is tuple or t is list:
        out.append(b"t%d:" % len(obj))
        for item in obj:
            _encode(item, out)
    elif t is np.ndarray and not obj.dtype.hasobject:  # object arrays would hash addresses
        out.append(b"a%s%r:" % (obj.dtype.str.encode(), obj.shape))
        out.append(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        names = obj.__dataclass_fields__
        out.append(b"d%d:" % len(names))
        _encode(t.__qualname__, out)
        for name in names:
            _encode(name, out)
            _encode(getattr(obj, name), out)
    elif isinstance(obj, float):
        _encode(float(obj), out)
    else:
        raise TypeError(f"cannot key a checkpoint on a {t.__name__}")


def _run_stage(
    graphs: list[WeightedGraph], fn, shared: tuple, checkpoint_path, workers: int
) -> dict[str, RunRecord]:
    """fn(wg, gid, *shared) on each graph; the records by graph id, in graph order.

    Two isomorphic graphs would share an id, so they are rejected. Each record
    reaches the checkpoint as soon as it arrives. A checkpointed record is
    reused only under the key of what it was computed from: fn, the shared
    arguments, the numpy version (the optimizer's trajectory depends on numpy's
    arithmetic) and the weighted graph.
    """
    ids = [graph_id(wg.graph) for wg in graphs]
    todo = dict(zip(ids, graphs))
    if len(todo) != len(ids):
        dupes = sorted({g for g in ids if ids.count(g) > 1})
        raise ValueError(f"graph set contains duplicate graphs: {', '.join(dupes)}")
    checkpoint = None
    done = {}
    if checkpoint_path:
        parts: list[bytes] = []
        _encode((fn.__qualname__, shared, np.__version__), parts)
        stage = hashlib.sha256(b"".join(parts))
        keys = {}
        for gid, wg in todo.items():
            # vertex and edge counts, then the sorted edges and their weights
            edges = sorted(wg.weights)
            ints = [wg.graph.n, len(edges), *itertools.chain.from_iterable(edges)]
            h = stage.copy()
            h.update(struct.pack(f"<{len(ints)}q{len(edges)}d", *ints, *[wg.weights[e] for e in edges]))
            keys[gid] = h.hexdigest()[:16]
        checkpoint = Checkpoint(checkpoint_path, keys)
        done = dict(checkpoint.done)
    pending = [gid for gid in todo if gid not in done]
    try:
        for gid, rec in zip(pending, _map_tasks(fn, [(todo[gid], gid, *shared) for gid in pending], workers)):
            done[gid] = rec
            if checkpoint:
                checkpoint.add(rec)
    finally:
        if checkpoint:
            checkpoint.close()
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
    done = _run_stage(eval_set, train_graph, (p, optimizer_cfg), checkpoint_path, workers)
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
    if cfg.k_components > model.n_components:
        raise ValueError(
            f"k_components={cfg.k_components} exceeds the model's {model.n_components} components"
        )
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
    evals = PairedSample(
        tuple(float(r.evals) for r in pca_records),
        tuple(float(r.evals) for r in baseline_records),
    )
    ratio = PairedSample(
        tuple(r.approx_ratio for r in pca_records),
        tuple(r.approx_ratio for r in baseline_records),
    )
    test_evals = wilcoxon_signed_rank(evals)
    test_ratio = wilcoxon_signed_rank(ratio)
    return ComparisonRow(
        training_set=training_set,
        layers=pca_records[0].layers,
        param_count=pca_records[0].param_count,
        baseline_kind=baseline_kind,
        n_pairs=len(pca_records),
        median_evals=median([r.evals for r in pca_records]),
        median_evals_baseline=median([r.evals for r in baseline_records]),
        p_value_evals=test_evals.p_value,
        rbc_evals=test_evals.rbc,
        median_ratio=median([r.approx_ratio for r in pca_records]),
        median_ratio_baseline=median([r.approx_ratio for r in baseline_records]),
        p_value_ratio=test_ratio.p_value,
        rbc_ratio=test_ratio.rbc,
    )


def pca_records_filename(training_set: str, p: int, k: int) -> str:
    return f"pca_{training_set}_p{p}_k{k}.csv"


def standard_records_filename(p: int) -> str:
    return f"standard_p{p}.csv"


def scatter_filename(training_set: str, p: int, k: int) -> str:
    return f"scatter_{training_set}_p{p}_k{k}.csv"


REPORT_COLUMNS = [
    "Training Set",
    "# Layers",
    "# Param.",
    "Iter. Med.",
    "Iter. Med. (Same # Layers)",
    "Iter. P-Val. (Same # Layers)",
    "Iter. RBC (Same # Layers)",
    "Iter. Med. (Same # Param.)",
    "Iter. P-Val. (Same # Param.)",
    "Iter. RBC (Same # Param.)",
    "Ratio Med.",
    "Ratio Med. (Same # Layers)",
    "Ratio P-Val. (Same # Layers)",
    "Ratio RBC (Same # Layers)",
    "Ratio Med. (Same # Param.)",
    "Ratio P-Val. (Same # Param.)",
    "Ratio RBC (Same # Param.)",
]


def render_report(rows: list[tuple[ComparisonRow, ComparisonRow]], timestamp: str | None = None) -> str:
    """Markdown comparison table: one line per configuration, both baselines."""

    def num(x: float) -> str:
        return format(x, ".4g")

    lines = ["# Reduced-parameter QAOA comparison", ""]
    if timestamp:
        lines += [f"Generated {timestamp}", ""]
    lines.append("| " + " | ".join(REPORT_COLUMNS) + " |")
    lines.append("|" + "|".join([" --- "] * len(REPORT_COLUMNS)) + "|")
    for same_layers, same_params in rows:
        if (
            same_layers.training_set != same_params.training_set
            or same_layers.layers != same_params.layers
            or same_layers.param_count != same_params.param_count
        ):
            raise ValueError("baseline rows of one configuration disagree on identity fields")
        cells = [
            same_layers.training_set,
            str(same_layers.layers),
            str(same_layers.param_count),
            num(same_layers.median_evals),
            num(same_layers.median_evals_baseline),
            num(same_layers.p_value_evals),
            num(same_layers.rbc_evals),
            num(same_params.median_evals_baseline),
            num(same_params.p_value_evals),
            num(same_params.rbc_evals),
            num(same_layers.median_ratio),
            num(same_layers.median_ratio_baseline),
            num(same_layers.p_value_ratio),
            num(same_layers.rbc_ratio),
            num(same_params.median_ratio_baseline),
            num(same_params.p_value_ratio),
            num(same_params.rbc_ratio),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)

