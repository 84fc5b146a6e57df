"""Per-run records, paired-comparison rows, and their CSV/JSON file formats.

Floats in CSV artifacts are written with 17 significant digits so reloads are
bit-exact; `#`-prefixed provenance comments precede the header row.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

METHOD_STANDARD = "standard"
METHOD_PCA = "pca"

RECORDS_FIELDS = ["graph_id", "method", "layers", "param_count", "evals", "approx_ratio"]


class RecordFormatError(ValueError):
    """Raised when a records or matrix CSV does not match the expected schema."""


@dataclass(frozen=True)
class RunRecord:
    """Outcome of optimizing one graph with one method."""

    graph_id: str
    method: str
    layers: int
    param_count: int
    evals: int
    approx_ratio: float
    best_params: tuple[float, ...]  # full 2p angles, gamma block then beta block

    def __post_init__(self):
        if self.method not in (METHOD_STANDARD, METHOD_PCA):
            raise ValueError(f"method must be 'standard' or 'pca', got {self.method!r}")
        if len(self.best_params) != 2 * self.layers:
            raise ValueError(
                f"best_params must hold 2p={2 * self.layers} angles, got {len(self.best_params)}"
            )


def record_to_dict(rec: RunRecord) -> dict:
    """JSON-ready fields of a RunRecord, in declaration order."""
    return asdict(rec)


def record_from_dict(obj: dict) -> RunRecord:
    """Inverse of `record_to_dict`; keys other than RunRecord's fields are ignored."""
    rec = {f.name: obj[f.name] for f in fields(RunRecord)}
    rec["best_params"] = tuple(rec["best_params"])
    return RunRecord(**rec)


@dataclass(frozen=True)
class ComparisonRow:
    """Paired Wilcoxon comparison of one method configuration against one baseline."""

    training_set: str
    layers: int
    param_count: int
    baseline_kind: str  # "same_layers" or "same_params"
    n_pairs: int
    median_evals: float
    median_evals_baseline: float
    p_value_evals: float
    rbc_evals: float
    median_ratio: float
    median_ratio_baseline: float
    p_value_ratio: float
    rbc_ratio: float


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_records(path, records: list[RunRecord], provenance: dict | None = None) -> None:
    buf = io.StringIO()
    for key, value in (provenance or {}).items():
        buf.write(f"# {key} {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDS_FIELDS)
    for r in records:
        writer.writerow(
            [r.graph_id, r.method, r.layers, r.param_count, r.evals, _fmt(r.approx_ratio)]
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_records(path) -> list[RunRecord]:
    """Read a records CSV. The file stores no parameter vectors, so best_params
    is zero-filled; callers needing angles must keep the in-memory records."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows or rows[0] != RECORDS_FIELDS:
        raise RecordFormatError(
            f"{path}: expected header {','.join(RECORDS_FIELDS)}, got {rows[0] if rows else 'empty file'}"
        )
    records = []
    for row in rows[1:]:
        if len(row) != len(RECORDS_FIELDS):
            raise RecordFormatError(f"{path}: malformed row {row!r}")
        layers = int(row[2])
        records.append(
            RunRecord(
                graph_id=row[0],
                method=row[1],
                layers=layers,
                param_count=int(row[3]),
                evals=int(row[4]),
                approx_ratio=float(row[5]),
                best_params=(0.0,) * (2 * layers),
            )
        )
    return records


def matrix_fields(p: int) -> list[str]:
    return (
        ["graph_id"]
        + [f"gamma_{i}" for i in range(1, p + 1)]
        + [f"beta_{i}" for i in range(1, p + 1)]
    )


def write_matrix(path, graph_ids: list[str], rows: np.ndarray, provenance: dict | None = None) -> None:
    """Parameter-matrix CSV: one row of 2p angles per graph, gamma block then beta block."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != len(graph_ids) or rows.shape[1] % 2 != 0:
        raise ValueError(f"matrix shape {rows.shape} inconsistent with {len(graph_ids)} graph ids")
    p = rows.shape[1] // 2
    buf = io.StringIO()
    for key, value in (provenance or {}).items():
        buf.write(f"# {key} {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(matrix_fields(p))
    for gid, row in zip(graph_ids, rows):
        writer.writerow([gid] + [_fmt(x) for x in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise RecordFormatError(f"{path}: empty matrix file")
    header = rows[0]
    if len(header) < 3 or header[0] != "graph_id" or (len(header) - 1) % 2 != 0:
        raise RecordFormatError(f"{path}: unexpected matrix header {header!r}")
    p = (len(header) - 1) // 2
    if header != matrix_fields(p):
        raise RecordFormatError(f"{path}: unexpected matrix header {header!r}")
    ids = []
    data = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise RecordFormatError(f"{path}: malformed row {row!r}")
        ids.append(row[0])
        data.append([float(x) for x in row[1:]])
    return ids, np.array(data, dtype=np.float64).reshape(len(ids), 2 * p)


def write_comparison(path, row: ComparisonRow) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(row), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_comparison(path) -> ComparisonRow:
    with open(path, "r", encoding="utf-8") as fh:
        return ComparisonRow(**json.load(fh))
