"""Per-run records, paired-comparison rows, and every CSV/JSON artifact format.

Records, matrix and scatter files are CSV. Floats are written with 17
significant digits so reloads are bit-exact; `#`-prefixed provenance comments
precede the header row.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

METHOD_STANDARD = "standard"
METHOD_PCA = "pca"

RECORDS_FIELDS = ["graph_id", "method", "layers", "param_count", "evals", "approx_ratio"]
SCATTER_FIELDS = ["evals", "approx_ratio", "method"]


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


_RUN_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


def record_from_dict(obj: dict) -> RunRecord:
    """Inverse of `record_to_dict`; keys other than RunRecord's fields are ignored."""
    rec = {name: obj[name] for name in _RUN_RECORD_FIELDS}
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


def write_text_atomic(path, text: str) -> None:
    """Replace the file at path with text in one step, so a crash leaves the old file or the new one.

    The text goes to a temporary file beside the target, which `os.replace`
    then moves over it; the temporary file is removed if anything fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path, header: list[str], rows, provenance: dict | None = None) -> None:
    """`# key value` provenance lines, then the header and rows, in one write."""
    buf = io.StringIO()
    for key, value in (provenance or {}).items():
        buf.write(f"# {key} {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())


def _read_csv(path) -> list[list[str]]:
    """Rows of a CSV artifact with the comment and blank lines dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines))


def write_records(path, records: list[RunRecord], provenance: dict | None = None) -> None:
    rows = ([r.graph_id, r.method, r.layers, r.param_count, r.evals, _fmt(r.approx_ratio)] for r in records)
    _write_csv(path, RECORDS_FIELDS, rows, provenance)


def read_records(path) -> list[RunRecord]:
    """Read a records CSV. The file stores no parameter vectors, so best_params
    is zero-filled; callers needing angles must keep the in-memory records."""
    rows = _read_csv(path)
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


def write_scatter(
    path,
    pca_records: list[RunRecord],
    same_layers_records: list[RunRecord],
    same_params_records: list[RunRecord],
) -> None:
    """(evals, approx_ratio, method) points of one report configuration, methods in that order."""
    groups = (("pca", pca_records), ("same_layers", same_layers_records), ("same_params", same_params_records))
    rows = ([r.evals, _fmt(r.approx_ratio), method] for method, recs in groups for r in recs)
    _write_csv(path, SCATTER_FIELDS, rows)


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
    body = ([gid] + [_fmt(x) for x in row] for gid, row in zip(graph_ids, rows))
    _write_csv(path, matrix_fields(p), body, provenance)


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    rows = _read_csv(path)
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
    write_text_atomic(path, json.dumps(asdict(row), indent=2, sort_keys=True) + "\n")


def read_comparison(path) -> ComparisonRow:
    with open(path, "r", encoding="utf-8") as fh:
        return ComparisonRow(**json.load(fh))
