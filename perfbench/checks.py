"""Correctness checks that use only the benchmark's own code as the oracle.

Records are plain dicts with the records-CSV fields (graph_id, method, layers,
param_count, evals, approx_ratio), so files written by the CLI and records
returned in-process are checked the same way.
"""

from __future__ import annotations

import csv
import json
import math
from functools import reduce
from pathlib import Path

import numpy as np

RATIO_TOL = 1e-9
STATE_TOL = 1e-10
RECORD_KEYS = ("graph_id", "method", "layers", "param_count", "evals", "approx_ratio")


class Checks:
    """Counts attempted checks and keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def as_record(rec) -> dict:
    """A qaoa_pca RunRecord as a plain dict of the records-CSV fields."""
    return {k: getattr(rec, k) for k in RECORD_KEYS}


def read_records_csv(path) -> list[dict]:
    """Records CSV parsed without qaoa_pca: '#' provenance lines, then a header row."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [
        {
            "graph_id": row["graph_id"],
            "method": row["method"],
            "layers": int(row["layers"]),
            "param_count": int(row["param_count"]),
            "evals": int(row["evals"]),
            "approx_ratio": float(row["approx_ratio"]),
        }
        for row in csv.DictReader(lines)
    ]


def read_matrix_csv(path) -> dict[str, np.ndarray]:
    """Parameter-matrix CSV as graph id -> flat angle vector (gammas then betas)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))[1:]
    return {row[0]: np.array([float(x) for x in row[1:]]) for row in rows}


def read_graph_set(path) -> list[tuple[int, dict[tuple[int, int], float]]]:
    """Graph-set text file as (n, {(u, v): weight}) pairs, parsed without qaoa_pca."""
    out = []
    with open(path, encoding="utf-8") as fh:
        blocks = fh.read().split("\n\n")
    for block in blocks:
        lines = [ln for ln in block.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines:
            continue
        n, m = (int(x) for x in lines[0].split())
        edges = {}
        for ln in lines[1 : 1 + m]:
            u, v, w = ln.split()
            edges[(int(u), int(v))] = float(w)
        out.append((n, edges))
    return out


def check_record(checks: Checks, rec: dict, budget: int, where: str) -> None:
    """ratio in [0, 1], 1 <= evals <= budget, every number finite."""
    ratio = rec["approx_ratio"]
    params = rec.get("best_params", ())
    ok = (
        math.isfinite(ratio)
        and 0.0 <= ratio <= 1.0
        and isinstance(rec["evals"], int)
        and 1 <= rec["evals"] <= budget
        and rec["layers"] >= 1
        and rec["param_count"] >= 1
        and all(math.isfinite(x) for x in params)
    )
    checks.check(ok, f"{where}: invalid record {rec}")


def dense_statevector(n: int, edges: dict[tuple[int, int], float], theta) -> tuple[np.ndarray, np.ndarray]:
    """Circuit statevector by dense matrices, and the energy diagonal -cut(b).

    The mixer exp(-i beta sum_q X_q) is the n-fold Kronecker power of
    cos(beta) I - i sin(beta) X, because the X_q commute.
    """
    dim = 1 << n
    idx = np.arange(dim)
    cut = np.zeros(dim)
    for (u, v), w in edges.items():
        cut += w * (((idx >> u) ^ (idx >> v)) & 1)
    energy = -cut
    theta = np.asarray(theta, dtype=float)
    p = theta.size // 2
    eye = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    for gamma, beta in zip(theta[:p], theta[p:]):
        psi = np.exp(-1j * gamma * energy) * psi
        single = np.cos(beta) * eye - 1j * np.sin(beta) * x
        psi = reduce(np.kron, [single] * n) @ psi
    return psi, energy


def spot_check(checks: Checks, n: int, edges: dict, theta, ratio: float, where: str) -> None:
    """engine.evolve against the dense evolution, and the record's ratio against both."""
    from qaoa_pca.engine import ParameterVector, evolve
    from qaoa_pca.graphs import Graph, WeightedGraph
    from qaoa_pca.maxcut import cost_diagonal

    psi, energy = dense_statevector(n, edges, theta)
    wg = WeightedGraph(Graph(n, frozenset(edges)), dict(edges))
    diag = cost_diagonal(wg)
    sv = evolve(diag, ParameterVector.from_array(np.asarray(theta, dtype=float)))
    dense_ratio = float(np.real(np.vdot(psi, energy * psi))) / float(energy.min())
    checks.check(float(np.max(np.abs(diag - energy))) <= 1e-12, f"{where}: cost diagonal differs")
    checks.check(float(np.max(np.abs(sv - psi))) <= STATE_TOL, f"{where}: evolve differs from dense")
    checks.check(abs(dense_ratio - ratio) <= RATIO_TOL, f"{where}: ratio {ratio} != dense {dense_ratio}")


def _key(rec: dict) -> tuple:
    return rec["graph_id"], rec["method"], rec["layers"], rec["param_count"]


def load_reference(path: Path) -> dict[tuple, dict] | None:
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return {_key(r): r for r in json.load(fh)["records"]}


def reference_match_frac(records: list[dict], reference: dict[tuple, dict] | None) -> float:
    """Share of records whose evals equal, and ratio is within 1e-9 of, the stored reference."""
    if not records or reference is None:
        return 0.0
    hits = 0
    for rec in records:
        ref = reference.get(_key(rec))
        if ref and ref["evals"] == rec["evals"] and abs(ref["approx_ratio"] - rec["approx_ratio"]) <= RATIO_TOL:
            hits += 1
    return hits / len(records)


def write_reference(path: Path, workload: str, records: list[dict], stamp: dict) -> None:
    rows = sorted(({k: r[k] for k in RECORD_KEYS} for r in records), key=_key)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "stamp": stamp, "records": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
