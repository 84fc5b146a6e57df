"""End-to-end acceptance checks.

Each test prints one PASS line on success (run with -s to see them); a failed
assertion marks the criterion failed. Criteria 6 and 7 share one desk-scale
experiment via a module fixture so the expensive part runs once.
"""

import os
import time

import numpy as np
import pytest

from qaoa_pca.cli import main as cli_main
from qaoa_pca.engine import ParameterVector, approximation_ratio, evolve, objective
from qaoa_pca.graphs import (
    Graph,
    enumerate_connected_nonisomorphic,
    graph_id,
    unit_weights,
)
from qaoa_pca.maxcut import cost_diagonal
from qaoa_pca.optimizer import train_graph
from qaoa_pca.pca import ParameterMatrix, expand, fit
from qaoa_pca.pipeline import (
    EvalConfig,
    TrainingConfig,
    build_eval_set,
    build_graph_set,
    compare,
    evaluate_pca,
    evaluate_standard,
    run_training,
)
from qaoa_pca.stats import wilcoxon_signed_rank

from oracles import dense_objective, exact_p_by_enumeration, project, random_weighted_graph


def announce(num, text):
    print(f"\nACCEPTANCE CRITERION {num}: PASS - {text}")


def test_criterion_1_enumeration_counts():
    t0 = time.time()
    counts = {n: len(enumerate_connected_nonisomorphic(n)) for n in (5, 6, 7)}
    elapsed = time.time() - t0
    assert counts == {5: 21, 6: 112, 7: 853}
    assert sum(counts.values()) == 986
    assert elapsed <= 600
    announce(1, f"21/112/853 connected classes (986 total) in {elapsed:.1f}s")


def test_criterion_2_engine_identity_suite():
    rng = np.random.default_rng(7)

    # statevector norm on 100 random probes
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        wg = random_weighted_graph(n, rng)
        pv = ParameterVector.from_array(rng.uniform(-2, 2, 2 * p))
        sv = evolve(cost_diagonal(wg), pv)
        assert abs(np.vdot(sv, sv).real - 1.0) < 1e-10

    # zero parameters sit at the uniform-state energy -W/2
    for _ in range(100):
        n = int(rng.integers(2, 9))
        wg = random_weighted_graph(n, rng)
        val = objective(cost_diagonal(wg), ParameterVector.from_array([0.0, 0.0]))
        assert abs(val + sum(wg.weights.values()) / 2) < 1e-9

    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        wg = random_weighted_graph(n, rng)
        pv = ParameterVector.from_array(rng.uniform(-2, 2, 2 * p))
        assert abs(objective(cost_diagonal(wg), pv) - dense_objective(wg, pv)) < 1e-9

    announce(2, "norms within 1e-10, -W/2 identity within 1e-9, dense oracle within 1e-9")


def test_criterion_3_single_edge_exactness():
    k2 = unit_weights(Graph(2, frozenset({(0, 1)})))
    diag = cost_diagonal(k2)

    # grid oracle: 100 x 100 over gamma in (0, pi], beta in (0, pi/2]
    gammas = np.pi * np.arange(1, 101) / 100
    betas = (np.pi / 2) * np.arange(1, 101) / 100
    best = np.inf
    for g in gammas:
        for b in betas:
            best = min(best, objective(diag, ParameterVector.from_array([g, b])))
    grid_ratio = approximation_ratio(best, -1.0)
    assert grid_ratio >= 0.9999

    rec = train_graph(k2, graph_id(k2.graph), 1)
    assert rec.approx_ratio >= 0.999
    announce(3, f"train ratio {rec.approx_ratio:.6f} (grid oracle attains {grid_ratio:.6f})")


def test_criterion_4_pca_suite():
    _, X, _ = run_training(TrainingConfig(p=2), build_graph_set(5, 5, False, seed=77))
    rng = np.random.default_rng(4)
    synthetic = ParameterMatrix(rng.normal(0.0, 1.0, size=(40, 8)))

    for matrix in (X, synthetic):
        model = fit(matrix)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(2 * model.p))) < 1e-8
        total_var = matrix.rows.var(axis=0, ddof=1).sum()
        assert abs(model.eigenvalues.sum() - total_var) < 1e-8
        dim = 2 * matrix.p
        diffs = np.array(  # shape (k, row, angle): expand(project(row, k)) - row
            [
                [
                    expand(model, project(model, ParameterVector.from_array(row), k)).as_array()
                    - row
                    for row in matrix.rows
                ]
                for k in range(1, dim + 1)
            ]
        )
        assert np.max(np.abs(diffs[-1])) < 1e-8  # full-rank reconstruction of every row
        # Projection onto nested subspaces: each row's Euclidean residual cannot grow
        # with k. The largest single-angle error carries no such guarantee.
        resid = np.linalg.norm(diffs, axis=2)  # shape (k, row)
        assert np.all(resid[1:] <= resid[:-1] + 1e-10)

    announce(
        4,
        "orthonormality and variance accounting within 1e-8, full-rank reconstruction "
        "within 1e-8, every row's L2 residual nonincreasing in k within 1e-10",
    )


def test_criterion_5_statistics_oracle():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = rng.integers(0, 5, n).astype(float)
        b = rng.integers(0, 5, n).astype(float)
        d = a - b
        if not np.any(d != 0):
            continue
        res = wilcoxon_signed_rank(tuple(a), tuple(b))
        assert res.p_value == exact_p_by_enumeration(d)  # exact branch must match enumeration exactly
        checked += 1

    up = (2.0, 3.0, 4.0), (1.0, 1.0, 1.0)
    down = (1.0, 1.0, 1.0), (2.0, 3.0, 4.0)
    assert wilcoxon_signed_rank(*up).rbc == 1.0
    assert wilcoxon_signed_rank(*down).rbc == -1.0
    announce(5, f"{checked} exact-branch cases equal enumeration; rank-biserial endpoints are +/-1")


@pytest.fixture(scope="module")
def desk_scale_run():
    # records do not depend on the worker count (test_run_training_parallel_matches_serial),
    # so the fixture runs the process pool on every CPU this process may use
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    t0 = time.time()
    _, X, _ = run_training(TrainingConfig(p=2), build_graph_set(5, 6, False, seed=2024), workers=workers)
    model = fit(X)
    eval_set = build_eval_set(7, 100, seed=2024)
    ecfg = EvalConfig(p=2, k_components=2, n_eval=7, count=100, restarts=5, seed=2024)
    pca = evaluate_pca(ecfg, model, eval_set, X, workers=workers)
    std_p2 = evaluate_standard(2, eval_set, workers=workers)
    std_p1 = evaluate_standard(1, eval_set, workers=workers)
    elapsed = time.time() - t0
    return {
        "rows": X.rows.shape[0],
        "pca": pca,
        "std_p2": std_p2,
        "std_p1": std_p1,
        "elapsed": elapsed,
    }


def test_criterion_6_iteration_reduction(desk_scale_run):
    run = desk_scale_run
    assert run["rows"] == 133  # 21 five-vertex + 112 six-vertex training graphs
    assert run["elapsed"] <= 1800
    row = compare(run["pca"], run["std_p2"], "same_layers", training_set="unweighted")
    assert row.n_pairs == 100
    assert row.median_evals < row.median_evals_baseline
    assert row.p_value_evals < 0.01
    assert row.rbc_evals < -0.9
    announce(
        6,
        f"median evals {row.median_evals:.0f} vs {row.median_evals_baseline:.0f},"
        f" p={row.p_value_evals:.3g}, rbc={row.rbc_evals:.3f},"
        f" wall time {run['elapsed']:.0f}s",
    )


def test_criterion_7_ratio_parity_and_param_matched_win(desk_scale_run):
    run = desk_scale_run
    same_layers = compare(run["pca"], run["std_p2"], "same_layers", training_set="unweighted")
    assert abs(same_layers.median_ratio - same_layers.median_ratio_baseline) <= 0.05

    same_params = compare(run["pca"], run["std_p1"], "same_params", training_set="unweighted")
    assert same_params.median_ratio > same_params.median_ratio_baseline
    ratio_rbc = wilcoxon_signed_rank(
        tuple(r.approx_ratio for r in run["pca"]),
        tuple(r.approx_ratio for r in run["std_p1"]),
    ).rbc
    assert ratio_rbc > 0
    announce(
        7,
        f"ratio {same_layers.median_ratio:.4f} vs p=2 {same_layers.median_ratio_baseline:.4f}"
        f" (|diff| <= 0.05); vs p=1 {same_params.median_ratio_baseline:.4f} with rbc {ratio_rbc:.3f}",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    def run_cli(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    graphs = tmp_path / "train.graphs"
    eval_graphs = tmp_path / "eval.graphs"
    matrix = tmp_path / "params.csv"
    model = tmp_path / "model.pca"
    pca_recs = tmp_path / "pca.csv"
    cmp_out = tmp_path / "cmp.json"
    std_recs = tmp_path / "std.csv"

    stages = [
        ("gen-graphs", graphs,
         ["gen-graphs", "--n", "4", "--out", graphs, "--no-timestamp"]),
        ("gen-graphs --count", eval_graphs,
         ["gen-graphs", "--n", "5", "--count", "6", "--weighted", "--seed", "12",
          "--out", eval_graphs, "--no-timestamp"]),
        ("train", matrix,
         ["train", "--graphs", graphs, "--p", "2", "--max-evals", "150",
          "--out", matrix, "--no-timestamp"]),
        ("fit-pca", model,
         ["fit-pca", "--matrix", matrix, "--out", model, "--no-timestamp"]),
        ("evaluate pca", pca_recs,
         ["evaluate", "--graphs", eval_graphs, "--model", model, "--components", "2",
          "--matrix", matrix, "--restarts", "2", "--max-evals", "150", "--seed", "5",
          "--out", pca_recs, "--no-timestamp"]),
        ("evaluate standard", std_recs,
         ["evaluate", "--graphs", eval_graphs, "--standard", "--p", "2",
          "--max-evals", "150", "--out", std_recs, "--no-timestamp"]),
        ("compare", cmp_out,
         ["compare", "--pca", pca_recs, "--baseline", std_recs, "--kind", "same_layers",
          "--training-set", "unweighted", "--out", cmp_out, "--no-timestamp"]),
    ]

    first_bytes = {}
    for name, out, argv in stages:
        run_cli(*argv)
        first_bytes[name] = out.read_bytes()
    for name, out, argv in stages:
        run_cli(*argv)
        assert out.read_bytes() == first_bytes[name], f"stage {name} not reproducible"

    announce(8, f"{len(stages)} pipeline stages rerun byte-identically with --no-timestamp")
