"""The package's COBYLA against its oracle, SciPy's PyPRIMA COBYLA.

For every start, `optimizer.minimize` and `scipy.optimize.minimize(method=
"COBYLA")` must call f at the same points, in the same order, and the budget
and best-point rules must then give the same OptResult. The oracle below is the
`minimize` this package had while it called SciPy.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from qaoa_pca import optimizer
from qaoa_pca.cobyla import RHOBEG, RHOEND, _trstep, cobyla
from qaoa_pca.engine import ParameterVector, objective
from qaoa_pca.graphs import graph_id
from qaoa_pca.maxcut import cost_diagonal
from qaoa_pca.optimizer import NonFiniteObjectiveError, OptimizerConfig, OptResult, minimize, train_graph
from qaoa_pca.pca import ParameterMatrix, load_model
from qaoa_pca.pipeline import EvalConfig, build_eval_set, build_graph_set, evaluate_pca
from qaoa_pca.records import read_matrix

P8_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "eval-pca-p8"


class _BudgetExhausted(Exception):
    pass


def scipy_minimize(f, x0, cfg=OptimizerConfig()):
    """The oracle: SciPy's COBYLA under the package's budget and best-point rules."""
    x0 = np.asarray(x0, dtype=np.float64)
    evals = 0
    best_x = None
    best_val = math.inf

    def wrapped(x):
        nonlocal evals, best_x, best_val
        if evals >= cfg.max_evals:
            raise _BudgetExhausted
        val = float(f(x))
        evals += 1
        if evals == 1 and not math.isfinite(val):
            raise NonFiniteObjectiveError(f"objective is {val} at the starting point {x0}")
        if val < best_val:
            best_val = val
            best_x = np.array(x, dtype=np.float64, copy=True)
        return val

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SciPy warns when max_evals is below n + 2
            scipy.optimize.minimize(
                wrapped,
                x0,
                method="COBYLA",
                options={"rhobeg": RHOBEG, "tol": RHOEND, "maxiter": cfg.max_evals},
            )
    except _BudgetExhausted:
        pass
    return OptResult(
        best_params=tuple(float(v) for v in best_x),
        best_value=best_val,
        evals=evals,
        converged=evals < cfg.max_evals,
    )


def run_recorded(run, make_f, x0, cfg):
    """(result or exception type, the points f was called at) for one run."""
    points = []
    f = make_f()

    def recorded(x):
        points.append(np.array(x, copy=True))
        return f(x)

    try:
        out = run(recorded, x0, cfg)
    except NonFiniteObjectiveError as exc:
        out = type(exc)
    return out, points


def assert_same_run(make_f, x0, cfg=OptimizerConfig()):
    """Both optimizers call f at the same points and return the same result; that result."""
    ours, our_points = run_recorded(minimize, make_f, x0, cfg)
    ref, ref_points = run_recorded(scipy_minimize, make_f, x0, cfg)
    assert len(our_points) == len(ref_points)
    for i, (a, b) in enumerate(zip(our_points, ref_points)):
        assert np.array_equal(a, b), f"evaluation {i}: {a} != {b}"
    assert ours == ref
    return ours


@pytest.fixture
def check_every_start(monkeypatch):
    """Route every minimize call the package makes through assert_same_run; counts the starts."""
    starts = []

    def both(f, x0, cfg=OptimizerConfig()):
        starts.append(x0)
        return assert_same_run(lambda: f, x0, cfg)

    monkeypatch.setattr(optimizer, "minimize", both)
    return starts


def test_train_p2_graphs_every_tqa_start(check_every_start):
    # the first two unit-weight graphs on 5 and on 6 vertices of the benchmark's train-p2 workload
    every = build_graph_set(5, 6, weighted=False, seed=2024)
    graphs = [wg for n in (5, 6) for wg in [g for g in every if g.graph.n == n][:2]]
    for wg in graphs:
        train_graph(wg, graph_id(wg.graph), 2)
    assert len(check_every_start) == 20


def test_eval_pca_p8_starts(check_every_start):
    # the first three graphs of the benchmark's eval-pca-p8 workload, 5 PCA restarts each
    model = load_model(P8_INPUTS / "p8_model.pca")
    training = ParameterMatrix(read_matrix(P8_INPUTS / "p8_matrix.csv")[1])
    graphs = build_eval_set(8, 12, seed=2024)[:3]
    cfg = EvalConfig(p=8, k_components=2, restarts=5, seed=2024)
    evaluate_pca(cfg, model, graphs, training, OptimizerConfig(), workers=1)
    assert len(check_every_start) == 15


def qaoa_objective(wg):
    diag = cost_diagonal(wg)
    return lambda: lambda x: objective(diag, ParameterVector.from_array(x))


def test_p8_start_that_hits_its_budget():
    wg = build_graph_set(5, 5, weighted=False, seed=2024)[3]
    x0 = optimizer.tqa_init(8, 0.5)
    res = assert_same_run(qaoa_objective(wg), x0, OptimizerConfig(max_evals=150))
    assert res.evals == 150 and not res.converged


@pytest.mark.parametrize("budget", range(1, 8))
def test_small_budgets(budget):
    wg = build_graph_set(5, 5, weighted=False, seed=2024)[0]
    res = assert_same_run(qaoa_objective(wg), optimizer.tqa_init(2, 0.3), OptimizerConfig(max_evals=budget))
    assert res.evals == budget


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
def test_quadratic_and_plateau(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d))
    h = a @ a.T + 0.1 * np.eye(d)
    c = rng.normal(size=d)
    x0 = rng.normal(size=d)
    assert_same_run(lambda: lambda x: float((x - c) @ h @ (x - c)), x0)
    # piecewise constant and constant: the linear model's gradient is often exactly zero
    assert_same_run(lambda: lambda x: float(np.floor(3 * np.sum(x * x))), x0)
    assert_same_run(lambda: lambda x: 1.0, x0, OptimizerConfig(max_evals=50))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("every", [1, 2, 3])
def test_non_finite_values_after_the_first(bad, every):
    # NaN becomes 1e30 and -inf becomes -REALMAX inside COBYLA; the model gradient can overflow
    def make_f():
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return bad if calls > 1 and calls % every == 0 else float(np.sum((x - 0.3) ** 2))

        return f

    with np.errstate(all="ignore"):
        for d in (1, 2, 4):
            assert_same_run(make_f, np.linspace(-0.5, 0.5, d), OptimizerConfig(max_evals=200))


def test_non_finite_start_is_rejected_by_both():
    out = assert_same_run(lambda: lambda x: math.nan, np.array([0.2, 0.1]))
    assert out is NonFiniteObjectiveError


def test_generator_driven_by_hand_gives_minimize_result():
    wg = build_graph_set(5, 5, weighted=False, seed=2024)[2]
    f = qaoa_objective(wg)()
    x0 = optimizer.tqa_init(2, 0.7)
    cfg = OptimizerConfig()

    points, values = [], []
    search = cobyla(x0, cfg.max_evals)
    x = next(search)
    try:
        while True:
            points.append(x)
            values.append(float(f(x.copy())))
            x = search.send(values[-1])
    except StopIteration:
        pass

    res = minimize(f, x0, cfg)
    assert res.converged and res.evals == len(points) < cfg.max_evals
    best = int(np.argmin(values))
    assert res.best_value == values[best]
    assert res.best_params == tuple(points[best].tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_trust_region_step_is_pyprima_trstlp_bit_for_bit(n):
    # the LP solver PyPRIMA runs on each step, given no constraints, on gradients with zero,
    # tiny, huge and non-finite entries; bytes compared, so even the sign of a zero counts
    from scipy._lib.pyprima.cobyla.trustregion import trstlp

    rng = np.random.default_rng(100 + n)
    specials = [0.0, -0.0, 1e-320, 1e-170, 1e-31, 2.2e-16, 1e13, -1e200, 1e300, math.inf, -math.inf, math.nan]
    with np.errstate(all="ignore"):
        for _ in range(400):
            g = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20)
            if rng.random() < 0.3:
                picked = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
                g[picked] = rng.choice(specials, size=picked.size)
            delta = float(rng.choice([0.5, 1e-4, 0.05 * rng.random(), 3.0, 1e-200, 1e280]))
            expected = trstlp(np.zeros((n, 0)), np.zeros(0), delta, g.copy())
            assert _trstep(g.copy(), delta).tobytes() == expected.tobytes(), (g, delta)
