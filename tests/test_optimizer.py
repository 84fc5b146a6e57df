import numpy as np
import pytest

from qaoa_pca.engine import ParameterVector, approximation_ratio, objective
from qaoa_pca.graphs import Graph, graph_id, unit_weights
from qaoa_pca.maxcut import brute_force_cmin, cost_diagonal
from qaoa_pca.optimizer import (
    TQA_STEPS,
    NonFiniteObjectiveError,
    OptimizerConfig,
    minimize,
    tqa_init,
    train_graph,
)
from qaoa_pca.pca import ParameterMatrix, fit, sample_coefficients


def triangle():
    return unit_weights(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})))


def test_config_validation():
    OptimizerConfig()
    with pytest.raises(ValueError):
        OptimizerConfig(max_evals=0)


def test_tqa_init_examples():
    assert tqa_init(2, 0.5).tolist() == [0.25, 0.5, 0.25, 0.0]
    assert tqa_init(1, 0.9).tolist() == [0.9, 0.0]
    theta = tqa_init(4, 0.1)
    assert np.allclose(theta, (0.025, 0.05, 0.075, 0.1, 0.075, 0.05, 0.025, 0.0))


def test_tqa_init_boundary_properties():
    for p in (1, 2, 3, 5, 8):
        for dt in (0.1, 0.3, 0.5, 0.7, 0.9):
            theta = tqa_init(p, dt)
            assert theta[0] == pytest.approx(dt / p)
            assert theta[-1] == 0.0


def test_starts_are_arrays_and_cobyla_checks_them():
    X = ParameterMatrix(np.random.default_rng(0).uniform(size=(6, 4)))
    model = fit(X)
    for start in (tqa_init(2, 0.5), sample_coefficients(model, 2, X, seed=3)):
        assert type(start) is np.ndarray and start.ndim == 1 and start.dtype == np.float64
    # an empty start is refused once, by COBYLA's x0 rule
    for start in (tqa_init(0, 0.5), sample_coefficients(model, 0, X, seed=3)):
        with pytest.raises(ValueError, match="x0 must be a nonempty 1-d vector"):
            minimize(lambda x: 0.0, start)


def test_minimize_1d_quadratic():
    res = minimize(lambda x: (x[0] - 1.0) ** 2, np.array([0.0]))
    assert abs(res.best_params[0] - 1.0) < 1e-3
    assert res.converged


def test_minimize_2d_quadratic():
    res = minimize(lambda x: x[0] ** 2 + 10 * x[1] ** 2, np.array([3.0, 3.0]))
    assert res.best_value < 1e-4
    assert res.converged


def test_minimize_budget_contract():
    for f, x0 in [
        (lambda x: (x[0] - 1.0) ** 2, [0.0]),
        (lambda x: x[0] ** 2 + 10 * x[1] ** 2, [3.0, 3.0]),
    ]:
        res = minimize(f, np.array(x0), OptimizerConfig(max_evals=5))
        assert res.evals == 5
        assert not res.converged


def test_minimize_counts_every_call():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return float(np.sum(x**2))

    res = minimize(f, np.array([2.0, -1.0, 0.5]))
    assert res.evals == calls
    assert res.evals <= 1000


def test_minimize_never_worse_than_start():
    # a nasty non-convex surface; the returned best must still beat f(x0)
    def f(x):
        return float(np.sin(5 * x[0]) + 0.1 * x[0] ** 2 + np.cos(3 * x[1]))

    x0 = np.array([1.7, -0.3])
    res = minimize(f, x0, OptimizerConfig(max_evals=40))
    assert res.best_value <= f(x0)


def test_minimize_best_value_is_best_params_value():
    def f(x):
        return float((x[0] + 2.0) ** 2 * (1 + 0.1 * np.sin(9 * x[0])))

    res = minimize(f, np.array([0.0]))
    assert res.best_value == f(np.array(res.best_params))


def test_minimize_rejects_non_finite_start():
    with pytest.raises(NonFiniteObjectiveError):
        minimize(lambda x: float("nan"), np.array([1.0]))


def test_minimize_rejects_empty_x0():
    with pytest.raises(ValueError):
        minimize(lambda x: 0.0, np.array([]))
    with pytest.raises(ValueError):
        minimize(lambda x: 0.0, np.array([0.5, np.nan]))


def test_train_graph_k2_single_layer_near_exact():
    wg = unit_weights(Graph(2, frozenset({(0, 1)})))
    rec = train_graph(wg, graph_id(wg.graph), 1)
    assert rec.approx_ratio >= 0.999
    assert rec.method == "standard"
    assert rec.layers == 1
    assert rec.param_count == 2
    assert rec.graph_id == "n02k000000000001"


def test_train_graph_equals_best_single_run():
    wg = triangle()
    diag = cost_diagonal(wg)
    cmin, _ = brute_force_cmin(wg)

    def f(x):
        return objective(diag, ParameterVector.from_array(x))

    runs = [minimize(f, tqa_init(2, dt)) for dt in TQA_STEPS]
    ratios = [approximation_ratio(r.best_value, cmin) for r in runs]
    best = runs[ratios.index(max(ratios))]  # index() finds the earliest start of a tie
    rec = train_graph(wg, graph_id(wg.graph), 2)
    assert rec.evals == best.evals
    assert list(rec.best_params) == list(best.best_params)
    assert rec.approx_ratio == max(ratios)


def test_train_graph_deterministic():
    wg = triangle()
    a = train_graph(wg, graph_id(wg.graph), 2)
    b = train_graph(wg, graph_id(wg.graph), 2)
    assert a == b


def test_train_graph_tie_goes_to_smallest_step():
    # one evaluation per seed: on K2 every p=1 seed scores the uniform state's 0.5 exactly
    k2 = unit_weights(Graph(2, frozenset({(0, 1)})))
    tied = train_graph(k2, graph_id(k2.graph), 1, OptimizerConfig(max_evals=1))
    assert tied.approx_ratio == 0.5
    assert tied.best_params == (0.1, 0.0)


def test_train_graph_record_ratio_recomputes():
    wg = triangle()
    rec = train_graph(wg, graph_id(wg.graph), 2)
    diag = cost_diagonal(wg)
    cmin, _ = brute_force_cmin(wg)
    energy = objective(diag, ParameterVector.from_array(np.array(rec.best_params)))
    assert rec.approx_ratio == pytest.approx(approximation_ratio(energy, cmin), abs=1e-12)


def test_train_graph_triangle_deep_matches_multistart_oracle():
    """50 random restarts bound what p=8 can reach; the annealing grid must get there."""
    wg = triangle()
    diag = cost_diagonal(wg)
    cmin, _ = brute_force_cmin(wg)

    def f(x):
        return objective(diag, ParameterVector.from_array(x))

    rng = np.random.default_rng(2024)
    oracle_best = np.inf
    for _ in range(50):
        x0 = rng.uniform(-1.0, 1.0, 16)
        res = minimize(f, x0)
        oracle_best = min(oracle_best, res.best_value)
    oracle_ratio = approximation_ratio(oracle_best, cmin)

    rec = train_graph(wg, graph_id(wg.graph), 8)
    assert rec.approx_ratio >= oracle_ratio - 1e-3
