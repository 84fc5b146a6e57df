import numpy as np
import pytest

from qaoa_pca.engine import ParameterVector, approximation_ratio, objective
from qaoa_pca.graphs import Graph, unit_weights
from qaoa_pca.maxcut import brute_force_cmin, cost_diagonal
from qaoa_pca.optimizer import (
    NonFiniteObjectiveError,
    OptimizerConfig,
    TQAConfig,
    minimize,
    tqa_init,
    train_graph,
)


def triangle():
    return unit_weights(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})))


def test_config_validation():
    OptimizerConfig()
    with pytest.raises(ValueError):
        OptimizerConfig(initial_step=0.1, final_step=0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(final_step=-1e-4)
    with pytest.raises(ValueError):
        OptimizerConfig(max_evals=0)
    with pytest.raises(ValueError):
        TQAConfig(dt_grid=())
    with pytest.raises(ValueError):
        TQAConfig(dt_grid=(0.1, -0.2))


def test_tqa_init_examples():
    pv = tqa_init(2, 0.5)
    assert pv.gamma == (0.25, 0.5)
    assert pv.beta == (0.25, 0.0)

    pv = tqa_init(1, 0.9)
    assert pv.gamma == (0.9,)
    assert pv.beta == (0.0,)

    pv = tqa_init(4, 0.1)
    assert np.allclose(pv.gamma, (0.025, 0.05, 0.075, 0.1))
    assert np.allclose(pv.beta, (0.075, 0.05, 0.025, 0.0))


def test_tqa_init_boundary_properties():
    for p in (1, 2, 3, 5, 8):
        for dt in (0.1, 0.3, 0.5, 0.7, 0.9):
            pv = tqa_init(p, dt)
            assert pv.gamma[0] == pytest.approx(dt / p)
            assert pv.beta[-1] == 0.0


def test_tqa_init_domain_errors():
    with pytest.raises(ValueError):
        tqa_init(0, 0.5)
    with pytest.raises(ValueError):
        tqa_init(2, 0.0)


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


def test_train_graph_k2_single_layer_near_exact():
    wg = unit_weights(Graph(2, frozenset({(0, 1)})))
    rec = train_graph(wg, 1)
    assert rec.approx_ratio >= 0.999
    assert rec.method == "standard"
    assert rec.layers == 1
    assert rec.param_count == 2
    assert rec.graph_id == "n02k000000000001"


def test_train_graph_singleton_grid_equals_single_run():
    wg = triangle()
    diag = cost_diagonal(wg)
    cmin, _ = brute_force_cmin(wg)

    def f(x):
        return objective(diag, ParameterVector.from_array(x))

    single = minimize(f, tqa_init(2, 0.5).as_array())
    rec = train_graph(wg, 2, TQAConfig(dt_grid=(0.5,)))
    assert rec.evals == single.evals
    assert list(rec.best_params) == list(single.best_params)
    assert rec.approx_ratio == approximation_ratio(single.best_value, cmin)


def test_train_graph_deterministic():
    wg = triangle()
    a = train_graph(wg, 2)
    b = train_graph(wg, 2)
    assert a == b


@pytest.mark.filterwarnings("ignore:COBYLA")  # scipy notes that 1 evaluation is below its minimum
def test_train_graph_ignores_grid_order():
    # seeds run in ascending time step whatever the grid order, so ties go to the smaller step
    wg = triangle()
    descending = train_graph(wg, 2, TQAConfig(dt_grid=(0.9, 0.5, 0.1)))
    ascending = train_graph(wg, 2, TQAConfig(dt_grid=(0.1, 0.5, 0.9)))
    assert descending == ascending

    # one evaluation per seed: on K2 every p=1 seed scores the uniform state's 0.5 exactly
    k2 = unit_weights(Graph(2, frozenset({(0, 1)})))
    one_eval = OptimizerConfig(max_evals=1)
    tied = [train_graph(k2, 1, TQAConfig(dt_grid=grid), one_eval) for grid in ((0.9, 0.5, 0.1), (0.1, 0.5, 0.9))]
    assert tied[0] == tied[1]
    assert tied[0].approx_ratio == 0.5
    assert tied[0].best_params == (0.1, 0.0)


def test_train_graph_record_ratio_recomputes():
    wg = triangle()
    rec = train_graph(wg, 2)
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

    rec = train_graph(wg, 8)
    assert rec.approx_ratio >= oracle_ratio - 1e-3
