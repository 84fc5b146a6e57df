import numpy as np
import pytest

from qaoa_pca.engine import ParameterVector
from qaoa_pca.pca import (
    ParameterMatrix,
    expand,
    fit,
    load_model,
    sample_coefficients,
    save_model,
)

from oracles import project


def random_matrix(rows, p, seed=0):
    rng = np.random.default_rng(seed)
    return ParameterMatrix(rng.normal(0.5, 0.8, size=(rows, 2 * p)))


def test_parameter_matrix_validation():
    X = ParameterMatrix(np.zeros((3, 8)))
    assert X.rows.shape[0] == 3 and X.p == 4
    assert ParameterMatrix(np.zeros((1, 4))).p == 2  # one trained graph is a matrix


def test_fit_needs_two_rows():
    with pytest.raises(ValueError, match="need at least 2 rows to fit, got 1"):
        fit(ParameterMatrix(np.zeros((1, 4))))  # one row cannot define variance


def test_fit_identical_rows_is_degenerate():
    v = np.array([0.3, -0.1, 0.7, 0.2])
    model = fit(ParameterMatrix(np.tile(v, (5, 1))))
    assert model.degenerate
    assert np.allclose(model.mean, v)
    assert np.all(model.eigenvalues == 0.0)


def test_fit_two_point_example():
    # rows {(0,0), (2,2)}: variance 2 per axis with the n-1 divisor, 4 along the diagonal
    model = fit(ParameterMatrix(np.array([[0.0, 0.0], [2.0, 2.0]])))
    assert np.allclose(model.mean, [1.0, 1.0])
    assert np.allclose(model.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert model.eigenvalues[0] == pytest.approx(4.0, abs=1e-12)
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    assert not model.degenerate


def test_fit_orthonormal_components():
    model = fit(random_matrix(40, 4, seed=1))
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(2 * model.p), atol=1e-8)


def test_fit_eigenvalue_sum_is_total_variance():
    X = random_matrix(60, 3, seed=2)
    model = fit(X)
    total_var = X.rows.var(axis=0, ddof=1).sum()
    assert model.eigenvalues.sum() == pytest.approx(total_var, abs=1e-8)


def test_fit_eigenvalues_match_projection_variance():
    X = random_matrix(50, 2, seed=3)
    model = fit(X)
    proj = (X.rows - model.mean) @ model.components.T
    assert np.allclose(proj.var(axis=0, ddof=1), model.eigenvalues, atol=1e-8)


def test_fit_sign_convention():
    model = fit(random_matrix(30, 4, seed=4))
    for comp in model.components:
        assert comp[np.argmax(np.abs(comp))] > 0


def test_fit_row_permutation_invariant():
    X = random_matrix(25, 2, seed=5)
    shuffled = X.rows.copy()
    np.random.default_rng(9).shuffle(shuffled)
    a, b = fit(X), fit(ParameterMatrix(shuffled))
    assert np.allclose(a.mean, b.mean, atol=1e-12)
    assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)
    assert np.allclose(a.components, b.components, atol=1e-8)


def test_full_rank_reconstruction():
    X = random_matrix(20, 2, seed=6)
    model = fit(X)
    for row in X.rows:
        c = project(model, ParameterVector.from_array(row), 2 * X.p)
        back = expand(model, c).as_array()
        assert np.allclose(back, row, atol=1e-8)


def test_reconstruction_error_nonincreasing_in_k():
    X = random_matrix(35, 4, seed=7)
    model = fit(X)
    resid = np.array(  # shape (k, row): each row's Euclidean residual
        [
            [
                np.linalg.norm(
                    expand(model, project(model, ParameterVector.from_array(row), k)).as_array()
                    - row
                )
                for row in X.rows
            ]
            for k in range(1, 2 * X.p + 1)
        ]
    )
    errs = (resid**2).sum(axis=1)
    assert all(errs[i + 1] <= errs[i] + 1e-10 for i in range(len(errs) - 1))
    assert errs[-1] < 1e-8
    assert np.all(resid[1:] <= resid[:-1] + 1e-10)


def test_expand_zero_gives_mean():
    model = fit(random_matrix(10, 2, seed=8))
    pv = expand(model, np.zeros(2))
    assert np.allclose(pv.as_array(), model.mean, atol=1e-15)


def test_expand_traces_component_line():
    model = fit(random_matrix(10, 2, seed=8))
    for t in (-1.5, 0.4, 2.0):
        pv = expand(model, np.array([t]))
        assert np.allclose(pv.as_array(), model.mean + t * model.components[0], atol=1e-12)


def test_expand_too_many_coefficients():
    model = fit(random_matrix(10, 1, seed=8))
    with pytest.raises(ValueError):  # numpy's matmul refuses 3 coefficients over 2 components
        expand(model, np.ones(3))


def test_project_mean_is_zero():
    model = fit(random_matrix(12, 2, seed=10))
    c = project(model, ParameterVector.from_array(model.mean.copy()), 4)
    assert np.allclose(c, 0.0, atol=1e-12)


def test_project_picks_out_component():
    model = fit(random_matrix(12, 2, seed=11))
    theta = model.mean + 3.0 * model.components[1]
    c = project(model, ParameterVector.from_array(theta), 3)
    assert np.allclose(c, (0.0, 3.0, 0.0), atol=1e-10)


def test_sample_coefficients_inside_ranges_and_deterministic():
    X = random_matrix(30, 2, seed=12)
    model = fit(X)
    proj = np.array([project(model, ParameterVector.from_array(row), 3) for row in X.rows])
    a = sample_coefficients(model, 3, X, seed=77)
    b = sample_coefficients(model, 3, X, seed=77)
    assert np.array_equal(a, b)
    assert np.all(proj.min(axis=0) <= a) and np.all(a <= proj.max(axis=0))
    assert not np.array_equal(sample_coefficients(model, 3, X, seed=78), a)


def test_sample_coefficients_degenerate_is_zero():
    X = ParameterMatrix(np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)))
    model = fit(X)
    assert sample_coefficients(model, 2, X, seed=5).tolist() == [0.0, 0.0]


def test_model_round_trip(tmp_path):
    model = fit(random_matrix(25, 4, seed=13))
    path = tmp_path / "model.pca"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.p == model.p
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.components, model.components)
    assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
    assert loaded.degenerate == model.degenerate
    # invariants survive the trip
    gram = loaded.components @ loaded.components.T
    assert np.allclose(gram, np.eye(2 * loaded.p), atol=1e-8)
    pv = expand(loaded, np.zeros(1))
    assert np.allclose(pv.as_array(), model.mean, atol=1e-15)


def test_model_file_missing_field(tmp_path):
    model = fit(random_matrix(10, 1, seed=14))
    path = tmp_path / "model.pca"
    save_model(path, model)
    import json

    payload = json.loads(path.read_text())
    del payload["eigenvalues"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert "eigenvalues" in str(err.value)


def test_model_file_bad_tag_and_garbage(tmp_path):
    path = tmp_path / "model.pca"
    path.write_text('{"format": "something-else/9"}')
    with pytest.raises(ValueError, match="format tag 'something-else/9'"):
        load_model(path)
    path.write_text("{truncated")
    with pytest.raises(ValueError, match="not valid model JSON"):
        load_model(path)


@pytest.mark.parametrize("field, value", [("p", [1]), ("components", 3), ("mean", [10**400, 0.0])])
def test_model_file_field_of_wrong_type(tmp_path, field, value):
    import json

    path = tmp_path / "model.pca"
    save_model(path, fit(random_matrix(10, 1, seed=15)))
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="model.pca"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", 1.9),
        ("p", True),
        ("degenerate", "false"),
        ("degenerate", 0),
        ("mean", ["0.25", "0.5"]),
        ("eigenvalues", [True, False]),
        ("mean", [True, 0.5]),
        ("components", [[1.0, 0.0], [None, 1.0]]),
    ],
)
def test_model_file_fields_are_not_coerced(tmp_path, field, value):
    # "p": 1.9 would truncate to 1, "degenerate": "false" would read as True, and numpy
    # would read an array's "0.25" as 0.25 and its true as 1.0, even beside a float
    import json

    path = tmp_path / "model.pca"
    save_model(path, fit(random_matrix(10, 1, seed=15)))
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"model.pca: field '{field}'"):
        load_model(path)



@pytest.mark.parametrize("identical_rows", [False, True])
def test_model_file_degenerate_flag_must_match_the_eigenvalues(tmp_path, identical_rows):
    # a flag edited to true on positive eigenvalues would start every restart at the mean
    import json

    X = ParameterMatrix(np.tile([0.1, 0.2, 0.3, 0.4], (4, 1))) if identical_rows else random_matrix(10, 2, seed=16)
    path = tmp_path / "model.pca"
    save_model(path, fit(X))
    payload = json.loads(path.read_text())
    assert payload["degenerate"] is identical_rows
    payload["degenerate"] = not identical_rows
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="model.pca: degenerate="):
        load_model(path)
