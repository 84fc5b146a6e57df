"""Principal-component model over trained parameter vectors.

The training matrix holds one row of 2p angles per graph (gamma block then
beta block). Fitting mean-centers the rows, eigendecomposes the covariance
with the n-1 divisor, and fixes each component's sign so its largest-magnitude
entry is positive. Reduced optimization then searches coefficient space:
theta = mean + sum_i c_i v_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .engine import ParameterVector
from .records import write_text_atomic

MODEL_FORMAT = "pca-model/1"


@dataclass(frozen=True)
class ParameterMatrix:
    """Trained float64 rows of 2p angles, one per graph, as `records.read_matrix` or `RunRecord` checked them."""

    rows: np.ndarray

    @property
    def p(self) -> int:
        return self.rows.shape[1] // 2


class CoefficientVector:
    """k coefficients as given; the package builds none, it stays as a benchmark span target."""

    def __init__(self, coeffs):
        self.coeffs = coeffs


@dataclass(frozen=True)
class PCAModel:
    """Mean vector plus all 2p orthonormal components, sorted by decreasing variance.

    The arrays are float64, as `fit` and `load_model` make them. degenerate is
    set exactly when every eigenvalue is zero, i.e. the training rows were all
    identical; such a model still expands (to its mean).
    """

    p: int
    mean: np.ndarray
    components: np.ndarray  # shape (2p, 2p), rows are the components
    eigenvalues: np.ndarray  # shape (2p,), nonincreasing, >= 0
    degenerate: bool = field(default=False)

    def __post_init__(self):
        mean, comps, eig = self.mean, self.components, self.eigenvalues
        dim = 2 * self.p
        if mean.shape != (dim,) or comps.shape != (dim, dim) or eig.shape != (dim,):
            raise ValueError(
                f"p={self.p} needs a full basis of {dim} components of length {dim}, got"
                f" mean {mean.shape}, components {comps.shape}, eigenvalues {eig.shape}"
            )
        if not all(np.all(np.isfinite(a)) for a in (mean, comps, eig)):
            raise ValueError("mean, components and eigenvalues must be finite")
        if np.any(eig < 0) or np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be nonnegative and nonincreasing")
        if self.degenerate != (not np.any(eig > 0)):
            raise ValueError(f"degenerate={self.degenerate} contradicts the largest eigenvalue {eig[0]!r}")


def fit(X: ParameterMatrix) -> PCAModel:
    """Eigendecomposition of the row covariance (n-1 divisor) of X."""
    rows = X.rows
    if len(rows) < 2:
        raise ValueError(f"need at least 2 rows to fit, got {len(rows)}")
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (len(rows) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending; columns are eigenvectors
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    comps = eigvecs[:, order].T.copy()
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))  # first index wins magnitude ties
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PCAModel(
        p=X.p,
        mean=mean,
        components=comps,
        eigenvalues=eigvals,
        degenerate=not bool(np.any(eigvals > 0.0)),
    )


def expand(model: PCAModel, coeffs: np.ndarray) -> ParameterVector:
    """The angles theta = mean + sum_i c_i * component_i for the flat float64 coefficients c."""
    return ParameterVector.from_array(model.mean + coeffs @ model.components[: len(coeffs)])


def sample_coefficients(
    model: PCAModel, k: int, training_X: ParameterMatrix, seed: int
) -> np.ndarray:
    """k float64 coefficients, each uniform between the least and greatest training projection on its component."""
    if model.degenerate:
        return np.zeros(k)
    proj = (training_X.rows - model.mean) @ model.components[:k].T  # (rows, k)
    rng = np.random.default_rng(seed)
    return rng.uniform(proj.min(axis=0), proj.max(axis=0))


def save_model(path, model: PCAModel) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "p": model.p,
        "degenerate": model.degenerate,
        "mean": model.mean.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "components": model.components.tolist(),
    }
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")


def load_model(path) -> PCAModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid model JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    tag = payload.get("format")
    if tag != MODEL_FORMAT:
        raise ValueError(f"{path}: format tag {tag!r}, expected {MODEL_FORMAT!r}")
    for name in ("p", "degenerate", "mean", "eigenvalues", "components"):
        if name not in payload:
            raise ValueError(f"{path}: missing field {name!r}")
    p, degenerate = payload["p"], payload["degenerate"]
    if type(p) is not int:  # not a float to truncate, nor a bool
        raise ValueError(f"{path}: field 'p' must be a JSON integer, got {p!r}")
    if type(degenerate) is not bool:
        raise ValueError(f"{path}: field 'degenerate' must be a JSON boolean, got {degenerate!r}")
    for name in ("mean", "components", "eigenvalues"):
        # checked on the parsed JSON, since numpy would read true as 1.0 and "0.5" as 0.5
        bad = [v for v in _entries(payload[name]) if type(v) not in (int, float)]
        if bad:
            raise ValueError(f"{path}: field {name!r} must hold JSON numbers, got {bad[0]!r}")
    try:
        return PCAModel(
            p=p,
            mean=np.array(payload["mean"], dtype=np.float64),
            components=np.array(payload["components"], dtype=np.float64),
            eigenvalues=np.array(payload["eigenvalues"], dtype=np.float64),
            degenerate=degenerate,
        )
    except (OverflowError, ValueError) as exc:  # an integer past float64, ragged rows, or the wrong shape
        raise ValueError(f"{path}: {exc}") from exc


def _entries(value) -> list:
    """The non-list entries of a JSON value, at any depth of nested lists."""
    return [e for item in value for e in _entries(item)] if isinstance(value, list) else [value]
