"""Reference computations the tests check the package against; the package itself needs neither."""

import numpy as np

from qaoa_pca.engine import ParameterVector
from qaoa_pca.pca import PCAModel


def expectation(sv: np.ndarray, diag: np.ndarray) -> float:
    """Energy expectation sum_b |amplitude_b|^2 * E(b) of a full statevector; real by construction.

    `engine.objective` must return these bits: the same squares, summed by the
    same matrix product in index order.
    """
    sv = np.asarray(sv)
    diag = np.asarray(diag, dtype=np.float64)
    if sv.shape != diag.shape:
        raise ValueError(f"statevector shape {sv.shape} != diagonal shape {diag.shape}")
    prob = sv.real * sv.real + sv.imag * sv.imag
    return float(prob @ diag)


def project(model: PCAModel, theta: ParameterVector, k: int) -> np.ndarray:
    """Coefficients of theta - mean along the first k components.

    expand(project(theta, k)) is the orthogonal projection of theta onto the
    affine span of the mean and the first k components. These spans are nested,
    so the Euclidean residual of each row is nonincreasing in k and zero at full
    rank. The largest single-angle error is not guaranteed to fall with k.
    """
    if not (1 <= k <= 2 * model.p):
        raise ValueError(f"k must be in 1..{2 * model.p}, got {k}")
    flat = theta.as_array()
    if flat.shape != model.mean.shape:
        raise ValueError(f"parameter vector has 2p={flat.size}, model expects {model.mean.size}")
    return model.components[:k] @ (flat - model.mean)
