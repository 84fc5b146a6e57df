"""Reference computations the tests check the package against, and the loader of the benchmark's modules."""

import importlib
import itertools
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.stats

from qaoa_pca.engine import ParameterVector
from qaoa_pca.graphs import Graph, assign_random_weights
from qaoa_pca.pca import PCAModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_benchmark(name: str):
    """perfbench/<name>.py, imported under its own top-level name as perfbench/run.py does, writing no bytecode."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    with mock.patch.object(sys, "dont_write_bytecode", True):
        return importlib.import_module(name)


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


def layers(params):
    """(gamma_i, beta_i) for each layer i, as Python floats."""
    angles = params.as_array().tolist()
    return zip(angles[: params.p], angles[params.p :])


def random_weighted_graph(n, rng):
    pairs = list(itertools.combinations(range(n), 2))
    picked = [e for e in pairs if rng.random() < 0.5]
    if not picked:
        picked = [pairs[int(rng.integers(len(pairs)))]]
    return assign_random_weights(Graph(n, frozenset(picked)), seed=int(rng.integers(1 << 30)))


def dense_objective(wg, params: ParameterVector) -> float:
    """Independent oracle: perfbench/checks.py's dense-matrix statevector and its own energies."""
    psi, energy = load_benchmark("checks").dense_statevector(wg.graph.n, wg.weights, params.as_array())
    return float(np.real(np.vdot(psi, energy * psi)))


def exact_p_by_enumeration(diffs) -> float:
    """Independent oracle: walk all 2^n sign patterns over scipy's average ranks."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    n = len(d)
    ranks2 = np.round(2.0 * scipy.stats.rankdata(np.abs(d))).astype(np.int64)
    w2 = min(int(ranks2[d > 0].sum()), int(ranks2[d < 0].sum()))
    count = sum(
        1
        for bits in range(1 << n)
        if sum(int(ranks2[i]) for i in range(n) if bits >> i & 1) <= w2
    )
    return min(1.0, 2.0 * count / (1 << n))
