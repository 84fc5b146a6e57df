"""Exact statevector simulation of alternating-layer circuits over a diagonal cost operator.

A p-layer circuit on n qubits starts from the uniform superposition and applies,
per layer i, the diagonal phase exp(-i * gamma_i * E(b)) followed by the
transverse-field mixer exp(-i * beta_i * X_q) on every qubit q. The mixer acts
as a butterfly on each amplitude pair (x, y) differing only in bit q:

    (x, y) -> (cos(beta) * x - i sin(beta) * y,  cos(beta) * y - i sin(beta) * x)

Viewed as a (2^n / 2^(q+1), 2, 2^q) array, the state holds each pair along the
middle axis, and the half-swapped view v[:, ::-1, :] puts each amplitude's
partner in its place. So one qubit's butterfly is three calls over the whole
state: a = c * v, b = s * swapped, v = a - b. Every amplitude gets the same two
complex products and the same subtraction, in the same operand order, as a
per-half update (lo, hi) -> (c * lo - s * hi, c * hi - s * lo) would give it, so
the statevector is the same bit for bit. The views and scratch buffers are
built once per `evolve` call, which makes the cost per layer 5 + 3n numpy calls.

Cost is O(p * n * 2^n) amplitude updates; no gate matrices are materialized.
"""

from __future__ import annotations

import math

import numpy as np


class ParameterVector:
    """The 2p circuit angles in radians as one read-only float64 array:
    gamma_1..gamma_p, then beta_1..beta_p."""

    __slots__ = ("_theta",)

    def __init__(self, theta):
        theta = np.array(theta, dtype=np.float64)  # a copy, so the caller's array may change
        if theta.ndim != 1 or theta.size % 2 != 0 or theta.size < 2:
            raise ValueError(f"expected a flat vector of 2p angles, got shape {theta.shape}")
        if not all(map(math.isfinite, theta.tolist())):
            raise ValueError(f"all angles must be finite, got {theta}")
        theta.flags.writeable = False
        self._theta = theta

    @classmethod
    def from_array(cls, theta) -> "ParameterVector":
        return cls(theta)

    @property
    def p(self) -> int:
        return self._theta.size // 2

    def as_array(self) -> np.ndarray:
        """The stored angles, gamma block then beta block (read-only)."""
        return self._theta


def _qubit_count(size: int) -> int:
    n = size.bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ValueError(f"diagonal length must be a power of two >= 2, got {size}")
    return n


def evolve(diag: np.ndarray, params: ParameterVector) -> np.ndarray:
    """Final statevector of the p-layer circuit for the given energy diagonal."""
    diag = np.asarray(diag, dtype=np.float64)
    n = _qubit_count(diag.size)
    size = diag.size
    psi = np.full(size, 1.0 / np.sqrt(size), dtype=np.complex128)
    phase = np.empty(size, dtype=np.complex128)
    a = np.empty(size, dtype=np.complex128)
    b = np.empty(size, dtype=np.complex128)
    butterflies = []
    for q in range(n):
        shape = (size >> (q + 1), 2, 1 << q)
        v = psi.reshape(shape)
        butterflies.append((v, v[:, ::-1, :], a.reshape(shape), b.reshape(shape)))
    angles = params.as_array().tolist()
    for gamma, beta in zip(angles[: params.p], angles[params.p :]):
        np.multiply(-1j * gamma, diag, out=phase)
        np.exp(phase, out=phase)
        psi *= phase
        c = np.cos(beta)
        s = 1j * np.sin(beta)
        for v, swapped, av, bv in butterflies:
            np.multiply(c, v, out=av)
            np.multiply(s, swapped, out=bv)
            np.subtract(av, bv, out=v)
    return psi


def expectation(sv: np.ndarray, diag: np.ndarray) -> float:
    """Energy expectation sum_b |amplitude_b|^2 * E(b); real by construction."""
    sv = np.asarray(sv)
    diag = np.asarray(diag, dtype=np.float64)
    if sv.shape != diag.shape:
        raise ValueError(f"statevector shape {sv.shape} != diagonal shape {diag.shape}")
    prob = sv.real * sv.real + sv.imag * sv.imag
    return float(prob @ diag)


def approximation_ratio(energy: float, cmin: float) -> float:
    """energy / cmin; lies in [0, 1] for positive-weight graphs, 1 means optimal."""
    if not cmin < 0:
        raise ValueError(f"cmin must be negative (nonempty positive-weight graph), got {cmin}")
    return energy / cmin


def objective(diag: np.ndarray, params: ParameterVector) -> float:
    """The scalar the optimizer minimizes: expectation of the evolved statevector."""
    return expectation(evolve(diag, params), diag)
