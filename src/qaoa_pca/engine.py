"""Exact statevector simulation of alternating-layer circuits over a MaxCut cost diagonal.

A p-layer circuit on n qubits starts from the uniform superposition and applies,
per layer i, the diagonal phase exp(-i * gamma_i * E(b)) followed by the
transverse-field mixer exp(-i * beta_i * X_q) on every qubit q. The mixer acts
as a butterfly on each amplitude pair (x, y) differing only in bit q:

    (x, y) -> (cos(beta) * x - i sin(beta) * y,  cos(beta) * y - i sin(beta) * x)

Half the state is redundant. A cut does not change when every bit flips, so a
MaxCut diagonal has diag[x] == diag[~x], where ~x = 2^n - 1 - x. The uniform
start, the phase and the mixer all keep that symmetry, and amplitude ~x gets
the same products, in the same order, of the same operands as amplitude x; so
psi[x] == psi[~x] bit for bit (Shaydulin, Hadfield, Hogg & Safro, "Classical
symmetries and the Quantum Approximate Optimization Algorithm", Quantum Inf.
Process. 20, 359, 2021). The engine therefore evolves only the 2^(n-1)
amplitudes whose top bit is 0, and refuses, with ValueError, a diagonal whose
bytes change under the reversal diag[::-1] (one compare per call).

Qubit q < n-1 pairs amplitudes within that half. Viewed as a
(2^(n-1) / 2^(q+1), 2, 2^q) array, the half holds each pair along the middle
axis, and the half-swapped view v[:, ::-1, :] puts each amplitude's partner in
its place. The top qubit pairs x with x + 2^(n-1), whose amplitude is that
of its complement 2^(n-1) - 1 - x, so its swapped view is the reversal
psi[::-1]. Either way
one qubit's butterfly is three calls: b = s * swapped, then psi = c * psi
and psi = psi - b in place. Every amplitude gets the same two complex
products and the same subtraction, in the same operand order, as a per-half update
(lo, hi) -> (c * lo - s * hi, c * hi - s * lo) of the full state would give it,
so the state is the same bit for bit. A layer costs 5 + 3n numpy calls on
2^(n-1) amplitudes.

`objective` squares the half into the first half of a full-length
probability buffer, mirrors it into the second, and takes prob @ diag over all
2^n entries in index order, so the sum, and its bits, are those of the
full-state expectation sum_b |psi_b|^2 * E(b) computed the same way. `evolve`
returns the full state as a new array, the half followed by its reversal.

The half-size state, phase and scratch buffers, the full-size probability
buffer, the per-qubit views and 0-d arrays for each layer's scalars (a ufunc
takes those with less overhead than a float) are built once per state size
(`_Buffers`) and cached by 2^n (at most `MAX_VERTICES` sizes; the least
recently used size goes first), so an evaluation allocates nothing per layer
or per qubit. Because the
buffers are shared, the module is not thread-safe: evaluate from one thread
per process.

Cost is O(p * n * 2^(n-1)) amplitude updates; no gate matrices are materialized.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .graphs import MAX_VERTICES


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


class _Buffers:
    """Every array and view that one evaluation of a `size`-amplitude state writes.

    psi, phase and the scratch b hold the half state. g, c and s hold a
    layer's scalars -i gamma, cos(beta) and i sin(beta) as 0-d complex arrays,
    which a ufunc takes with less overhead than a Python or numpy scalar, and
    with the same value. butterflies holds (swapped view of psi, b in its
    shape) per qubit. squares views the spent phase as the half's squared
    parts, interleaved (re2 and im2 view them), and prob holds all `size`
    probabilities: low, the half's, then high, their mirror image.
    """

    __slots__ = (
        "amp0", "psi", "phase", "b", "g", "c", "s", "butterflies",
        "parts", "squares", "re2", "im2", "prob", "low", "high", "mirror",
    )

    def __init__(self, size: int):
        n = _qubit_count(size)
        half = size >> 1
        self.amp0 = 1.0 / np.sqrt(size)
        self.psi, self.phase, self.b = (np.empty(half, dtype=np.complex128) for _ in range(3))
        self.g, self.c, self.s = (np.empty((), dtype=np.complex128) for _ in range(3))
        self.butterflies = []
        for q in range(n - 1):
            shape = (half >> (q + 1), 2, 1 << q)
            self.butterflies.append((self.psi.reshape(shape)[:, ::-1, :], self.b.reshape(shape)))
        self.butterflies.append((self.psi[::-1], self.b))  # the top qubit: x's partner has the amplitude at half - 1 - x
        self.parts = self.psi.view(np.float64)  # re_0, im_0, re_1, im_1, ...
        self.squares = self.phase.view(np.float64)
        self.re2, self.im2 = self.squares[0::2], self.squares[1::2]
        self.prob = np.empty(size, dtype=np.float64)
        self.low, self.high = self.prob[:half], self.prob[half:]
        self.mirror = self.low[::-1]


@lru_cache(maxsize=MAX_VERTICES)
def _buffers_for(size: int) -> _Buffers:
    return _Buffers(size)


def _evolve_half(diag: np.ndarray, params: ParameterVector) -> _Buffers:
    """The buffers of diag's size, their psi holding the amplitudes whose top bit is 0; valid until the next call."""
    buf = _buffers_for(diag.size)
    # compared as bytes, since a -0.0 facing a 0.0 would already give other bits than the full state
    if diag.tobytes() != diag[::-1].tobytes():
        raise ValueError("the diagonal must be unchanged by flipping every bit: diag[x] == diag[size - 1 - x]")
    psi, phase, b, g, c, s = buf.psi, buf.phase, buf.b, buf.g, buf.c, buf.s
    low = diag[: psi.size]
    psi.fill(buf.amp0)
    angles = params.as_array().tolist()
    for gamma, beta in zip(angles[: params.p], angles[params.p :]):
        g[()] = -1j * gamma
        np.multiply(g, low, phase)
        np.exp(phase, phase)
        np.multiply(psi, phase, psi)
        c[()] = np.cos(beta)
        s[()] = 1j * np.sin(beta)
        for swapped, bv in buf.butterflies:
            np.multiply(s, swapped, bv)  # before psi changes, since swapped views it
            np.multiply(c, psi, psi)
            np.subtract(psi, b, psi)
    return buf


def evolve(diag: np.ndarray, params: ParameterVector) -> np.ndarray:
    """Final statevector of the p-layer circuit for the given bit-symmetric energy diagonal (a new array)."""
    half = _evolve_half(np.asarray(diag, dtype=np.float64), params).psi
    return np.concatenate((half, half[::-1]))


def approximation_ratio(energy: float, cmin: float) -> float:
    """energy / cmin; lies in [0, 1] for positive-weight graphs, 1 means optimal."""
    if not cmin < 0:
        raise ValueError(f"cmin must be negative (nonempty positive-weight graph), got {cmin}")
    return energy / cmin


def objective(diag: np.ndarray, params: ParameterVector) -> float:
    """The scalar the optimizer minimizes: the energy expectation of the evolved statevector."""
    diag = np.asarray(diag, dtype=np.float64)
    buf = _evolve_half(diag, params)
    # re * re + im * im per amplitude, then the mirror image for the top half
    np.multiply(buf.parts, buf.parts, buf.squares)
    np.add(buf.re2, buf.im2, buf.low)
    np.copyto(buf.high, buf.mirror)
    return float(buf.prob @ diag)
