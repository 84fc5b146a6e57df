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
one qubit's butterfly is three calls: phase = s * swapped, then psi = c * psi
and psi = psi - phase in place. Every amplitude gets the same two complex
products and the same subtraction, in the same operand order, as a per-half update
(lo, hi) -> (c * lo - s * hi, c * hi - s * lo) of the full state would give it,
so the state is the same bit for bit. A layer costs 5 + 3n numpy calls on
2^(n-1) amplitudes.

`objective` writes the half's probabilities into the first half of psi's
float64 view, mirrors them into the second, and takes that view @ diag over all
2^n entries in index order, so the sum, and its bits, are those of the
full-state expectation sum_b |psi_b|^2 * E(b) computed the same way. `evolve`
returns the full state as a new array, the half followed by its reversal.

Each state size owns two complex arrays of 2^(n-1) entries, the half state
psi and its scratch phase; every other buffer is a view of one of them
(`_Buffers`, cached by 2^n for at most `MAX_VERTICES` sizes, the least
recently used going first), so an evaluation allocates nothing per layer or
per qubit. Because the buffers are shared, the module is not thread-safe:
evaluate from one thread per process.

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


class _Buffers:
    """The two arrays one evaluation of a `size`-amplitude state writes, and their views.

    psi holds the half state. phase, its scratch, holds a layer's phase until
    psi *= phase, then each qubit's butterfly product until psi -= it
    (butterflies pairs psi's swapped view with phase in its shape, per qubit),
    then the final state's squared parts, interleaved (squares; re2 and im2
    view them). parts, psi's float64 view, then takes all `size` probabilities,
    low, the half's, then high, their mirror image: nothing reads the state
    after its squares, and the next evaluation refills psi. g, c and s hold a
    layer's -i gamma, cos(beta) and i sin(beta) as 0-d complex arrays, which a
    ufunc takes with less overhead than a Python or numpy scalar, and with the
    same value.
    """

    __slots__ = (
        "amp0", "psi", "phase", "g", "c", "s", "butterflies",
        "parts", "squares", "re2", "im2", "low", "high", "mirror",
    )

    def __init__(self, size: int):
        n = size.bit_length() - 1
        if size < 2 or (1 << n) != size:
            raise ValueError(f"diagonal length must be a power of two >= 2, got {size}")
        half = size >> 1
        self.amp0 = 1.0 / np.sqrt(size)
        self.psi, self.phase = (np.empty(half, dtype=np.complex128) for _ in range(2))
        self.g, self.c, self.s = (np.empty((), dtype=np.complex128) for _ in range(3))
        self.butterflies = []
        for q in range(n - 1):
            shape = (half >> (q + 1), 2, 1 << q)
            self.butterflies.append((self.psi.reshape(shape)[:, ::-1, :], self.phase.reshape(shape)))
        self.butterflies.append((self.psi[::-1], self.phase))  # the top qubit: x's partner has the amplitude at half - 1 - x
        self.parts = self.psi.view(np.float64)  # re_0, im_0, re_1, im_1, ...
        self.squares = self.phase.view(np.float64)
        self.re2, self.im2 = self.squares[0::2], self.squares[1::2]
        self.low, self.high = self.parts[:half], self.parts[half:]
        self.mirror = self.low[::-1]


_buffers_for = lru_cache(maxsize=MAX_VERTICES)(_Buffers)


def _evolve_half(diag: np.ndarray, params: ParameterVector) -> _Buffers:
    """The buffers of diag's size, their psi holding the amplitudes whose top bit is 0; valid until the next call."""
    buf = _buffers_for(diag.size)
    # compared as bytes, since a -0.0 facing a 0.0 would already give other bits than the full state
    if diag.tobytes() != diag[::-1].tobytes():
        raise ValueError("the diagonal must be unchanged by flipping every bit: diag[x] == diag[size - 1 - x]")
    psi, phase, g, c, s = buf.psi, buf.phase, buf.g, buf.c, buf.s
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
        for swapped, product in buf.butterflies:
            np.multiply(s, swapped, product)  # before psi changes, since swapped views it
            np.multiply(c, psi, psi)
            np.subtract(psi, phase, psi)
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
    # re * re + im * im per amplitude, over the spent state, then the mirror image for the top half
    np.multiply(buf.parts, buf.parts, buf.squares)
    np.add(buf.re2, buf.im2, buf.low)
    np.copyto(buf.high, buf.mirror)
    return float(buf.parts @ diag)
