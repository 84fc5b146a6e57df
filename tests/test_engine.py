import itertools
import math
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qaoa_pca.engine import (
    ParameterVector,
    approximation_ratio,
    evolve,
    expectation,
    objective,
)
from qaoa_pca.graphs import Graph, assign_random_weights, unit_weights
from qaoa_pca.maxcut import brute_force_cmin, cost_diagonal


def random_weighted_graph(n, rng):
    pairs = list(itertools.combinations(range(n), 2))
    picked = [e for e in pairs if rng.random() < 0.5]
    if not picked:
        picked = [pairs[int(rng.integers(len(pairs)))]]
    return assign_random_weights(Graph(n, frozenset(picked)), seed=int(rng.integers(1 << 30)))


def layers(params):
    """(gamma_i, beta_i) for each layer i, as Python floats."""
    angles = params.as_array().tolist()
    return zip(angles[: params.p], angles[params.p :])


def dense_objective(wg, params):
    """Independent oracle: full 2^n x 2^n matrices, mixer exponentiated densely."""
    n = wg.graph.n
    dim = 1 << n
    diag = cost_diagonal(wg)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    mixer = np.zeros((dim, dim), dtype=complex)
    for q in range(n):
        op = np.eye(1, dtype=complex)
        for bit in range(n):  # little-endian: bit q has stride 2^q
            op = np.kron(x, op) if bit == q else np.kron(np.eye(2, dtype=complex), op)
        mixer += op
    psi = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    for gamma, beta in layers(params):
        psi = np.exp(-1j * gamma * diag) * psi
        psi = expm(-1j * beta * mixer) @ psi
    return float(np.real(np.conj(psi) @ (diag * psi)))


def reference_evolve(diag, params):
    """The per-half butterfly: copy the low half of each pair, then write both halves."""
    diag = np.asarray(diag, dtype=np.float64)
    size = diag.size
    n = size.bit_length() - 1
    psi = np.full(size, 1.0 / np.sqrt(size), dtype=np.complex128)
    for gamma, beta in layers(params):
        psi *= np.exp(-1j * gamma * diag)
        c = np.cos(beta)
        s = 1j * np.sin(beta)
        for q in range(n):
            pairs = psi.reshape(size >> (q + 1), 2, 1 << q)
            lo = pairs[:, 0, :].copy()
            hi = pairs[:, 1, :]
            pairs[:, 0, :] = c * lo - s * hi
            pairs[:, 1, :] = c * hi - s * lo
    return psi


def closed_form_p1(wg, gamma, beta):
    """Single-layer energy in O(m * n), sharing no code with `evolve`.

    The closed form of Wang, Hadfield, Jiang & Rieffel (PRA 97, 022304, 2018),
    weighted as in Ozaeta, van Dam & McMahon (arXiv:2012.03421), in this
    package's conventions: E = -C, phase exp(-i gamma E), mixer exp(-i beta X).
    Up to a global phase the phase layer is exp(-i gamma sum (w_uv / 2) Z_u Z_v),
    so <E> = sum over edges of (w_uv / 2) (<Z_u Z_v> - 1), where, with a_k =
    gamma w_uk over the other neighbours k of u and b_k = gamma w_vk over those of v,

        <Z_u Z_v> = sin(4 beta) / 2 * sin(gamma w_uv) * (prod cos a_k + prod cos b_k)
                  - sin(2 beta)^2 / 2 * prod_{k not common} cos a_k * prod_{k not common} cos b_k
                    * (prod_{k common} cos(a_k + b_k) - prod_{k common} cos(a_k - b_k)).
    """
    nbrs = {v: {} for v in range(wg.graph.n)}
    for (u, v), w in wg.weights.items():
        nbrs[u][v] = w
        nbrs[v][u] = w
    energy = 0.0
    for (u, v), w in wg.weights.items():
        a = {k: gamma * wk for k, wk in nbrs[u].items() if k != v}
        b = {k: gamma * wk for k, wk in nbrs[v].items() if k != u}
        common = a.keys() & b.keys()
        mixed = math.sin(gamma * w) * (
            math.prod(map(math.cos, a.values())) + math.prod(map(math.cos, b.values()))
        )
        outer = math.prod(math.cos(x) for k, x in a.items() if k not in common) * math.prod(
            math.cos(x) for k, x in b.items() if k not in common
        )
        triangles = math.prod(math.cos(a[k] + b[k]) for k in common) - math.prod(
            math.cos(a[k] - b[k]) for k in common
        )
        zz = math.sin(4 * beta) / 2 * mixed - math.sin(2 * beta) ** 2 / 2 * outer * triangles
        energy += w / 2 * (zz - 1)
    return energy


def test_parameter_vector_validation():
    assert ParameterVector.from_array([0.1, 0.2]).p == 1
    for bad in ([], [0.1, 0.2, 0.3], [float("inf"), 0.0]):
        with pytest.raises(ValueError):
            ParameterVector.from_array(bad)


def test_parameter_vector_array_round_trip():
    pv = ParameterVector.from_array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert pv.p == 3
    flat = pv.as_array()
    assert flat.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    assert np.array_equal(ParameterVector.from_array(flat).as_array(), flat)
    with pytest.raises(ValueError):
        ParameterVector.from_array(np.zeros(5))  # odd length has no gamma/beta split


def test_from_array_copies_into_a_read_only_float64_array():
    given = np.array([0.25, -1.5, 3.0, 7.0])
    pv = ParameterVector.from_array(given)
    given[0] = 9.0
    stored = pv.as_array()
    assert stored.dtype == np.float64 and not stored.flags.writeable
    assert stored.tolist() == [0.25, -1.5, 3.0, 7.0]
    with pytest.raises(ValueError):
        stored[0] = 1.0
    assert ParameterVector.from_array([1, 2]).as_array().dtype == np.float64
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ParameterVector.from_array(np.array([0.1, bad]))
    for shape in ((3,), (0,), (2, 2)):  # odd, empty, 2-d
        with pytest.raises(ValueError, match="2p angles"):
            ParameterVector.from_array(np.zeros(shape))


def test_norm_preserved_on_random_probes():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        wg = random_weighted_graph(n, rng)
        pv = ParameterVector.from_array(rng.uniform(-2, 2, 2 * p))
        sv = evolve(cost_diagonal(wg), pv)
        assert abs(np.vdot(sv, sv).real - 1.0) < 1e-10


def test_zero_parameters_give_uniform_energy():
    rng = np.random.default_rng(1)
    for n in (2, 4, 6):
        wg = random_weighted_graph(n, rng)
        val = objective(cost_diagonal(wg), ParameterVector.from_array([0.0, 0.0]))
        assert val == pytest.approx(-wg.total_weight / 2, abs=1e-12)


def test_uniform_triangle_energy_ratio():
    wg = unit_weights(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})))
    energy = objective(cost_diagonal(wg), ParameterVector.from_array([0.0, 0.0]))
    cmin, _ = brute_force_cmin(wg)
    assert approximation_ratio(energy, cmin) == pytest.approx(0.75, abs=1e-12)


def test_mixer_inverse_returns_input():
    rng = np.random.default_rng(7)
    wg = random_weighted_graph(5, rng)
    diag = cost_diagonal(wg)
    beta = 0.813
    forward = evolve(diag, ParameterVector.from_array([0.0, beta]))
    # applying -beta undoes the mixer layer since gamma = 0 contributed nothing
    dim = forward.size
    start = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    backward = evolve(diag, ParameterVector.from_array([0.0, 0.0, beta, -beta]))
    assert np.allclose(backward, start, atol=1e-12)


def test_beta_period_pi():
    rng = np.random.default_rng(3)
    wg = random_weighted_graph(6, rng)
    diag = cost_diagonal(wg)
    pv = ParameterVector.from_array([0.37, 1.21, 0.55, -0.4])
    shifted = ParameterVector.from_array(pv.as_array() + [0.0, 0.0, np.pi, np.pi])
    assert objective(diag, pv) == pytest.approx(objective(diag, shifted), abs=1e-9)


def test_gamma_period_two_pi_unweighted():
    # integer cut spectrum makes the phase layer 2*pi periodic
    wg = unit_weights(Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})))
    diag = cost_diagonal(wg)
    pv = ParameterVector.from_array([0.9, 0.31])
    shifted = ParameterVector.from_array([0.9 + 2 * np.pi, 0.31])
    assert objective(diag, pv) == pytest.approx(objective(diag, shifted), abs=1e-9)


def test_matches_dense_oracle():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        wg = random_weighted_graph(n, rng)
        pv = ParameterVector.from_array(rng.uniform(-2, 2, 2 * p))
        fast = objective(cost_diagonal(wg), pv)
        assert fast == pytest.approx(dense_objective(wg, pv), abs=1e-9)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
@pytest.mark.parametrize("n", range(1, 9))
def test_evolve_equals_reference_bit_for_bit(n, p):
    rng = np.random.default_rng(1000 * n + p)
    for trial in range(6):
        if n == 1:
            wg = unit_weights(Graph(1, frozenset()))
        elif trial % 2:
            wg = random_weighted_graph(n, rng)
        else:
            wg = unit_weights(random_weighted_graph(n, rng).graph)
        diag = cost_diagonal(wg)
        angles = rng.uniform(-3 * np.pi, 3 * np.pi, 2 * p)
        angles[rng.random(2 * p) < 0.25] = 0.0
        # every (n, p) gets a zero, a negative angle and one beyond 2 pi
        angles[trial % (2 * p)] = (0.0, -0.7, 2 * np.pi + 0.3)[trial % 3]
        pv = ParameterVector.from_array(angles)
        got, want = evolve(diag, pv), reference_evolve(diag, pv)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert objective(diag, pv) == expectation(want, diag)


def test_p1_matches_closed_form():
    rng = np.random.default_rng(2018)
    for n in range(2, 9):
        for _ in range(8):
            wg = random_weighted_graph(n, rng)
            gamma, beta = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            value = objective(cost_diagonal(wg), ParameterVector.from_array([gamma, beta]))
            assert value == pytest.approx(closed_form_p1(wg, gamma, beta), abs=1e-12)


def test_expectation_shape_mismatch():
    with pytest.raises(ValueError):
        expectation(np.ones(4, dtype=complex) / 2, np.zeros(8))


def test_approximation_ratio_contract():
    assert approximation_ratio(-1.0, -2.0) == 0.5
    with pytest.raises(ValueError):
        approximation_ratio(-1.0, 0.0)


def test_objective_speed_soft_bound():
    rng = np.random.default_rng(5)
    wg = random_weighted_graph(8, rng)
    diag = cost_diagonal(wg)
    pv = ParameterVector.from_array(rng.uniform(0, 1, 16))
    objective(diag, pv)  # warm up
    t0 = time.perf_counter()
    reps = 20
    for _ in range(reps):
        objective(diag, pv)
    per_call = (time.perf_counter() - t0) / reps
    if per_call > 0.010:
        warnings.warn(f"p=8, n=8 objective took {per_call * 1e3:.1f} ms per call (soft 10 ms bound)")


def test_writing_into_evolve_result_does_not_change_the_next_call():
    # evolve hands out a copy of the shared state buffer, never the buffer itself
    rng = np.random.default_rng(77)
    diag = cost_diagonal(random_weighted_graph(5, rng))
    pv = ParameterVector.from_array(rng.uniform(-np.pi, np.pi, 4))
    first = evolve(diag, pv)
    kept = first.copy()
    first[:] = 123.0 - 4.0j
    again = evolve(diag, pv)
    assert again is not first
    assert np.array_equal(again, kept)
    other = evolve(diag, ParameterVector.from_array(rng.uniform(-np.pi, np.pi, 4)))
    assert np.array_equal(again, kept) and not np.array_equal(other, kept)
    assert objective(diag, pv) == expectation(kept, diag)


def test_interleaved_sizes_and_depths_equal_reference_bit_for_bit():
    # calls that switch state size and depth at random reuse the per-size buffers; two sizes
    # beyond 8 qubits make the buffer cache drop its least recently used sizes and rebuild them
    rng = np.random.default_rng(2026)
    cases = []
    for n in range(3, 9):
        for p in (1, 2, 4, 8):
            wg = random_weighted_graph(n, rng) if p % 2 else unit_weights(random_weighted_graph(n, rng).graph)
            cases.append((cost_diagonal(wg), ParameterVector.from_array(rng.uniform(-3 * np.pi, 3 * np.pi, 2 * p))))
    for n in (9, 10):
        cases.append((rng.uniform(-5.0, 0.0, 1 << n), ParameterVector.from_array(rng.uniform(-np.pi, np.pi, 4))))
    want = [reference_evolve(diag, pv) for diag, pv in cases]
    for _ in range(3):
        for i in rng.permutation(len(cases)):
            diag, pv = cases[i]
            got = evolve(diag, pv)
            assert np.array_equal(got, want[i])
            assert np.array_equal(np.signbit(got.real), np.signbit(want[i].real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want[i].imag))
            assert objective(diag, pv) == expectation(want[i], diag)


def test_objective_is_expectation_of_evolve_exactly():
    rng = np.random.default_rng(31)
    for n in range(1, 9):
        for p in (1, 2, 4, 8):
            diag = cost_diagonal(random_weighted_graph(n, rng)) if n > 1 else np.array([0.0, -1.0])
            pv = ParameterVector.from_array(rng.uniform(-2 * np.pi, 2 * np.pi, 2 * p))
            assert objective(diag, pv) == expectation(evolve(diag, pv), diag)
