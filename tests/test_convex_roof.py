import importlib.util
import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import segrent as sg
from segrent import _stiefel, cli, convex_roof, segre_ideal
from segrent.convex_roof import _ensemble_objective, _lower_bound

import oracles
from conftest import dropped_tail_state, near_product_state, werner_state


# -------------------------------------------------------------- eigen ensemble

def test_eigen_ensemble_pure(bell):
    dec = sg.eigen_ensemble(bell.density())
    assert len(dec.weights) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(dec.states[0].amps, bell.amps)) == pytest.approx(1.0, abs=1e-12)


def test_eigen_ensemble_maximally_mixed():
    dec = sg.eigen_ensemble(sg.DensityMatrix((2, 2), np.eye(4) / 4.0))
    assert len(dec.weights) == 4
    assert all(w == pytest.approx(0.25, abs=1e-12) for w in dec.weights)


def test_eigen_ensemble_werner_descending():
    dec = sg.eigen_ensemble(werner_state(0.8))
    assert np.allclose(dec.weights, [0.85, 0.05, 0.05, 0.05], atol=1e-12)
    assert np.max(np.abs(dec.mixture().mat - werner_state(0.8).mat)) <= 1e-12


# ------------------------------------------------------- isometry decomposition

def test_identity_isometry_reproduces_eigen_ensemble():
    rho = werner_state(0.8)
    eig = sg.eigen_ensemble(rho)
    dec = sg.ensemble_from_isometry(rho, np.eye(4))
    assert np.allclose(dec.weights, eig.weights, atol=1e-14)
    for a, b in zip(dec.states, eig.states):
        assert np.max(np.abs(a.amps - b.amps)) <= 1e-13


@pytest.mark.parametrize("k,seed", [(4, 0), (6, 1), (8, 2)])
def test_isometry_ensemble_reconstructs(k, seed):
    rho = werner_state(0.6)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
    v, _ = np.linalg.qr(raw)
    dec = sg.ensemble_from_isometry(rho, v)
    assert np.max(np.abs(dec.mixture().mat - rho.mat)) <= 1e-10
    assert math.fsum(dec.weights) == pytest.approx(1.0, abs=1e-10)


def test_isometry_on_pure_state_repeats_it(ghz3):
    rho = ghz3.density()
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    v, _ = np.linalg.qr(raw)
    dec = sg.ensemble_from_isometry(rho, v)
    for st in dec.states:
        assert abs(np.vdot(st.amps, ghz3.amps)) == pytest.approx(1.0, abs=1e-10)


def test_isometry_validation(monkeypatch):
    rho = werner_state(0.5)
    with pytest.raises(sg.IsometryError, match=r"orthonormal within 1e-10$"):
        sg.ensemble_from_isometry(rho, np.ones((4, 4)))
    v = _random_isometry(np.random.default_rng(0), 4, 4)
    sg.ensemble_from_isometry(rho, v)
    monkeypatch.setattr(convex_roof, "_ISOMETRY_TOL", 1e-20)    # the check and its message
    with pytest.raises(sg.IsometryError, match=r"orthonormal within 1e-20$"):
        sg.ensemble_from_isometry(rho, v)
    monkeypatch.undo()
    with pytest.raises(sg.IsometryError):
        sg.ensemble_from_isometry(rho, np.eye(3))           # too few columns? wrong r
    with pytest.raises(sg.IsometryError):
        sg.ensemble_from_isometry(rho, np.eye(4)[:, :3])    # K x 3 against rank 4


# ------------------------------------------------------------ roof objective

@pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((3, 3), 2),
                                       ((2, 2, 2), 3), ((2, 2, 3), 4)])
def test_ensemble_objective_matches_oracle(dims, seed):
    rng = np.random.default_rng(seed)
    shape = (2, 3, math.prod(dims))
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)   # unnormalized
    want = [math.fsum(math.sqrt(2.0 * oracles.brute_perm_sum_and_max(row.reshape(dims))[0])
                      for row in batch) for batch in phi]
    got = _ensemble_objective(dims)[0](phi)
    assert got.shape == (shape[0],)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_objective_memory_does_not_grow_with_columns():
    # (2, N): M_{0} has C(N, 2) column pairs a row, which one block used to hold at once
    peaks = []
    for n in (300, 1200):
        rng = np.random.default_rng(n)
        phi = rng.standard_normal((2, 2 * n)) + 1j * rng.standard_normal((2, 2 * n))
        value = _ensemble_objective((2, n))[0]
        tracemalloc.start()
        try:
            got = float(value(phi))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        weights = np.sum(np.abs(phi) ** 2, axis=1)
        want = math.fsum(w * sg.measure_F(sg.BoxTensor((2, n), row / math.sqrt(w))).value
                         for w, row in zip(weights, phi))
        assert got == pytest.approx(want, rel=1e-10)
    assert peaks[1] - peaks[0] < 3e6


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3)])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_ensemble_objective_near_product_states_matches_exact_sum(dims, eps):
    # worst relative errors measured over these states: 3e-14, 3.4e-11 and 5.1e-8. The
    # gradient against central differences of the value along a seeded complex direction,
    # with a step of 1e-3 eps: the value is about eps there, so this tests the gradient
    # where the sums of |minor|^2 are eps^2
    value, grad = _ensemble_objective(dims)
    for seed in (1, 2, 3):
        st = near_product_state(dims, eps, seed)
        exact = oracles.exact_generator_sum(st.tensor, "class")
        got = float(value(st.amps[None])) ** 2 / 2.0  # sqrt(2 sum)
        assert abs(float((Fraction(got) - exact) / exact)) <= 2e-15 / eps
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((1, st.amps.size)) + 1j * rng.standard_normal((1, st.amps.size))
        h = 1e-3 * eps
        numeric = float(value(st.amps[None] + h * xi) - value(st.amps[None] - h * xi)) / (2 * h)
        slope = np.vdot(grad(st.amps[None]), xi).real
        assert abs(numeric - slope) <= 2e-4 * max(1.0, abs(slope)), (seed, numeric, slope)


def _random_isometry(rng, k, r):
    return _stiefel._retract(rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r)))


@pytest.mark.parametrize("dims,rank", [((2, 2), 2), ((2, 2), 3), ((2, 3), 2), ((2, 3), 3),
                                       ((2, 2, 2), 2), ((2, 2, 2), 3)])
def test_ensemble_gradient_matches_finite_differences(dims, rank):
    # the gradient from each flattening's singular vectors against central differences of
    # the value, along random directions of V, with phi = V W as in the search
    rng = np.random.default_rng(rank)
    dec = sg.eigen_ensemble(sg.random_state("mixed", dims, seed=rank, rank=rank))
    w = np.sqrt(dec.weights)[:, None] * np.array([st.amps for st in dec.states])
    k = rank + 2
    value, grad = _ensemble_objective(dims)
    for _ in range(3):
        v = _random_isometry(rng, k, rank)
        xi = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
        h = 1e-6
        numeric = (value((v + h * xi) @ w) - value((v - h * xi) @ w)) / (2.0 * h)
        exact = np.vdot(grad(v @ w) @ w.conj().T, xi).real
        assert abs(numeric - exact) <= 1e-7 * max(1.0, abs(exact))


def test_ensemble_gradient_is_finite_on_product_rows():
    # a basis product row's sum of |minor|^2 is exactly 0, the kink of the sqrt: it gets a
    # zero gradient, not a NaN; other product rows have a sum of about 0 and stay finite
    rows = np.array([np.eye(6)[1], sg.random_state("product", (2, 3), seed=1).amps])
    g = _ensemble_objective((2, 3))[1](rows)
    assert np.all(np.isfinite(g))
    assert not np.any(g[0])


@pytest.mark.parametrize("k,r", [(2, 2), (6, 3), (8, 4)])
def test_projected_gradient_is_tangent(k, r):
    rng = np.random.default_rng(k)
    v = _random_isometry(rng, k, r)
    g = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    xi = _stiefel._tangent(v, g)
    assert np.max(np.abs(v.conj().T @ xi + xi.conj().T @ v)) <= 1e-12
    assert np.max(np.abs(_stiefel._tangent(v, xi) - xi)) <= 1e-12    # a projection
    normal = v.conj().T @ (g - xi)      # what it drops is V S with S Hermitian: orthogonal
    assert np.max(np.abs(normal - normal.conj().T)) <= 1e-12
    assert np.max(np.abs(g - xi - v @ normal)) <= 1e-12


def test_stacked_tangent_is_per_matrix_tangent():
    # the descent projects its (s, y) memory and its new gradient, step and old gradient as
    # stacks; each matrix must come out as its own call gives it, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(60):
        k = int(rng.integers(2, 9))
        r = int(rng.integers(2, k + 1))
        lead = tuple(int(n) for n in rng.integers(0, 4, size=int(rng.integers(1, 3))))
        v = _random_isometry(rng, k, r)
        g = rng.standard_normal(lead + (k, r)) + 1j * rng.standard_normal(lead + (k, r))
        stacked = _stiefel._tangent(v, g)
        assert stacked.shape == g.shape
        for idx in np.ndindex(*lead):
            assert np.array_equal(stacked[idx], _stiefel._tangent(v, g[idx])), (k, r, lead)


def _direction_reference(v, g, pairs):
    """-H g of two-loop L-BFGS, each (s, y) pair projected on its own at v."""
    kept = []
    for s, y in pairs:
        s, y = _stiefel._tangent(v, s), _stiefel._tangent(v, y)
        if np.vdot(s, y).real > 0.0:
            kept.append((s, y, float(np.vdot(s, y).real)))
    q, alphas = g, []
    for s, y, sy in reversed(kept):
        alphas.append(float(np.vdot(s, q).real) / sy)
        q = q - alphas[-1] * y
    if kept:
        q = q * (kept[-1][2] / float(np.vdot(kept[-1][1], kept[-1][1]).real))
    for (s, y, sy), a in zip(kept, reversed(alphas)):
        q = q + (a - float(np.vdot(y, q).real) / sy) * s
    return -q


@pytest.mark.parametrize("k,r,n", [(2, 2, 0), (4, 2, 1), (6, 3, 5), (8, 4, 8)])
def test_direction_matches_per_pair_reference(k, r, n):
    rng = np.random.default_rng(k + n)
    v = _random_isometry(rng, k, r)
    g = _stiefel._tangent(v, rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r)))
    s = rng.standard_normal((n, k, r)) + 1j * rng.standard_normal((n, k, r))
    y = s + 0.5 * (rng.standard_normal((n, k, r)) + 1j * rng.standard_normal((n, k, r)))
    y[::3] *= -1.0      # a pair with <s, y> <= 0 after projection is left out
    pairs = np.stack((s, y), 1)
    assert pairs.shape == (n, 2, k, r)
    d = _stiefel._direction(v, g, pairs)
    assert np.array_equal(d, _direction_reference(v, g, list(zip(s, y))))
    if n == 0:
        assert np.array_equal(d, -g)


# ------------------------------------------------------------------ roof search

def test_roof_pure_state_equals_measure():
    for dims, seed in (((2, 2), 0), ((2, 2, 2), 1)):
        psi = sg.random_state("haar-pure", dims, seed=seed)
        est = sg.roof_F(psi.density(), sg.RoofConfig(restarts=1, seed=0))
        assert abs(est.value - sg.measure_F(psi).value) <= 1e-10
        assert len(est.decomposition.weights) == 1


@pytest.mark.parametrize("m,eps", [(7, 9e-13), (6, -5e-11)])
def test_roof_accepts_many_dropped_eigenvalues(m, eps):
    _, rho = dropped_tail_state(m, eps)
    dominant = sg.BoxTensor(rho.dims, np.linalg.eigh(rho.mat)[1][:, -1])
    assert len(sg.eigen_ensemble(rho).weights) == 1
    est = sg.roof_F(rho)
    assert math.isfinite(est.value)
    assert abs(est.value - sg.measure_F(dominant).value) <= 1e-10


def test_roof_bell_projector(bell):
    est = sg.roof_F(bell.density(), sg.RoofConfig(restarts=1, seed=0))
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_roof_werner_point_matches_closed_form():
    rho = werner_state(0.8)
    cfg = sg.RoofConfig(ensemble_size=4, restarts=8, seed=11)
    est = sg.roof_F(rho, cfg)
    assert abs(est.value - sg.wootters_oracle(rho)) <= 2e-2


@pytest.mark.parametrize("p", [0.4, 0.6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roof_werner_reaches_closed_form(p, seed):
    # a single restart at the default K must land on (3p - 1) / 2 from above
    est = sg.roof_F(werner_state(p), sg.RoofConfig(restarts=1, seed=seed))
    assert -1e-12 <= est.value - (3.0 * p - 1.0) / 2.0 <= 1e-8


def test_roof_separable_mixture_near_zero():
    mats = np.zeros((4, 4), dtype=complex)
    for s in range(50):
        st = sg.random_state("product", (2, 2), seed=900 + s)
        mats += np.outer(st.amps, st.amps.conj())
    rho = sg.DensityMatrix((2, 2), mats / 50.0)
    est = sg.roof_F(rho, sg.RoofConfig(ensemble_size=4, restarts=8, seed=2))
    assert est.value <= 2e-2


def test_roof_value_is_certified_upper_bound():
    rho = werner_state(0.7)
    est = sg.roof_F(rho, sg.RoofConfig(ensemble_size=4, restarts=4, seed=5))
    dec = est.decomposition
    assert np.max(np.abs(dec.mixture().mat - rho.mat)) <= 1e-8
    avg = math.fsum(w * sg.measure_F(s).value
                    for w, s in zip(dec.weights, dec.states))
    assert abs(est.value - avg) <= 1e-12
    assert est.value >= sg.wootters_oracle(rho) - 1e-9


def test_roof_trace_monotone_and_starts_at_eigen_average():
    rho = werner_state(0.6)
    est = sg.roof_F(rho, sg.RoofConfig(ensemble_size=4, restarts=3, seed=9))
    trace = np.array(est.trace)
    assert np.all(np.diff(trace) <= 0.0)
    eig = sg.eigen_ensemble(rho)
    eigen_avg = math.fsum(w * sg.measure_F(s).value
                          for w, s in zip(eig.weights, eig.states))
    assert trace[0] == pytest.approx(eigen_avg, abs=1e-10)
    assert est.value <= trace[0] + 1e-12


def test_roof_deterministic_for_fixed_seed():
    rho = werner_state(0.5)
    cfg = sg.RoofConfig(ensemble_size=4, restarts=3, seed=21)
    a = sg.roof_F(rho, cfg)
    b = sg.roof_F(rho, cfg)
    assert a.value == b.value
    assert a.trace == b.trace
    assert a.restart_bests == b.restart_bests


def test_roof_diagonalizes_rho_once(monkeypatch, bell):
    cases = [(werner_state(0.6), sg.RoofConfig(ensemble_size=4, restarts=1, max_iters=5)),
             (sg.random_state("mixed", (2, 3), seed=4, rank=2), sg.RoofConfig(max_iters=5)),
             (bell.density(), None)]
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    for rho, cfg in cases:
        calls.clear()
        est = sg.roof_F(rho, cfg)
        assert len(calls) == 1
        assert np.max(np.abs(est.decomposition.mixture().mat - rho.mat)) <= 1e-10


def test_roof_mixing_convexity_spot_check():
    rho1 = sg.random_state("mixed", (2, 2), seed=70, rank=2)
    rho2 = sg.random_state("mixed", (2, 2), seed=71, rank=2)
    cfg = sg.RoofConfig(ensemble_size=4, restarts=6, seed=1)
    for lam in (0.3, 0.6):
        blend = sg.DensityMatrix((2, 2), lam * rho1.mat + (1 - lam) * rho2.mat)
        left = sg.roof_F(blend, cfg).value
        right = lam * sg.roof_F(rho1, cfg).value \
            + (1 - lam) * sg.roof_F(rho2, cfg).value
        assert left <= right + 2e-2


def test_roof_config_validation():
    rho = werner_state(0.8)
    with pytest.raises(sg.ConfigError):
        sg.roof_F(rho, sg.RoofConfig(ensemble_size=2))
    with pytest.raises(sg.ConfigError):
        sg.RoofConfig(restarts=0)
    with pytest.raises(sg.ConfigError):
        sg.RoofConfig(max_iters=0)
    with pytest.raises(sg.ConfigError):
        sg.RoofConfig(ensemble_size=0)


def test_roof_refuses_oversized_sweep_up_front(monkeypatch):
    # 3 qubits at rank 3, K = 6: a gradient of K d (sum_S R_S + r) = 6 * 8 * (2 + 2 + 4 + 3)
    # = 528, plus 30 trials of K rows x 18 minors and a K x r retraction, 30 * (108 + 18)
    rho = sg.random_state("mixed", (2, 2, 2), seed=1, rank=3)
    cfg = sg.RoofConfig(restarts=1, max_iters=1)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 4308)
    sg.roof_F(rho, cfg)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 4307)
    with pytest.raises(sg.ConfigError, match=r"K=6 and rank 3 .* 4308 > 4307"):
        sg.roof_F(rho, cfg)
    monkeypatch.undo()
    # 5 qubits at full rank, K = 36: 2625984 an iteration, so 102 fit under 2^28 and 103 do not
    with pytest.raises(sg.ConfigError, match="K=36 and rank 32 .* 103 iterations .* 270476352 >"):
        sg.roof_F(sg.random_state("mixed", (2,) * 5, seed=5), sg.RoofConfig(restarts=1,
                                                                            max_iters=103))


def test_roof_search_count_includes_restarts_and_iters(monkeypatch):
    # the whole search is counted: restarts x iterations x 4308 an iteration
    rho = sg.random_state("mixed", (2, 2, 2), seed=1, rank=3)
    cfg = sg.RoofConfig(restarts=3, max_iters=5)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 3 * 5 * 4308)
    sg.roof_F(rho, cfg)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 3 * 5 * 4308 - 1)
    with pytest.raises(sg.ConfigError,
                       match=r"K=6 and rank 3 with 3 restarts of 5 iterations .* 64620 > 64619"):
        sg.roof_F(rho, cfg)
    monkeypatch.undo()
    # 4-qubit full rank passes one iteration but not 8 x 2000 of them
    with pytest.raises(sg.ConfigError, match="K=20 and rank 16 with 8 restarts of 2000"):
        sg.roof_F(sg.random_state("mixed", (2,) * 4, seed=4), sg.RoofConfig())


def test_roof_search_count_floors_each_sweep(monkeypatch):
    # two qubits at rank 2, K = 2: a gradient of 2 * 4 * (2 + 2) = 32 plus 30 trials of
    # 2 rows x 1 minor and a 2 x 2 retraction, 180, counts _SWEEP_FLOOR = 256 an iteration
    rho = sg.random_state("mixed", (2, 2), seed=1, rank=2)
    cfg = sg.RoofConfig(ensemble_size=2, restarts=3, max_iters=5)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 3 * 5 * 256)
    sg.roof_F(rho, cfg)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 3 * 5 * 256 - 1)
    with pytest.raises(sg.ConfigError, match=r"K=2 and rank 2 .* 3840 > 3839"):
        sg.roof_F(rho, cfg)


@pytest.mark.parametrize("rho,cfg", [
    (werner_state(0.5), sg.RoofConfig(ensemble_size=4, restarts=2, seed=3)),
    (sg.random_state("mixed", (2, 2, 2), seed=1, rank=3), sg.RoofConfig(restarts=2, max_iters=40)),
    (sg.random_state("mixed", (2, 3), seed=3, rank=2), sg.RoofConfig(restarts=3, seed=2)),
])
def test_roof_search_evaluates_within_its_up_front_count(monkeypatch, rho, cfg):
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 0)
    with pytest.raises(sg.ConfigError) as refused:
        sg.roof_F(rho, cfg)
    count = int(re.search(r"would count (\d+) >", str(refused.value)).group(1))
    monkeypatch.undo()
    counts, real_pairs = [], convex_roof._singular_pairs

    def counting(mat):
        # a value's (K, R, C) flattening counts K C(R, 2) C(C, 2) minors up front
        *lead, n_rows, n_cols = mat.shape
        counts.append(math.prod(lead) * math.comb(n_rows, 2) * math.comb(n_cols, 2))
        return real_pairs(mat)

    monkeypatch.setattr(convex_roof, "_singular_pairs", counting)
    est = sg.roof_F(rho, cfg)
    assert est.restart_stops and 0 < sum(counts) <= count


def test_roof_restart_ends_within_one_line_search(monkeypatch):
    # a gradient is taken at the start and at each accepted step, so the trials (retractions)
    # since the last gradient call are those after the restart's last accepted step
    tails, tail = [], [0]
    real_descend, real_retract = _stiefel._descend, _stiefel._retract

    def counting_descend(value, grad, v0, max_iters, trace):
        def resetting_grad(v):
            tail[0] = 0
            return grad(v)

        out = real_descend(value, resetting_grad, v0, max_iters, trace)
        tails.append(tail[0])
        return out

    def counting_retract(z):
        tail[0] += 1
        return real_retract(z)

    monkeypatch.setattr(_stiefel, "_descend", counting_descend)
    monkeypatch.setattr(_stiefel, "_retract", counting_retract)
    est = sg.roof_F(sg.random_state("mixed", (2, 2), seed=1, rank=2),
                    sg.RoofConfig(ensemble_size=2))
    assert len(tails) == len(est.restart_stops) and "step" in est.restart_stops
    assert max(tails) <= _stiefel._LINE_TRIALS, tails


def test_roof_notes_mention_size_cap():
    est = sg.roof_F(werner_state(0.5), sg.RoofConfig(ensemble_size=4,
                                                     restarts=1, seed=0))
    assert any("K=4" in n for n in est.notes)


# ------------------------------------------------------------------ roof bracket

def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _permuted(rho, perm):
    sizes, m = rho.dims.sizes, rho.dims.m
    mat = rho.mat.reshape(sizes + sizes).transpose([*perm, *(m + j for j in perm)])
    return sg.DensityMatrix(tuple(sizes[j] for j in perm), mat.reshape(rho.mat.shape))


@pytest.mark.parametrize("dims,rank", [((2, 2), 2), ((2, 3), 2), ((2, 3), 4), ((2, 2, 2), 3),
                                       ((2, 3, 2), 2), ((3, 2, 2), 2), ((2, 2, 2, 2), 2)])
def test_roof_lower_matches_oracle(dims, rank):
    for seed in range(3):
        rho = sg.random_state("mixed", dims, seed=seed, rank=rank)
        assert abs(_lower_bound(rho) - oracles.brute_roof_lower(rho.mat, dims)) <= 1e-12


def test_roof_lower_sees_ppt_entangled_tiles_state():
    # the 3x3 "Tiles" unextendible-product-basis state is PPT, so only the realignment
    # term of the bound is positive: ||R||_1 = 1.0874, times sqrt(2 / 6)
    e, plus = np.eye(3), np.ones(3) / math.sqrt(3.0)
    tiles = [np.kron(e[0], e[0] - e[1]), np.kron(e[0] - e[1], e[2]), np.kron(e[2], e[1] - e[2]),
             np.kron(e[1] - e[2], e[0])]
    proj = sum(np.outer(v, v) / 2.0 for v in tiles) + np.outer(np.kron(plus, plus),
                                                              np.kron(plus, plus))
    rho = sg.DensityMatrix((3, 3), (np.eye(9) - proj) / 4.0)
    lower = _lower_bound(rho)
    assert 0.0504 <= lower <= 0.0505
    assert abs(lower - oracles.brute_roof_lower(rho.mat, (3, 3))) <= 1e-12


def test_roof_bracket_holds_wootters():
    for seed in range(200):
        rho = sg.random_state("mixed", (2, 2), seed=seed, rank=2 + seed % 3)
        est = sg.roof_F(rho, sg.RoofConfig(restarts=1, max_iters=5, seed=seed))
        assert est.lower <= sg.wootters_oracle(rho) <= est.value + 1e-12


@pytest.mark.parametrize("p", [0.2, 0.3, 0.4, 0.5, 0.8])
def test_roof_lower_equals_werner_closed_form(p):
    est = sg.roof_F(werner_state(p), sg.RoofConfig(restarts=1, max_iters=1))
    assert abs(est.lower - max(0.0, (3.0 * p - 1.0) / 2.0)) <= 1e-12


def _isotropic_state(d, f):
    """F |phi+><phi+| + (1 - F) (I - |phi+><phi+|) / (d^2 - 1) on d x d."""
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(phi, phi)
    return sg.DensityMatrix((d, d), f * proj + (1.0 - f) / (d * d - 1) * (np.eye(d * d) - proj))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_roof_lower_equals_isotropic_closed_form(d):
    for f in (1 / d ** 2, 1 / (2 * d), 1 / d, 1 / d + 0.05, 0.6, 0.9, 1.0):
        exact = oracles.isotropic_concurrence(d, f)
        assert abs(_lower_bound(_isotropic_state(d, f)) - exact) <= 1e-12, f
    # one short restart, so the bound comes through roof_F on the 4 x 4 state too
    est = sg.roof_F(_isotropic_state(d, 0.6), sg.RoofConfig(restarts=1, max_iters=1))
    assert abs(est.lower - oracles.isotropic_concurrence(d, 0.6)) <= 1e-12


@pytest.mark.parametrize("dims,rank", [((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 3), 2), ((2, 3), 3)])
def test_roof_lower_invariant_under_local_unitaries_and_permutations(dims, rank):
    rng = np.random.default_rng(17)
    rho = sg.random_state("mixed", dims, seed=rank, rank=rank)
    lower = _lower_bound(rho)
    for _ in range(3):
        u = np.ones((1, 1))
        for n in dims:
            u = np.kron(u, _haar_unitary(rng, n))
        assert abs(_lower_bound(sg.DensityMatrix(dims, u @ rho.mat @ u.conj().T)) - lower) <= 1e-12
    for perm in itertools.permutations(range(len(dims))):
        assert abs(_lower_bound(_permuted(rho, perm)) - lower) <= 1e-12


@pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((2, 2, 2), 2)])
def test_roof_lower_equals_value_on_pure_projectors(dims, seed):
    psi = sg.random_state("haar-pure", dims, seed=seed)
    est = sg.roof_F(psi.density())
    assert est.lower == est.value
    assert abs(est.value - sg.measure_F(psi).value) <= 1e-12
    assert est.restart_bests == est.restart_stops == ()


def test_roof_gap_stops_search_between_restarts(monkeypatch):
    rho, cfg = werner_state(0.8), sg.RoofConfig(ensemble_size=4, restarts=8, seed=7)
    est = sg.roof_F(rho, cfg)
    n = len(est.restart_bests)
    assert n == len(est.restart_stops) < 8
    assert est.value - est.lower <= convex_roof.GAP_TOL
    assert any(f"after {n} of 8 restarts" in note for note in est.notes)
    # without the stop rule the same restarts run to the same ends, then the rest
    monkeypatch.setattr(convex_roof, "GAP_TOL", -math.inf)
    full = sg.roof_F(rho, cfg)
    assert full.restart_bests[:n] == est.restart_bests
    assert full.restart_stops[:n] == est.restart_stops
    assert len(full.restart_bests) == 8
    assert not any("restarts:" in note for note in full.notes)


def test_roof_restart_stop_reasons():
    est = sg.roof_F(sg.random_state("mixed", (2, 3), seed=3, rank=2),
                    sg.RoofConfig(restarts=2, max_iters=3))
    assert est.restart_stops == ("max_iters", "max_iters")
    est = sg.roof_F(werner_state(0.3), sg.RoofConfig(restarts=1, seed=1))
    assert est.restart_stops in (("step",), ("floor",))


def test_separable_werner_search_reaches_the_floor():
    # Werner p = 0.3 is separable, so its roof is 0: a gradient that stays accurate near
    # product rows steers the descent down to the value floor instead of stopping short
    est = sg.roof_F(werner_state(0.3), sg.RoofConfig(ensemble_size=4, restarts=8, seed=7))
    assert est.value <= 1e-12
    assert est.restart_stops == ("floor",)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_roof_bracket_on_benchmark_inputs(seed, tmp_path, monkeypatch, capsys):
    workload = _bench_workloads().build("roof-search", seed, str(tmp_path), "in")
    monkeypatch.chdir(tmp_path)
    for cmd in workload.commands:
        assert cli.main(list(cmd.argv)) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["lower"] <= res["value"], cmd.name
        assert res["gap"] == res["value"] - res["lower"]
        assert len(res["restart_stops"]) == len(res["restart_bests"])


# values of the pattern search the L-BFGS descent replaced, on the same commands
_PATTERN_SEARCH_VALUES = {
    "werner-0.3/K4": 2.1855213641942724e-07,
    "werner-0.5/K4": 0.25000000000005507,
    "werner-0.8/K4": 0.7000000000000017,
    "werner-0.5/K8": 0.2500000000005073,
    5: {"q3-rank3/K6": 0.8730290775422371, "d23-rank2": 0.5517615265028852,
        "q3-projector": 1.276204510454805},
    7: {"q3-rank3/K6": 1.019593835091277, "d23-rank2": 0.7943202639054067,
        "q3-projector": 1.3465429361969528},
    11: {"q3-rank3/K6": 1.3477549222648753, "d23-rank2": 0.8426542282921963,
         "q3-projector": 1.2891973941191095},
}


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_roof_values_on_benchmark_inputs_do_not_rise(seed, tmp_path, monkeypatch, capsys):
    workload = _bench_workloads().build("roof-search", seed, str(tmp_path), "in")
    monkeypatch.chdir(tmp_path)
    pinned = {**_PATTERN_SEARCH_VALUES, **_PATTERN_SEARCH_VALUES[seed]}
    assert len(workload.commands) == 7
    for cmd in workload.commands:
        assert cli.main(list(cmd.argv)) == 0
        value = json.loads(capsys.readouterr().out)["results"]["value"]
        assert value <= pinned[cmd.name] + 1e-12, cmd.name


# values and restart stops of the descent that retried a failed line search along -grad,
# keyed by (dims, random_state seed, ensemble_size); each ran 8 restarts at rank 2
_GRAD_RETRY_VALUES = {
    ((2, 2), 0, 2): 0.2685338840621086,
    ((2, 2), 1, 2): 0.23614891612993763,
    ((2, 2), 2, 2): 0.3389408653815669,
    ((2, 2), 3, 2): 0.6065665259340276,
    ((2, 3), 0, None): 0.548347115276255,
    ((2, 3), 1, None): 0.6448506164261049,
    ((2, 3), 4, None): 0.5602554744030577,
}


@pytest.mark.parametrize("dims,seed,k", list(_GRAD_RETRY_VALUES))
def test_roof_values_without_grad_retry_do_not_rise(dims, seed, k):
    est = sg.roof_F(sg.random_state("mixed", dims, seed=seed, rank=2),
                    sg.RoofConfig(ensemble_size=k))
    assert est.value <= _GRAD_RETRY_VALUES[dims, seed, k] + 1e-12
    assert est.restart_stops == ("step",) * 8


# -------------------------------------------------------------- wootters oracle

def test_wootters_bell_projector(bell):
    assert sg.wootters_oracle(bell.density()) == pytest.approx(1.0, abs=1e-10)


def test_wootters_maximally_mixed():
    assert sg.wootters_oracle(sg.DensityMatrix((2, 2), np.eye(4) / 4.0)) == 0.0


@pytest.mark.parametrize("p", [0.0, 0.3, 0.4, 0.5, 0.8, 1.0])
def test_wootters_werner_closed_form(p):
    got = sg.wootters_oracle(werner_state(p))
    assert got == pytest.approx(oracles.werner_concurrence(p), abs=1e-10)


def test_wootters_needs_two_qubits(ghz3):
    with pytest.raises(sg.DimensionError):
        sg.wootters_oracle(ghz3.density())
