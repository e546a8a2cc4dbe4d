import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import segrent as sg
from segrent import cli, convex_roof
from segrent.convex_roof import _ensemble_objective, _lower_bound

import oracles
from conftest import dropped_tail_state, werner_state


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


def test_isometry_validation():
    rho = werner_state(0.5)
    with pytest.raises(sg.IsometryError):
        sg.ensemble_from_isometry(rho, np.ones((4, 4)))
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
    got = _ensemble_objective(dims)(phi)
    want = [math.fsum(math.sqrt(2.0 * oracles.brute_perm_sum_and_max(row.reshape(dims))[0])
                      for row in batch) for batch in phi]
    assert got.shape == (shape[0],)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


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
        sg.RoofConfig(step_tolerance=0.0)
    with pytest.raises(sg.ConfigError):
        sg.RoofConfig(ensemble_size=0)


def test_roof_refuses_oversized_sweep_up_front(monkeypatch):
    # 3 qubits at rank 3, K = 6: 2 * (2 K r) candidates x K rows x 18 minors
    rho = sg.random_state("mixed", (2, 2, 2), seed=1, rank=3)
    cfg = sg.RoofConfig(restarts=1, max_iters=1)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 7776)
    sg.roof_F(rho, cfg)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 7775)
    with pytest.raises(sg.ConfigError, match=r"K=6 and rank 3 .* 7776 > 7775"):
        sg.roof_F(rho, cfg)
    monkeypatch.undo()
    with pytest.raises(sg.ConfigError, match="K=36 and rank 32"):
        sg.roof_F(sg.random_state("mixed", (2,) * 5, seed=5), cfg)


def test_roof_search_count_includes_restarts_and_iters(monkeypatch):
    # the whole search is counted: restarts x iterations x 7776 minors a sweep
    rho = sg.random_state("mixed", (2, 2, 2), seed=1, rank=3)
    cfg = sg.RoofConfig(restarts=3, max_iters=5)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 3 * 5 * 7776)
    sg.roof_F(rho, cfg)
    monkeypatch.setattr(convex_roof, "SEARCH_MINOR_CAP", 3 * 5 * 7776 - 1)
    with pytest.raises(sg.ConfigError,
                       match=r"K=6 and rank 3 with 3 restarts of 5 iterations .* 116640 > 116639"):
        sg.roof_F(rho, cfg)
    monkeypatch.undo()
    # 4-qubit full rank passes one sweep but not 8 x 2000 of them
    with pytest.raises(sg.ConfigError, match="K=20 and rank 16 with 8 restarts of 2000"):
        sg.roof_F(sg.random_state("mixed", (2,) * 4, seed=4), sg.RoofConfig())


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
                                       ((2, 3, 2), 2)])
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
