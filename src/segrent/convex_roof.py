"""Convex-roof estimation of the exchange measure for mixed states.

The target is inf over pure-state decompositions of rho of the ensemble
average of :func:`segrent.measures.measure_F`. Decompositions are swept
through the standard isometry parameterization: if rho has kept
eigenpairs (lambda_i, v_i), every size-K decomposition arises from a
K x r isometry V via phi_k = sum_i V_ki sqrt(lambda_i) v_i, with weights
|phi_k|^2. A derivative-free pattern descent with random restarts
searches over V itself, retracting a complex K x r matrix Z to V by QR
(Rothlisberger, Lehmann & Loss, PRL 102, 100502, 2009). The returned
value is always the verified average of a concrete decomposition, hence
a certified upper bound on the infimum.
The search objective evaluates every candidate decomposition at once
from the 2x2 minors (:func:`segrent.segre_ideal.minors`, the residuals'
kernel) of the batched flattenings M_S of its rows. A search whose restarts
x sweeps would evaluate more than SEARCH_MINOR_CAP minors is refused up front, and so
is a state of total dimension above ROOF_DIM_CAP, before rho is diagonalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, IsometryError
from .measures import DEFAULT_NORM_F, measure_F
from .segre_ideal import enumerate_perm_classes, minors
from .tensor_core import (BoxTensor, Decomposition, DensityMatrix, DimsLike, as_dims,
                          flattening, seed_sequence)

__all__ = ["RoofConfig", "RoofEstimate", "eigen_ensemble", "ensemble_from_isometry", "roof_F",
           "wootters_oracle"]

RANK_FLOOR = 1e-12       # eigenvalues below this do not count toward the rank
WEIGHT_FLOOR = 1e-14     # ensemble members below this weight are dropped
_INITIAL_STEP = 0.5
_VALUE_FLOOR = 1e-12     # objective is nonnegative; stop a restart at ~0
SEARCH_MINOR_CAP = 1 << 28  # largest minor count one whole search may evaluate
ROOF_DIM_CAP = 1 << 11      # largest total dimension d whose d x d rho is diagonalized


@dataclass(frozen=True)
class RoofConfig:
    """Search budget for the decomposition sweep.

    ensemble_size of None means min(2 rank, rank + 4), chosen because
    optimal ensembles can need more members than the rank while unbounded
    sizes are intractable.
    """

    ensemble_size: Optional[int] = None
    restarts: int = 8
    max_iters: int = 2000
    step_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ConfigError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.step_tolerance > 0.0:
            raise ConfigError("step_tolerance must be positive")


@dataclass(frozen=True)
class RoofEstimate:
    """Best decomposition found and the descent diagnostics."""

    value: float
    decomposition: Decomposition
    trace: tuple[float, ...]
    restart_bests: tuple[float, ...]
    notes: tuple[str, ...] = ()


def check_roof_dims(dims: DimsLike) -> None:
    """Refuse (DimensionError) dims of total dimension above ROOF_DIM_CAP."""
    total = as_dims(dims).total
    if total > ROOF_DIM_CAP:
        raise DimensionError(f"refusing a convex roof over total dimension {total} > "
                             f"{ROOF_DIM_CAP}")


def _kept_eigs(rho: DensityMatrix):
    """Eigenpairs above the rank floor, eigenvalues descending. The kept eigenvalues are
    rescaled to sum to 1 only when they miss it by more than Decomposition's 1e-10, as
    when many tiny ones are dropped; otherwise they keep their computed bits."""
    lam, vecs = np.linalg.eigh(rho.mat)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    kept = lam > RANK_FLOOR
    lam, vecs = lam[kept], vecs[:, kept]
    total = math.fsum(lam)
    return (lam if abs(total - 1.0) <= 1e-10 else lam / total), vecs


def eigen_ensemble(rho: DensityMatrix) -> Decomposition:
    """Canonical decomposition from the eigenbasis of rho."""
    lam, vecs = _kept_eigs(rho)
    states = tuple(BoxTensor(rho.dims, vecs[:, i]) for i in range(lam.size))
    return Decomposition(tuple(float(x) for x in lam), states)


def ensemble_from_isometry(rho: DensityMatrix, v) -> Decomposition:
    """Decomposition generated by a K x r isometry over the eigenbasis.

    Rows with weight at or below the drop floor are discarded; the
    remaining mixture reconstructs rho (Schrodinger-HJW).
    """
    lam, vecs = _kept_eigs(rho)
    r = lam.size
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[1] != r or v.shape[0] < r:
        raise IsometryError(
            f"isometry must be K x {r} with K >= {r}, got shape {v.shape}")
    gram = v.conj().T @ v
    if float(np.max(np.abs(gram - np.eye(r)))) > 1e-10:
        raise IsometryError("columns are not orthonormal within 1e-10")
    return _rows_decomposition(rho.dims, v @ (vecs * np.sqrt(lam)).T)


def _rows_decomposition(dims, phi: np.ndarray) -> Decomposition:
    """Decomposition of the (K, d) rows phi_k, weights |phi_k|^2 above WEIGHT_FLOOR."""
    weights = np.einsum("kd,kd->k", phi, phi.conj()).real
    kept = weights > WEIGHT_FLOOR
    states = tuple(BoxTensor(dims, phi[k] / math.sqrt(weights[k])) for k in np.flatnonzero(kept))
    return Decomposition(tuple(float(w) for w in weights[kept]), states)


def _ensemble_objective(sizes: tuple[int, ...]):
    """Batched sum_k of the unnormalized exchange measure of row phi_k.

    Every generator of class S is a 2x2 minor of the flattening M_S of the
    row, and each minor is the generator of exactly two index pairs, so a
    row's sum of |g|^2 is twice the sum of |minor|^2 over row pairs
    r1 < r2 and column pairs c1 < c2 of every M_S. For unnormalized rows
    the per-row value sqrt(N sum |g|^2) already equals weight * measure of
    the normalized state, because the generators are quadratic in the
    amplitudes.
    """
    plan = []
    for c in enumerate_perm_classes(len(sizes)):
        n_rows = math.prod(sizes[j] for j in c.swap_set)
        plan.append((c.swap_set, np.triu_indices(n_rows, 1),
                     np.triu_indices(math.prod(sizes) // n_rows, 1)))

    def value(phi: np.ndarray) -> np.ndarray:          # (..., K, d) -> (...)
        ssq = np.zeros(phi.shape[:-1])
        for rows, (r1, r2), (c1, c2) in plan:
            g = minors(flattening(phi, sizes, rows), (r1, r2), (c1, c2))
            ssq += np.sum((g * g.conj()).real, axis=(-2, -1))
        return np.sum(np.sqrt(2.0 * DEFAULT_NORM_F * ssq), axis=-1)

    return value


def roof_F(rho: DensityMatrix, config: RoofConfig | None = None) -> RoofEstimate:
    """Upper-bound estimate of the mixed-state exchange measure.

    Runs pattern descent over the QR-retracted K x r isometry from random
    starts (plus Z = I, the eigen-decomposition, as the initial incumbent)
    and reports the best decomposition average found. Deterministic for a
    fixed seed (reduced mod 2^64): restart seeds come from fixed seed-sequence
    splitting, so results do not depend on scheduling. Raises ConfigError before
    the search if restarts x max_iters sweeps of 2 (2Kr) candidates x K rows
    would evaluate more than SEARCH_MINOR_CAP minors, and raises DimensionError before
    rho is diagonalized if its total dimension exceeds ROOF_DIM_CAP.
    """
    check_roof_dims(rho.dims)
    cfg = config or RoofConfig()
    dec = eigen_ensemble(rho)
    r = len(dec.weights)
    k = min(2 * r, r + 4) if cfg.ensemble_size is None else int(cfg.ensemble_size)
    if k < r:
        raise ConfigError(f"ensemble_size {k} is below the state rank {r}")
    notes = (f"ensemble size capped at K={k}; the infimum ranges over "
             "all decomposition sizes", )
    trace, restart_bests = [], []
    if r > 1:     # else every decomposition of a pure state repeats it up to phase
        sizes, total = rho.dims.sizes, rho.dims.total
        n_params = 2 * k * r
        rows = [math.prod(sizes[j] for j in c.swap_set)
                for c in enumerate_perm_classes(len(sizes))]
        sweep = 2 * n_params * k * sum(math.comb(n, 2) * math.comb(total // n, 2) for n in rows)
        search = cfg.restarts * cfg.max_iters * sweep
        if search > SEARCH_MINOR_CAP:
            raise ConfigError(f"a search at ensemble size K={k} and rank {r} with {cfg.restarts} "
                              f"restarts of {cfg.max_iters} iterations would evaluate {search} > "
                              f"{SEARCH_MINOR_CAP} minors")
        w_rows = np.sqrt(dec.weights)[:, None] * np.array([s.amps for s in dec.states])
        ensemble_value = _ensemble_objective(sizes)

        def isometries(thetas: np.ndarray) -> np.ndarray:
            # rows hold Re Z then Im Z; V = Q diag(phase(diag R)) of Z = QR is
            # continuous in Z, and Z = I gives V = I
            z = (thetas[:, :k * r] + 1j * thetas[:, k * r:]).reshape(-1, k, r)
            q, rr = np.linalg.qr(z)
            d = np.diagonal(rr, axis1=-2, axis2=-1)
            return q * (d / np.abs(d))[:, None, :]

        def objective(thetas: np.ndarray) -> np.ndarray:
            return ensemble_value(isometries(thetas) @ w_rows)

        theta_best = np.concatenate([np.eye(k, r).ravel(), np.zeros(k * r)])
        best = float(objective(theta_best[None])[0])
        trace.append(best)
        for seq in seed_sequence(cfg.seed).spawn(cfg.restarts):
            rng = np.random.default_rng(seq)
            theta = rng.standard_normal(n_params)
            fval = float(objective(theta[None])[0])
            step, iters = _INITIAL_STEP, 0
            while iters < cfg.max_iters and step > cfg.step_tolerance \
                    and fval > _VALUE_FLOOR:
                # fresh orthonormal poll directions each sweep: axis-aligned
                # polls stall on the |.|-kinks of the objective
                directions, _ = np.linalg.qr(rng.standard_normal((n_params, n_params)))
                cand = np.concatenate([theta + step * directions.T,
                                       theta - step * directions.T])
                vals = objective(cand)
                pick = int(np.argmin(vals))
                if vals[pick] < fval:
                    theta = cand[pick]
                    fval = float(vals[pick])
                    step = min(step * 2.0, _INITIAL_STEP)
                else:
                    step *= 0.5
                iters += 1
                if fval < best:
                    best = fval
                    theta_best = theta
                trace.append(best)
            restart_bests.append(fval)

        dec = _rows_decomposition(rho.dims, isometries(theta_best[None])[0] @ w_rows)
    value = float(math.fsum(w * measure_F(s).value
                            for w, s in zip(dec.weights, dec.states)))
    return RoofEstimate(value, dec, tuple(trace) or (value,), tuple(restart_bests), notes)


def wootters_oracle(rho: DensityMatrix) -> float:
    """Closed-form two-qubit concurrence, as an independent cross-check.

    max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (sy x sy) conj(rho) (sy x sy).
    """
    if rho.dims.sizes != (2, 2):
        raise DimensionError(
            f"closed form needs dims (2, 2), got {rho.dims.sizes}")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    spectrum = np.linalg.eigvals(rho.mat @ yy @ rho.mat.conj() @ yy)
    lam = np.sort(np.sqrt(np.abs(spectrum.real)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
