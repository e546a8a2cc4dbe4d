"""Convex-roof estimation of the exchange measure for mixed states.

The target is inf over pure-state decompositions of rho of the ensemble
average of :func:`segrent.measures.measure_F`. Decompositions are swept
through the standard isometry parameterization: if rho has kept
eigenpairs (lambda_i, v_i), every size-K decomposition arises from a
K x r isometry V via phi_k = sum_i V_ki sqrt(lambda_i) v_i, with weights
|phi_k|^2. A Riemannian L-BFGS descent with random restarts searches
over V itself, retracting each trial point to an isometry by QR
(Rothlisberger, Lehmann & Loss, PRL 102, 100502, 2009). Its values sum the 2x2
minors of each flattening M_S from the singular values of M_S, and its gradient comes
from the same singular value decomposition. The returned value is always the verified
average of a concrete decomposition, hence a certified upper bound on the
infimum. A lower bound comes from the cuts S|S-bar of the exchange classes:
by Minkowski the roof is at least
sqrt(sum_S L_S^2), where L_S bounds the concurrence roof of the cut from
below (Mintert & Buchleitner, PRL 98, 140505, 2007; the PPT and realignment
bound of Chen, Albeverio & Fei, PRL 95, 040504, 2005). The search stops
before its next restart once the best value is within GAP_TOL of it.
A search whose restarts x iterations would count more than SEARCH_MINOR_CAP minors
is refused up front, and so is a state of total dimension above ROOF_DIM_CAP, before
rho is diagonalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, IsometryError
from .measures import DEFAULT_NORM_F, measure_F
from .segre_ideal import _singular_pairs, enumerate_perm_classes
from .tensor_core import (_TRACE_TOL, BoxTensor, Decomposition, DensityMatrix, DimsLike,
                          as_dims, flattening, seed_sequence)

__all__ = ["RoofConfig", "RoofEstimate", "eigen_ensemble", "ensemble_from_isometry", "roof_F",
           "wootters_oracle"]

RANK_FLOOR = 1e-12       # eigenvalues below this do not count toward the rank
WEIGHT_FLOOR = 1e-14     # ensemble members below this weight are dropped
GAP_TOL = 1e-6           # no further restart once the value is this close to the lower bound
_ROUNDING = 1e-12        # a lower bound above the value by at most this is rounding
_ISOMETRY_TOL = 1e-10    # largest entry of V^+ V - I that ensemble_from_isometry accepts
SEARCH_MINOR_CAP = 1 << 28  # largest minor count one whole search may evaluate
_SWEEP_FLOOR = 256          # least count of an iteration: its fixed cost, in minors
ROOF_DIM_CAP = 1 << 11      # largest total dimension d whose d x d rho is diagonalized


@dataclass(frozen=True)
class RoofConfig:
    """Search budget for the decomposition search.

    ensemble_size of None means min(2 rank, rank + 4), chosen because
    optimal ensembles can need more members than the rank while unbounded
    sizes are intractable.
    """

    ensemble_size: Optional[int] = None
    restarts: int = 8
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ConfigError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class RoofEstimate:
    """Best decomposition found, a lower bound on the roof and the descent diagnostics.

    ``trace`` holds the best value before the search and after each of its iterations.
    ``restart_stops`` gives each restart's stop reason: "max_iters", "step" (no decrease
    in the line search) or "floor" (the value reached ~0).
    """

    value: float
    decomposition: Decomposition
    trace: tuple[float, ...]
    restart_bests: tuple[float, ...]
    lower: float
    restart_stops: tuple[str, ...]
    notes: tuple[str, ...] = ()


def check_roof_dims(dims: DimsLike) -> None:
    """Refuse (DimensionError) dims of total dimension above ROOF_DIM_CAP."""
    total = as_dims(dims).total
    if total > ROOF_DIM_CAP:
        raise DimensionError(f"refusing a convex roof over total dimension {total} > "
                             f"{ROOF_DIM_CAP}")


def _kept_eigs(rho: DensityMatrix):
    """Eigenpairs above the rank floor, eigenvalues descending. The kept eigenvalues are
    rescaled to sum to 1 only when they miss it by more than _TRACE_TOL, Decomposition's bound
    on its weights' sum, as when many tiny ones are dropped; else they keep their bits."""
    lam, vecs = np.linalg.eigh(rho.mat)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    kept = lam > RANK_FLOOR
    lam, vecs = lam[kept], vecs[:, kept]
    total = math.fsum(lam)
    return (lam if abs(total - 1.0) <= _TRACE_TOL else lam / total), vecs


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
    if float(np.max(np.abs(gram - np.eye(r)))) > _ISOMETRY_TOL:
        raise IsometryError(f"columns are not orthonormal within {_ISOMETRY_TOL:g}")
    return _rows_decomposition(rho.dims, v @ (vecs * np.sqrt(lam)).T)


def _rows_decomposition(dims, phi: np.ndarray) -> Decomposition:
    """Decomposition of the (K, d) rows phi_k, weights |phi_k|^2 above WEIGHT_FLOOR."""
    weights = np.einsum("kd,kd->k", phi, phi.conj()).real
    kept = weights > WEIGHT_FLOOR
    states = tuple(BoxTensor(dims, phi[k] / math.sqrt(weights[k])) for k in np.flatnonzero(kept))
    return Decomposition(tuple(float(w) for w in weights[kept]), states)


def _ensemble_objective(sizes: tuple[int, ...]):
    """(value, grad) of the batched sum_k of the unnormalized exchange measure of row phi_k.

    Every generator of class S is a 2x2 minor of the flattening M_S of the row, and each
    minor is the generator of exactly two index pairs, so a row's sum of |g|^2 is twice
    ssq = sum_S sum_{i<j} x_i x_j over the squared singular values x of each M_S, which
    :func:`segrent.segre_ideal._singular_pairs` takes with suffix sums from the rows'
    (K, R_S, C_S) flattening. For unnormalized rows the per-row value sqrt(2 N ssq) equals
    weight * measure of the normalized state, because the generators are quadratic. ``grad``
    of K rows is the gradient for Re tr(A^+ B), from the same M_S = U diag(s) V^+ with vectors:
    d ssq_S / d conj(M_S) = U diag(s_i sum_{j != i} x_j) V^+, whose sums over j < i and
    j > i are prefix and suffix sums, so nothing cancels near product rows. A row whose
    ssq is exactly 0 (the kink of the sqrt) gets a zero gradient.
    """
    m, plan = len(sizes), []
    for c in enumerate_perm_classes(m):
        order = [*c.swap_set, *(j for j in range(m) if j not in c.swap_set)]
        # the axes back in order, inverted in Python: np.argsort maps numpy's sort code,
        # about 0.3 MB of a roof command's peak RSS
        plan.append((c.swap_set, [sizes[j] for j in order],
                     [0, *(1 + order.index(j) for j in range(m))]))

    def value(phi: np.ndarray) -> np.ndarray:          # (..., K, d) -> (...)
        ssq = np.zeros(phi.shape[:-1])
        for rows, _, _ in plan:
            x, tail = _singular_pairs(flattening(phi, sizes, rows))
            ssq += np.sum(x * tail, axis=-1)
        return np.sum(np.sqrt(2.0 * DEFAULT_NORM_F * ssq), axis=-1)

    def grad(phi: np.ndarray) -> np.ndarray:           # (K, d) -> (K, d)
        k = len(phi)
        ssq, d_phi = np.zeros(k), np.zeros_like(phi)
        for rows, shape, back in plan:
            u, s, vh = np.linalg.svd(flattening(phi, sizes, rows), full_matrices=False)
            x = s * s
            tail = np.cumsum(x[:, :0:-1], axis=1)[:, ::-1]     # sum_{j>i} x_j, i < n - 1
            others = np.zeros_like(x)                          # sum_{j != i} x_j
            others[:, 1:] = np.cumsum(x[:, :-1], axis=1)
            others[:, :-1] += tail
            ssq += np.sum(x[:, :-1] * tail, axis=1)
            d_mat = (u * (s * others)[:, None, :]) @ vh
            d_phi += d_mat.reshape(k, *shape).transpose(back).reshape(phi.shape)
        # the real gradient is twice d / d conj: 2 d sqrt(2 N ssq) / d ssq = sqrt(2 N) / sqrt(ssq)
        scale = np.divide(math.sqrt(2.0 * DEFAULT_NORM_F), np.sqrt(ssq), out=np.zeros(k),
                          where=ssq > 0.0)
        return scale[:, None] * d_phi

    return value, grad


def _lower_bound(rho: DensityMatrix) -> float:
    """sqrt(sum_S L_S^2) over the canonical cuts S|S-bar, a lower bound on the roof.

    L_S = max(0, MB_S, CAF_S) bounds the concurrence roof sqrt(2 (1 - Tr rho_S^2)) of the
    cut, whose squares the pure-state measure sums: MB_S^2 = 2 Tr rho^2 - Tr rho_S^2 -
    Tr rho_S-bar^2 and CAF_S = sqrt(2 / (n (n - 1))) (max(||rho^T_S||_1, ||R_S(rho)||_1) - 1)
    with n = min(d_S, d_S-bar). The partial transpose rho^T_S and the realignment R_S(rho)
    are flattenings of rho's entries, taken as a tensor of 2m slots: the kets, then the bras.
    """
    sizes, m, entries = rho.dims.sizes, rho.dims.m, rho.mat.reshape(-1)
    total = 0.0
    for c in enumerate_perm_classes(m):
        rest, bra = [j for j in range(m) if j not in c.swap_set], [m + j for j in c.swap_set]
        n_s = math.prod(sizes[j] for j in c.swap_set)
        n_r = rho.dims.total // n_s
        # R_S(rho)[(a, a'), (b, b')] = <a b| rho |a' b'>, a over the slots of S, b over the rest
        realigned = flattening(entries, sizes + sizes, [*c.swap_set, *bra])
        blocks = realigned.reshape(n_s, n_s, n_r, n_r)
        rho_s, rho_r = np.einsum("acbb->ac", blocks), np.einsum("aabd->bd", blocks)
        mb2 = 2.0 * rho.purity - np.vdot(rho_s, rho_s).real - np.vdot(rho_r, rho_r).real
        partial_t = flattening(entries, sizes + sizes, [*bra, *rest])    # rows (a', b)
        # ||rho^T_S||_1 - 1 is twice the negative eigenvalues' weight, since Tr rho^T_S = 1;
        # summed that way it is exactly 0 on a PPT state, where 1 + ... - 1 would round up
        negative = -np.sum(np.minimum(np.linalg.eigvalsh(partial_t), 0.0))
        excess = max(2.0 * negative, np.sum(np.linalg.svd(realigned, compute_uv=False)) - 1.0)
        n = min(n_s, n_r)
        caf = math.sqrt(2.0 / (n * (n - 1))) * float(excess)
        total += max(0.0, math.sqrt(max(0.0, mb2)), caf) ** 2
    return math.sqrt(total)


def roof_F(rho: DensityMatrix, config: RoofConfig | None = None) -> RoofEstimate:
    """Bracket [lower, value] of the mixed-state exchange measure.

    Runs the L-BFGS descent :func:`segrent._stiefel._descend` over the K x r isometry from
    random starts (plus Z = I, the eigen-decomposition, as the initial incumbent) and reports
    the best decomposition average found, a certified upper bound. ``lower`` is
    :func:`_lower_bound` of rho, or the value itself for a pure input; a bound above the
    value by at most _ROUNDING is reported as the value. Before each restart the search
    stops, with a note, once the best value is within GAP_TOL of ``lower``; a restart that
    has begun runs to its own stop, recorded in ``restart_stops``. Deterministic for a fixed
    seed (reduced mod 2^64): restart seeds come from fixed seed-sequence splitting, so
    results do not depend on scheduling. Raises ConfigError before the search if restarts x
    max_iters iterations would count more than SEARCH_MINOR_CAP units, each iteration
    counting K d (sum_S R_S + r) for its gradient over the R_S x C_S flattenings M_S and
    _LINE_TRIALS trials of K sum_S C(R_S, 2) C(C_S, 2) minors and a K x r retraction, at
    least _SWEEP_FLOOR; and DimensionError before rho is diagonalized if its total
    dimension exceeds ROOF_DIM_CAP.
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
    trace, restart_bests, restart_stops, lower = [], [], [], None
    if r > 1:     # else every decomposition of a pure state repeats it up to phase
        from ._stiefel import _LINE_TRIALS, _descend, _retract   # compiled only to search
        sizes, total = rho.dims.sizes, rho.dims.total
        rows = [math.prod(sizes[j] for j in c.swap_set)
                for c in enumerate_perm_classes(len(sizes))]
        trial = k * sum(math.comb(n, 2) * math.comb(total // n, 2) for n in rows) + k * r
        iteration = k * total * (sum(rows) + r) + _LINE_TRIALS * trial
        search = cfg.restarts * cfg.max_iters * max(iteration, _SWEEP_FLOOR)
        if search > SEARCH_MINOR_CAP:
            raise ConfigError(f"a search at ensemble size K={k} and rank {r} with {cfg.restarts} "
                              f"restarts of {cfg.max_iters} iterations would count {search} > "
                              f"{SEARCH_MINOR_CAP} minors")
        lower = _lower_bound(rho)
        w_rows = np.sqrt(dec.weights)[:, None] * np.array([s.amps for s in dec.states])
        rows_value, rows_grad = _ensemble_objective(sizes)

        def objective(v: np.ndarray) -> float:
            return float(rows_value(v @ w_rows))

        def gradient(v: np.ndarray) -> np.ndarray:     # phi = V W chains to G W^+
            return rows_grad(v @ w_rows) @ w_rows.conj().T

        v_best = np.eye(k, r, dtype=complex)
        best = objective(v_best)
        trace.append(best)          # then each iteration's value, and their running minimum
        for seq in seed_sequence(cfg.seed).spawn(cfg.restarts):
            if best - lower <= GAP_TOL:
                notes += (f"search stopped after {len(restart_bests)} of {cfg.restarts} "
                          f"restarts: value within {GAP_TOL:g} of the lower bound", )
                break
            z = np.random.default_rng(seq).standard_normal((2, k, r))    # Re Z, then Im Z
            v, fval, _, stop = _descend(objective, gradient, _retract(z[0] + 1j * z[1]),
                                        cfg.max_iters, trace)
            if fval < best:
                best, v_best = fval, v
            restart_bests.append(fval)
            restart_stops.append(stop)

        dec = _rows_decomposition(rho.dims, v_best @ w_rows)
    value = float(math.fsum(w * measure_F(s).value
                            for w, s in zip(dec.weights, dec.states)))
    if lower is None or value < lower <= value + _ROUNDING:
        lower = value
    return RoofEstimate(value, dec, tuple(np.minimum.accumulate(trace).tolist()) or (value,),
                        tuple(restart_bests), lower, tuple(restart_stops), notes)


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
