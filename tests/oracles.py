"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain nested numpy arrays with explicit python
loops over multi-indices, on purpose: no code is shared with the package
under test, so these stay valid cross-checks for the vectorized paths.
"""

import itertools

import numpy as np


def all_multi_indices(dims):
    return list(itertools.product(*[range(n) for n in dims]))


def swap_positions(k, l, positions):
    """Exchange the entries of k and l at the given slot positions."""
    k2, l2 = list(k), list(l)
    for j in positions:
        k2[j], l2[j] = l[j], k[j]
    return tuple(k2), tuple(l2)


def slot_minor(tensor, j, k, l):
    """2x2 minor about slot j for the index pair (k, l)."""
    k2, l2 = swap_positions(k, l, [j])
    return tensor[k] * tensor[l] - tensor[k2] * tensor[l2]


def brute_segre_pairs(dims):
    """All (slot, k, l) with k < l, k_j != l_j, differing off slot j."""
    idx = all_multi_indices(dims)
    out = []
    for j in range(len(dims)):
        for a, k in enumerate(idx):
            for l in idx[a + 1:]:
                if k[j] == l[j]:
                    continue
                if all(k[i] == l[i] for i in range(len(dims)) if i != j):
                    continue
                out.append((j, k, l))
    return out

def brute_segre_sum_and_max(tensor):
    """(sum of |minor|^2, max |minor|) over the filtered slot pairs."""
    dims = tensor.shape
    total, worst = 0.0, 0.0
    for j, k, l in brute_segre_pairs(dims):
        v = abs(slot_minor(tensor, j, k, l))
        total += v * v
        worst = max(worst, v)
    return total, worst


def brute_canonical_subsets(m):
    """Nonempty subsets of {0..m-2}, i.e. one representative per {S, S^c}."""
    out = []
    for r in range(1, m):
        out.extend(itertools.combinations(range(m - 1), r))
    return sorted(out, key=lambda s: (len(s), s))


def brute_perm_sum_and_max(tensor):
    """(sum of |generator|^2, max) over canonical subsets and all pairs."""
    dims = tensor.shape
    idx = all_multi_indices(dims)
    total, worst = 0.0, 0.0
    for subset in brute_canonical_subsets(len(dims)):
        for a, k in enumerate(idx):
            for l in idx[a + 1:]:
                k2, l2 = swap_positions(k, l, subset)
                v = abs(tensor[k] * tensor[l] - tensor[k2] * tensor[l2])
                total += v * v
                worst = max(worst, v)
    return total, worst


def brute_reduced_density(tensor, keep):
    """Partial trace over the complement of `keep`, by explicit loops."""
    dims = tensor.shape
    keep = sorted(keep)
    drop = [j for j in range(len(dims)) if j not in keep]
    keep_ranges = [range(dims[j]) for j in keep]
    drop_ranges = [range(dims[j]) for j in drop]
    d_a = int(np.prod([dims[j] for j in keep]))
    rho = np.zeros((d_a, d_a), dtype=complex)

    def full_index(kept, dropped):
        out = [0] * len(dims)
        for j, v in zip(keep, kept):
            out[j] = v
        for j, v in zip(drop, dropped):
            out[j] = v
        return tuple(out)

    kept_list = list(itertools.product(*keep_ranges))
    for r, row in enumerate(kept_list):
        for c, col in enumerate(kept_list):
            acc = 0.0 + 0.0j
            for dropped in itertools.product(*drop_ranges):
                acc += tensor[full_index(row, dropped)] * np.conj(
                    tensor[full_index(col, dropped)])
            rho[r, c] = acc
    return rho


def brute_purity(tensor, keep):
    rho = brute_reduced_density(tensor, keep)
    return float(np.real(np.trace(rho @ rho)))


def brute_rank_one_factors(tensor):
    """Dominant factor per slot from the slot unfoldings (SVD)."""
    factors = []
    for j in range(tensor.ndim):
        unfolding = np.moveaxis(tensor, j, 0).reshape(tensor.shape[j], -1)
        u, _, _ = np.linalg.svd(unfolding, full_matrices=False)
        factors.append(u[:, 0])
    return factors


def brute_rank_one_reconstruction(tensor):
    """Best phase-aligned rank-one reconstruction of a unit-norm tensor."""
    cand = np.array(1.0, dtype=complex)
    for f in brute_rank_one_factors(tensor):
        cand = np.multiply.outer(cand, f)
    overlap = np.vdot(cand, tensor)
    return cand * overlap


def werner_matrix(p):
    """p * Bell projector + (1-p)/4 * identity on two qubits."""
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    return p * np.outer(bell, bell.conj()) + (1.0 - p) / 4.0 * np.eye(4)


def werner_concurrence(p):
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def brute_wootters(rho):
    """Closed-form two-qubit mixed concurrence, spelled out directly."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    r = rho @ yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.real(np.linalg.eigvals(r))))
    lam = np.sort(lam)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def brute_residual_witness(tensor, family):
    """(residual, family index, k, l) under the witness tie-break rule.

    ``family`` is "slot" (slot j, over the filtered pairs of
    brute_segre_pairs) or "class" (canonical subsets, over every pair
    k < l). The residual is the largest |generator|. The witness is the
    first family in order whose largest magnitude equals it and, within
    that family, the first pair (k, l), k < l in row-major order, that
    attains it; a strict comparison in loop order gives exactly that.
    """
    dims = tensor.shape
    if family == "slot":
        swaps = [[j] for j in range(len(dims))]
        pairs = brute_segre_pairs(dims)
        groups = [[(k, l) for j2, k, l in pairs if j2 == j] for j in range(len(dims))]
    else:
        swaps = brute_canonical_subsets(len(dims))
        groups = [list(itertools.combinations(all_multi_indices(dims), 2))] * len(swaps)
    best = None
    for fam, (swap, group) in enumerate(zip(swaps, groups)):
        for k, l in group:
            k2, l2 = swap_positions(k, l, swap)
            v = abs(tensor[k] * tensor[l] - tensor[k2] * tensor[l2])
            if best is None or v > best[0]:
                best = (v, fam, k, l)
    return best
