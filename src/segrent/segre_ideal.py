"""Quadratic generators of product-state varieties and membership tests.

Two generator families are handled. The slot family pairs two
multi-indices k, l and exchanges their value at a single slot j:

    g = a[k] a[l] - a[k<-l_j] a[l<-k_j]

All these vanish exactly on outer-product (rank-one) tensors, and their
common zero locus is exactly the set of product states. The extended
family exchanges the values on an arbitrary nonempty proper subset S of
slots; its singletons reproduce the slot family, and S and its
complement give identical generators, so enumeration keeps one
representative per pair by excluding the last slot from S.

Every generator of slot set S is a 2x2 minor of the flattening M_S. Sums
use its singular values; residuals and the roof objective use `minors`.
Residual scans of more than RESIDUAL_SCAN_CAP minors are refused up front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DimensionError, GeneratorSpecError, PartitionError
from .tensor_core import (BoxTensor, DimsLike, as_dims, check_multi_index, flattening,
                          multi_index, segre_embed)

MATERIALIZE_CAP = 200_000    # largest slot-generator count for which lists are built
RESIDUAL_SCAN_CAP = 1 << 30  # largest minor count one residual scans
DEFAULT_MEMBER_TOL = 1e-10
_PAIR_BLOCK_BUDGET = 1 << 20     # minor values held per streamed block


@dataclass(frozen=True)
class MinorSpec:
    """One slot generator: slot j plus a lexicographically ordered pair."""

    slot: int
    pair: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        k, l = (tuple(int(i) for i in t) for t in self.pair)
        if self.slot < 0:
            raise GeneratorSpecError(f"slot must be >= 0, got {self.slot}")
        if len(k) != len(l) or k == l:
            raise GeneratorSpecError("pair must be two distinct equal-length tuples")
        if not self.slot < len(k):
            raise GeneratorSpecError(f"slot {self.slot} out of range for {k}")
        if k[self.slot] == l[self.slot]:
            raise GeneratorSpecError("pair must differ at the generator slot")
        if k > l:
            raise GeneratorSpecError("pair must be in lexicographic order k < l")
        object.__setattr__(self, "pair", (k, l))


@dataclass(frozen=True)
class PermClass:
    """Canonical index-exchange family: a sorted subset of slot positions."""

    swap_set: tuple[int, ...]

    def __post_init__(self):
        s = tuple(sorted({int(j) for j in self.swap_set}))
        if not s:
            raise GeneratorSpecError("swap set must be nonempty")
        if s[0] < 0:
            raise GeneratorSpecError("swap set entries must be >= 0")
        object.__setattr__(self, "swap_set", s)


@dataclass(frozen=True)
class MembershipReport:
    """Max generator magnitude at a state, with the witness achieving it."""

    residual: float
    worst: object
    is_member: bool
    tolerance: float


SwapLike = Union[PermClass, Iterable[int]]


def iter_segre_generators(dims: DimsLike) -> Iterator[MinorSpec]:
    """Stream the slot generators in (slot, k, l) lexicographic order.

    For each slot j, every unordered pair {k, l} with k_j != l_j that also
    differs somewhere off slot j; pairs differing only at j are omitted
    because their generator is identically zero.
    """
    dims = as_dims(dims)
    indices = list(itertools.product(*[range(n) for n in dims.sizes]))
    for j in range(dims.m):
        for a, k in enumerate(indices):
            for l in indices[a + 1:]:
                if k[j] != l[j] and k[:j] + k[j + 1:] != l[:j] + l[j + 1:]:
                    yield MinorSpec(j, (k, l))


def segre_generator_count(dims: DimsLike) -> int:
    """Number of slot generators: sum_j C(N_j, 2) D_j (D_j - 1), D_j = total / N_j."""
    dims = as_dims(dims)
    return sum(math.comb(n, 2) * (dims.total // n) * (dims.total // n - 1)
               for n in dims.sizes)


def enumerate_segre_generators(dims: DimsLike) -> list[MinorSpec]:
    """Materialize :func:`iter_segre_generators` (empty for one party)."""
    dims = as_dims(dims)
    count = segre_generator_count(dims)
    if count > MATERIALIZE_CAP:
        raise DimensionError(
            f"refusing to materialize {count} > {MATERIALIZE_CAP} generators "
            f"for dims {dims.sizes}; use iter_segre_generators")
    return list(iter_segre_generators(dims))


def enumerate_perm_classes(m: int) -> list[PermClass]:
    """Canonical exchange families: nonempty subsets of {0..m-2}.

    There are 2^(m-1) - 1 of them; the last slot is excluded because a
    subset and its complement generate the same polynomials.
    """
    m = int(m)
    if m < 1:
        raise DimensionError(f"party count must be >= 1, got {m}")
    # combinations come in lexicographic order, so this is (size, subset) order
    return [PermClass(s) for r in range(1, m) for s in itertools.combinations(range(m - 1), r)]


def evaluate_minor(state: BoxTensor, spec: MinorSpec) -> complex:
    """Value of one slot generator at the state."""
    return evaluate_perm_minor(state, (spec.slot,), spec.pair)


def evaluate_perm_minor(state: BoxTensor, swap: SwapLike,
                        pair: Sequence[Sequence[int]]) -> complex:
    """Value of one exchange generator at the state.

    ``swap`` may be a PermClass or any nonempty proper subset of slot
    positions (raw subsets are accepted so that a set and its complement
    can both be evaluated, e.g. to check that they agree).
    """
    dims = state.dims
    slots = (swap if isinstance(swap, PermClass) else PermClass(swap)).swap_set
    if slots[-1] >= dims.m:
        raise GeneratorSpecError(f"swap set {slots} out of range for dims {dims.sizes}")
    if len(slots) >= dims.m:
        raise GeneratorSpecError("swap set must be a proper subset of the slots")
    k, l = pair
    k, l = (check_multi_index(t, dims, GeneratorSpecError, s) for t, s in ((k, "k"), (l, "l")))
    if k == l:
        raise GeneratorSpecError("pair members must be distinct")
    ks = tuple(l[j] if j in slots else k[j] for j in range(dims.m))   # exchanged on slots
    ls = tuple(k[j] if j in slots else l[j] for j in range(dims.m))
    t = state.tensor
    return complex(t[k] * t[l] - t[ks] * t[ls])


def _generator_sum(state: BoxTensor, rows: tuple[int, ...]) -> float:
    """Sum of |g|^2 over one family's pairs: 2 sum_{i<j} s_i^2 s_j^2 of M_rows.

    Each minor is the generator of two pairs (Cauchy-Binet gives the rest);
    suffix sums stay accurate near product states, where 1 - sum s^4 does not."""
    x = np.linalg.svd(flattening(state.amps, state.dims.sizes, rows), compute_uv=False) ** 2
    tail = np.cumsum(x[::-1])[::-1]
    return float(2.0 * np.dot(x[:-1], tail[1:]))


def _pair_blocks(sizes: Sequence[int], budget: int):
    """Blocks of at most ``budget`` pairs r1 < r2 of multi-indices differing in every slot."""
    first, rest, budget = sizes[0], math.prod(n * (n - 1) for n in sizes[1:]), max(1, budget)
    step = max(1, budget // (first * rest))
    for x0 in range(0, first - 1, step):         # the first slot orders each pair
        if (first - 1 - x0) * rest > budget:     # too many for one array: decode slices
            yield from _split_pair_blocks(sizes, x0, budget)
            continue
        r1, r2 = np.triu_indices(min(step, first - 1 - x0), x0 + 1, first)
        r1 = r1 + x0
        for n in sizes[1:]:
            x, y = np.nonzero(~np.eye(n, dtype=bool))
            r1, r2 = (r1[:, None] * n + x).ravel(), (r2[:, None] * n + y).ravel()
        for p0 in range(0, r1.size, budget):
            yield r1[p0:p0 + budget], r2[p0:p0 + budget]


def _split_pair_blocks(sizes: Sequence[int], x0: int, budget: int):
    """:func:`_pair_blocks`' pairs with first slot x0 < y0, in its order (y0 outermost,
    then each later slot's ordered pair x != y, the last slot fastest), decoded from their
    positions ``budget`` at a time."""
    count = (sizes[0] - 1 - x0) * math.prod(n * (n - 1) for n in sizes[1:])
    for p0 in range(0, count, budget):
        t = np.arange(p0, min(p0 + budget, count))
        r1, r2, place = np.zeros_like(t), np.zeros_like(t), 1
        for n in reversed(sizes[1:]):
            t, q = np.divmod(t, n * (n - 1))
            x, y = np.divmod(q, n - 1)
            r1, r2, place = r1 + x * place, r2 + (y + (y >= x)) * place, place * n
        yield r1 + x0 * place, r2 + (x0 + 1 + t) * place


def minors(mat: np.ndarray, rows, cols) -> np.ndarray:
    """Minors of (..., R, C) matrices for row pairs (r1, r2) x column pairs (c1, c2)."""
    (r1, r2), (c1, c2) = rows, cols
    upper, lower = np.take(mat, r1, axis=-2), np.take(mat, r2, axis=-2)
    g = np.take(upper, c1, axis=-1) * np.take(lower, c2, axis=-1)
    g -= np.take(upper, c2, axis=-1) * np.take(lower, c1, axis=-1)
    return g


def _check_scan(sizes: Sequence[int], families: Sequence[tuple[int, ...]]) -> None:
    """Refuse (DimensionError) a residual scan of more than RESIDUAL_SCAN_CAP minors."""
    total = math.prod(sizes)
    count = sum(math.prod(sizes[j] * (sizes[j] - 1) for j in rows) // 2
                * math.comb(total // math.prod(sizes[j] for j in rows), 2) for rows in families)
    if count > RESIDUAL_SCAN_CAP:
        raise DimensionError(f"refusing to scan {count} > {RESIDUAL_SCAN_CAP} minors "
                             f"for dims {tuple(sizes)}")


def check_segre_scan(dims: DimsLike) -> None:
    """Refuse up front dims whose :func:`segre_residual` scan exceeds RESIDUAL_SCAN_CAP."""
    dims = as_dims(dims)
    _check_scan(dims.sizes, [(j,) for j in range(dims.m)])


def _worst_minor(state: BoxTensor, families: Sequence[tuple[int, ...]]):
    """(max |minor|, family index, a, b) over the flattenings of ``families``.

    Scans the row pairs of M_S differing in every slot of S against its column
    pairs c1 < c2, about _PAIR_BLOCK_BUDGET minors a block. The witness: the
    first family attaining the max, then the smallest flat pair (a, b), a < b,
    over both orientations (M[r1,c1], M[r2,c2]), (M[r1,c2], M[r2,c1]) of each
    maximal minor."""
    sizes, total = state.dims.sizes, state.dims.total
    _check_scan(sizes, families)
    best, best_fam, best_key = -1.0, 0, 0
    for fam, rows in enumerate(families):
        mat, flat = (flattening(x, sizes, rows) for x in (state.amps, np.arange(total)))
        for u, v in _pair_blocks([sizes[j] for j in rows], _PAIR_BLOCK_BUDGET // mat.shape[1]):
            for c1, c2 in _pair_blocks(mat.shape[1:], _PAIR_BLOCK_BUDGET // u.size):
                mags = np.abs(minors(mat, (u, v), (c1, c2)))
                top = float(mags.max())
                if top < best or (top == best and fam != best_fam):
                    continue
                p, q = np.nonzero(mags == top)
                cols = np.stack([c1[q], c2[q]])      # both orientations
                a, b = flat[u[p], cols], flat[v[p], cols[::-1]]
                key = int(np.min(np.minimum(a, b) * total + np.maximum(a, b)))
                if top > best or key < best_key:
                    best, best_fam, best_key = top, fam, key
    return (best, best_fam, *divmod(best_key, total))


def slot_generator_sums(state: BoxTensor) -> np.ndarray:
    """Per-slot sum of |generator|^2."""
    return np.array([_generator_sum(state, (j,)) for j in range(state.dims.m)])


def class_generator_sums(state: BoxTensor):
    """(canonical classes, per-class sum of |generator|^2 over all pairs)."""
    classes = enumerate_perm_classes(state.dims.m)
    return classes, np.array([_generator_sum(state, c.swap_set) for c in classes])


def segre_residual(state: BoxTensor,
                   tolerance: float = DEFAULT_MEMBER_TOL) -> MembershipReport:
    """Membership test against the product-state variety.

    The residual is the largest slot-generator magnitude at the state; it
    is zero (within tolerance) exactly on embedded product states.
    """
    dims = state.dims
    if dims.m < 2:
        return MembershipReport(0.0, None, True, tolerance)
    mag, slot, a, b = _worst_minor(state, [(j,) for j in range(dims.m)])
    spec = MinorSpec(slot, (multi_index(a, dims), multi_index(b, dims)))
    return MembershipReport(mag, spec, mag <= tolerance, tolerance)


def t_variety_residual(state: BoxTensor,
                       tolerance: float = DEFAULT_MEMBER_TOL) -> MembershipReport:
    """Membership test against the full exchange-generator variety.

    Maximizes over every canonical class and every unordered index pair;
    always at least the Segre residual since the families are a superset.
    A class-S generator on (k, l) equals the class-(S & D) one (D: slots where
    k, l differ), so each class scans only pairs differing on all of S.
    """
    dims = state.dims
    classes = enumerate_perm_classes(dims.m)
    if not classes:
        return MembershipReport(0.0, None, True, tolerance)
    mag, fam, a, b = _worst_minor(state, [c.swap_set for c in classes])
    if mag == 0.0:       # every pair ties: a scan of all pairs starts at class 0, (0, 1)
        fam, a, b = 0, 0, 1
    witness = (classes[fam], (multi_index(a, dims), multi_index(b, dims)))
    return MembershipReport(mag, witness, mag <= tolerance, tolerance)


def check_partition_commutativity(factors: Sequence[Sequence[complex]],
                                  split: int) -> float:
    """Max deviation between direct and two-stage product embeddings.

    Embeds all parties at once, then embeds parties [0, split) and
    [split, m) separately and joins the two flattened blocks with a
    bipartite embedding. The two routes agree up to rounding because the
    outer product is associative.
    """
    m = len(factors)
    split = int(split)
    if m < 2:
        raise PartitionError("need at least two factors to partition")
    if not 1 <= split < m:
        raise PartitionError(f"split must satisfy 1 <= split < {m}, got {split}")
    direct = segre_embed(factors)
    left = segre_embed(factors[:split])
    right = segre_embed(factors[split:])
    staged = segre_embed([left.amps, right.amps])
    return float(np.max(np.abs(direct.amps - staged.amps)))
