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

Every generator of slot set S is a 2x2 minor of the flattening M_S. The
measures and the roof objective sum them from its singular values (Cauchy-Binet);
residuals take their maximum from tiles of minors. Residual scans of more than
RESIDUAL_SCAN_CAP minors are refused up front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DimensionError, GeneratorSpecError, PartitionError
from .tensor_core import (BoxTensor, Dims, DimsLike, as_dims, check_multi_index, check_subset,
                          flattening, multi_index, segre_embed)

__all__ = ["MembershipReport", "MinorSpec", "PermClass", "check_partition_commutativity",
           "enumerate_perm_classes", "enumerate_segre_generators", "evaluate_minor",
           "evaluate_perm_minor", "iter_segre_generators", "segre_residual", "t_variety_residual"]

MATERIALIZE_CAP = 200_000    # largest slot-generator count for which lists are built
RESIDUAL_SCAN_CAP = 1 << 30  # largest minor count one residual scans
DEFAULT_MEMBER_TOL = 1e-10
_SCAN_TILE = 1 << 14         # minor values held per tile of the residual scan


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
    for j, a, b in _slot_pairs(dims):
        k, l = (np.stack(np.unravel_index(x, dims.sizes), axis=-1).tolist() for x in (a, b))
        yield from (MinorSpec(j, pair) for pair in zip(k, l))


def _slot_pairs(dims: Dims):
    """Non-empty (j, a, b) blocks of flat pairs a < b of the slot-j generators, in order: the
    pairs of the triangle's 512-pair blocks that differ at slot j and off it (b != a + step).
    Callers decode a block's rows at once, so they never hold more than 512 pairs."""
    if dims.m < 2:          # one party has no generators; skip its N^2 / 2 pairs
        return
    for j, n in enumerate(dims.sizes):
        stride = math.prod(dims.sizes[j + 1:])
        for a, b in _row_pairs((dims.total,), 512):
            step = (b // stride % n - a // stride % n) * stride
            keep = (step != 0) & (a + step != b)
            if keep.any():
                yield j, a[keep], b[keep]


def slot_generator_counts(dims: DimsLike) -> list[int]:
    """Slot generators per slot, C(N_j, 2) D_j (D_j - 1) with D_j = total / N_j. Dims with
    more than MATERIALIZE_CAP in all are refused (DimensionError) before any is built."""
    dims = as_dims(dims)
    counts = [math.comb(n, 2) * (dims.total // n) * (dims.total // n - 1) for n in dims.sizes]
    if sum(counts) > MATERIALIZE_CAP:
        raise DimensionError(f"refusing to materialize {sum(counts)} > {MATERIALIZE_CAP} "
                             f"generators for dims {dims.sizes}; use iter_segre_generators")
    return counts


def enumerate_segre_generators(dims: DimsLike) -> list[MinorSpec]:
    """Materialize :func:`iter_segre_generators` (empty for one party)."""
    slot_generator_counts(dims)
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
    slots = check_subset(swap.swap_set if isinstance(swap, PermClass) else swap, dims.m,
                         GeneratorSpecError, "swap set")
    k, l = pair
    k, l = (check_multi_index(t, dims, GeneratorSpecError, s) for t, s in ((k, "k"), (l, "l")))
    if k == l:
        raise GeneratorSpecError("pair members must be distinct")
    ks = tuple(l[j] if j in slots else k[j] for j in range(dims.m))   # exchanged on slots
    ls = tuple(k[j] if j in slots else l[j] for j in range(dims.m))
    t = state.tensor
    return complex(t[k] * t[l] - t[ks] * t[ls])


def _singular_pairs(mat: np.ndarray):
    """(x_i, sum_{j>i} x_j) for i < n - 1, over the squared singular values x of the
    flattenings ``mat`` (..., R, C), so their inner product over the last axis is
    sum_{i<j} x_i x_j, the sum of |minor|^2 of each flattening (Cauchy-Binet). Suffix sums
    stay accurate near product states, where (sum x)^2 - sum x^2 cancels."""
    x = np.linalg.svd(mat, compute_uv=False) ** 2
    tail = np.cumsum(x[..., ::-1], axis=-1)[..., ::-1]
    return x[..., :-1], tail[..., 1:]


def _generator_sum(state: BoxTensor, rows: tuple[int, ...]) -> float:
    """Sum of |g|^2 over one family's pairs: twice its |minor|^2 sum, since each minor is
    the generator of two pairs."""
    return float(2.0 * np.dot(*_singular_pairs(flattening(state.amps, state.dims.sizes, rows))))


def _row_pairs(row_shape: Sequence[int], budget: int):
    """Non-empty blocks (r1, r2) of at most ``budget`` row pairs r1 < r2 of ``row_shape`` that
    differ in every slot, every block but the last full; for a one-slot shape, every pair in
    np.triu_indices order. The kept pairs are a product, so a pair index has one mixed-radix
    digit per slot, most significant first: a first-digit pair a < b in triangle order, then
    at each other slot an ordered pair of different digits (d, f); blocks decode no others."""
    n, budget = row_shape[0], max(1, budget)
    radix = [n * (n - 1) // 2] + [k * (k - 1) for k in row_shape[1:]]
    starts = np.cumsum(n - np.arange(n)) - n    # first-digit pairs (a', b) with a' < a
    count = math.prod(radix)
    for p in range(0, count, budget):
        q, *slots = np.unravel_index(np.arange(p, min(p + budget, count)), radix)
        r1 = np.searchsorted(starts, q, side="right") - 1
        r2 = q - starts[r1] + r1 + 1
        for k, i in zip(row_shape[1:], slots):
            d, f = np.divmod(i, k - 1)
            r1, r2 = r1 * k + d, r2 * k + f + (f >= d)
        yield r1, r2


def _check_scan(sizes: Sequence[int], families: Sequence[tuple[int, ...]]) -> int:
    """The minor count of a residual scan; DimensionError above RESIDUAL_SCAN_CAP."""
    total = math.prod(sizes)
    count = sum(math.prod(sizes[j] * (sizes[j] - 1) for j in rows) // 2
                * math.comb(total // math.prod(sizes[j] for j in rows), 2) for rows in families)
    if count > RESIDUAL_SCAN_CAP:
        raise DimensionError(f"refusing to scan {count} > {RESIDUAL_SCAN_CAP} minors "
                             f"for dims {tuple(sizes)}")
    return count


def check_segre_scan(dims: DimsLike) -> None:
    """Refuse up front dims whose :func:`segre_residual` scan exceeds RESIDUAL_SCAN_CAP."""
    dims = as_dims(dims)
    _check_scan(dims.sizes, [(j,) for j in range(dims.m)])


def check_residual_scans(dims: DimsLike) -> None:
    """Refuse up front dims whose :func:`segre_residual` or :func:`t_variety_residual`
    scan exceeds RESIDUAL_SCAN_CAP, so neither runs when either would be refused."""
    dims = as_dims(dims)
    _check_scan(dims.sizes, [c.swap_set for c in enumerate_perm_classes(dims.m)])
    check_segre_scan(dims)


def _column_tiles(up: np.ndarray, lo: np.ndarray, buf):
    """(x0, y0, |up[:, x0:x1, None] lo[:, None, y0:y1] - up[:, None, y0:y1] lo[:, x0:x1, None]|)
    tiles of at most _SCAN_TILE entries over the (P, C) row pairs (up, lo), P at most
    max(1, _SCAN_TILE // (C - 1)), written over the two complex arrays ``buf``: fresh arrays
    page-fault every tile. |g| goes over the second, whose products g has taken by then.
    Entries at c1 = x0 + i < c2 = y0 + j are |M[r1,c1] M[r2,c2] - M[r1,c2] M[r2,c1]|; the
    rest (y0 = x0 + 1 only) are 0 or equal one of those in the tile."""
    n, n_cols = up.shape
    x0 = 0
    while x0 < n_cols - 1:
        x1 = min(n_cols - 1, x0 + max(1, _SCAN_TILE // (n * (n_cols - x0 - 1))))
        step = max(1, _SCAN_TILE // (n * (x1 - x0)))    # splits c2 only where x1 = x0 + 1
        for y0 in range(x0 + 1, n_cols, step):
            shape = (n, x1 - x0, min(step, n_cols - y0))
            g, tmp = (b[:math.prod(shape)].reshape(shape) for b in buf)
            np.multiply(up[:, x0:x1, None], lo[:, None, y0:y0 + step], out=g)
            g -= np.multiply(up[:, None, y0:y0 + step], lo[:, x0:x1, None], out=tmp)
            yield x0, y0, np.abs(g, out=buf[1].view(float)[:g.size].reshape(shape))
        x0 = x1


def _worst_minor(state: BoxTensor, families: Sequence[tuple[int, ...]]):
    """(max |minor|, family index, a, b) over the flattenings of ``families``.

    Scans the row pairs of M_S differing in every slot of S against its column
    pairs c1 < c2, in tiles of at most _SCAN_TILE values, family by family, so each
    flattening is built once. The witness, whatever the visit order: the largest
    |minor|, then the smallest family index, then the smallest flat pair (a, b),
    a < b, over both orientations (M[r1,c1], M[r2,c2]), (M[r1,c2], M[r2,c1]) of
    each maximal minor."""
    sizes, total = state.dims.sizes, state.dims.total
    count = _check_scan(sizes, families)
    best, best_fam, best_key = -1.0, 0, 0
    # a tile holds at most twice a family's minors, so small scans map no large buffers
    buf = [np.empty(min(_SCAN_TILE, 2 * count), complex) for _ in range(2)]
    for fam, rows in enumerate(families):
        mat = flattening(state.amps, sizes, rows)
        # at most half a tile of rows and 1/16 of a tile of pairs a row block: its rows
        # and its int64 temporaries add to the tile buffers
        budget = _SCAN_TILE // 2 // max(8, mat.shape[1] - 1)
        for u, v in _row_pairs([sizes[j] for j in rows], budget):
            for x0, y0, mags in _column_tiles(mat[u], mat[v], buf):
                top = float(mags.max())
                if top < best or (top == best and fam > best_fam):
                    continue
                p, i, j = np.nonzero(mags == top)
                keep = i + x0 < j + y0          # c1 < c2
                p, cols = p[keep], np.stack([i[keep] + x0, j[keep] + y0])  # both orientations
                flat = flattening(np.arange(total), sizes, rows)
                a, b = flat[u[p], cols], flat[v[p], cols[::-1]]
                key = int(np.min(np.minimum(a, b) * total + np.maximum(a, b)))
                if top > best or fam < best_fam or key < best_key:
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
    if not 1 <= split < m:
        raise PartitionError(f"split must satisfy 1 <= split < {m}, got {split}")
    direct = segre_embed(factors)
    left = segre_embed(factors[:split])
    right = segre_embed(factors[split:])
    staged = segre_embed([left.amps, right.amps])
    return float(np.max(np.abs(direct.amps - staged.amps)))
