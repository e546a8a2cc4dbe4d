"""Box-shape tensor states, density matrices, and sampling utilities.

A pure state of m parties with local dimensions N_1 x ... x N_m is stored
as a flat complex vector in row-major order (last party index fastest),
so the amplitude at multi-index (i_1, ..., i_m) sits at the offset
returned by :func:`flat_index`. Multi-indices are 0-based everywhere in
the library; 1-based conventions are translated at the file boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DegenerateStateError,
    DensityMatrixError,
    DimensionError,
    NormalizationError,
    PartitionError,
    UnsupportedStateError,
)

NORM_TOL = 1e-12        # |amps|^2 budget for "normalized" states
_NORM_SNAP = 1e-13      # below this, normalization is a no-op (keeps it idempotent)
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_FLOOR = -1e-10

NAMED_STATES = ("bell", "ghz", "w", "basis-product")
RANDOM_KINDS = ("haar-pure", "product", "mixed")


@dataclass(frozen=True)
class Dims:
    """Ordered local dimensions of a composite system."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if len(sizes) < 1:
            raise DimensionError("need at least one party")
        if any(n < 2 for n in sizes):
            raise DimensionError(f"every local dimension must be >= 2, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return math.prod(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return iter(self.sizes)

    def __getitem__(self, j):
        return self.sizes[j]


DimsLike = Union[Dims, Sequence[int]]


def as_dims(dims: DimsLike) -> Dims:
    """Coerce a Dims or any int sequence to Dims."""
    if isinstance(dims, Dims):
        return dims
    return Dims(tuple(dims))


def _unit(vec: np.ndarray) -> np.ndarray:
    """Scale to unit 2-norm; identity when already within the snap window."""
    n = float(np.linalg.norm(vec))
    if n == 0.0:
        raise DegenerateStateError("cannot normalize an all-zero vector")
    if abs(n - 1.0) <= _NORM_SNAP:
        return vec
    return vec / n


@dataclass(frozen=True)
class BoxTensor:
    """Pure multipartite state as a flat row-major amplitude vector."""

    dims: Dims
    amps: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != dims.total:
            raise DimensionError(
                f"amplitude vector has length {amps.size}, dims {dims.sizes} "
                f"require {dims.total}")
        if not np.all(np.isfinite(amps)):
            raise DegenerateStateError("amplitudes must be finite (no NaN or Inf)")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def tensor(self) -> np.ndarray:
        """Read-only view shaped N_1 x ... x N_m."""
        return self.amps.reshape(self.dims.sizes)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(float(np.vdot(self.amps, self.amps).real) - 1.0) <= tol

    def normalized(self) -> "BoxTensor":
        amps = _unit(self.amps)
        if amps is self.amps:
            return self
        return BoxTensor(self.dims, amps)

    def density(self) -> "DensityMatrix":
        """Rank-one projector; the state must be unit-norm within NORM_TOL."""
        require_normalized(self)
        psi = _unit(self.amps)
        return DensityMatrix(self.dims, np.outer(psi, psi.conj()))


def require_normalized(state: BoxTensor) -> None:
    """Refuse a pure state whose |amps|^2 is not 1 within NORM_TOL."""
    if not state.is_normalized():
        raise NormalizationError(
            f"measures require a unit-norm state; |amps|^2 = {state.norm ** 2!r}. "
            "Normalize explicitly instead of relying on silent scaling.")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator: Hermitian, unit trace, PSD."""

    dims: Dims
    mat: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        mat = np.array(self.mat, dtype=complex)
        d = dims.total
        if mat.shape != (d, d):
            raise DimensionError(
                f"density matrix shape {mat.shape} does not match dims "
                f"{dims.sizes} (need {d}x{d})")
        if not np.all(np.isfinite(mat)):
            raise DensityMatrixError("matrix entries must be finite (no NaN or Inf)")
        if not float(np.max(np.abs(mat - mat.conj().T))) <= _HERM_TOL:
            raise DensityMatrixError("matrix is not Hermitian within 1e-10")
        if not abs(float(np.trace(mat).real) - 1.0) <= _TRACE_TOL:
            raise DensityMatrixError("trace differs from 1 by more than 1e-10")
        if float(np.min(np.linalg.eigvalsh(mat))) < _EIG_FLOOR:
            raise DensityMatrixError("matrix has an eigenvalue below -1e-10")
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def purity(self) -> float:
        return float(np.vdot(self.mat, self.mat).real)      # Tr rho^2 = sum |rho_ij|^2


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state ensemble: sum_i p_i |psi_i><psi_i|."""

    weights: tuple[float, ...]
    states: tuple["BoxTensor", ...]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        states = tuple(self.states)
        if not weights or len(weights) != len(states):
            raise DimensionError("weights and states must be nonempty and aligned")
        if any(w <= 0.0 for w in weights):
            raise DimensionError("ensemble weights must be strictly positive")
        if abs(math.fsum(weights) - 1.0) > 1e-10:
            raise DimensionError("ensemble weights must sum to 1 within 1e-10")
        dims = states[0].dims
        for s in states:
            if s.dims != dims:
                raise DimensionError("all ensemble states must share the same dims")
            if not s.is_normalized():
                raise DegenerateStateError("ensemble states must be unit-norm")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)

    @property
    def dims(self) -> Dims:
        return self.states[0].dims

    def mixture(self) -> DensityMatrix:
        """Density matrix reconstructed from the ensemble."""
        d = self.dims.total
        acc = np.zeros((d, d), dtype=complex)
        for w, s in zip(self.weights, self.states):
            acc += w * np.outer(s.amps, s.amps.conj())
        return DensityMatrix(self.dims, acc)


def make_state(dims: DimsLike, amps: Iterable[complex],
               normalize: bool = False) -> BoxTensor:
    """Build a BoxTensor from flat row-major amplitudes.

    With ``normalize`` the result has unit 2-norm; an all-zero input is
    rejected because it has no direction to keep.
    """
    dims = as_dims(dims)
    arr = np.array(list(amps) if not isinstance(amps, np.ndarray) else amps,
                   dtype=complex).reshape(-1)
    if normalize:
        arr = _unit(arr)
    return BoxTensor(dims, arr)


def check_multi_index(multi: Sequence[int], dims: Dims, error, label: str) -> tuple[int, ...]:
    """``multi`` as ints; raises exception class ``error`` naming ``label`` if not in ``dims``."""
    multi = tuple(int(i) for i in multi)
    if len(multi) != dims.m:
        raise error(f"{label} has {len(multi)} components, dims have {dims.m}")
    for i, n in zip(multi, dims.sizes):
        if not 0 <= i < n:
            raise error(f"{label} component {i} out of range [0, {n})")
    return multi


def flat_index(multi: Sequence[int], dims: DimsLike) -> int:
    """Row-major offset of a multi-index (last slot fastest)."""
    dims = as_dims(dims)
    multi = check_multi_index(multi, dims, DimensionError, "multi-index")
    return int(np.ravel_multi_index(multi, dims.sizes))


def multi_index(flat: int, dims: DimsLike) -> tuple[int, ...]:
    """Inverse of :func:`flat_index`."""
    dims = as_dims(dims)
    flat = int(flat)
    if not 0 <= flat < dims.total:
        raise DimensionError(f"flat index {flat} out of range [0, {dims.total})")
    return tuple(int(i) for i in np.unravel_index(flat, dims.sizes))


def segre_embed(factors: Sequence[Sequence[complex]]) -> BoxTensor:
    """Outer product of one vector per party, flattened row-major.

    The output amplitude at (i_1, ..., i_m) is the product of the factor
    entries factor_j[i_j]; it is unit-norm whenever every factor is.
    """
    if len(factors) < 1:
        raise DimensionError("need at least one factor vector")
    arrs = []
    for j, f in enumerate(factors):
        v = np.asarray(f, dtype=complex).reshape(-1)
        if v.size < 2:
            raise DimensionError(f"factor {j} has length {v.size}, need >= 2")
        if not np.any(v):
            raise DegenerateStateError(f"factor {j} is the zero vector")
        arrs.append(v)
    out = reduce(np.multiply.outer, arrs)
    return BoxTensor(Dims(tuple(v.size for v in arrs)), out.reshape(-1))


def flattening(amps: np.ndarray, sizes: Sequence[int],
               rows: Sequence[int]) -> np.ndarray:
    """M_rows of row-major amplitudes (..., total): (..., D_rows, D_rest).

    Slots in ``rows`` index the rows and the other slots the columns, each
    in row-major order; leading batch axes are kept as they are.
    """
    lead = amps.shape[:-1]
    b = len(lead)
    perm = [*range(b), *(b + j for j in rows),
            *(b + j for j in range(len(sizes)) if j not in rows)]
    mat = amps.reshape(lead + tuple(sizes)).transpose(perm)
    return mat.reshape(lead + (math.prod(sizes[j] for j in rows), -1))


def reduced_purity(state: BoxTensor, parties: Iterable[int]) -> float:
    """Tr(rho_A^2) for the reduced state on the given party subset.

    The subset must be a nonempty proper subset of the slots. For a pure
    input the result equals the purity of the complementary subset.
    """
    m = state.dims.m
    keep = sorted({int(p) for p in parties})
    if any(p < 0 or p >= m for p in keep):
        raise PartitionError(f"party subset {keep} out of range for m={m}")
    if not keep or len(keep) == m:
        raise PartitionError("party subset must be nonempty and proper")
    mat = flattening(state.amps, state.dims.sizes, keep)
    gram = mat @ mat.conj().T
    return float(np.real(np.sum(gram * gram.conj())))


def named_state(name: str, dims: DimsLike) -> BoxTensor:
    """Canonical normalized states: bell, ghz, w, basis-product."""
    dims = as_dims(dims)
    key = name.lower()
    if key not in NAMED_STATES:
        raise UnsupportedStateError(
            f"unknown state name {name!r}; choose one of {NAMED_STATES}")
    amps = np.zeros(dims.total, dtype=complex)
    if key == "basis-product":
        amps[0] = 1.0
    elif key == "bell":
        if dims.m != 2 or dims[0] != dims[1]:
            raise UnsupportedStateError(
                f"bell needs two parties of equal dimension, got {dims.sizes}")
        n = dims[0]
        amps[::n + 1] = 1.0 / math.sqrt(n)      # the diagonal offsets i * n + i
    else:  # ghz / w
        if dims.m < 2 or any(n != 2 for n in dims.sizes):
            raise UnsupportedStateError(
                f"{key} needs at least two qubits, got {dims.sizes}")
        if key == "ghz":
            amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
        else:    # one-hot at slot j sits at offset 2^(m-1-j)
            amps[2 ** np.arange(dims.m)] = 1.0 / math.sqrt(dims.m)
    return BoxTensor(dims, amps)


def seed_sequence(seed: int) -> np.random.SeedSequence:
    """Seed sequence for any integer seed, negatives included, reduced mod 2^64."""
    return np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF)


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    return _unit(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def product_factors(dims: DimsLike, seed: int) -> list[np.ndarray]:
    """Seeded unit factor vectors, one haar vector per party."""
    rng = np.random.default_rng(seed_sequence(seed))
    return [_haar(rng, n) for n in as_dims(dims).sizes]


def random_state(kind: str, dims: DimsLike, seed: int,
                 rank: int | None = None):
    """Seeded random states: haar-pure, product, or mixed.

    haar-pure draws a complex standard-normal vector and normalizes it;
    product embeds one haar vector per party; mixed returns a convex
    combination of ``rank`` haar-pure projectors (full rank by default).
    Identical seeds give identical outputs.
    """
    dims = as_dims(dims)
    if kind not in RANDOM_KINDS:
        raise UnsupportedStateError(
            f"unknown random kind {kind!r}; choose one of {RANDOM_KINDS}")
    if kind == "product":
        return segre_embed(product_factors(dims, seed))
    rng = np.random.default_rng(seed_sequence(seed))
    if kind == "haar-pure":
        return BoxTensor(dims, _haar(rng, dims.total))
    r = dims.total if rank is None else int(rank)
    if r < 1:
        raise DimensionError(f"mixed-state rank must be >= 1, got {r}")
    weights = rng.dirichlet(np.ones(r))
    acc = np.zeros((dims.total, dims.total), dtype=complex)
    for w in weights:
        psi = _haar(rng, dims.total)
        acc += w * np.outer(psi, psi.conj())
    return DensityMatrix(dims, acc)
