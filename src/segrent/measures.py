"""Pure-state entanglement measures built on the quadratic generators.

Two measures are provided. The slot measure sums |g|^2 over the slot
generators; with its default normalization it equals the generalized
concurrence sqrt(2 (1 - Tr rho_A^2)) on bipartite states. The exchange
measure sums over every canonical exchange class and every index pair;
its default normalization of 2 makes it agree with the slot measure on
bipartite states. Each family's sum is 1 - Tr rho_S^2 of its bipartition
(the multipartite concurrence of Carvalho, Mintert and Buchleitner),
computed from the Schmidt coefficients, never by enumerating pairs.

Both vanish identically on product states. For four or more parties the
slot measure still certifies full separability but is not a faithful
quantifier, which is surfaced as a report note rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .errors import ConfigError, DimensionError
from .segre_ideal import PermClass, class_generator_sums, slot_generator_sums
from .tensor_core import BoxTensor, reduced_purity, require_normalized

DEFAULT_NORM_E = 1.0
DEFAULT_NORM_F = 2.0

_NOTE_SINGLE_PARTY = "single-party state: no quadratic generators, value is 0"
_NOTE_MANY_PARTIES = ("slot-generator sum for m >= 4: certifies full separability "
                      "but is not a faithful entanglement quantifier")


@dataclass(frozen=True)
class MeasureConfig:
    """Normalization override and breakdown switch for a measure run."""

    normalization: Optional[float] = None
    include_breakdown: bool = False

    def __post_init__(self):
        if self.normalization is not None and not 0.0 < self.normalization < math.inf:
            raise ConfigError(
                f"normalization must be positive and finite, got {self.normalization}")


@dataclass(frozen=True)
class MeasureReport:
    """Measure value with its generator sum and optional per-class split."""

    value: float
    sum_of_squares: float
    normalization: float
    per_class: Optional[Mapping[Union[int, PermClass], float]] = None
    notes: tuple[str, ...] = ()


def _measure(state: BoxTensor, config: MeasureConfig | None, default_norm: float,
             family, notes: tuple[str, ...] = ()) -> MeasureReport:
    """Shared body; ``family(state)`` gives (keys, per-family sums)."""
    cfg = config or MeasureConfig()
    norm = default_norm if cfg.normalization is None else cfg.normalization
    require_normalized(state)
    if state.dims.m < 2:
        keys, sums, notes = [], [], (_NOTE_SINGLE_PARTY,)
    else:
        keys, sums = family(state)
    sum_sq = math.fsum(float(p) for p in sums)
    per_class = dict(zip(keys, (float(p) for p in sums))) if cfg.include_breakdown else None
    return MeasureReport(math.sqrt(norm * sum_sq), sum_sq, norm, per_class, notes)


def measure_E(state: BoxTensor, config: MeasureConfig | None = None) -> MeasureReport:
    """Slot-generator measure: sqrt(N * sum |slot minors|^2).

    Default N = 1, calibrated so the bipartite value equals the
    generalized concurrence. Zero exactly on product states.
    """
    m = state.dims.m
    return _measure(state, config, DEFAULT_NORM_E,
                    lambda st: (range(m), slot_generator_sums(st)),
                    (_NOTE_MANY_PARTIES,) if m >= 4 else ())


def measure_F(state: BoxTensor, config: MeasureConfig | None = None) -> MeasureReport:
    """Exchange-class measure: sqrt(N * sum over classes and pairs of |g|^2).

    Sums every canonical exchange family (one representative per
    complement pair) over all unordered index pairs. Default N = 2 so the
    bipartite value matches :func:`measure_E`.
    """
    return _measure(state, config, DEFAULT_NORM_F, class_generator_sums)


def bipartite_concurrence_oracle(state: BoxTensor) -> float:
    """sqrt(2 (1 - Tr rho_A^2)) for a normalized two-party state.

    Computed from the reduced purity, independently of the generator
    sums; used to pin the slot measure's normalization.
    """
    if state.dims.m != 2:
        raise DimensionError(
            f"concurrence oracle needs exactly two parties, got {state.dims.m}")
    require_normalized(state)
    gap = 2.0 * (1.0 - reduced_purity(state, [0]))
    return math.sqrt(max(gap, 0.0))
