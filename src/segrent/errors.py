"""Exception types raised by the segrent library.

Everything derives from :class:`SegrentError`, itself a ``ValueError``, so
callers that do not care about the category can catch one class. The CLI
maps any ``SegrentError`` to exit code 2 (bad input).
"""


class SegrentError(ValueError):
    """Base class for all segrent input and contract violations."""


class DimensionError(SegrentError):
    """Dims/length mismatch, out-of-range multi-index, or wrong arity."""


class DegenerateStateError(SegrentError):
    """All-zero or non-finite amplitude vector, or a zero embedding factor."""


class UnsupportedStateError(SegrentError):
    """Named state requested for dims it is not defined on."""


class PartitionError(SegrentError):
    """Empty/full party subset, or an embedding split out of range."""


class GeneratorSpecError(SegrentError):
    """Minor or permutation-class spec incompatible with the state dims."""


class NormalizationError(SegrentError):
    """A measure or BoxTensor.density() needs a unit-norm state; input was not."""


class DensityMatrixError(SegrentError):
    """Matrix is not Hermitian, trace-one, and positive semidefinite."""


class IsometryError(SegrentError):
    """Decomposition parameterization V does not satisfy V^dagger V = I."""


class ConfigError(SegrentError):
    """Invalid measure or roof-search configuration."""


class StateFileError(SegrentError):
    """State file fails schema validation (bad field, size, or layout)."""
