"""Exception hierarchy for the correlation engine.

Two families matter to callers: `ValidationError` and its subclasses signal
bad input (malformed files, objects violating their defining invariants),
while the remaining `QcorrError` subclasses signal that a requested
computation does not exist or failed (a density without absolute continuity,
a joint for non-commuting observables, an eigensolver that gave up).
The CLI maps the first family to exit code 1 and the second to exit code 2.
"""

__all__ = [
    "QcorrError",
    "ValidationError",
    "ParseError",
    "UnknownExample",
    "UnknownLabel",
    "DimensionMismatch",
    "NonHermitianInput",
    "SpaceMismatch",
    "NotAProductSpace",
    "NotProjective",
    "AbsoluteContinuityViolation",
    "NonCommuting",
    "JointMarginalMismatch",
    "ConvergenceFailure",
]


class QcorrError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QcorrError):
    """Input violates a defining invariant (bad state, weights, schema...)."""


class ParseError(ValidationError):
    """A scenario file is not readable JSON."""


class UnknownExample(ValidationError):
    """Requested built-in example id does not exist."""


class UnknownLabel(ValidationError):
    """An outcome or phase-space label is not part of the given space."""


class DimensionMismatch(ValidationError):
    """Operators or states of incompatible dimensions were combined."""


class NonHermitianInput(ValidationError):
    """A matrix that must be Hermitian is not, within tolerance."""


class SpaceMismatch(ValidationError):
    """Measures or observables live on different spaces."""


class NotAProductSpace(ValidationError):
    """A marginal was requested from a measure on a simple space."""


class NotProjective(ValidationError):
    """A construction requires projective observables (PVMs)."""


class AbsoluteContinuityViolation(QcorrError):
    """The numerator puts mass where the denominator vanishes.

    The requested density function does not exist; this is reported as an
    explicit failure, never as a silent infinity.
    """


class NonCommuting(QcorrError):
    """The product joint was requested for non-commuting observables.

    A joint observable is not guaranteed to exist in general; this error
    marks the case where the commuting-product construction is unavailable.
    """


class JointMarginalMismatch(QcorrError):
    """A joint observable's marginals do not reproduce the given pair."""


class ConvergenceFailure(QcorrError):
    """The Hermitian eigensolver failed to converge."""
