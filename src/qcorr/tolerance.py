"""Numeric tolerance policy.

`EPS` is the arithmetic epsilon used for support thresholds, absolute
continuity, and equality of computed statistics. It is deliberately not
configurable: reports must not depend on the environment.

`validation_eps()` is the tolerance applied when validating constructed
objects (vector norms, traces, hermiticity, weight sums, POVM completeness).
It defaults to `EPS` and can be relaxed or tightened through the
``QCORR_EPS`` environment variable, e.g. for states produced by a noisy
upstream pipeline. It never changes report math.
"""

from __future__ import annotations

import os

from .errors import ValidationError

__all__ = [
    "EPS",
    "RECONSTRUCTION_TOL",
    "PRODUCT_RULE_TOL",
    "DEGENERACY_TOL",
    "validation_eps",
]

EPS = 1e-9

# Convex decompositions must rebuild their target entrywise within this.
RECONSTRUCTION_TOL = 1e-8

# |rho_c * rho_e - rho_t| on the common support must stay below this.
PRODUCT_RULE_TOL = 1e-7

# Eigenvalues closer than this are treated as one degenerate outcome.
DEGENERACY_TOL = 1e-7

# A report note calls a density nontrivial when it is off 1 by more than this.
NOTE_TOL = 1e-6

_ENV_VAR = "QCORR_EPS"


def validation_eps() -> float:
    """Tolerance for object validation; ``QCORR_EPS`` overrides the default
    unless it is unset or empty."""
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return EPS
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{_ENV_VAR} must be a number, got {raw!r}") from None
    if not value > 0.0:
        raise ValidationError(f"{_ENV_VAR} must be positive, got {raw!r}")
    return value
