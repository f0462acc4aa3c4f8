"""Reference oracle: POVM validation and projectivity, effect by effect.

This is the check `qcorr.observable.Povm` ran before it validated the
stacked effects in one batched pass: each outcome's dimension, hermiticity
and positivity in turn, then the idempotence of every effect and the product
of every pair of distinct effects, one pair at a time. `joint_verdict` is
the matching `joint_from_commuting`: it tests every pair of factor effects
for commutation, one pair at a time, and then only the projectivity of the
products, which are derived from validated factors and not validated again.
`density_verdict` is the `DensityOperator` check with one `eigvalsh` per
matrix, as it ran before positivity was certified by Cholesky. Tests compare
the package against these.
"""

import numpy as np

from qcorr import (
    ConvergenceFailure,
    DimensionMismatch,
    NonCommuting,
    NotProjective,
    ProductSpace,
    ValidationError,
)
from qcorr.hilbert import (
    _as_complex_matrix,
    _hermitian_deviation,
    _max_abs,
)
from qcorr.measure import _position
from qcorr.tolerance import validation_eps


def povm_verdict(space, effects) -> bool:
    """`Povm(space, effects).is_projective`, raising what it raises."""
    eps = validation_eps()
    outcomes = tuple(space.outcomes)
    table = {}
    for outcome, matrix in dict(effects).items():
        key = outcomes[_position(space, outcome)]
        table[key] = _as_complex_matrix(matrix, name=f"effect at {outcome!r}")
    missing = [o for o in outcomes if o not in table]
    if missing:
        raise ValidationError(f"effects must cover the space exactly (missing {missing!r})")
    dim = table[outcomes[0]].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for outcome in outcomes:
        effect = table[outcome]
        if effect.shape[0] != dim:
            raise DimensionMismatch(
                f"effect at {outcome!r} has dimension {effect.shape[0]}, expected {dim}"
            )
        deviation = _hermitian_deviation(effect)
        if deviation > eps:
            raise ValidationError(
                f"effect at {outcome!r} is not Hermitian (max deviation {deviation:.3e})"
            )
        smallest = smallest_eigenvalue(effect)
        if smallest < -eps:
            raise ValidationError(
                f"effect at {outcome!r} is not positive semidefinite "
                f"(eigenvalue {smallest:.3e})"
            )
        total += effect
    completeness = _max_abs(total - np.eye(dim))
    if completeness > eps:
        raise ValidationError(
            f"effects do not sum to the identity (max deviation {completeness:.3e})"
        )
    return pairwise_projective([table[o] for o in outcomes], eps)


def smallest_eigenvalue(matrix) -> float:
    """The smallest eigenvalue by `eigvalsh`; solver failures surface as
    ConvergenceFailure."""
    try:
        return float(np.min(np.linalg.eigvalsh(matrix)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def pairwise_projective(effects, eps: float) -> bool:
    """Every effect idempotent and every pair annihilating, within eps."""
    for effect in effects:
        if _max_abs(effect @ effect - effect) > eps:
            return False
    for i, left in enumerate(effects):
        for right in effects[i + 1 :]:
            if _max_abs(left @ right) > eps:
                return False
    return True


def joint_verdict(a1, a2) -> bool:
    """`joint_from_commuting(a1, a2).is_projective`, raising what it raises."""
    for name, a in (("first", a1), ("second", a2)):
        if isinstance(a.space, ProductSpace):
            raise ValidationError(f"{name} observable must live on a simple outcome space")
        if not a.is_projective:
            raise NotProjective(f"{name} observable is not projective")
    if a1.dim != a2.dim:
        raise DimensionMismatch(f"observable dimensions differ: {a1.dim} vs {a2.dim}")
    eps = validation_eps()
    for l1 in a1.space.labels:
        for l2 in a2.space.labels:
            left = a1.effect(l1)
            right = a2.effect(l2)
            gap = _max_abs(left @ right - right @ left)
            if gap > eps:
                raise NonCommuting(
                    f"effects at {l1!r} and {l2!r} do not commute (max deviation {gap:.3e})"
                )
    effects = [a1.effect(l1) @ a2.effect(l2) for l1 in a1.space.labels for l2 in a2.space.labels]
    return pairwise_projective(effects, eps)


def density_verdict(matrix) -> None:
    """`DensityOperator(matrix)`, returning None where it succeeds and
    raising what it raises."""
    arr = _as_complex_matrix(matrix, name="density matrix")
    eps = validation_eps()
    deviation = _hermitian_deviation(arr)
    if deviation > eps:
        raise ValidationError(f"density matrix is not Hermitian (max deviation {deviation:.3e})")
    trace = complex(np.trace(arr)).real
    if abs(trace - 1.0) > eps:
        raise ValidationError(f"density matrix trace is {trace!r}, expected 1")
    smallest = smallest_eigenvalue(arr)
    if smallest < -eps:
        raise ValidationError(f"density matrix has negative eigenvalue {smallest:.3e}")
