"""Correlation decomposition for quantum and classical observables.

The statistics of a joint observable J at a state D, compared against the
product of the single-observable statistics, give the total correlation
density rho_t. Relative to a convex decomposition of D into pure states, the
total splits multiplicatively: rho_t = rho_c * rho_e on the common support,
where rho_c measures the correlation carried by the mixing (the classical
part) and rho_e the remainder attributable to the components themselves
(probabilistic entanglement). Both factors, unlike rho_t, depend on the
chosen decomposition.

`_split` is that split, the one of both frames and of the stacked selftest
suites, on one table or a batch: it mixes per-component outcome rows into
the classical product and divides the measures. `split_report` reports one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityViolation, JointMarginalMismatch
from .hilbert import ConvexDecomposition, DensityOperator, _in_halves, spectral_decompose
from .measure import DensityFunction, DiscreteMeasure, _derived, _nanmax, _quotient, mix_rows
from .observable import Povm, check_joint, outcome_measure
from .tolerance import PRODUCT_RULE_TOL

__all__ = [
    "ConvexDecomposition",
    "CorrelationReport",
    "correlation_report",
    "split_report",
]


def _require_joint(joint: Povm, a1: Povm, a2: Povm) -> None:
    if not check_joint(joint, a1, a2):
        raise JointMarginalMismatch(
            "joint observable's marginals do not reproduce the given pair"
        )


@dataclass
class CorrelationReport:
    """Engine output for one (joint, observables, decomposition) instance.

    rho_c and rho_e are None when their density does not exist; the matching
    error message records why. The residual is the largest deviation of
    rho_c * rho_e from rho_t on the common support, and is None whenever one
    of the factors is missing. The size is the number of mixed components,
    and None for the canonical classical split.
    """

    joint_measure: DiscreteMeasure
    marginal_1: DiscreteMeasure
    marginal_2: DiscreteMeasure
    product_measure: DiscreteMeasure
    classical_product: DiscreteMeasure
    rho_t: DensityFunction
    rho_c: DensityFunction | None
    rho_e: DensityFunction | None
    rho_c_error: str | None
    rho_e_error: str | None
    product_rule_residual: float | None
    decomposition_source: str
    decomposition_size: int | None

    @property
    def product_rule_pass(self) -> bool | None:
        if self.product_rule_residual is None:
            return None
        return self.product_rule_residual < PRODUCT_RULE_TOL


def correlation_report(
    joint: Povm,
    a1: Povm,
    a2: Povm,
    decomposition: ConvexDecomposition | DensityOperator,
) -> CorrelationReport:
    """Full correlation split for one decomposition.

    `decomposition` may be a bare density operator, in which case its
    spectral decomposition is used and the report is marked accordingly;
    that default is one convex decomposition among many, so the split it
    produces is not canonical.
    """
    if isinstance(decomposition, DensityOperator):
        decomposition = spectral_decompose(decomposition)
        source = "spectral"
    else:
        source = "explicit"
    _require_joint(joint, a1, a2)
    joint_measure, marginal_1, marginal_2 = decomposition.target._outcome_statistics(
        joint, a1, a2, outcome_measure
    )
    vectors = decomposition.vectors
    rows_1, rows_2 = _in_halves(
        lambda: a1.born_rows(vectors),
        lambda: a2.born_rows(vectors),
        (len(a1._stack) + len(a2._stack)) * vectors.size * a1.dim,
    )
    return split_report(
        joint_measure, marginal_1, marginal_2, decomposition._weights, rows_1, rows_2, source
    )


def split_report(
    joint_measure: DiscreteMeasure,
    marginal_1: DiscreteMeasure,
    marginal_2: DiscreteMeasure,
    weights: np.ndarray,
    rows_1: np.ndarray,
    rows_2: np.ndarray,
    source: str,
) -> CorrelationReport:
    """The correlation split of the measures, mixing `weights` (n,) over the
    per-component outcome rows `rows_1` (n x k1) and `rows_2` (n x k2).

    Both frames report through here: the rows are the components' Born-rule
    statistics (quantum) or the kernel rows at each phase point (classical).
    The split is `_split`'s; a joint escaping the product's support raises
    AbsoluteContinuityViolation, a factor that does not exist is recorded
    instead. The size is None for the canonical (classical) split.
    """
    space = joint_measure.space
    measures = joint_measure.as_array(), marginal_1.as_array(), marginal_2.as_array()
    split = _split(*measures, weights, rows_1, rows_2, space.points)
    independent, rho_t, classical, (rho_c, rho_c_error), (rho_e, rho_e_error), residual = split

    def view(values):
        return None if values is None else _derived(DensityFunction, space, values)

    return CorrelationReport(
        joint_measure=joint_measure,
        marginal_1=marginal_1,
        marginal_2=marginal_2,
        product_measure=_derived(DiscreteMeasure, space, independent),
        classical_product=_derived(DiscreteMeasure, space, classical),
        rho_t=view(rho_t),
        rho_c=view(rho_c),
        rho_e=view(rho_e),
        rho_c_error=rho_c_error,
        rho_e_error=rho_e_error,
        product_rule_residual=None if residual is None else float(residual),
        decomposition_source=source,
        decomposition_size=None if source == "canonical" else len(weights),
    )


def _total(joint: np.ndarray, marginal_1: np.ndarray, marginal_2: np.ndarray, points) -> tuple:
    """The joint table (k1, k2) of the joint weights (k1 k2,), the product
    of the marginal weights (k1,) and (k2,), and rho_t = joint / product,
    for one table or each of a batch (`_split`); raises at the first escape."""
    independent = marginal_1[..., :, None] * marginal_2[..., None, :]
    joint = joint.reshape(independent.shape)
    return joint, independent, _quotient(joint, independent, points)


def _split(joint, marginal_1, marginal_2, weights, rows_1, rows_2, points) -> tuple:
    """The correlation split of the joint weights (k1 k2,) and marginal
    weights (k1,) and (k2,), or of each of a batch along the same leading
    axes: the product of the marginals and rho_t (`_total`), the classical
    product `mix_rows` of `weights` (n,) over the rows (n, k1) and (n, k2),
    (rho_c, error), (rho_e, error) and max |rho_c rho_e - rho_t|. A factor
    that does not exist is None with its first escape, the residual None."""
    joint, independent, rho_t = _total(joint, marginal_1, marginal_2, points)
    classical = mix_rows(weights, rows_1, rows_2)
    factors = []
    for num, den in ((classical, independent), (joint, classical)):
        try:
            factors.append((_quotient(num, den, points), None))
        except AbsoluteContinuityViolation as exc:
            factors.append((None, str(exc)))
    (rho_c, _), (rho_e, _) = factors
    residual = None
    if rho_c is not None and rho_e is not None:
        residual = _nanmax(np.abs(rho_c * rho_e - rho_t).reshape(rho_t.shape[:-2] + (-1,)))
    return independent, rho_t, classical, factors[0], factors[1], residual
