"""Correlation decomposition for quantum observables.

The statistics of a joint observable J at a state D, compared against the
product of the single-observable statistics, give the total correlation
density rho_t. Relative to a convex decomposition of D into pure states, the
total splits multiplicatively: rho_t = rho_c * rho_e on the common support,
where rho_c measures the correlation carried by the mixing (the classical
part) and rho_e the remainder attributable to the components themselves
(probabilistic entanglement). Both factors, unlike rho_t, depend on the
chosen decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, JointMarginalMismatch
from .hilbert import ConvexDecomposition, DensityOperator, spectral_decompose
from .measure import DensityFunction, DiscreteMeasure, _derived, correlation_split
from .observable import Povm, check_joint, outcome_measure
from .tolerance import PRODUCT_RULE_TOL

__all__ = [
    "ConvexDecomposition",
    "CorrelationReport",
    "correlation_report",
    "split_report",
]


def _component_rows(
    a1: Povm, a2: Povm, decomposition: ConvexDecomposition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixing weights and the per-component outcome rows of both observables."""
    target = decomposition.target
    if a1.dim != target.dim or a2.dim != target.dim:
        raise DimensionMismatch(
            f"observable dimensions ({a1.dim}, {a2.dim}) do not match state dimension {target.dim}"
        )
    vectors = decomposition.vectors
    return np.array(decomposition.weights), a1.born_rows(vectors), a2.born_rows(vectors)


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
    state = decomposition.target
    joint_measure = outcome_measure(joint, state)
    marginal_1 = outcome_measure(a1, state)
    marginal_2 = outcome_measure(a2, state)
    mixing = _component_rows(a1, a2, decomposition)
    return split_report(joint_measure, marginal_1, marginal_2, *mixing, source)


def split_report(
    joint_measure: DiscreteMeasure,
    marginal_1: DiscreteMeasure,
    marginal_2: DiscreteMeasure,
    weights: np.ndarray,
    rows_1: np.ndarray,
    rows_2: np.ndarray,
    source: str,
) -> CorrelationReport:
    """Run `correlation_split` on the measures' arrays and wrap the result.

    Both frames report through here: the rows are the components' Born-rule
    statistics (quantum) or the kernel rows at each phase point (classical).
    """
    space = joint_measure.space
    joint = joint_measure.as_array().reshape(len(space.left), len(space.right))
    margins = marginal_1.as_array(), marginal_2.as_array()
    split = correlation_split(space, joint, *margins, weights, rows_1, rows_2)

    def view(values):
        return None if values is None else _derived(DensityFunction, space, values)

    return CorrelationReport(
        joint_measure=joint_measure,
        marginal_1=marginal_1,
        marginal_2=marginal_2,
        product_measure=_derived(DiscreteMeasure, space, split.product),
        classical_product=_derived(DiscreteMeasure, space, split.classical),
        rho_t=view(split.rho_t),
        rho_c=view(split.rho_c),
        rho_e=view(split.rho_e),
        rho_c_error=split.rho_c_error,
        rho_e_error=split.rho_e_error,
        product_rule_residual=split.residual,
        decomposition_source=source,
        decomposition_size=len(weights),
    )
