"""Generalized classical statistics on a finite phase space.

Fuzzy observables are stochastic kernels: each phase-space point is mapped to
a probability measure on the outcome space (a Dirac row for every point means
the observable is deterministic, i.e. sharp). The canonical product joint
measures both observables per phase-space point independently; correlation
splits are taken relative to an arbitrary joint kernel, mirroring the quantum
construction with phase-space points in the role of pure components.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .correlation import CorrelationReport, split_report
from .errors import SpaceMismatch, UnknownLabel, ValidationError
from .measure import DiscreteMeasure, OutcomeSpace, ProductSpace, product
from .tolerance import validation_eps

__all__ = [
    "PhaseSpace",
    "ClassicalObservable",
    "ClassicalJoint",
    "apply",
    "is_deterministic",
    "classical_joint",
    "is_marginally_consistent",
    "classical_report",
]


@dataclass(frozen=True)
class PhaseSpace(OutcomeSpace):
    """Finite classical phase space; points double as labels for states."""


class ClassicalObservable:
    """Stochastic kernel from a phase space to an outcome space.

    `kernel` maps every phase-space point to a probability measure on the
    codomain (given either as a DiscreteMeasure or as a plain mapping).
    """

    __slots__ = ("_domain", "_codomain", "_kernel", "_matrix")

    def __init__(self, domain: PhaseSpace, codomain, kernel: Mapping):
        rows = {}
        for point, row in dict(kernel).items():
            if point not in domain:
                raise UnknownLabel(f"kernel row at {point!r} is not a phase-space point")
            if isinstance(row, DiscreteMeasure):
                if row.space != codomain:
                    raise SpaceMismatch(f"kernel row at {point!r} lives on the wrong space")
            else:
                row = DiscreteMeasure(codomain, row)
            rows[point] = row
        missing = [p for p in domain.labels if p not in rows]
        if missing:
            raise ValidationError(f"kernel is missing rows for {missing!r}")
        self._domain = domain
        self._codomain = codomain
        self._kernel = {p: rows[p] for p in domain.labels}
        self._matrix = np.array([rows[p].as_array() for p in domain.labels])
        self._matrix.setflags(write=False)

    @property
    def domain(self) -> PhaseSpace:
        return self._domain

    @property
    def codomain(self):
        return self._codomain

    @property
    def kernel(self) -> Mapping[str, DiscreteMeasure]:
        return MappingProxyType(self._kernel)

    @property
    def matrix(self) -> np.ndarray:
        """Kernel rows stacked in phase-space order: points x outcomes."""
        return self._matrix

    def row(self, point) -> DiscreteMeasure:
        if point not in self._kernel:
            raise UnknownLabel(f"{point!r} is not a phase-space point")
        return self._kernel[point]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._domain)} points -> "
            f"{len(self._codomain.outcomes)} outcomes)"
        )


class ClassicalJoint(ClassicalObservable):
    """A classical observable whose codomain is a product space."""

    def __init__(self, domain, codomain, kernel):
        if not isinstance(codomain, ProductSpace):
            raise ValidationError("a classical joint needs a product-space codomain")
        super().__init__(domain, codomain, kernel)


def apply(observable: ClassicalObservable, state: DiscreteMeasure) -> DiscreteMeasure:
    """Push a phase-space state through the kernel: the outcome statistics.

    Affine in the state; at a Dirac state it returns the kernel row itself.
    """
    if state.space != observable.domain:
        raise SpaceMismatch("state does not live on the observable's phase space")
    return DiscreteMeasure.from_array(observable.codomain, state.as_array() @ observable.matrix)


def is_deterministic(observable: ClassicalObservable) -> bool:
    """Whether every kernel row is a point mass (within validation tolerance)."""
    return bool((observable.matrix.max(axis=1) >= 1.0 - validation_eps()).all())


def classical_joint(a1: ClassicalObservable, a2: ClassicalObservable) -> ClassicalJoint:
    """The canonical product joint: per phase-space point, measure both
    observables independently.

    For deterministic observables this is the only marginally consistent
    joint with deterministic rows; for fuzzy observables other joints exist.
    """
    if a1.domain != a2.domain:
        raise SpaceMismatch("observables live on different phase spaces")
    codomain = ProductSpace(a1.codomain, a2.codomain)
    kernel = {
        point: product(a1.row(point), a2.row(point))
        for point in a1.domain.labels
    }
    return ClassicalJoint(a1.domain, codomain, kernel)


def is_marginally_consistent(
    joint: ClassicalJoint, a1: ClassicalObservable, a2: ClassicalObservable
) -> bool:
    """Whether the joint kernel's rowwise marginals reproduce both observables."""
    if joint.domain != a1.domain or joint.domain != a2.domain:
        return False
    if not isinstance(joint.codomain, ProductSpace):
        return False
    if joint.codomain.left != a1.codomain or joint.codomain.right != a2.codomain:
        return False
    rows = joint.matrix.reshape(len(joint.domain), len(a1.codomain), len(a2.codomain))
    gaps = np.abs(rows.sum(axis=2) - a1.matrix), np.abs(rows.sum(axis=1) - a2.matrix)
    return bool(max(gap.max() for gap in gaps) <= validation_eps())


def _require_product_codomain(
    joint: ClassicalJoint, a1: ClassicalObservable, a2: ClassicalObservable
) -> None:
    if joint.domain != a1.domain or joint.domain != a2.domain:
        raise SpaceMismatch("joint and observables live on different phase spaces")
    if joint.codomain != ProductSpace(a1.codomain, a2.codomain):
        raise SpaceMismatch("joint codomain is not the product of the observable codomains")


def classical_report(
    joint: ClassicalJoint,
    a1: ClassicalObservable,
    a2: ClassicalObservable,
    state: DiscreteMeasure,
) -> CorrelationReport:
    """The full classical split at `state`, the one `run_scenario` reports.

    Phase-space points play the pure components: the state's weights mix the
    kernel rows into the classical product, the canonical joint's statistics.
    rho_c is constant 1 at every Dirac state; rho_e can still differ from 1
    there, when the chosen joint correlates outcomes beyond the product
    coupling. Marginal consistency of the joint is not required; an
    inconsistent joint can escape the product's support, in which case rho_t
    fails with AbsoluteContinuityViolation.
    """
    _require_product_codomain(joint, a1, a2)
    measures = apply(joint, state), apply(a1, state), apply(a2, state)
    return split_report(*measures, state.as_array(), a1.matrix, a2.matrix, "canonical")
