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

import numpy as np

from .correlation import CorrelationReport, split_report
from .errors import SpaceMismatch, UnknownLabel, ValidationError
from .measure import (
    DiscreteMeasure,
    OutcomeSpace,
    ProductSpace,
    _checked_weights,
    _derived,
    _number,
    _number_array,
    _position,
)
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
    """Stochastic kernel from a phase space to an outcome space, held as one
    row-stochastic points x outcomes matrix.

    `kernel` maps every phase-space point to a probability measure on the
    codomain (given either as a DiscreteMeasure or as a plain mapping);
    `from_matrix` takes the rows already stacked in phase-space order.
    """

    __slots__ = ("_domain", "_codomain", "_matrix")

    def __init__(self, domain: PhaseSpace, codomain, kernel: Mapping):
        self._check_codomain(codomain)
        matrix = np.zeros((len(domain), len(codomain)))
        given = np.zeros(len(domain), dtype=bool)
        for point, row in dict(kernel).items():
            if point not in domain:
                raise UnknownLabel(f"kernel row at {point!r} is not a phase-space point")
            index = domain.index[point]
            if isinstance(row, DiscreteMeasure):
                if row.space != codomain:
                    raise SpaceMismatch(f"kernel row at {point!r} lives on the wrong space")
                matrix[index] = row.as_array()
            else:
                for outcome, value in dict(row).items():
                    position = _position(codomain, outcome)
                    matrix[index, position] = _number(value, f"weight at {outcome!r}")
                _checked_weights(codomain, matrix[index], validation_eps())
            given[index] = True
        missing = [p for p, g in zip(domain.labels, given) if not g]
        if missing:
            raise ValidationError(f"kernel is missing rows for {missing!r}")
        self._set(domain, codomain, matrix)

    @classmethod
    def from_matrix(cls, domain: PhaseSpace, codomain, matrix) -> "ClassicalObservable":
        """Observable whose kernel rows are the rows of `matrix`, in
        phase-space order (row-major outcomes for product codomains)."""
        cls._check_codomain(codomain)
        shape = (len(domain), len(codomain))
        array = _number_array(matrix, "kernel matrix", f"kernel matrix must have shape {shape}")
        if array.shape != shape:
            raise ValidationError(f"kernel matrix must have shape {shape}, got {array.shape}")
        _checked_weights(codomain, array, validation_eps())
        observable = cls.__new__(cls)
        observable._set(domain, codomain, array)
        return observable

    @staticmethod
    def _check_codomain(codomain) -> None:
        """Hook for subclasses that restrict the codomain."""

    def _set(self, domain: PhaseSpace, codomain, matrix: np.ndarray) -> None:
        matrix.setflags(write=False)
        self._domain, self._codomain, self._matrix = domain, codomain, matrix

    @property
    def domain(self) -> PhaseSpace:
        return self._domain

    @property
    def codomain(self):
        return self._codomain

    @property
    def matrix(self) -> np.ndarray:
        """Kernel rows stacked in phase-space order: points x outcomes, read-only."""
        return self._matrix

    def row(self, point) -> DiscreteMeasure:
        """The held kernel row at `point`, as checked when the observable was
        built (or derived from checked rows), not checked again."""
        if point not in self._domain:
            raise UnknownLabel(f"{point!r} is not a phase-space point")
        return _derived(DiscreteMeasure, self._codomain, self._matrix[self._domain.index[point]])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._domain)} points -> "
            f"{len(self._codomain.outcomes)} outcomes)"
        )


class ClassicalJoint(ClassicalObservable):
    """A classical observable whose codomain is a product space."""

    @staticmethod
    def _check_codomain(codomain) -> None:
        if not isinstance(codomain, ProductSpace):
            raise ValidationError("a classical joint needs a product-space codomain")


def apply(observable: ClassicalObservable, state: DiscreteMeasure) -> DiscreteMeasure:
    """Push a phase-space state through the kernel: the outcome statistics.

    Affine in the state; at a Dirac state it returns the kernel row itself.
    """
    if state.space != observable.domain:
        raise SpaceMismatch("state does not live on the observable's phase space")
    statistics = _pushed(state.as_array(), observable.matrix)
    return _derived(DiscreteMeasure, observable.codomain, statistics)


def _pushed(weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The statistics `weights` (n,) @ `matrix` (n, k) of a kernel at a state,
    or of each of a batch, (B, n) and (B, n, k): one vector-matrix product
    per state, as `matmul` takes a stack of them."""
    return (weights[..., None, :] @ matrix)[..., 0, :]


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
    joint = ClassicalJoint.__new__(ClassicalJoint)
    # products of validated rows: held without re-testing their sums
    joint._set(a1.domain, codomain, _product_rows(a1.matrix, a2.matrix))
    return joint


def _product_rows(rows_1: np.ndarray, rows_2: np.ndarray) -> np.ndarray:
    """The canonical joint's rows (n, k1 k2), row-major, of the kernel rows
    (n, k1) and (n, k2), or of each of a batch along the same leading axes."""
    pairs = rows_1[..., :, None] * rows_2[..., None, :]
    return pairs.reshape(pairs.shape[:-2] + (-1,))


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
    fails with AbsoluteContinuityViolation. The split is canonical, so it
    reports no decomposition size.
    """
    _require_product_codomain(joint, a1, a2)
    measures = apply(joint, state), apply(a1, state), apply(a2, state)
    return split_report(*measures, state.as_array(), a1.matrix, a2.matrix, "canonical")
