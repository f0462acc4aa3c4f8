"""Reference oracle: convex decompositions as a tuple of PureStates.

This is `qcorr.hilbert` as it ran before a decomposition was held as one
weight array and one row matrix: `ConvexDecomposition` validated and kept a
`(weight, PureState)` pair per component, `spectral_decompose` built one
`PureState` per kept eigenvector, and `random_decomposition` mixed the
scaled eigenvectors one isometry row at a time, with `vdot` for the weight
and a `PureState` per kept row. Tests compare the package against these.
"""

import math
from collections.abc import Iterable

import numpy as np

from qcorr import DensityOperator, DimensionMismatch, PureState, ValidationError
from qcorr.hilbert import _component, _max_abs, hermitian_eigensystem
from qcorr.tolerance import EPS, RECONSTRUCTION_TOL, validation_eps


class ConvexDecomposition:
    __slots__ = ("_components", "_target")

    def __init__(self, components: Iterable[tuple[float, PureState]], target: DensityOperator):
        comps = []
        for entry in components:
            weight, state = _component(entry)
            if not math.isfinite(weight) or weight <= 0.0:
                raise ValidationError(f"decomposition weight {weight!r} must be positive")
            if state.dim != target.dim:
                raise DimensionMismatch(
                    f"component dimension {state.dim} does not match target dimension {target.dim}"
                )
            comps.append((weight, state))
        if not comps:
            raise ValidationError("decomposition needs at least one component")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > validation_eps():
            raise ValidationError(f"decomposition weights sum to {total!r}, expected 1")
        self._components = tuple(comps)
        self._target = target
        error = _max_abs(self.reconstruction() - target.matrix)
        if error > RECONSTRUCTION_TOL:
            raise ValidationError(
                f"decomposition does not reconstruct the target state (max entry error {error:.3e})"
            )

    @property
    def components(self) -> tuple[tuple[float, PureState], ...]:
        return self._components

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self._components)

    def reconstruction(self) -> np.ndarray:
        vectors = np.array([s.vector for _, s in self._components])
        return (vectors.T * self.weights) @ vectors.conj()

    def __len__(self) -> int:
        return len(self._components)


def spectral_decompose(state: DensityOperator) -> ConvexDecomposition:
    values, vectors = hermitian_eigensystem(state.matrix)
    kept = values > EPS
    weights = values[kept] * (values.sum() / values[kept].sum())
    components = [
        (float(weight), PureState(vector)) for weight, vector in zip(weights, vectors.T[kept])
    ]
    return ConvexDecomposition(components, state)


def random_decomposition(
    state: DensityOperator, size: int, rng: np.random.Generator
) -> ConvexDecomposition:
    spectral = spectral_decompose(state)
    rank = len(spectral)
    if size < rank:
        raise ValidationError(f"size {size} is below the state rank {rank}")
    ginibre = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    basis, _ = np.linalg.qr(ginibre)
    isometry = basis[:, :rank]
    scaled = np.stack(
        [math.sqrt(w) * s.vector for w, s in spectral.components]
    )  # rank x dim
    components = []
    for row in isometry:
        vector = row @ scaled
        weight = float(np.real(np.vdot(vector, vector)))
        if weight > 1e-12:
            components.append((weight, PureState(vector / math.sqrt(weight))))
    return ConvexDecomposition(components, state)


def from_rows(weights, rows, target: DensityOperator) -> ConvexDecomposition:
    """What building one PureState per row and then the decomposition did,
    as `spectral_decompose` and `random_decomposition` above do."""
    components = [(float(weight), PureState(row)) for weight, row in zip(weights, rows)]
    return ConvexDecomposition(components, target)


def arrays(decomposition) -> tuple[np.ndarray, np.ndarray]:
    """The weights and the stacked component vectors of an oracle decomposition."""
    vectors = np.array([state.vector for _, state in decomposition.components])
    return np.array(decomposition.weights), vectors
