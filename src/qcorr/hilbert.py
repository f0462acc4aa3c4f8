"""Finite-dimensional complex linear algebra for states and operators.

Operators are plain complex numpy arrays; the classes here validate their
defining invariants once, at construction, and are immutable afterwards.
The tensor convention is row-major Kronecker order: for two qubits the
product basis is ordered (up,up), (up,down), (down,up), (down,down).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
    ValidationError,
)
from .measure import _number, _number_array
from .tolerance import EPS, RECONSTRUCTION_TOL, validation_eps

__all__ = [
    "PureState",
    "DensityOperator",
    "ConvexDecomposition",
    "hermitian_eigenvalues",
    "hermitian_eigensystem",
    "spectral_decompose",
    "random_decomposition",
]


def _as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """`value` as a fresh finite non-empty square complex matrix; anything
    else raises ValidationError."""
    arr = _number_array(value, name, f"{name} must be a square matrix", complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _hermitian_deviation(arr: np.ndarray) -> float:
    return _max_abs(arr - arr.conj().T)


class PureState:
    """A unit vector of C^d, identified with the rank-one state it spans."""

    __slots__ = ("_vector",)

    def __init__(self, vector):
        expected = "state vector must be one-dimensional"
        arr = _number_array(vector, "state vector", expected, complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"{expected}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("state vector contains non-finite entries")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > validation_eps():
            raise ValidationError(f"state vector norm is {norm!r}, expected 1")
        arr.setflags(write=False)
        self._vector = arr

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    @property
    def dim(self) -> int:
        return self._vector.shape[0]

    def projector(self) -> np.ndarray:
        """The rank-one projector onto this state."""
        return np.outer(self._vector, self._vector.conj())

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


class DensityOperator:
    """Positive Hermitian matrix of unit trace describing a possibly mixed state."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        arr = _as_complex_matrix(matrix, name="density matrix")
        eps = validation_eps()
        deviation = _hermitian_deviation(arr)
        if deviation > eps:
            raise ValidationError(
                f"density matrix is not Hermitian (max deviation {deviation:.3e})"
            )
        trace = complex(np.trace(arr)).real
        if abs(trace - 1.0) > eps:
            raise ValidationError(f"density matrix trace is {trace!r}, expected 1")
        smallest = float(_smallest_eigenvalues(arr[None], eps)[0])
        if smallest < -eps:
            raise ValidationError(
                f"density matrix has negative eigenvalue {smallest:.3e}"
            )
        arr.setflags(write=False)
        self._matrix = arr

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityOperator":
        """The rank-one density operator of a pure state."""
        return cls(state.projector())

    @classmethod
    def from_mixture(
        cls, components: Iterable[tuple[float, PureState]]
    ) -> "DensityOperator":
        """The density operator sum(w_i |psi_i><psi_i|) of a weighted family."""
        components = [_component(entry) for entry in components]
        if not components:
            raise ValidationError("mixture needs at least one component")
        dim = components[0][1].dim
        total = np.zeros((dim, dim), dtype=complex)
        for weight, state in components:
            if state.dim != dim:
                raise DimensionMismatch(
                    f"mixture mixes dimensions {dim} and {state.dim}"
                )
            total += weight * state.projector()
        return cls(total)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def purity(self) -> float:
        """Tr(D^2); equals 1 exactly when the state is pure."""
        return float(np.trace(self._matrix @ self._matrix).real)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, purity={self.purity():.6g})"


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending; solver failures surface
    as ConvergenceFailure."""
    arr = _as_complex_matrix(matrix)
    try:
        return np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


# Rounding allowance of the Cholesky certificate, in units of machine epsilon
# per dimension and per unit of trace (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 10, with a wide margin).
_CHOLESKY_SLACK = 64 * np.finfo(float).eps

# Below this much work (matrices x d^3) eigvalsh costs no more than the
# certificate; every d = 4 object is such a stack.
_CERTIFY_FROM_WORK = 1 << 10


def _smallest_eigenvalues(stack: np.ndarray, eps: float) -> np.ndarray:
    """What the PSD verdict `smallest >= -eps` needs of each matrix in a
    (k, d, d) stack: its smallest eigenvalue, or a certified bound above -eps.

    Only the lower triangles are read, by both routes, so both see the same
    Hermitian H. The certificate factors H + (eps/2) I by Cholesky. When that
    succeeds and the factorisation's backward-error allowance, which grows
    with d and the largest |trace|, is at most eps/4, no H has an eigenvalue
    below -3 eps/4, and that bound is returned. Otherwise, and for stacks too
    small for the certificate to pay, `eigvalsh` computes the smallest
    eigenvalues, and its failure surfaces as ConvergenceFailure; large d at a
    tiny eps always takes this route.
    """
    count, dim, _ = stack.shape
    if count * dim**3 < _CERTIFY_FROM_WORK:
        return _eigvalsh_smallest(stack)
    trace = np.abs(np.trace(stack, axis1=1, axis2=2).real).max()
    if _CHOLESKY_SLACK * (dim + 1) * (trace + dim * eps / 2) <= eps / 4:
        try:
            np.linalg.cholesky(stack + (eps / 2) * np.eye(dim))
        except np.linalg.LinAlgError:
            pass  # not certified; eigvalsh decides
        else:
            return np.full(count, -0.75 * eps)
    return _eigvalsh_smallest(stack)


def _eigvalsh_smallest(stack: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(stack)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def hermitian_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    Returns
    -------
    (values, vectors)
        `values[i]` belongs to the column `vectors[:, i]`. Within a
        degenerate eigenspace the basis choice is solver dependent.
    """
    arr = _as_complex_matrix(matrix)
    deviation = _hermitian_deviation(arr)
    if deviation > validation_eps():
        raise NonHermitianInput(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    try:
        values, vectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return values[::-1].copy(), vectors[:, ::-1].copy()


_PAIRS = "decomposition components must be (weight, PureState) pairs"


def _component(entry) -> tuple[float, PureState]:
    """One (weight, PureState) pair of a mixture, its weight as a float."""
    try:
        weight, state = entry
    except (TypeError, ValueError):
        raise ValidationError(_PAIRS) from None
    if not isinstance(state, PureState):
        raise ValidationError(_PAIRS)
    return _number(weight, "decomposition weight"), state


class ConvexDecomposition:
    """A convex mixture of pure states realizing a target density operator.

    The target admits, in general, many such decompositions; statistics that
    depend on the decomposition must be read relative to it. Weights are
    strictly positive, sum to one, and the weighted projectors rebuild the
    target entrywise within the reconstruction tolerance.
    """

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

    @classmethod
    def from_components(
        cls, components: Iterable[tuple[float, PureState]]
    ) -> "ConvexDecomposition":
        """Decomposition whose target is the mixture of the components."""
        components = list(components)
        return cls(components, DensityOperator.from_mixture(components))

    @property
    def components(self) -> tuple[tuple[float, PureState], ...]:
        return self._components

    @property
    def target(self) -> DensityOperator:
        return self._target

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self._components)

    def reconstruction(self) -> np.ndarray:
        """sum(w_i |psi_i><psi_i|) as a fresh matrix."""
        vectors = np.array([s.vector for _, s in self._components])
        return (vectors.T * self.weights) @ vectors.conj()

    def __len__(self) -> int:
        return len(self._components)

    def __repr__(self) -> str:
        return f"ConvexDecomposition(size={len(self)}, dim={self._target.dim})"


def spectral_decompose(state: DensityOperator) -> ConvexDecomposition:
    """Eigen-decomposition of a density operator as a pure-state mixture.

    Eigenvalues at or below the support epsilon are dropped, the rest are
    sorted descending. The dropped mass is spread over the kept components in
    proportion, so the weights still sum to the trace. This is one convex
    decomposition among many; for a degenerate spectrum even the eigenbasis
    itself is not unique.
    """
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
    """A random convex decomposition of `state` into about `size` components.

    Mixes the spectral components through a random isometry, which by
    construction realizes exactly the same operator. Useful for exploring how
    decomposition-relative statistics move while the state stays fixed.
    `size` must be at least the rank of the state; components whose weight
    underflows are dropped.
    """
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
