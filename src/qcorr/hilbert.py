"""Finite-dimensional complex linear algebra for states and operators.

Operators are plain complex numpy arrays; the classes here validate their
defining invariants once, at construction, and are immutable afterwards.
The tensor convention is row-major Kronecker order: for two qubits the
product basis is ordered (up,up), (up,down), (down,up), (down,down).
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterable
from functools import cache

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
    ValidationError,
)
from .measure import _exact_sum, _integer, _number, _number_array
from .tolerance import EPS, RECONSTRUCTION_TOL, validation_eps

__all__ = [
    "PureState",
    "DensityOperator",
    "ConvexDecomposition",
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
    return float(np.abs(arr).max()) if arr.size else 0.0


def _hermitian_deviation(arr: np.ndarray) -> float:
    return _max_abs(arr - arr.conj().mT)


def _exceeds(arr: np.ndarray, eps: float, bound: float | None = None) -> bool:
    """`np.abs(arr).max() > eps` for the C-contiguous complex `arr`, decided
    where it can be on the float view of its real and imaginary parts.

    With m the largest |Re| or |Im|, m <= |z| <= sqrt(2) m holds for numpy's
    magnitudes too, which are within an ulp of the true ones: so m > eps
    proves some |z| > eps and 1.5 m <= eps proves none is. Only between the
    bounds, or with a NaN, are the magnitudes taken, so every verdict is
    numpy's. A caller that keeps m passes it as `bound`.
    """
    if bound is None:
        bound = np.abs(arr.view(np.float64)).max()
    if bound > eps:
        return True
    if bound * 1.5 <= eps:
        return False
    return bool(np.abs(arr).max() > eps)


def _kron(a: np.ndarray, b: np.ndarray, core: int = 2) -> np.ndarray:
    """`np.kron` of the last `core` axes of `a` and `b`, broadcast over their
    leading axes: a stack of products in one call. Like `np.kron`, it is one
    `multiply` of the interleaved operands and a reshape, so each product
    has `np.kron`'s bits."""
    lead_a, lead_b = a.ndim - core, b.ndim - core
    core_a, core_b = a.shape[lead_a:], b.shape[lead_b:]
    product = np.multiply(
        a.reshape(a.shape[:lead_a] + tuple(x for m in core_a for x in (m, 1))),
        b.reshape(b.shape[:lead_b] + tuple(x for p in core_b for x in (1, p))),
    )
    sizes = tuple(m * p for m, p in zip(core_a, core_b))
    return product.reshape(product.shape[: product.ndim - 2 * core] + sizes)


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


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row of the complex matrix `vectors`, with its
    bits: its own sum, on the same strided real and imaginary parts (a dot of
    contiguous rows may sum in another order)."""
    real, imag = vectors.real, vectors.imag
    return np.sqrt(np.vecdot(real, real) + np.vecdot(imag, imag))


def _unit_row_fault(vectors: np.ndarray, eps: float) -> tuple[int, str] | None:
    """The first row of `vectors` (n, d) that PureState rejects, with its
    message: a non-finite entry, or a norm off 1 by more than eps."""
    finite = np.isfinite(vectors).all(axis=1)
    norms = _row_norms(vectors)
    bad = ~finite | (np.abs(norms - 1.0) > eps)
    if not bad.any():
        return None
    row = int(bad.argmax())
    if not finite[row]:
        return row, "state vector contains non-finite entries"
    return row, f"state vector norm is {float(norms[row])!r}, expected 1"


class DensityOperator:
    """Positive Hermitian matrix of unit trace describing a possibly mixed state."""

    # _spectral: (eps, weights, vectors) of the spectral decomposition last
    # validated at that eps, or None; see `spectral_decompose`.
    # _statistics: (joint, a1, a2, their outcome measures) of the last
    # observables the state was reported against, or None; see
    # `_outcome_statistics`
    __slots__ = ("_matrix", "_spectral", "_statistics")

    def __init__(self, matrix):
        arr = _as_complex_matrix(matrix, name="density matrix")
        fault = _density_fault(arr[None], validation_eps())
        if fault is not None:
            raise ValidationError(fault)
        arr.setflags(write=False)
        self._matrix = arr
        self._spectral = None
        self._statistics = None

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
        for _, state in components:
            if state.dim != dim:
                raise DimensionMismatch(
                    f"mixture mixes dimensions {dim} and {state.dim}"
                )
        weights = np.array([weight for weight, _ in components])
        vectors = np.array([state.vector for _, state in components])
        return cls(_mixture_matrix(weights, vectors))

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def _outcome_statistics(self, joint, a1, a2, measure) -> tuple:
        """`measure(a, self)` for `a` in `joint`, `a1`, `a2`.

        The statistics depend on the state alone, not on a decomposition of
        it, so the state keeps those of the last three observables it was
        asked for, matched by identity: a report of another decomposition
        against the same objects reuses them without measuring again.
        """
        memo = self._statistics
        if memo is not None and memo[0] is joint and memo[1] is a1 and memo[2] is a2:
            return memo[3]
        measures = (measure(joint, self), measure(a1, self), measure(a2, self))
        self._statistics = (joint, a1, a2, measures)
        return measures

    def purity(self) -> float:
        """Tr(D^2); equals 1 exactly when the state is pure."""
        return float(np.trace(self._matrix @ self._matrix).real)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, purity={self.purity():.6g})"


# Rounding allowance of the Cholesky certificate, in units of machine epsilon
# per dimension and per unit of trace (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 10, with a wide margin).
_CHOLESKY_SLACK = 64 * np.finfo(float).eps

# Below this much work (matrices x d^3) eigvalsh costs no more than the
# certificate; every d = 4 object is such a stack.
_CERTIFY_FROM_WORK = 1 << 10

# From this much work (complex multiply-adds: matrices x d^3 for d x d
# products) `_in_halves` runs its two halves on two threads. Handing a half
# to the worker costs 0.1-0.3 ms. At one BLAS thread on 2 vCPUs, a split
# step below it gained at most 6% and lost up to 14% (the d = 49 Born rows
# of 98 vectors, 2^21.7, lost 9%), and every step from it gained 17-39% (the
# d = 64 Born rows of 64 vectors, 2^22, gained 24%). No step of two
# observables with sqrt(d) outcomes each reaches it at d <= 36.
_SPLIT_FROM_WORK = 1 << 22

# The one worker thread of `_in_halves` (a ThreadPoolExecutor), started at
# its first split under the lock. A pool made before os.fork() never runs
# work in the child, so the child drops it, and a fresh lock, as the parent
# may have held the old one.
_POOL = None
_POOL_LOCK = threading.Lock()


def _drop_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _one_blas_thread() -> bool:
    """Whether numpy's bundled OpenBLAS runs on one thread, read once per
    process. At more threads each product of a split step already runs on
    several CPUs, and the worker's products compete with them; a BLAS that
    reports no count (not the bundled OpenBLAS) counts as more than one."""
    # imported here, at the first step large enough to split, so that no
    # import of qcorr and no d <= 36 process pays for them
    import ctypes
    import glob

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            threads = getattr(library, symbol, None)
            if threads is not None:
                threads.restype = ctypes.c_int
                return threads() == 1
    return False


def _in_halves(first: Callable, second: Callable, work: int) -> tuple:
    """(first(), second()): `second` on the worker thread while the caller
    runs `first` when `work` reaches `_SPLIT_FROM_WORK`, the process may
    run on two CPUs and the BLAS runs on one thread (`_one_blas_thread`),
    otherwise one after the other. The halves must not write to the same
    memory; each makes the same numpy calls on either path, so the results
    are the same bits.

    The caller returns or raises only after both halves have finished, and
    an error keeps the serial order: one raised by `first` wins, as
    `second` would not have run."""
    global _POOL
    if work < _SPLIT_FROM_WORK or _cpus() < 2 or not _one_blas_thread():
        return first(), second()
    # imported here, so that a process which never splits (any at d <= 36)
    # does not pay for it and for logging at start-up
    from concurrent.futures import ThreadPoolExecutor, wait

    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=1)
        pool = _POOL
    future = pool.submit(second)
    try:
        one = first()
    finally:
        wait((future,))
    return one, future.result()


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


def _density_fault(stack: np.ndarray, eps: float) -> str | None:
    """Why `DensityOperator` rejects a matrix of the finite (n, d, d) complex
    `stack` at eps, or None when it takes them all. Each test runs on the
    whole stack in turn: the message is of the first matrix off Hermitian,
    else of the first whose trace is off 1, else of the first with an
    eigenvalue below -eps, which is only sought once every matrix passed
    the first two tests."""
    skew = np.abs(stack - stack.conj().swapaxes(1, 2))  # |D - D^H|, entrywise
    if skew.max() > eps:
        for deviation in skew.max(axis=(1, 2)).tolist():
            if deviation > eps:
                return f"density matrix is not Hermitian (max deviation {deviation:.3e})"
    for trace in np.trace(stack, axis1=1, axis2=2).real.tolist():
        if abs(trace - 1.0) > eps:
            return f"density matrix trace is {trace!r}, expected 1"
    for smallest in _smallest_eigenvalues(stack, eps).tolist():
        if smallest < -eps:
            return f"density matrix has negative eigenvalue {smallest:.3e}"
    return None


def hermitian_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    Returns
    -------
    (values, vectors)
        `values[i]` belongs to the column `vectors[:, i]`. Within a
        degenerate eigenspace the basis choice is solver dependent.
    """
    return _eigensystem(_as_complex_matrix(matrix), "matrix", validation_eps())


def _eigensystem(arr: np.ndarray, name: str, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """`hermitian_eigensystem` of the finite square `arr`, or of every matrix
    of a batch (B, d, d) in one `eigh`, checked Hermitian at `eps`."""
    deviation = _hermitian_deviation(arr)
    if deviation > eps:
        raise NonHermitianInput(f"{name} is not Hermitian (max deviation {deviation:.3e})")
    try:
        values, vectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return values[..., ::-1].copy(), vectors[..., ::-1].copy()


_PAIRS = "decomposition components must be (weight, PureState) pairs"


def _trusted_state(vector: np.ndarray) -> PureState:
    """A PureState around an already validated read-only unit vector."""
    state = PureState.__new__(PureState)
    state._vector = vector
    return state


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
    target entrywise within the reconstruction tolerance. The mixture is held
    as one read-only weight array (n,) and one read-only matrix (n, d) whose
    rows are the unit component vectors.
    """

    __slots__ = ("_weights", "_vectors", "_target")

    def __init__(self, components: Iterable[tuple[float, PureState]], target: DensityOperator):
        weights, vectors = [], []
        for entry in components:
            weight, state = _component(entry)
            if not math.isfinite(weight) or weight <= 0.0:
                raise ValidationError(f"decomposition weight {weight!r} must be positive")
            if state.dim != target.dim:
                raise DimensionMismatch(
                    f"component dimension {state.dim} does not match target dimension {target.dim}"
                )
            weights.append(weight)
            vectors.append(state.vector)
        self._adopt(np.array(weights), np.array(vectors), target, validation_eps(), _mixture_fault)

    @classmethod
    def _from_rows(
        cls, weights: np.ndarray, vectors: np.ndarray, target: DensityOperator
    ) -> "ConvexDecomposition":
        """Decomposition of fresh float `weights` (n,) and complex `vectors`
        (n, d), which it takes over. Runs the checks of building a PureState
        per row and then the public constructor, in that order, with the same
        messages: each row finite and of unit norm, then each weight positive
        and the dimension, then the size, the sum and the reconstruction."""
        eps = validation_eps()
        if len(weights) and vectors.shape[1] != target.dim:
            # the public constructor meets the first dimension before a later weight
            fault = _rows_fault(weights[None, :1], vectors[None], None, eps)
            if fault is not None:
                raise ValidationError(fault)
            raise DimensionMismatch(
                f"component dimension {vectors.shape[1]} does not match "
                f"target dimension {target.dim}"
            )
        decomposition = cls.__new__(cls)
        decomposition._adopt(weights, vectors, target, eps, _rows_fault)
        return decomposition

    def _adopt(
        self, weights: np.ndarray, vectors: np.ndarray, target: DensityOperator, eps: float, check
    ) -> None:
        """Check the size, then the arrays at eps with `check`, the fault
        helper of the constructor (`_mixture_fault` or `_rows_fault`), then
        hold them read-only."""
        if not len(weights):
            raise ValidationError("decomposition needs at least one component")
        fault = check(weights[None], vectors[None], target.matrix[None], eps)
        if fault is not None:
            raise ValidationError(fault)
        weights.setflags(write=False)
        vectors.setflags(write=False)
        self._weights, self._vectors, self._target = weights, vectors, target

    @classmethod
    def from_components(
        cls, components: Iterable[tuple[float, PureState]]
    ) -> "ConvexDecomposition":
        """Decomposition whose target is the mixture of the components."""
        components = list(components)
        return cls(components, DensityOperator.from_mixture(components))

    @property
    def components(self) -> tuple[tuple[float, PureState], ...]:
        """(weight, PureState) pairs, built on each read from the arrays."""
        return tuple(
            (weight, _trusted_state(vector))
            for weight, vector in zip(self._weights.tolist(), self._vectors)
        )

    @property
    def target(self) -> DensityOperator:
        return self._target

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(self._weights.tolist())

    @property
    def vectors(self) -> np.ndarray:
        """The unit component vectors as the rows of a read-only (n, d) matrix."""
        return self._vectors

    def reconstruction(self) -> np.ndarray:
        """sum(w_i |psi_i><psi_i|) as a fresh matrix."""
        return _reconstruction(self._weights, self._vectors)

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"ConvexDecomposition(size={len(self)}, dim={self._target.dim})"


def _mixture_matrix(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The matrix sum(w_i |psi_i><psi_i|) of `weights` (n,) and rows
    `vectors` (n, d), one outer product at a time, or of a batch of them
    along the same leading axes."""
    terms = weights[..., None, None] * (vectors[..., :, None] * vectors.conj()[..., None, :])
    # numpy sums over the component axis from +0.0 in component order, as
    # the running sum of one projector at a time did: the same bits
    return terms.sum(axis=-3)


def _reconstruction(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum(w_i |psi_i><psi_i|) of `weights` (n,) and unit rows `vectors`
    (n, d), or of a batch of them along the same leading axes."""
    return (vectors.mT * weights[..., None, :]) @ vectors.conj()


def _rows_fault(
    weights: np.ndarray, vectors: np.ndarray, targets, eps: float, real=None
) -> str | None:
    """Why `ConvexDecomposition._from_rows` rejects a mixture of a batch,
    weights (B, n) and rows (B, n, d), at eps, or None: the first row
    PureState rejects, else `_mixture_fault`."""
    fault = _unit_row_fault(vectors.reshape(-1, vectors.shape[-1]), eps)
    if fault is not None:
        return fault[1]
    return _mixture_fault(weights, vectors, targets, eps, real)


def _mixture_fault(
    weights: np.ndarray, vectors: np.ndarray, targets, eps: float, real=None
) -> str | None:
    """Why `ConvexDecomposition` rejects a mixture of a batch, weights
    (B, n), rows (B, n, d) and target matrices (B, d, d), at eps, or None
    when it takes them all: the first weight not positive, else (unless the
    targets are None) the first weight sum (exact, one `_exact_sum` per
    mixture) off 1, else the first reconstruction off its target. Mixtures
    of several sizes may be padded to one with zero weights on unit rows;
    the boolean `real` (B, n) then marks the components, the only weights
    that must be positive."""
    bad = ~np.isfinite(weights) | (weights <= 0.0)
    if real is not None:
        bad &= real
    if bad.any():
        return f"decomposition weight {float(weights.flat[bad.argmax()])!r} must be positive"
    if targets is None:
        return None
    for row in weights.tolist():
        total = _exact_sum(row)
        if abs(total - 1.0) > eps:
            return f"decomposition weights sum to {total!r}, expected 1"
    gap = np.abs(_reconstruction(weights, vectors) - targets)
    if gap.max() > RECONSTRUCTION_TOL:
        for error in gap.max(axis=(1, 2)).tolist():
            if error > RECONSTRUCTION_TOL:
                return (
                    "decomposition does not reconstruct the target state "
                    f"(max entry error {error:.3e})"
                )
    return None


def spectral_decompose(state: DensityOperator) -> ConvexDecomposition:
    """Eigen-decomposition of a density operator as a pure-state mixture.

    Eigenvalues at or below the support epsilon are dropped, the rest are
    sorted descending. The dropped mass is spread over the kept components in
    proportion, so the weights still sum to the trace. This is one convex
    decomposition among many; for a degenerate spectrum even the eigenbasis
    itself is not unique.

    The state keeps the arrays of its last decomposition with the validation
    eps they were checked at: a later call at that eps returns a new
    decomposition over them without solving again, and a call at another eps
    solves and checks afresh. A decomposition that fails is not kept.
    """
    eps = validation_eps()
    memo = state._spectral
    if memo is not None and memo[0] == eps:
        decomposition = ConvexDecomposition.__new__(ConvexDecomposition)
        decomposition._weights, decomposition._vectors = memo[1], memo[2]
        decomposition._target = state
        return decomposition
    decomposition = ConvexDecomposition._from_rows(*_spectral_split(state.matrix, eps), state)
    # the arrays, not the decomposition, which points back at the state
    state._spectral = (eps, decomposition._weights, decomposition._vectors)
    return decomposition


def _spectral_split(matrices: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray] | None:
    """`spectral_decompose`'s weights (n,) and C-contiguous unit rows (n, d)
    of the matrix (d, d), checked Hermitian at eps, or (B, n) and (B, n, d)
    of a batch (B, d, d) in one `eigh`. A batch of one drops eigenvalues as
    one matrix does; a larger batch that drops one gives None."""
    values, vectors = _eigensystem(matrices, "matrix", eps)
    rows = vectors.mT
    kept = values > EPS
    total = values.sum(axis=-1, keepdims=True)
    if kept.size == kept.shape[-1]:  # one matrix
        values, rows = values[..., kept.ravel()], rows[..., kept.ravel(), :]
    elif not kept.all():
        return None
    return values * (total / values.sum(axis=-1, keepdims=True)), np.ascontiguousarray(rows)


def random_decomposition(
    state: DensityOperator, size: int, rng: np.random.Generator
) -> ConvexDecomposition:
    """A random convex decomposition of `state` into about `size` components.

    Mixes the spectral components through a random isometry, which by
    construction realizes exactly the same operator. Useful for exploring how
    decomposition-relative statistics move while the state stays fixed.
    `size` must be an integer no smaller than the state's rank; components
    whose weight underflows are dropped.
    """
    spectral = spectral_decompose(state)
    rank = len(spectral)
    if _integer(size, "size") < rank:
        raise ValidationError(f"size {size} is below the state rank {rank}")
    draws = rng.normal(size=(2, size, size))
    mixture = _random_mixing(draws, spectral._weights, spectral.vectors)
    return ConvexDecomposition._from_rows(*mixture, state)


def _random_mixing(
    draws: np.ndarray, weights: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """`random_decomposition`'s mixture of the spectral components, `weights`
    (r,) and C-contiguous unit `vectors` (r, d), through the first r columns
    of the QR basis of the Ginibre matrix whose parts are `draws` (2, n, n):
    the weights (m,), each row's squared norm, and unit rows (m, d) of the
    components that weigh more than 1e-12. Every argument may carry one
    leading batch axis, with one QR and one product per matrix and the bits
    of each on its own. A batch of one drops components as one mixture
    does; a larger batch that drops one gives None."""
    basis, _ = np.linalg.qr(draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    isometry = basis[..., : weights.shape[-1]]
    scaled = np.sqrt(weights)[..., None] * vectors  # rank x dim
    # One row-by-row product per component, batched: a single GEMM would
    # round differently from the vector-matrix product of each row.
    rows = np.matmul(isometry[..., None, :], scaled[..., None, :, :])[..., 0, :]
    norms = np.vecdot(rows, rows).real
    kept = norms > 1e-12
    if kept.size == kept.shape[-1]:  # one mixture
        rows, norms = rows[..., kept.ravel(), :], norms[..., kept.ravel()]
    elif not kept.all():
        return None
    return norms, rows / np.sqrt(norms)[..., None]
