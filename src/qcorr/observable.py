"""POVM observables on finite-dimensional systems.

Covers the trace rule (outcome statistics of an observable at a state), the
product joint of commuting projective observables, the marginal-consistency
check, and the standard two-qubit spin pair.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import DimensionMismatch, NonCommuting, NotProjective, ValidationError
from .hilbert import (
    DensityOperator,
    _as_complex_matrix,
    _eigensystem,
    _exceeds,
    _kron,
    _max_abs,
    _smallest_eigenvalues,
)
from .measure import DiscreteMeasure, OutcomeSpace, ProductSpace, _derived, _position
from .tolerance import DEGENERACY_TOL, validation_eps

__all__ = [
    "Povm",
    "outcome_measure",
    "joint_from_commuting",
    "check_joint",
    "spin_z_pair",
    "SPIN_LABELS",
]

SPIN_LABELS = ("+1/2", "-1/2")

# Rounding allowance of a complex matrix product, in units of machine epsilon
# per dimension: each entry of fl(AB) for d x d factors is within
# _PRODUCT_SLACK (d + 2) times the product of its row of A and column of B
# in 2-norm (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and
# 3.6, with a wide margin).
_PRODUCT_SLACK = 64 * np.finfo(float).eps

# Complex entries of F - F^H the commutation certificate forms at a time
# (512 KB, one row of the grid at d = 64 with 8 outcomes a side).
_GAP_BLOCK = 1 << 15


class Povm:
    """Positive-operator-valued measure with finitely many outcomes.

    Parameters
    ----------
    space : OutcomeSpace or ProductSpace
        Outcome labels; joints live on product spaces.
    effects : mapping
        One positive matrix per outcome. The effects must share a dimension
        and sum to the identity within the validation tolerance.

    Whether the measure is projective (a PVM) is detected numerically from
    the effects, never declared: every effect must be idempotent and distinct
    effects must annihilate each other, all within the validation tolerance
    in force when the observable was built.
    """

    __slots__ = ("_space", "_stack", "_dim", "_eps", "_factors", "_skew")

    def __init__(self, space, effects: Mapping):
        eps = validation_eps()
        outcomes = tuple(space.outcomes)
        table = {}
        for outcome, matrix in dict(effects).items():
            key = outcomes[_position(space, outcome)]
            table[key] = _as_complex_matrix(matrix, name=f"effect at {outcome!r}")
        missing = [o for o in outcomes if o not in table]
        if missing:
            raise ValidationError(f"effects must cover the space exactly (missing {missing!r})")
        matrices = [table[o] for o in outcomes]
        dim = matrices[0].shape[0]
        fitting = next((i for i, m in enumerate(matrices) if m.shape[0] != dim), len(matrices))
        if fitting < len(matrices):
            # the effects before the first misfit are checked first
            _check_effects(outcomes, np.stack(matrices[:fitting]), eps)
            raise DimensionMismatch(
                f"effect at {outcomes[fitting]!r} has dimension "
                f"{matrices[fitting].shape[0]}, expected {dim}"
            )
        self._adopt(space, np.stack(matrices), eps)

    @classmethod
    def _from_stack(cls, space, stack: np.ndarray) -> "Povm":
        """Observable whose effects are the (k, d, d) complex `stack`, one per
        outcome of `space` in its order; takes ownership of `stack`. Runs the
        same checks as the mapping constructor."""
        povm = cls.__new__(cls)
        povm._adopt(space, stack, validation_eps())
        return povm

    def _adopt(self, space, stack: np.ndarray, eps: float) -> None:
        """Validate `stack` at `eps` and keep it: the one validation path of
        both constructors."""
        skew = _check_povm(tuple(space.outcomes), stack, eps)
        dim = stack.shape[1]
        stack.setflags(write=False)
        self._space = space
        self._stack = stack
        self._dim = dim
        self._eps = eps
        self._factors = None
        self._skew = skew

    @classmethod
    def from_operator(cls, operator, labels=None) -> "Povm":
        """Projective observable of a self-adjoint operator.

        Eigenvalues closer than the degeneracy tolerance are merged into one
        outcome whose effect is the projector onto the combined eigenspace.
        Outcomes are ordered by descending eigenvalue; `labels` may rename
        them (one label per distinct eigenvalue) and default to the formatted
        eigenvalues.
        """
        matrix = _as_complex_matrix(operator, name="operator")
        values, vectors = _eigensystem(matrix, "operator", validation_eps())
        groups: list[tuple[float, list[int]]] = []
        for index, value in enumerate(values):
            if groups and abs(groups[-1][0] - value) <= DEGENERACY_TOL:
                groups[-1][1].append(index)
            else:
                groups.append((float(value), [index]))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(groups):
                raise ValidationError(
                    f"{len(labels)} labels given for {len(groups)} distinct eigenvalues"
                )
        else:
            raw = [f"{value:.9g}" for value, _ in groups]
            labels = tuple(
                name if raw.count(name) == 1 else f"{name}#{i}"
                for i, name in enumerate(raw)
            )
        space = OutcomeSpace(labels)
        blocks = [vectors[:, indices] for _, indices in groups]
        return cls._from_stack(space, np.stack([block @ block.conj().T for block in blocks]))

    @property
    def space(self):
        return self._space

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def is_projective(self) -> bool:
        """Decided from the effects on each read; only the factors of a
        product joint need the verdict."""
        return _pairwise_projective(self._stack, self._eps)

    @property
    def effects(self) -> Mapping:
        return dict(zip(self._space.outcomes, self._stack))

    def effect(self, outcome) -> np.ndarray:
        return self._stack[_position(self._space, outcome)]

    def born_rows(self, vectors: np.ndarray) -> np.ndarray:
        """Outcome statistics <v|E(x)|v> (n x k) of the unit vectors stacked
        as the rows of `vectors` (n x dim)."""
        return _born_rows(self._stack, vectors)

    def __repr__(self) -> str:
        kind = "PVM" if self.is_projective else "POVM"
        return f"Povm({kind}, dim={self._dim}, outcomes={len(self._stack)})"


def _born_rows(stack: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v|E(x)|v> (n, k) of the rows of `vectors` (n, d) for the effects of
    `stack` (k, d, d), or of a batch of both along the same leading axes."""
    applied = stack @ vectors.mT[..., None, :, :]  # k x dim x n
    return np.einsum("...na,...kan->...nk", vectors.conj(), applied).real


def _trace_rule(stack: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Tr(E(x) D) (k,) for the effects of `stack` (k, d, d) at the matrix D,
    or (B, k) at each of a batch (B, d, d), of one stack or of a stack each
    (B, k, d, d), one matrix at a time: a batched einsum sums otherwise."""
    if matrix.ndim > 2:
        stacks = np.broadcast_to(stack, matrix.shape[:1] + stack.shape[-3:])
        return np.array([_trace_rule(*pair) for pair in zip(stacks, matrix)])
    return np.einsum("kab,ba->k", stack, matrix).real


def _check_effects(outcomes: tuple, stack: np.ndarray, eps: float) -> float:
    """Raise for the first outcome whose effect in the (k, d, d) `stack` is
    not finite, then for the first that is not Hermitian or not PSD; return
    the largest |Re| or |Im| of any entry of any skew E - E^H. The stack may
    also hold several observables' effects one after another, (n k, d, d):
    an error then names the outcome of the first offending effect."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        index = int(finite.argmin()) % len(outcomes)
        raise ValidationError(f"effect at {outcomes[index]!r} contains non-finite entries")
    skew = stack - np.conjugate(stack.transpose(0, 2, 1), order="C")
    largest = float(np.abs(skew.view(np.float64)).max())
    # the magnitudes are taken only when some effect is off Hermitian
    if _exceeds(skew, eps, largest):
        deviation = np.abs(skew).max(axis=(1, 2))
    else:
        deviation = np.zeros(len(stack))
    smallest = _smallest_eigenvalues(stack, eps)
    offending = np.flatnonzero((deviation > eps) | (smallest < -eps))
    if offending.size:
        index = offending[0]
        outcome = outcomes[index % len(outcomes)]
        if deviation[index] > eps:
            raise ValidationError(
                f"effect at {outcome!r} is not Hermitian "
                f"(max deviation {deviation[index]:.3e})"
            )
        raise ValidationError(
            f"effect at {outcome!r} is not positive semidefinite "
            f"(eigenvalue {smallest[index]:.3e})"
        )
    return largest


def _check_povm(outcomes: tuple, stack: np.ndarray, eps: float) -> float:
    """`Povm`'s validation of the effects (k, d, d), or of every observable
    of a batch (..., k, d, d): `_check_effects`, whose skew bound it
    returns, then a raise for the first `_completeness_fault`."""
    skew = _check_effects(outcomes, stack.reshape((-1,) + stack.shape[-2:]), eps)
    fault = _completeness_fault(stack, eps)
    if fault is not None:
        raise ValidationError(fault)
    return skew


def _completeness_fault(stack: np.ndarray, eps: float) -> str | None:
    """Why `Povm` rejects the effects of the (k, d, d) `stack`, or of every
    stack in a batch (..., k, d, d), at eps: the first whose effects sum
    off the identity by more than eps; None when every sum is within."""
    gap = np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1]))
    if gap.max() > eps:
        for deviation in gap.reshape(-1, gap.shape[-1] ** 2).max(axis=1).tolist():
            if deviation > eps:
                return f"effects do not sum to the identity (max deviation {deviation:.3e})"
    return None


def _pairwise_projective(stack: np.ndarray, eps: float) -> bool:
    """Every max |E_i E_j - δ_ij E_i| within eps, for the effects of the
    (k, d, d) `stack` or of every stack in a batch (..., k, d, d): each
    effect is multiplied by the effects from it onward in one batched
    product."""
    effects = stack.swapaxes(0, -3)  # the effects first, any batch after them
    for i, effect in enumerate(effects):
        products = effect @ effects[i:]
        products[0] -= effect
        if _exceeds(products, eps):
            return False
    return True


def outcome_measure(observable: Povm, state: DensityOperator) -> DiscreteMeasure:
    """Outcome statistics of `observable` at `state` via the trace rule.

    The weight of each outcome is Tr(E(outcome) D); the result is a
    probability measure on the observable's outcome space. Affine in the
    state.
    """
    if observable.dim != state.dim:
        raise DimensionMismatch(
            f"observable dimension {observable.dim} does not match state dimension {state.dim}"
        )
    weights = _trace_rule(observable._stack, state.matrix)
    return _derived(DiscreteMeasure, observable.space, weights)


def joint_from_commuting(a1: Povm, a2: Povm) -> Povm:
    """Product joint of two commuting projective observables.

    The joint effect at (x1, x2) is E1(x1) E2(x2). Both inputs must be PVMs
    on simple outcome spaces and every pair of effects must commute; a joint
    observable is not guaranteed to exist otherwise.
    """
    for name, a in (("first", a1), ("second", a2)):
        if isinstance(a.space, ProductSpace):
            raise ValidationError(f"{name} observable must live on a simple outcome space")
        if not a.is_projective:
            raise NotProjective(f"{name} observable is not projective")
    if a1.dim != a2.dim:
        raise DimensionMismatch(
            f"observable dimensions differ: {a1.dim} vs {a2.dim}"
        )
    eps = validation_eps()
    dim = a1.dim
    products = _forward_products(a1._stack, a2._stack)
    if not _commutation_certified(a1._stack, a1._skew, a2._stack, a2._skew, products, eps):
        _check_commutation(a1.space.labels, a1._stack, a2.space.labels, a2._stack, products, eps)
    # the products are derived from validated factors and kept unchecked, as
    # measure._derived keeps derived measures: the commutation test is the
    # joint's only gate. Their sum is the product of the factors' sums, and
    # for projectors P, Q the Hermitian part of PQ has no eigenvalue below
    # -||[P, Q]||_2 / 2 (Halmos's two-subspace blocks), so a re-check at eps
    # could only reject valid factors. Their marginals are E1(x) times the
    # sum of E2, which is within eps of the identity, so the joint keeps its
    # pair and `check_joint` does not re-sum it against that pair.
    stack = products.reshape(-1, dim, dim)
    stack.setflags(write=False)
    joint = Povm.__new__(Povm)
    joint._space = ProductSpace(a1.space, a2.space)
    joint._stack = stack
    joint._dim = dim
    joint._eps = eps
    joint._factors = (a1, a2)
    joint._skew = math.inf  # never measured: a joint is not a factor
    return joint


def _forward_products(stack1: np.ndarray, stack2: np.ndarray) -> np.ndarray:
    """E1(x) E2(y) (k1, k2, ..., d, d) of the effect stacks `stack1`
    (k1, ..., d, d) and `stack2` (k2, ..., d, d), where ... is an optional
    batch of pairs after the effect axis, one row E1(x) E2 of the grid at a
    time: one product of the whole grid is slower at large d."""
    products = np.empty((len(stack1),) + stack2.shape, dtype=complex)
    for x, effect in enumerate(stack1):
        np.matmul(effect, stack2, out=products[x])
    return products


def _commutation_certified(
    stack1: np.ndarray,
    skew1: float,
    stack2: np.ndarray,
    skew2: float,
    products: np.ndarray,
    eps: float,
) -> bool:
    """Whether a rounding bound proves that `_check_commutation` passes on
    the forward products `products` (k1, k2, d, d) of the effect stacks
    `stack1` (k1, d, d) and `stack2` (k2, d, d), whose validation kept the
    skews `skew1` and `skew2` (`Povm._skew`), without computing a reverse
    product. For a batch of pairs, stacks (..., k, d, d) and the products of
    every pair in any order (n, m, d, d), with the skews of whole batches,
    it certifies every pair: the bound of each is within the batch's.

    For exactly Hermitian factors E2 E1 = (E1 E2)^H, so the computed gap
    fl(E2 E1) - fl(E1 E2) differs from F - F^H, F = fl(E1 E2), by at most

        delta = 2 gamma N1 N2 + sqrt(d) (s2 N1 + s1 N2),

    where gamma = _PRODUCT_SLACK (d + 2) bounds the rounding of both
    products, N1 and N2 bound every row and column 2-norm of the two stacks,
    and s1 and s2 bound every |E - E^H| entry of the two factors (1.5 times
    the largest |Re| or |Im| that validation kept). With m the largest |Re|
    or |Im| of any computed F - F^H, 1.5 m + delta <= eps/2 proves every
    |fl(E2 E1) - fl(E1 E2)| within eps/2, so the exact test passes. The
    certificate also asks delta <= eps/4. Anything else, a NaN included,
    is not certified, and the exact test decides, as it does wherever a
    tiny eps and a large d put delta above eps/4.
    """
    dim = stack1.shape[-1]
    s1, s2 = 1.5 * skew1, 1.5 * skew2
    n1, n2 = _line_norm_bound(stack1, s1), _line_norm_bound(stack2, s2)
    delta = 2 * _PRODUCT_SLACK * (dim + 2) * n1 * n2 + math.sqrt(dim) * (s2 * n1 + s1 * n2)
    if not delta <= eps / 4:
        return False
    # F - F^H a block of rows at a time, in one reused buffer: a transposed
    # copy of a whole large grid costs as much as the reverse products
    step = max(1, _GAP_BLOCK // products[0].size)
    buffer = np.empty_like(products[:step])
    for start in range(0, len(products), step):
        rows = products[start : start + step]
        gap = buffer[: len(rows)]
        np.conjugate(rows.swapaxes(2, 3), out=gap)
        np.subtract(rows, gap, out=gap)
        parts = gap.view(np.float64)
        np.abs(parts, out=parts)
        if not 1.5 * parts.max() + delta <= eps / 2:
            return False
    return True


def _line_norm_bound(stack: np.ndarray, skew: float) -> float:
    """A bound on the 2-norm of every row and column of every matrix in the
    complex `stack`, whose skews E - E^H have no entry above `skew`: a
    column of E is a row of E^H = E - (E - E^H), so it is within sqrt(d)
    skew of a row of E."""
    squares = np.vecdot(stack, stack).real  # each row's sum of |entry|^2
    return math.sqrt(squares.max()) + math.sqrt(stack.shape[-1]) * skew


def _check_commutation(
    labels1: tuple, stack1: np.ndarray, labels2: tuple, stack2: np.ndarray, products, eps: float
) -> None:
    """The exact commutation test: raise NonCommuting for the first effect
    pair, row by row, whose computed fl(E2 E1) - fl(E1 E2) has an entry
    above eps in magnitude, against the forward products `products`
    (k1, k2, ..., d, d) of the effect stacks `stack1` (k1, ..., d, d) and
    `stack2` (k2, ..., d, d), labelled `labels1` and `labels2`; ... is an
    optional batch of pairs, whose largest gap the message gives."""
    for l1, left, row in zip(labels1, stack1, products):
        reverse = stack2 @ left
        reverse -= row
        if _exceeds(reverse, eps):
            gaps = np.abs(reverse).max(axis=tuple(range(1, reverse.ndim)))
            index = np.flatnonzero(gaps > eps)[0]
            raise NonCommuting(
                f"effects at {l1!r} and {labels2[index]!r} do not commute "
                f"(max deviation {gaps[index]:.3e})"
            )


def check_joint(joint: Povm, a1: Povm, a2: Povm) -> bool:
    """Whether `joint` has `a1` and `a2` as its marginals.

    A joint that `joint_from_commuting` built from these very objects has
    them as marginals by construction and passes without a re-sum. Any other
    joint returns False (never raises) on space or dimension mismatch, or
    when a marginal effect differs from the corresponding observable's effect
    beyond tolerance.
    """
    factors = joint._factors
    if factors is not None and factors[0] is a1 and factors[1] is a2:
        return True
    if not isinstance(joint.space, ProductSpace):
        return False
    if joint.space.left != a1.space or joint.space.right != a2.space:
        return False
    if joint.dim != a1.dim or joint.dim != a2.dim:
        return False
    grid = joint._stack.reshape(len(a1._stack), len(a2._stack), joint.dim, joint.dim)
    gap = max(_max_abs(grid.sum(axis=1) - a1._stack), _max_abs(grid.sum(axis=0) - a2._stack))
    return gap <= validation_eps()


def spin_z_pair() -> tuple[Povm, Povm, Povm]:
    """The two-qubit spin observables along z and their product joint.

    Returns (a1, a2, joint): a1 measures the first qubit, a2 the second,
    both with outcome labels "+1/2" and "-1/2"; the joint is the product PVM
    on the four outcome pairs, row-major.
    """
    projectors = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    eye = np.eye(2, dtype=complex)
    space = OutcomeSpace(SPIN_LABELS)
    a1 = Povm._from_stack(space, _kron(projectors, eye))
    a2 = Povm._from_stack(space, _kron(eye, projectors))
    return a1, a2, joint_from_commuting(a1, a2)
