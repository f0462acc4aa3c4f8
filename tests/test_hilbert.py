import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    ConvexDecomposition,
    DensityOperator,
    DimensionMismatch,
    OutcomeSpace,
    Povm,
    PureState,
    ValidationError,
    hermitian_eigensystem,
    random_decomposition,
    spectral_decompose,
)
from qcorr.hilbert import _exceeds, _kron
from qcorr.observable import _check_effects, _pairwise_projective
from conftest import DOWN, UP


def _signed_zero_operands(rng, shape):
    """A complex array whose real and imaginary parts mix 0.0 and -0.0 with
    random values."""
    size = (2, *shape)
    zeros = rng.choice([0.0, -0.0], size=size)
    parts = np.where(rng.random(size) < 0.6, zeros, rng.normal(size=size))
    operand = np.empty(shape, dtype=complex)
    operand.real, operand.imag = parts
    return operand


@pytest.mark.parametrize("seed", range(40))
def test_kron_stack_has_the_bits_of_np_kron(seed):
    rng = np.random.default_rng(seed)
    stack, single = _signed_zero_operands(rng, (3, 2, 2)), _signed_zero_operands(rng, (2, 2))
    left, right = _signed_zero_operands(rng, (5, 2)), _signed_zero_operands(rng, (5, 2))
    cases = [
        (_kron(stack, single), [np.kron(m, single) for m in stack]),
        (_kron(single, stack), [np.kron(single, m) for m in stack]),
        (_kron(stack, stack[::-1]), [np.kron(a, b) for a, b in zip(stack, stack[::-1])]),
        (_kron(left, right, core=1), [np.kron(a, b) for a, b in zip(left, right)]),
        (_kron(stack.transpose(0, 2, 1), single.T), [np.kron(m.T, single.T) for m in stack]),
        (
            _kron(left[::2], right[::-2], core=1),
            [np.kron(a, b) for a, b in zip(left[::2], right[::-2])],
        ),
    ]
    for got, want in cases:
        want = np.array(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_pure_state_rejects_unnormalized_vector():
    with pytest.raises(ValidationError):
        PureState([1.0, 1.0])
    state = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert state.dim == 2


def test_pure_state_rejects_matrix_and_empty():
    with pytest.raises(ValidationError):
        PureState(np.eye(2))
    with pytest.raises(ValidationError):
        PureState([])


def test_projector_is_rank_one():
    state = PureState(UP)
    proj = state.projector()
    np.testing.assert_allclose(proj, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(proj @ proj, proj)


def test_density_operator_validation():
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityOperator([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValidationError, match="eigenvalue"):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_operator_rejects_empty_matrix():
    with pytest.raises(ValidationError, match=r"density matrix must not be empty, got shape \(0, 0\)"):
        DensityOperator(np.zeros((0, 0)))


def test_density_operator_purity():
    pure = DensityOperator.from_pure(PureState(UP))
    assert pure.purity() == pytest.approx(1.0)
    mixed = DensityOperator(np.eye(2) / 2.0)
    assert mixed.purity() == pytest.approx(0.5)


def test_from_mixture_matches_manual_sum():
    components = [(0.25, PureState(UP)), (0.75, PureState(DOWN))]
    state = DensityOperator.from_mixture(components)
    np.testing.assert_allclose(state.matrix, np.diag([0.25, 0.75]))
    with pytest.raises(DimensionMismatch):
        DensityOperator.from_mixture(
            [(0.5, PureState(UP)), (0.5, PureState([0, 0, 1.0, 0]))]
        )


def _reference_mixture_sum(components):
    """The running sum of weighted projectors, one component at a time."""
    dim = components[0][1].dim
    total = np.zeros((dim, dim), dtype=complex)
    for weight, state in components:
        total += weight * state.projector()
    return total


def _random_mixture(rng, count, real):
    """`count` (weight, PureState) pairs at d = 4; real vectors have about
    half their entries past the first set to -0.0."""
    vectors = rng.normal(size=(count, 4))
    if real:
        zeros = rng.random((count, 4)) < 0.5
        zeros[:, 0] = False
        vectors[zeros] = -0.0
    else:
        vectors = vectors + 1j * rng.normal(size=(count, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    weights = rng.random(count) + 0.02
    return [(float(w), PureState(v)) for w, v in zip(weights / weights.sum(), vectors)]


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real-signed-zeros"])
@pytest.mark.parametrize("count", range(1, 17))
def test_from_mixture_has_the_bits_of_the_running_sum(count, real):
    negative_zeros = 0
    for seed in range(10):
        components = _random_mixture(np.random.default_rng(seed), count, real)
        got = DensityOperator.from_mixture(components).matrix
        want = _reference_mixture_sum(components)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        terms = np.array([w * state.projector() for w, state in components])
        negative_zeros += int(np.sum(np.signbit(terms.view(float)) & (terms.view(float) == 0)))
    if real:
        assert negative_zeros > 0  # the sum saw -0.0 terms


def test_from_mixture_checks_every_pair_before_the_dimensions():
    two, three, four = PureState(UP), PureState([0, 0, 1.0]), PureState([0, 0, 0, 1.0])
    pairs = r"must be \(weight, PureState\) pairs"
    with pytest.raises(ValidationError, match=pairs) as excinfo:
        DensityOperator.from_mixture([(0.5, two), (0.25, four), (0.25, [0, 1])])
    assert not isinstance(excinfo.value, DimensionMismatch)
    with pytest.raises(ValidationError, match="weight: expected a number, got 'a'"):
        DensityOperator.from_mixture([(0.5, two), (0.25, four), ("a", two)])
    with pytest.raises(DimensionMismatch) as excinfo:
        DensityOperator.from_mixture([(0.5, two), (0.25, three), (0.25, four)])
    assert str(excinfo.value) == "mixture mixes dimensions 2 and 3"


def test_density_matrix_is_readonly():
    state = DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 5.0


def test_hermitian_eigensystem_descending_and_orthonormal():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    matrix = g + g.conj().T
    values, vectors = hermitian_eigensystem(matrix)
    assert list(values) == sorted(values, reverse=True)
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(4), atol=1e-12)
    rebuilt = (vectors * values) @ vectors.conj().T
    np.testing.assert_allclose(rebuilt, matrix, atol=1e-12)


def test_convex_decomposition_validation():
    target = DensityOperator(np.diag([0.5, 0.5]))
    good = [(0.5, PureState(UP)), (0.5, PureState(DOWN))]
    dec = ConvexDecomposition(good, target)
    assert len(dec) == 2
    assert dec.weights == (0.5, 0.5)

    with pytest.raises(ValidationError, match="sum"):
        ConvexDecomposition([(0.5, PureState(UP)), (0.4, PureState(DOWN))], target)
    with pytest.raises(ValidationError, match="positive"):
        ConvexDecomposition([(1.0, PureState(UP)), (0.0, PureState(DOWN))], target)
    with pytest.raises(ValidationError, match="reconstruct"):
        ConvexDecomposition([(1.0, PureState(UP))], target)

    pairs = r"must be \(weight, PureState\) pairs"
    with pytest.raises(ValidationError, match=pairs):
        ConvexDecomposition([1.0], target)
    with pytest.raises(ValidationError, match=pairs):
        ConvexDecomposition([(0.5, UP), (0.5, PureState(DOWN))], target)
    with pytest.raises(ValidationError, match="weight: expected a number, got 'a'"):
        ConvexDecomposition([("a", PureState(UP)), (0.5, PureState(DOWN))], target)
    with pytest.raises(ValidationError, match=pairs):
        DensityOperator.from_mixture([(0.5, [1, 0]), (0.5, [0, 1])])
    with pytest.raises(ValidationError, match=pairs):
        DensityOperator.from_mixture([1.0])
    with pytest.raises(ValidationError, match="weight: expected a number, got 'a'"):
        DensityOperator.from_mixture([("a", PureState(UP))])


def test_spectral_decompose_recovers_target():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    matrix = g @ g.conj().T
    state = DensityOperator(matrix / np.trace(matrix).real)
    dec = spectral_decompose(state)
    np.testing.assert_allclose(dec.reconstruction(), state.matrix, atol=1e-10)
    # eigen-decomposition weights are the eigenvalues, descending
    assert list(dec.weights) == sorted(dec.weights, reverse=True)


def test_spectral_decompose_drops_null_eigenvalues():
    state = DensityOperator.from_pure(PureState(UP))
    dec = spectral_decompose(state)
    assert len(dec) == 1
    assert dec.weights[0] == pytest.approx(1.0)


def test_spectral_decompose_keeps_mass_of_dropped_eigenvalues():
    """Eigenvalues at or below EPS are dropped, but their mass must not push
    the weight sum out of tolerance for a valid state."""
    state = DensityOperator(np.diag([1 - 1.8e-9, 0.9e-9, 0.9e-9, 0.0]))
    dec = spectral_decompose(state)
    assert len(dec) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(dec.reconstruction(), state.matrix, atol=2e-9)


def test_random_decomposition_rebuilds_state_differently():
    rng = np.random.default_rng(17)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    matrix = g @ g.conj().T
    state = DensityOperator(matrix / np.trace(matrix).real)
    dec = random_decomposition(state, 6, rng)
    np.testing.assert_allclose(dec.reconstruction(), state.matrix, atol=1e-10)
    assert len(dec) == 6  # generic isometry rows all carry weight


def test_random_decomposition_rejects_size_below_rank():
    state = DensityOperator(np.eye(4) / 4.0)
    with pytest.raises(ValidationError, match="rank"):
        random_decomposition(state, 2, np.random.default_rng(0))


_BITS = OutcomeSpace(("0", "1"))

# (constructor of one matrix argument, the name its messages give that argument)
_MATRIX_CONSTRUCTORS = [
    (lambda m: Povm(_BITS, {"0": m, "1": np.eye(2)}), "effect at '0'"),
    (DensityOperator, "density matrix"),
    (Povm.from_operator, "operator"),
    (hermitian_eigensystem, "matrix"),
]


@pytest.mark.parametrize(
    "build, bad, message",
    [
        (build, [[1, 0], [0]], f"{name} must be a square matrix, got a ragged sequence")
        for build, name in _MATRIX_CONSTRUCTORS
    ]
    + [
        # the valid complex cell before it is not the one named
        (build, [[1j, 0], [0, "a"]], f"{name}[1][1]: expected a number, got 'a'")
        for build, name in _MATRIX_CONSTRUCTORS
    ]
    + [
        (PureState, [1, [0]], "state vector must be one-dimensional, got a ragged sequence"),
        (PureState, [1j, "a"], "state vector[1]: expected a number, got 'a'"),
    ],
)
def test_ragged_or_non_numeric_operator_input_is_a_validation_error(build, bad, message):
    with pytest.raises(ValidationError) as excinfo:
        build(bad)
    assert str(excinfo.value) == message


_THRESHOLD_EPS = (1e-12, 1e-9, 1e-6)


def _entry(eps: float, finite: bool):
    """A complex entry whose parts lie near the bounds `_exceeds` decides by:
    eps/√2, eps/1.5, eps and 1.5 eps, half of them nudged by up to 3 ulps, of
    either sign; or are signed zeros and subnormals and, unless `finite`,
    ±inf, NaN and the largest float. One entry in three has both parts at
    eps/√2 give or take 3 ulps, where |z| straddles eps."""

    def nudged(value, ulps):
        return value + ulps * math.ulp(value)

    ulps = st.integers(-3, 3)
    near = st.builds(
        lambda value, step, sign: sign * nudged(value, step),
        st.sampled_from([eps / math.sqrt(2.0), eps / 1.5, eps, 1.5 * eps]),
        st.one_of(st.just(0), ulps),
        st.sampled_from([1.0, -1.0]),
    )
    quiet = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310])
    part = st.one_of(quiet, near)
    if not finite:
        loud = st.sampled_from([math.inf, -math.inf, math.nan, -1.7976931348623157e308])
        part = st.one_of(part, loud)
    diagonal = st.tuples(ulps, ulps).map(
        lambda steps: tuple(nudged(eps / math.sqrt(2.0), step) for step in steps)
    )
    return st.one_of(st.tuples(part, part), st.tuples(quiet, near), diagonal)


def _stack(data, finite: bool = False):
    """eps and a (k, d, d) stack of `_entry`s, k and d from 1 to 3."""
    eps = data.draw(st.sampled_from(_THRESHOLD_EPS))
    k, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    size = k * d * d
    entries = data.draw(st.lists(_entry(eps, finite), min_size=size, max_size=size))
    return eps, np.array(entries).view(complex).reshape(k, d, d)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_exceeds_gives_numpys_verdict(data):
    eps, stack = _stack(data)
    assert _exceeds(stack, eps) is bool(np.abs(stack).max() > eps)


def _reference_projective(stack, eps) -> bool:
    for i, effect in enumerate(stack):
        products = effect @ stack[i:]
        products[0] -= effect
        if np.abs(products).max() > eps:
            return False
    return True


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_projectivity_and_hermiticity_near_the_threshold_decide_as_numpy(data):
    eps, stack = _stack(data, finite=True)
    projective = _pairwise_projective(stack, eps)
    assert projective == _reference_projective(stack, eps)
    # effects 1/2 + skew, skew drawn in the lower triangle: positive, and
    # Hermitian exactly when the skew is within eps
    effects = np.eye(stack.shape[1]) / 2 + np.tril(stack, -1)
    deviation = np.abs(effects - effects.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    outcomes = tuple(range(len(effects)))
    offending = np.flatnonzero(deviation > eps)
    if not offending.size:
        _check_effects(outcomes, effects, eps)
        return
    with pytest.raises(ValidationError) as excinfo:
        _check_effects(outcomes, effects, eps)
    index = offending[0]
    assert str(excinfo.value) == (
        f"effect at {outcomes[index]!r} is not Hermitian (max deviation {deviation[index]:.3e})"
    )
