import numpy as np
import pytest

from qcorr import (
    ConvexDecomposition,
    DensityOperator,
    DimensionMismatch,
    OutcomeSpace,
    Povm,
    PureState,
    ValidationError,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    random_decomposition,
    spectral_decompose,
)
from conftest import DOWN, UP


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


def test_density_matrix_is_readonly():
    state = DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 5.0


def test_hermitian_eigenvalues_ascending():
    values = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0])


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
    (hermitian_eigenvalues, "matrix"),
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
