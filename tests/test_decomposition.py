"""Convex decompositions held as one weight array and one row matrix.

`spectral_decompose`, `random_decomposition` and the two constructors are
compared bit for bit against `decomposition_oracle`, which keeps a PureState
per component, under three `QCORR_EPS` settings: the same weights and
vectors, or the same exception type and message.
"""

import gc

import numpy as np
import pytest

from qcorr import (
    ConvexDecomposition,
    DensityOperator,
    PureState,
    QcorrError,
    ValidationError,
    correlation_report,
    random_decomposition,
    scenario_from_jsonable,
    spectral_decompose,
)
from qcorr.tolerance import EPS, validation_eps
from conftest import DOWN, UP
import decomposition_oracle

# QCORR_EPS settings every comparison runs under (None: unset)
EPS_SETTINGS = [None, "1e-10", "1e-6"]

DIMS = [2, 4, 9, 16, 36, 64]  # 64: the full QR rounds apart from a reduced one
KINDS = ["full-rank", "rank-deficient", "just-below-eps"]


@pytest.fixture(params=EPS_SETTINGS, ids=lambda v: f"QCORR_EPS={v}")
def qcorr_eps(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", request.param)
    return request.param


def _outcome(build):
    """The decomposition `build()` returns, or the type and message of its error."""
    try:
        return build()
    except QcorrError as exc:
        return type(exc), str(exc)


def _bits(array) -> tuple:
    array = np.asarray(array)
    return array.dtype, array.shape, array.tobytes()


def assert_same(build, build_oracle):
    got, want = _outcome(build), _outcome(build_oracle)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    weights, vectors = decomposition_oracle.arrays(want)
    assert _bits(got.weights) == _bits(weights)
    assert _bits(got.vectors) == _bits(vectors)
    assert got.target is want._target
    return got


def _state(dim: int, kind: str, seed: int) -> DensityOperator:
    """A seeded density operator of the given kind: Ginibre full rank, rank
    about d/3, or full rank with a third of its eigenvalues just below EPS."""
    rng = np.random.default_rng([seed, dim, KINDS.index(kind)])
    if kind == "just-below-eps":
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary, _ = np.linalg.qr(g)
        small = dim // 3 or 1
        values = np.concatenate(
            [np.full(small, 0.9 * EPS), rng.uniform(0.5, 1.5, dim - small)]
        )
        values[small:] *= (1.0 - values[:small].sum()) / values[small:].sum()
        matrix = (unitary * values) @ unitary.conj().T
        return DensityOperator((matrix + matrix.conj().T) / 2.0)
    cols = dim if kind == "full-rank" else max(1, dim // 3)
    g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    matrix = g @ g.conj().T
    return DensityOperator(matrix / np.trace(matrix).real)


# the array form against the PureState-per-component oracle ------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", DIMS)
def test_spectral_decompose_matches_oracle(qcorr_eps, dim, kind):
    state = _state(dim, kind, seed=1)
    assert_same(
        lambda: spectral_decompose(state),
        lambda: decomposition_oracle.spectral_decompose(state),
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("size", ["rank", "2d"])
def test_random_decomposition_matches_oracle(qcorr_eps, dim, kind, size):
    state = _state(dim, kind, seed=2)
    count = len(spectral_decompose(state)) if size == "rank" else 2 * dim
    for seed in range(3):
        dec = assert_same(
            lambda: random_decomposition(state, count, np.random.default_rng(seed)),
            lambda: decomposition_oracle.random_decomposition(
                state, count, np.random.default_rng(seed)
            ),
        )
        assert dec is not None and len(dec) == count


class _Draws:
    """Stands in for a Generator: `normal` returns the next values of the
    given arrays, taken in order, in the shape asked for, as a Generator's
    stream would, whether one call or two draw them."""

    def __init__(self, *arrays):
        self._stream = np.concatenate([array.ravel() for array in arrays])

    def normal(self, size):
        count = int(np.prod(size))
        assert count <= self._stream.size
        values, self._stream = self._stream[:count], self._stream[count:]
        return values.reshape(size)


@pytest.mark.parametrize("scale", [0.0, 1e-7, 1e-6, 2e-6, 1e-5])
def test_random_decomposition_drops_underflowing_weights_like_the_oracle(qcorr_eps, scale):
    """An isometry close to the first columns of the identity leaves rows
    whose weight is about scale**2, on both sides of the 1e-12 cut."""
    state = _state(6, "rank-deficient", seed=3)
    rank = len(spectral_decompose(state))
    size = rank + 4
    noise = np.random.default_rng(4).normal(size=(2, size, size))
    real, imag = np.eye(size) + scale * noise[0], scale * noise[1]
    dec = assert_same(
        lambda: random_decomposition(state, size, _Draws(real, imag)),
        lambda: decomposition_oracle.random_decomposition(state, size, _Draws(real, imag)),
    )
    assert rank <= len(dec) <= size
    if scale <= 1e-7:
        assert len(dec) == rank


def test_random_and_spectral_build_no_pure_state(monkeypatch):
    state = _state(9, "full-rank", seed=5)

    def refuse(self, vector):
        raise AssertionError("a PureState was built")

    monkeypatch.setattr(PureState, "__init__", refuse)
    assert len(spectral_decompose(state)) == 9
    assert len(random_decomposition(state, 18, np.random.default_rng(0))) == 18


# _from_rows, the public constructor and the oracle agree on bad input --------


def _rows_cases(eps: float):
    """(weights, rows, target) cases; the faults come in the parent's order of
    checks: rows, then weights and dimension, then size, sum, reconstruction."""
    half = DensityOperator(np.eye(2) / 2.0)
    nan_row = [np.nan, 0.0]
    cases = {
        "valid": ([0.5, 0.5], [UP, DOWN], half),
        "nan-row": ([0.5, 0.5], [UP, nan_row], half),
        "inf-row-after-off-norm-row": ([0.5, 0.5], [2 * UP, [np.inf, 0.0]], half),
        "nan-row-and-zero-weight": ([0.0, 1.0], [UP, nan_row], half),
        "zero-weight": ([0.0, 1.0], [UP, DOWN], half),
        "nan-weight": ([0.5, np.nan], [UP, DOWN], half),
        "negative-then-inf-weight": ([-0.5, np.inf], [UP, DOWN], half),
        "wrong-dimension": ([0.5, 0.5], [[1, 0, 0], [0, 1, 0]], half),
        "wrong-dimension-zero-first-weight": ([0.0, 1.0], [[1, 0, 0], [0, 1, 0]], half),
        "wrong-dimension-zero-second-weight": ([1.0, 0.0], [[1, 0, 0], [0, 1, 0]], half),
        "empty": ([], np.zeros((0, 2)), half),
        "off-sum": ([0.5, 0.4], [UP, DOWN], half),
        "not-reconstructing": ([0.5, 0.5], [UP, UP], half),
        "off-sum-and-not-reconstructing": ([0.6, 0.6], [UP, UP], half),
    }
    rng = np.random.default_rng(9)
    dense = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    for k in (0.5, 0.999, 1.001, 1.5, 3.0):
        for sign in (1, -1):
            off = 1 + sign * k * eps
            cases[f"norm-{sign * k}-eps"] = ([0.5, 0.5], [UP, off * DOWN], half)
            # a dense row's norm, printed in full, shows its last bits
            cases[f"dense-norm-{sign * k}-eps"] = ([0.5, 0.5], [dense[0], off * dense[1]], half)
    for k in (0.5, 1.5):
        cases[f"sum-off-by-{k}-eps"] = ([0.5, 0.5 + k * eps], [UP, DOWN], half)
    return cases


CASE_NAMES = list(_rows_cases(EPS))


@pytest.mark.parametrize("case", CASE_NAMES)
def test_from_rows_and_constructor_keep_the_oracle_precedence(qcorr_eps, case):
    weights, rows, target = _rows_cases(validation_eps())[case]

    def from_rows():
        return ConvexDecomposition._from_rows(
            np.array(weights, dtype=float), np.array(rows, dtype=complex), target
        )

    def constructor():
        components = [(weight, PureState(row)) for weight, row in zip(weights, rows)]
        return ConvexDecomposition(components, target)

    def oracle():
        return decomposition_oracle.from_rows(weights, rows, target)

    assert_same(from_rows, oracle)
    assert_same(constructor, oracle)


def _pairs(matrix) -> list:
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


# a file's vectors have the scenario's dimension
FILE_CASE_NAMES = [
    name
    for name, (_, rows, target) in _rows_cases(EPS).items()
    if np.shape(rows)[1] == target.dim
]


@pytest.mark.parametrize("case", FILE_CASE_NAMES)
def test_file_decomposition_keeps_the_per_component_errors(qcorr_eps, case):
    """A file decomposition is checked in one batch, with the outcome and
    the first error, field path included, of one PureState per component
    built as it parses and then the public constructor."""
    weights, rows, target = _rows_cases(validation_eps())[case]
    rows = np.array(rows, dtype=complex).reshape(len(weights), 2)
    effects = [_pairs(np.diag([1.0, 0.0])), _pairs(np.diag([0.0, 1.0]))]
    doc = {
        "schema": "qcorr/1",
        "name": "rows",
        "mode": "quantum",
        "dim": 2,
        "state": _pairs(target.matrix),
        "observables": [{"labels": ["u", "d"], "effects": effects}] * 2,
        "decompositions": {
            "d": [{"weight": w, "vector": _pairs(row)} for w, row in zip(weights, rows)]
        },
    }

    def per_component():
        components = []
        for i, (weight, row) in enumerate(zip(weights, rows)):
            try:
                components.append((weight, PureState(row)))
            except ValidationError as exc:
                raise ValidationError(f"decompositions['d'][{i}].vector: {exc}") from None
        try:
            return ConvexDecomposition(components, target)
        except ValidationError as exc:
            raise ValidationError(f"decompositions['d']: {exc}") from None

    got = _outcome(lambda: scenario_from_jsonable(doc).decompositions["d"])
    want = _outcome(per_component)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert _bits(got.vectors) == _bits(want.vectors)
        assert got.weights == want.weights


def test_rows_cases_reach_every_check():
    outcomes = [
        _outcome(lambda: decomposition_oracle.from_rows(*case))
        for case in _rows_cases(EPS).values()
    ]
    messages = " | ".join(o[1] for o in outcomes if isinstance(o, tuple))
    for check in (
        "non-finite entries",
        "norm is",
        "must be positive",
        "component dimension",
        "at least one component",
        "weights sum to",
        "does not reconstruct",
    ):
        assert check in messages


# the arrays and the pairs read from them ------------------------------------


def test_arrays_are_read_only_for_both_constructors():
    state = _state(4, "full-rank", seed=6)
    spectral = spectral_decompose(state)
    built = ConvexDecomposition(spectral.components, state)
    for dec in (spectral, built):
        assert not dec.vectors.flags.writeable
        assert not dec._weights.flags.writeable
        with pytest.raises(ValueError):
            dec.vectors[0, 0] = 0.0
        assert isinstance(dec.weights, tuple)
        assert all(type(w) is float for w in dec.weights)


def test_components_round_trip_through_from_components():
    state = _state(9, "rank-deficient", seed=7)
    dec = random_decomposition(state, 12, np.random.default_rng(8))
    components = dec.components
    assert [w for w, _ in components] == list(dec.weights)
    for (_, pure), row in zip(components, dec.vectors):
        assert isinstance(pure, PureState) and pure.dim == 9
        assert _bits(pure.vector) == _bits(row)
        assert not pure.vector.flags.writeable
    again = ConvexDecomposition.from_components(components)
    assert _bits(again.weights) == _bits(dec.weights)
    assert _bits(again.vectors) == _bits(dec.vectors)
    oracle = DensityOperator.from_mixture(
        decomposition_oracle.random_decomposition(state, 12, np.random.default_rng(8)).components
    )
    assert _bits(again.target.matrix) == _bits(oracle.matrix)


def _state_with_a_negative_eigenvalue_within_eps() -> DensityOperator:
    """Eigenvalues (0.5, 0.3, 0.2 + 5e-7, -5e-7) in the two-qubit Hadamard
    basis: valid at QCORR_EPS=1e-6, where -5e-7 is rounding noise."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    basis = np.kron(h, h)
    return DensityOperator(basis @ np.diag([0.5, 0.3, 0.2 + 5e-7, -5e-7]) @ basis.T)


def test_a_negative_eigenvalue_within_eps_is_a_valid_state(monkeypatch):
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    assert _state_with_a_negative_eigenvalue_within_eps().dim == 4


@pytest.mark.xfail(
    strict=True,
    raises=ValidationError,
    reason="ROADMAP item 2: the spectral decomposition drops the -5e-7 eigenvalue "
    "and misses the state by 2e-7, beyond RECONSTRUCTION_TOL",
)
def test_a_state_valid_at_a_relaxed_eps_has_a_spectral_report(monkeypatch, spin_pair):
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    state = _state_with_a_negative_eigenvalue_within_eps()
    a1, a2, joint = spin_pair
    assert correlation_report(joint, a1, a2, state).decomposition_source == "spectral"


# one eigensolve per state and validation eps --------------------------------


def test_a_state_solves_its_spectral_decomposition_once(qcorr_eps, monkeypatch, spin_pair):
    state = _state(4, "rank-deficient", seed=10)
    solve, calls = np.linalg.eigh, []

    def counting(matrix):
        calls.append(None)
        return solve(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    first, second = spectral_decompose(state), spectral_decompose(state)
    shuffled = random_decomposition(state, 6, np.random.default_rng(11))
    a1, a2, joint = spin_pair
    report = correlation_report(joint, a1, a2, state)
    assert len(calls) == 1
    monkeypatch.undo()
    assert first is not second and second.target is state
    assert report.decomposition_size == len(first)
    assert _bits(second.weights) == _bits(first.weights)
    assert _bits(second.vectors) == _bits(first.vectors)
    assert_same(lambda: second, lambda: decomposition_oracle.spectral_decompose(state))
    assert_same(
        lambda: shuffled,
        lambda: decomposition_oracle.random_decomposition(state, 6, np.random.default_rng(11)),
    )


def _state_with_trace_off_within_eps() -> DensityOperator:
    """Eigenvalues (0.5, 0.3, 0.2 + 5e-7, 0) in the two-qubit Hadamard basis:
    a trace of 1 + 5e-7, valid at QCORR_EPS=1e-6 only."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    basis = np.kron(h, h)
    return DensityOperator(basis @ np.diag([0.5, 0.3, 0.2 + 5e-7, 0.0]) @ basis.T)


# state builder, then whether it decomposes at QCORR_EPS=1e-6 and unset
RELAXED_STATES = {
    "full-rank": (lambda: _state(4, "full-rank", seed=12), True, True),
    "trace-off-within-eps": (_state_with_trace_off_within_eps, True, False),
    "negative-eigenvalue-within-eps": (
        _state_with_a_negative_eigenvalue_within_eps,
        False,
        False,
    ),
}


@pytest.mark.parametrize("case", RELAXED_STATES)
def test_a_decomposition_kept_at_one_eps_is_not_returned_at_another(case, monkeypatch):
    build, relaxed_ok, default_ok = RELAXED_STATES[case]
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    state = build()
    fresh = DensityOperator(state.matrix)
    relaxed = _outcome(lambda: spectral_decompose(state))
    monkeypatch.delenv("QCORR_EPS")
    got = _outcome(lambda: spectral_decompose(state))
    want = _outcome(lambda: spectral_decompose(fresh))
    assert (not isinstance(relaxed, tuple)) == relaxed_ok
    assert (not isinstance(want, tuple)) == default_ok
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _bits(got.weights) == _bits(want.weights)
        assert _bits(got.vectors) == _bits(want.vectors)


def test_a_state_and_its_decompositions_leave_no_reference_cycle():
    rng = np.random.default_rng(13)
    gc.collect()
    gc.disable()
    try:
        state = _state(6, "full-rank", seed=13)
        spectral = spectral_decompose(state)
        shuffled = random_decomposition(state, 8, rng)
        assert state._spectral is not None
        del state, spectral, shuffled
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("size", [4.0, True, "5", None, np.float64(5.0), np.bool_(True)])
def test_random_decomposition_rejects_a_size_that_is_not_an_integer(size):
    state = DensityOperator(np.eye(4) / 4)
    with pytest.raises(ValidationError) as excinfo:
        random_decomposition(state, size, np.random.default_rng(0))
    assert str(excinfo.value) == f"size must be an integer, got {type(size).__name__}"


@pytest.mark.parametrize("size", [np.int64(6), np.int32(6), np.uint8(6)])
def test_random_decomposition_takes_numpy_integer_sizes(size):
    state = DensityOperator(np.eye(4) / 4)
    got = random_decomposition(state, size, np.random.default_rng(5))
    want = random_decomposition(state, 6, np.random.default_rng(5))
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.weights == want.weights
