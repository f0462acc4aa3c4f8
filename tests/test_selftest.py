"""The selftest trial loop, its suite table and its input builders."""

import math
from collections import Counter

import numpy as np
import pytest

import qcorr.selftest
from qcorr import OutcomeSpace, Povm, SuiteResult, ValidationError, joint_from_commuting, run_selftest
from qcorr.classical_frame import ClassicalObservable, PhaseSpace
from qcorr.hilbert import DensityOperator
from qcorr.observable import SPIN_LABELS
from qcorr.selftest import _BINARY, _run_suite

TOL = 1e-7


@pytest.fixture(params=[None, "1e-10", "1e-6"])
def qcorr_eps(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", request.param)
    return request.param


def _fake_trial(deviations, seen):
    values = iter(deviations)

    def trial(rng):
        seen.append(rng)
        return next(values)

    return trial


def test_run_suite_counts_a_deviation_at_the_tolerance_as_a_failure():
    seen = []
    rng = np.random.default_rng(0)
    deviations = [math.nextafter(TOL, 0.0), TOL, 0.0]
    result = _run_suite("fake", TOL, _fake_trial(deviations, seen), rng, 3)
    assert result == SuiteResult("fake", 3, 1, TOL, TOL)
    assert not result.passed
    assert seen == [rng] * 3


def test_run_suite_reports_an_infinite_miss_as_the_worst_deviation():
    trial = _fake_trial([1e-9, math.inf, 0.0], [])
    result = _run_suite("fake", TOL, trial, np.random.default_rng(0), 3)
    assert result.max_deviation == math.inf
    assert result.failures == 1


def test_run_suite_folds_the_worst_deviation_from_zero():
    trial = _fake_trial([-2.0, -1.0], [])
    result = _run_suite("fake", TOL, trial, np.random.default_rng(0), 2)
    assert result == SuiteResult("fake", 2, 0, 0.0, TOL)
    assert result.passed


def test_spin_pair_is_built_once_per_run(monkeypatch):
    calls = []
    build = qcorr.selftest.spin_z_pair

    def counting():
        calls.append(None)
        return build()

    monkeypatch.setattr(qcorr.selftest, "spin_z_pair", counting)
    report = run_selftest(seed=3, trials=2)
    assert report.passed
    assert len(calls) == 1


# the input builders against their one-draw-at-a-time references ----------


def _random_unit(rng, dim):
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


def _reference_random_density(rng, dim):
    """The state matrix, drawn one Ginibre part at a time and validated."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = ginibre @ ginibre.conj().T
    return DensityOperator(matrix / np.trace(matrix).real).matrix


def _reference_random_simplex(rng, size, floor=0.0):
    weights = rng.random(size) + floor
    return weights / weights.sum()


def _reference_random_kernel(rng, points, outcomes):
    return np.array([_reference_random_simplex(rng, outcomes, floor=0.05) for _ in range(points)])


def _same_bits_and_stream(got, want, rng, reference_rng):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.random() == reference_rng.random()  # both left the stream alike


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("count", range(1, 17))
def test_random_units_draw_the_bits_of_one_unit_at_a_time(qcorr_eps, count, dim):
    for seed in range(20):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = qcorr.selftest._random_units(rng, count, dim)
        want = np.array([_random_unit(reference_rng, dim) for _ in range(count)])
        _same_bits_and_stream(got, want, rng, reference_rng)


@pytest.mark.parametrize("floor", [0.0, 0.02, 0.05])
@pytest.mark.parametrize("size", range(1, 17))
def test_random_simplex_keeps_the_bits_of_one_sum_per_row(size, floor):
    for seed in range(10):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = qcorr.selftest._random_simplex(rng, size, floor)
        want = _reference_random_simplex(reference_rng, size, floor)
        _same_bits_and_stream(got, want, rng, reference_rng)


@pytest.mark.parametrize("dim", [2, 4])
def test_random_density_draws_the_bits_of_two_ginibre_calls(qcorr_eps, dim):
    for seed in range(100):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = qcorr.selftest._random_density(rng, dim)
        want = _reference_random_density(reference_rng, dim)
        _same_bits_and_stream(got, want, rng, reference_rng)


@pytest.mark.parametrize("outcomes", [2, 4])
@pytest.mark.parametrize("points", range(1, 17))
def test_random_kernel_draws_the_bits_of_one_simplex_per_row(qcorr_eps, points, outcomes):
    phase = PhaseSpace(tuple(f"p{i}" for i in range(points)))
    codomain = OutcomeSpace(tuple(f"x{i}" for i in range(outcomes)))
    for seed in range(10):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = qcorr.selftest._random_kernel(rng, points, outcomes)
        want = _reference_random_kernel(reference_rng, points, outcomes)
        ClassicalObservable.from_matrix(phase, codomain, want)  # valid rows
        _same_bits_and_stream(got, want, rng, reference_rng)


def _reference_pvm_units(rng):
    """The qubit pair's two unit vectors, drawn one at a time."""
    return np.array([_random_unit(rng, 2), _random_unit(rng, 2)])


def _reference_qubit_effects(units):
    """The qubit pair's effect stacks, built with np.kron and the mapping
    constructor, or of each pair of a batch, one at a time."""
    if units.ndim > 2:
        pairs = [_reference_qubit_effects(pair) for pair in units]
        return tuple(np.array([pair[side] for pair in pairs]) for side in (0, 1))
    eye = np.eye(2, dtype=complex)
    left, right = units
    p = np.outer(left, left.conj())
    q = np.outer(right, right.conj())
    a1 = Povm(_BINARY, {"0": np.kron(p, eye), "1": np.kron(eye - p, eye)})
    a2 = Povm(_BINARY, {"0": np.kron(eye, q), "1": np.kron(eye, eye - q)})
    return a1._stack, a2._stack


def _reference_product_vectors(rng, count):
    """One np.kron of two random units per product vector."""
    return np.array(
        [np.kron(_random_unit(rng, 2), _random_unit(rng, 2)) for _ in range(count)]
    )


def _reference_spin_z_pair():
    """The spin pair built with one np.kron per effect."""
    projectors = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    eye = np.eye(2, dtype=complex)
    space = OutcomeSpace(SPIN_LABELS)
    a1 = Povm._from_stack(space, np.stack([np.kron(proj, eye) for proj in projectors]))
    a2 = Povm._from_stack(space, np.stack([np.kron(eye, proj) for proj in projectors]))
    return a1, a2, joint_from_commuting(a1, a2)


def _negative_zeros(arrays) -> int:
    """How many real or imaginary parts across `arrays` are -0.0."""
    return sum(
        int(np.sum((part == 0.0) & np.signbit(part)))
        for array in arrays
        for part in (array.real, array.imag)
    )


def test_pvm_pair_has_the_bits_of_np_kron_and_the_mapping_constructor():
    stacks, drawn = [], []
    for seed in range(300):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        units = qcorr.selftest._random_qubit_pvm_pair(rng)
        reference_units = _reference_pvm_units(reference_rng)
        assert units.tobytes() == reference_units.tobytes()
        pair = qcorr.selftest._qubit_effects(units)
        reference = _reference_qubit_effects(reference_units)
        for got, want in zip(pair, reference):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            stacks.append(got)
        assert rng.random() == reference_rng.random()
        drawn.append(units)
    assert _negative_zeros(stacks) > 0  # the byte comparison saw signed zeros
    # a batch of pairs, as a stacked chunk builds them, has each pair's bits
    batch = qcorr.selftest._qubit_effects(np.array(drawn))
    for side, got in enumerate(batch):
        assert got.shape == (300, 2, 4, 4)
        assert got.tobytes() == np.array(stacks[side::2]).tobytes()


def test_product_vectors_have_the_bits_of_np_kron():
    for seed in range(320):
        count = 1 + seed % 16
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = qcorr.selftest._product_vectors(rng, count)
        want = _reference_product_vectors(reference_rng, count)
        assert got.dtype == want.dtype and got.shape == want.shape == (count, 4)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == reference_rng.random()


def test_spin_pair_has_the_bits_of_np_kron():
    for got, want in zip(qcorr.selftest.spin_z_pair(), _reference_spin_z_pair()):
        assert got.space == want.space
        assert got._stack.tobytes() == want._stack.tobytes()


def test_selftest_reports_the_same_bits_with_the_reference_builders(qcorr_eps, monkeypatch):
    def deviations(seed):
        report = run_selftest(seed=seed, trials=10)
        return [(s.name, s.failures, s.max_deviation.hex()) for s in report.suites]

    seeds = (1, 7, 11, 42)
    built = [deviations(seed) for seed in seeds]
    calls = Counter()

    def counted(name, reference):
        def builder(*args, **kwargs):
            calls[name] += 1
            return reference(*args, **kwargs)

        monkeypatch.setattr(qcorr.selftest, name, builder)

    counted("_random_qubit_pvm_pair", _reference_pvm_units)
    counted("_qubit_effects", _reference_qubit_effects)
    counted("_product_vectors", _reference_product_vectors)
    counted("spin_z_pair", _reference_spin_z_pair)
    counted("_random_density", _reference_random_density)
    counted("_random_kernel", _reference_random_kernel)
    counted("_random_simplex", _reference_random_simplex)
    assert [deviations(seed) for seed in seeds] == built
    # every reference builder drove the run: the three d = 4 quantum suites
    # draw a state per trial, two of them a pair, whose effects their
    # kernels build once per chunk, the classical suites two kernels and
    # the separable and classical product-rule suites a simplex
    runs = 10 * len(seeds)
    assert calls == {
        "_random_density": 3 * runs,
        "_random_qubit_pvm_pair": 2 * runs,
        "_qubit_effects": 2 * len(seeds),
        "_product_vectors": runs,
        "_random_kernel": 4 * runs,
        "_random_simplex": 2 * runs,
        "spin_z_pair": len(seeds),
    }


@pytest.mark.parametrize(
    "seed, trials, name, value",
    [
        (1.5, 1, "seed", 1.5),
        (True, 1, "seed", True),
        ("1", 1, "seed", "1"),
        (np.float64(1.0), 1, "seed", np.float64(1.0)),
        (1, 2.5, "trials", 2.5),
        (1, True, "trials", True),
        (1, np.bool_(True), "trials", np.bool_(True)),
        (1, None, "trials", None),
    ],
)
def test_selftest_rejects_parameters_that_are_not_integers(seed, trials, name, value):
    with pytest.raises(ValidationError) as excinfo:
        run_selftest(seed=seed, trials=trials)
    assert str(excinfo.value) == f"{name} must be an integer, got {type(value).__name__}"


def test_selftest_takes_numpy_integers_as_ints():
    report = run_selftest(seed=np.int64(3), trials=np.int32(2))
    assert type(report.seed) is int and type(report.trials) is int
    assert report == run_selftest(seed=3, trials=2)
