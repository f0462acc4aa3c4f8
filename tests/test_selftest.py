"""The selftest trial loop, its suite table and its input builders."""

import math
from collections import Counter, defaultdict

import numpy as np
import pytest

import qcorr.selftest
import selftest_oracle as oracle
from qcorr import OutcomeSpace, Povm, SuiteResult, ValidationError, joint_from_commuting, run_selftest
from qcorr.classical_frame import ClassicalObservable, PhaseSpace
from qcorr.hilbert import DensityOperator
from qcorr.observable import SPIN_LABELS
from qcorr.selftest import _deviations, _suite_result
from qcorr.tolerance import validation_eps

TOL = 1e-7


@pytest.fixture(params=[None, "1e-10", "1e-6"])
def qcorr_eps(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", request.param)
    return request.param


def _fake_trial(deviations, seen):
    """A trial whose draws are the given deviations and whose kernel returns
    them as drawn."""
    values = iter(deviations)

    def draw(rng):
        seen.append(rng)
        return next(values)

    return qcorr.selftest._Stacked(draw, list)


def _run_suite(name, tolerance, trial, rng, trials):
    """The result of `trials` trials of the one suite `trial` on `rng`."""
    return _suite_result(name, tolerance, _deviations([trial], [rng], trials)[0])


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


@pytest.fixture
def fresh_spin_pair():
    """An empty spin-pair cache before and after the test, so that no pair
    built under a patched builder or a test's eps outlives it."""
    qcorr.selftest._spin_pair.cache_clear()
    yield
    qcorr.selftest._spin_pair.cache_clear()


def test_spin_pair_is_built_once_per_validation_eps(monkeypatch, fresh_spin_pair):
    calls = []
    build = qcorr.selftest.spin_z_pair

    def counting():
        calls.append(None)
        return build()

    monkeypatch.setattr(qcorr.selftest, "spin_z_pair", counting)
    monkeypatch.setenv("QCORR_EPS", "1e-10")
    report = run_selftest(seed=3, trials=2)
    assert report.passed and run_selftest(seed=4, trials=2).passed
    assert len(calls) == 1  # one build across two runs at one eps
    pair = qcorr.selftest._spin_pair(1e-10)
    assert [povm._eps for povm in pair] == [1e-10] * 3
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    assert run_selftest(seed=3, trials=2) == report
    assert len(calls) == 2
    fresh = qcorr.selftest._spin_pair(1e-6)
    assert all(new is not old for new, old in zip(fresh, pair))
    assert [povm._eps for povm in fresh] == [1e-6] * 3


# the draw helpers against the oracle's one-draw-at-a-time builders ---------
#
# A chunk's draws are stacked as the kernels stack them, B trials at a time,
# and built by one helper call; every trial is also built alone, as the
# replay path builds it. Both must have the bits of the oracle's builder
# drawing the same trials from a generator of the same seed, and leave the
# generator where the oracle leaves it.


def _stacks(seeds):
    """(B, seed) for stacks of B = 1, 10 and 128 trials: `seeds` seeds of
    one trial, and about as many trials in the larger stacks."""
    return [(batch, seed) for batch in (1, 10, 128) for seed in range(max(1, seeds // batch))]


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _built_both_ways(helper, draws, *args):
    """`helper` on the stack `draws` and on each trial alone, as one stack."""
    stacked = helper(draws, *args)
    _same_bits(np.array([helper(draw, *args) for draw in draws]), stacked)
    return stacked


def _same_stream(rng, reference_rng):
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("count", range(1, 17))
def test_units_have_the_bits_of_one_unit_at_a_time(qcorr_eps, count, dim):
    for batch, seed in _stacks(20):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = np.array([rng.normal(size=(count, 2, dim)) for _ in range(batch)])
        got = _built_both_ways(qcorr.selftest._units, draws)
        want = np.array([oracle._random_units(reference_rng, count, dim) for _ in range(batch)])
        _same_bits(got, want)
        _same_stream(rng, reference_rng)


@pytest.mark.parametrize("floor", [0.0, 0.02, 0.05])
@pytest.mark.parametrize("size", range(1, 17))
def test_simplex_rows_keep_the_bits_of_one_sum_per_row(size, floor):
    for batch, seed in _stacks(10):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = np.array([rng.random(size) for _ in range(batch)])
        got = _built_both_ways(qcorr.selftest._simplex_rows, draws, floor)
        want = np.array([oracle._random_simplex(reference_rng, size, floor) for _ in range(batch)])
        _same_bits(got, want)
        _same_stream(rng, reference_rng)


@pytest.mark.parametrize("dim", [2, 4])
def test_ginibre_states_have_the_bits_of_two_ginibre_calls(qcorr_eps, dim):
    for batch, seed in _stacks(100):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = np.array([rng.normal(size=(2, dim, dim)) for _ in range(batch)])
        got = _built_both_ways(qcorr.selftest._ginibre_states, draws)
        want = np.array([oracle._random_density(reference_rng, dim) for _ in range(batch)])
        for matrix in want:
            DensityOperator(matrix)  # a valid state
        _same_bits(got, want)
        _same_stream(rng, reference_rng)


@pytest.mark.parametrize("outcomes", [2, 4])
@pytest.mark.parametrize("points", range(1, 17))
def test_kernel_rows_have_the_bits_of_one_simplex_per_row(qcorr_eps, points, outcomes):
    phase = PhaseSpace(tuple(f"p{i}" for i in range(points)))
    codomain = OutcomeSpace(tuple(f"x{i}" for i in range(outcomes)))
    for batch, seed in _stacks(10):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = np.array([rng.random((points, outcomes)) for _ in range(batch)])
        got = _built_both_ways(qcorr.selftest._simplex_rows, draws, 0.05)
        want = np.array(
            [
                oracle._random_simplex(reference_rng, (points, outcomes), floor=0.05)
                for _ in range(batch)
            ]
        )
        for rows in want:
            ClassicalObservable.from_matrix(phase, codomain, rows)  # valid rows
        _same_bits(got, want)
        _same_stream(rng, reference_rng)


def test_separable_draws_build_the_oracle_mixtures_at_every_count():
    counts = defaultdict(set)
    for batch, seed in _stacks(320):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [qcorr.selftest._separable_draws(rng) for _ in range(batch)]
        # one stack padded to the largest count, and each trial alone
        padded = qcorr.selftest._separable_mixtures(draws, validation_eps())
        for trial, (weights, vectors, real) in enumerate(zip(*padded)):
            count = int(reference_rng.integers(1, 9))
            counts[batch].add(count)
            want = oracle._random_simplex(reference_rng, count, floor=0.02)
            _same_bits(weights[:count], want)
            _same_bits(vectors[:count], oracle._product_vectors(reference_rng, count))
            assert real.tolist() == [True] * count + [False] * (len(real) - count)
            assert not weights[count:].any()
            assert (vectors[count:] == qcorr.selftest._PAD_ROW).all()
            alone = qcorr.selftest._separable_mixtures(draws[trial : trial + 1], validation_eps())
            _same_bits(alone[0][0], want)
            _same_bits(alone[1][0], vectors[:count])
        _same_stream(rng, reference_rng)
    # every count at every stack size, so row sums of 8 beside shorter rows
    assert counts == {batch: set(range(1, 9)) for batch in (1, 10, 128)}


def test_pvm_pair_has_the_bits_of_np_kron_and_the_mapping_constructor():
    stacks, drawn = [], []
    for seed in range(300):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = rng.normal(size=qcorr.selftest._PAIR_DRAWS)
        units = qcorr.selftest._units(draws)
        reference_units = oracle._random_units(reference_rng, 2, 2)
        assert units.tobytes() == reference_units.tobytes()
        pair = qcorr.selftest._qubit_effects(units)
        reference = oracle._qubit_effects(reference_units)
        for got, want in zip(pair, reference):
            _same_bits(got, want)
            stacks.append(got)
        _same_stream(rng, reference_rng)
        drawn.append(draws)
    assert _negative_zeros(stacks) > 0  # the byte comparison saw signed zeros
    # a batch of pairs, as a stacked chunk builds them, has each pair's bits
    batch = qcorr.selftest._qubit_effects(qcorr.selftest._units(np.array(drawn)))
    for side, got in enumerate(batch):
        assert got.shape == (300, 2, 4, 4)
        assert got.tobytes() == np.array(stacks[side::2]).tobytes()


def test_product_vectors_have_the_bits_of_np_kron():
    for seed in range(320):
        count = 1 + seed % 16
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = np.array([rng.normal(size=(2 * count, 2, 2)) for _ in range(3)])
        got = _built_both_ways(qcorr.selftest._product_vectors, draws)
        want = np.array([oracle._product_vectors(reference_rng, count) for _ in range(3)])
        assert got.shape == (3, count, 4)
        _same_bits(got, want)
        _same_stream(rng, reference_rng)


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


def test_spin_pair_has_the_bits_of_np_kron():
    for got, want in zip(qcorr.selftest.spin_z_pair(), _reference_spin_z_pair()):
        assert got.space == want.space
        assert got._stack.tobytes() == want._stack.tobytes()


# one trial at a time on the raw draws of one trial or of a stack, each
# without the package's helpers


def _per_trial(build, core):
    """`build` of one trial's draws, whose last `core` axes are one trial's,
    applied to each trial of a stack in turn."""

    def builder(draws, *args):
        if draws.ndim == core:
            return build(draws, *args)
        return np.array([builder(draw, *args) for draw in draws])

    return builder


def _reference_state(draws):
    ginibre = draws[0] + 1j * draws[1]
    matrix = ginibre @ ginibre.conj().T
    return matrix / np.trace(matrix).real


def _reference_unit(draws):
    vector = draws[0] + 1j * draws[1]
    return vector / np.linalg.norm(vector)


def _reference_simplex(uniforms, floor):
    weights = uniforms + floor
    return weights / weights.sum()


def _reference_simplex_rows(uniforms, floor, real=None):
    """Each row alone, only its `real` entries when it is padded, zero past
    them."""
    if real is None:
        return _per_trial(_reference_simplex, 1)(uniforms, floor)
    real = np.broadcast_to(real, uniforms.shape)
    rows = np.zeros(uniforms.shape)
    for index in np.ndindex(uniforms.shape[:-1]):
        if real[index].any():
            rows[index][real[index]] = _reference_simplex(uniforms[index][real[index]], floor)
    return rows


def _reference_product_vectors(draws):
    units = [_reference_unit(pair) for pair in draws]
    return np.array([np.kron(left, right) for left, right in zip(units[0::2], units[1::2])])


def _reference_qubit_effects(units):
    pairs = [oracle._qubit_effects(pair) for pair in units.reshape(-1, 2, 2)]
    return tuple(
        np.array([pair[side] for pair in pairs]).reshape(units.shape[:-2] + (2, 4, 4))
        for side in (0, 1)
    )


def test_selftest_reports_the_same_bits_with_the_reference_builders(
    qcorr_eps, monkeypatch, fresh_spin_pair
):
    def deviations(seed):
        report = run_selftest(seed=seed, trials=10)
        return [(s.name, s.failures, s.max_deviation.hex()) for s in report.suites]

    seeds = (1, 7, 11, 42)
    built = [deviations(seed) for seed in seeds]
    qcorr.selftest._spin_pair.cache_clear()
    calls = Counter()

    def counted(name, reference):
        def builder(*args, **kwargs):
            calls[name] += 1
            return reference(*args, **kwargs)

        monkeypatch.setattr(qcorr.selftest, name, builder)

    counted("_ginibre_states", _per_trial(_reference_state, 3))
    counted("_units", _per_trial(_reference_unit, 2))
    counted("_simplex_rows", _reference_simplex_rows)
    counted("_product_vectors", _per_trial(_reference_product_vectors, 3))
    counted("_qubit_effects", _reference_qubit_effects)
    counted("spin_z_pair", _reference_spin_z_pair)
    assert [deviations(seed) for seed in seeds] == built
    # every reference builder drove the run, once per chunk round and
    # padded stack: the three d = 4 quantum suites that draw states build
    # them together, the product rule and the marginals suite their pairs'
    # units and effects together, and the separable suite its product
    # vectors; both kernels' rows and the weights in the classical product
    # rule, the separable weights and both kernels' rows in the Dirac suite
    # are six simplex stacks; and the spin pair once for the eps in force
    assert calls == {
        "_ginibre_states": len(seeds),
        "_units": len(seeds),
        "_qubit_effects": len(seeds),
        "_product_vectors": len(seeds),
        "_simplex_rows": 6 * len(seeds),
        "spin_z_pair": 1,
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
