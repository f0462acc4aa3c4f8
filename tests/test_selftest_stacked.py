"""The stacked chunks of the six selftest suites against the
one-trial-at-a-time oracle in `selftest_oracle`: the same deviation bits per
trial, the same suite results, and the same errors at the same trial when a
chunk replays through its kernel one trial at a time."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import qcorr.correlation
import qcorr.measure
import qcorr.selftest
import selftest_oracle
from qcorr import (
    AbsoluteContinuityViolation,
    DensityOperator,
    NonCommuting,
    OutcomeSpace,
    Povm,
    ProductSpace,
    ValidationError,
    joint_from_commuting,
    spin_z_pair,
)
from qcorr.hilbert import _density_fault, _random_mixing, _spectral_split
from qcorr.measure import _quotient, _weights_fault
from qcorr.observable import (
    _check_commutation,
    _check_effects,
    _commutation_certified,
    _completeness_fault,
    _forward_products,
    _pairwise_projective,
)
from qcorr.selftest import _BINARY
from qcorr.tolerance import validation_eps

NAMES = (
    "quantum-product-rule",
    "classical-product-rule",
    "total-correlation-invariance",
    "separable-no-entanglement",
    "joint-marginal-consistency",
    "classical-dirac-triviality",
)
SEEDS = range(24)


@pytest.fixture(params=[None, "1e-10", "1e-6", "1e-12"])
def any_eps(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", request.param)
    return request.param


def _suite(name):
    """(tolerance, stacked trial, oracle trial) of the named suite."""
    for suite, tolerance, trial in qcorr.selftest._suites(validation_eps()):
        if suite == name:
            break
    spin = spin_z_pair()
    oracle = {
        "quantum-product-rule": selftest_oracle._quantum_product_rule,
        "classical-product-rule": selftest_oracle._classical_product_rule,
        "total-correlation-invariance": partial(selftest_oracle._invariance, spin),
        "separable-no-entanglement": partial(selftest_oracle._separable, spin),
        "joint-marginal-consistency": selftest_oracle._marginals,
        "classical-dirac-triviality": selftest_oracle._classical_dirac,
    }[name]
    return tolerance, trial, oracle


def _spied(trial):
    """`trial` with its kernel recording the size of each chunk it computes:
    a chunk that replays shows up as one call per trial, on one trial each."""
    calls = []

    def kernel(draws):
        calls.append(len(draws))
        return trial.kernel(draws)

    return dataclasses.replace(trial, kernel=kernel), calls


def _deviations(trial, rng, trials):
    """Each deviation of `trials` trials of the one suite `trial` on `rng`."""
    return qcorr.selftest._deviations([trial], [rng], trials)[0]


def _oracle_result(oracle, rng, tolerance, trials):
    deviations = [oracle(rng) for _ in range(trials)]
    failures = sum(deviation >= tolerance for deviation in deviations)
    return deviations, failures, max(0.0, *deviations)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trials, chunk", [(1, None), (2, None), (10, None), (5, 4)])
def test_stacked_chunks_have_the_oracle_bits(any_eps, monkeypatch, name, trials, chunk):
    if chunk is not None:
        monkeypatch.setattr(qcorr.selftest, "_CHUNK", chunk)
    tolerance, trial, oracle = _suite(name)
    spied, calls = _spied(trial)
    for seed in SEEDS:
        got = _deviations(spied, np.random.default_rng(seed), trials)
        again = _deviations(spied, np.random.default_rng(seed), trials)
        result = qcorr.selftest._suite_result(name, tolerance, again)
        want, failures, worst = _oracle_result(
            oracle, np.random.default_rng(seed), tolerance, trials
        )
        rng = np.random.default_rng(seed)
        replayed = [trial.kernel([trial.draw(rng)])[0] for _ in range(trials)]  # trial by trial
        assert all(type(deviation) is float for deviation in got)
        assert [d.hex() for d in got] == [d.hex() for d in want] == [d.hex() for d in replayed]
        assert (result.failures, result.max_deviation.hex()) == (failures, worst.hex())
    # every chunk was held on the stacks: no kernel call on one trial of many
    expected = [chunk, trials - chunk] if chunk else [trials]
    assert calls == expected * 2 * len(SEEDS)


def _corrupting(build, corrupt, at, seen):
    """`build` with its output at call `at` replaced by `corrupt` of it; the
    output it replaced is appended to `seen`."""
    count = iter(range(1, 1 << 30))

    def builder(*args, **kwargs):
        array = build(*args, **kwargs)
        if next(count) != at:
            return array
        seen.append(array)
        return corrupt(array)

    return builder


def _corrupting_built(build, want, corrupt):
    """`build` with each trial's input in its output, one trial's or a
    stack's, replaced by `corrupt` of it where it equals `want`: the same
    trial's input is corrupted on the stacks and on the replay path."""

    def builder(*args, **kwargs):
        built = build(*args, **kwargs)
        if built.shape[built.ndim - want.ndim :] != want.shape:
            return built
        trials = built.reshape(-1, *want.shape).copy()
        for trial, array in enumerate(trials):
            if array.tobytes() == want.tobytes():
                trials[trial] = corrupt(array)
        return trials.reshape(built.shape)

    return builder


def _with_nan(matrix):
    matrix = matrix.copy()
    matrix[1, 2] = math.nan
    return matrix


def _off_hermitian(matrix):
    matrix = matrix.copy()
    matrix[0, 1] += 2 * validation_eps()
    return matrix


def _rank_three(matrix):
    values, vectors = np.linalg.eigh(matrix)
    values[0] = 0.0
    rebuilt = (vectors * values) @ vectors.conj().T
    return rebuilt / np.trace(rebuilt).real


def _nan_row(rows):
    rows = rows.copy()
    rows[-1, 0] = math.nan
    return rows


def _negative_weight(weights):
    weights = weights.copy()
    weights.flat[0] = -0.25
    return weights


def _non_unit(units):
    units = units.copy()
    units[0] *= 1.5
    return units


# the package's helper that builds the input each oracle builder draws
BUILT_BY = {
    "_random_density": "_ginibre_states",
    "_random_simplex": "_simplex_rows",
    "_random_units": "_units",
}


def _patched_runs(monkeypatch, name, corrupt, builder="_random_density", at=3):
    """The stacked and the oracle run of 10 trials of the named suite at
    seed 4 with the output of call `at` of the oracle's input builder
    `builder` (by default the third state) corrupted, and that input
    corrupted wherever the package's helper builds it, on the stacks and on
    the replay path, as (stacked outcome, oracle outcome, spy calls); an
    outcome is the deviations or the exception."""
    seen = []
    oracle_build = _corrupting(getattr(selftest_oracle, builder), corrupt, at, seen)
    monkeypatch.setattr(selftest_oracle, builder, oracle_build)
    _, trial, oracle = _suite(name)
    spied, calls = _spied(trial)

    def outcome(run):
        try:
            return [d.hex() for d in run()]
        except Exception as exc:  # the error itself is compared
            return type(exc), str(exc)

    oracle_rng = np.random.default_rng(4)
    want = outcome(lambda: [oracle(oracle_rng) for _ in range(10)])
    helper = BUILT_BY[builder]
    build = getattr(qcorr.selftest, helper)
    monkeypatch.setattr(qcorr.selftest, helper, _corrupting_built(build, seen[0], corrupt))
    rng = np.random.default_rng(4)
    got = outcome(lambda: _deviations(spied, rng, 10))
    return got, want, calls


QUANTUM = ("quantum-product-rule", "total-correlation-invariance", "joint-marginal-consistency")


@pytest.mark.parametrize("name", QUANTUM)
@pytest.mark.parametrize("corrupt", [_with_nan, _off_hermitian])
def test_a_chunk_with_an_invalid_state_replays_to_the_oracle_error(
    any_eps, monkeypatch, name, corrupt
):
    got, want, calls = _patched_runs(monkeypatch, name, corrupt)
    assert isinstance(want, tuple), "the oracle must reject the third state"
    assert got == want
    # replayed from the stored draws: trials 1 and 2 computed, 3 raised
    assert calls == [10, 1, 1, 1]


# (suite, corruption, oracle builder, call): the third trial's input, at
# the oracle builder's calls per trial (three simplices in the classical
# product rule, two in the Dirac suite, one simplex and one set of units in
# the separable)
CORRUPT_DRAWS = [
    ("classical-product-rule", _nan_row, "_random_simplex", 7),
    ("classical-product-rule", _negative_weight, "_random_simplex", 9),
    ("classical-dirac-triviality", _nan_row, "_random_simplex", 5),
    ("classical-dirac-triviality", _negative_weight, "_random_simplex", 6),
    ("separable-no-entanglement", _negative_weight, "_random_simplex", 3),
    ("separable-no-entanglement", _non_unit, "_random_units", 3),
]


@pytest.mark.parametrize("name, corrupt, builder, at", CORRUPT_DRAWS)
def test_a_chunk_with_a_corrupted_draw_replays_to_the_oracle_error(
    any_eps, monkeypatch, name, corrupt, builder, at
):
    got, want, calls = _patched_runs(monkeypatch, name, corrupt, builder, at)
    assert isinstance(want, tuple), "the oracle must reject the third trial"
    assert issubclass(want[0], ValidationError)
    assert got == want
    assert calls == [10, 1, 1, 1]


@pytest.mark.parametrize("name", QUANTUM)
def test_a_rank_three_state_gives_the_oracle_bits(any_eps, monkeypatch, name):
    got, want, calls = _patched_runs(monkeypatch, name, _rank_three)
    assert isinstance(want, list) and got == want
    if name == "joint-marginal-consistency":
        # no spectral split: the stacks hold a rank-deficient state
        assert calls == [10]
    else:
        # the split drops an eigenvalue, so the whole chunk replays
        assert calls == [10] + [1] * 10


@pytest.mark.parametrize("name", NAMES)
def test_draws_are_taken_a_chunk_at_a_time(monkeypatch, name):
    monkeypatch.setattr(qcorr.selftest, "_CHUNK", 3)
    _, trial, _ = _suite(name)
    events = []

    def draw(rng):
        events.append("draw")
        return trial.draw(rng)

    def kernel(draws):
        events.append(len(draws))
        return trial.kernel(draws)

    spied = qcorr.selftest._Stacked(draw, kernel)
    assert len(_deviations(spied, np.random.default_rng(0), 8)) == 8
    # a chunk is drawn only once the chunk before it is computed
    assert events == ["draw"] * 3 + [3] + ["draw"] * 3 + [3] + ["draw"] * 2 + [2]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("batch", [1, 10, 128])
def test_a_chunks_draws_leave_the_generator_where_the_oracle_leaves_it(name, batch):
    _, trial, oracle = _suite(name)
    rng, oracle_rng = np.random.default_rng(batch), np.random.default_rng(batch)
    draws = [trial.draw(rng) for _ in range(batch)]
    deviations = [oracle(oracle_rng) for _ in range(batch)]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # and the chunk built from those draws has the oracle's deviations
    assert [d.hex() for d in trial.kernel(draws)] == [d.hex() for d in deviations]


KERNELS = (
    "_quantum_kernel",
    "_classical_product_rule_kernel",
    "_separable_kernel",
    "_classical_dirac_kernel",
)


def _spied_kernels(monkeypatch):
    """The package's four suite kernels, each recording the size of every
    chunk of draws it is called on, as a tuple per call: the shared quantum
    kernel takes a chunk per suite by index."""
    calls = {name: [] for name in KERNELS}
    for name in KERNELS:
        kernel = getattr(qcorr.selftest, name)

        def spy(*args, kernel=kernel, name=name):
            chunks = args[-1] if isinstance(args[-1], dict) else {0: args[-1]}
            calls[name].append(tuple(len(chunk) for chunk in chunks.values()))
            return kernel(*args)

        monkeypatch.setattr(qcorr.selftest, name, spy)
    return calls


def test_a_scaled_classical_product_fails_the_suites_that_pin_its_scale(monkeypatch):
    # rho_c rho_e = joint / independent whatever the classical product's
    # scale: only the closed forms rho_e = 1 (separable) and rho_c = 1
    # (Dirac) see a classical product off by a common factor
    mix_rows = qcorr.correlation.mix_rows
    monkeypatch.setattr(qcorr.correlation, "mix_rows", lambda *rows: 1.001 * mix_rows(*rows))
    calls = _spied_kernels(monkeypatch)
    report = qcorr.selftest.run_selftest(1, 10)
    failed = {suite.name for suite in report.suites if not suite.passed}
    assert failed == {"separable-no-entanglement", "classical-dirac-triviality"}
    # the three quantum suites' chunks in one call, and no chunk replayed
    assert calls == {
        "_quantum_kernel": [(10, 10, 10)],
        "_classical_product_rule_kernel": [(10,)],
        "_separable_kernel": [(10,)],
        "_classical_dirac_kernel": [(10,)],
    }


def test_a_tiny_eps_keeps_every_chunk_on_the_stacks(monkeypatch):
    # at 1e-13 the d = 4 commutation certificate declines (its rounding
    # allowance, about 1.7e-13, is above eps/4), so the exact commutation
    # test runs on each quantum chunk and no chunk replays
    monkeypatch.setenv("QCORR_EPS", "1e-13")
    check, pairs = qcorr.selftest._check_commutation, []

    def checking(*args):
        products = args[-2]  # (k1, k2, ..., d, d), a batch of pairs or one
        pairs.append(products[0, 0].size // products.shape[-1] ** 2)
        return check(*args)

    monkeypatch.setattr(qcorr.selftest, "_check_commutation", checking)
    streams = np.random.SeedSequence(3).spawn(len(NAMES))
    results = []
    for name, stream in zip(NAMES, streams):
        tolerance, trial, oracle = _suite(name)
        spied, calls = _spied(trial)
        got = _deviations(spied, np.random.default_rng(stream), 200)
        want = _oracle_result(oracle, np.random.default_rng(stream), tolerance, 200)[0]
        assert [d.hex() for d in got] == [d.hex() for d in want]
        assert calls == [128, 72], name
        results.append(qcorr.selftest._suite_result(name, tolerance, got))
    # the exact test ran once per chunk of the product rule and of the
    # marginals suite, on the chunk's pairs
    assert pairs == [128, 72] * 2
    # and once per chunk of a whole run, on both suites' pairs together
    pairs.clear()
    calls = _spied_kernels(monkeypatch)
    assert qcorr.selftest.run_selftest(3, 200).suites == tuple(results)
    assert pairs == [256, 144]
    assert calls["_quantum_kernel"] == [(128, 128, 128), (72, 72, 72)]


def test_a_run_gives_each_suite_its_oracle_result():
    for seed in (0, 1):
        for trials in (1, 129):
            report = qcorr.selftest.run_selftest(seed, trials)
            streams = np.random.SeedSequence(seed).spawn(len(NAMES))
            for suite, name, stream in zip(report.suites, NAMES, streams):
                tolerance, _, oracle = _suite(name)
                rng = np.random.default_rng(stream)
                _, failures, worst = _oracle_result(oracle, rng, tolerance, trials)
                assert suite.name == name
                assert (suite.failures, suite.max_deviation.hex()) == (failures, worst.hex())


# which error a chunk-major run raises ---------------------------------------


def _oracle_error(monkeypatch, seed, name, corrupt, builder, at):
    """The input that the oracle builder `builder` builds at call `at` in
    200 trials of the named suite on that suite's stream of a run at `seed`,
    and the error (type, message) those trials raise with it corrupted."""
    build, seen = getattr(selftest_oracle, builder), []
    oracle = _suite(name)[2]
    stream = np.random.SeedSequence(seed).spawn(len(NAMES))[NAMES.index(name)]
    rng = np.random.default_rng(stream)
    with monkeypatch.context() as patched:
        patched.setattr(selftest_oracle, builder, _corrupting(build, corrupt, at, seen))
        with pytest.raises(ValidationError) as excinfo:
            for _ in range(200):
                oracle(rng)
    return seen[0], (type(excinfo.value), str(excinfo.value))


def _run_error(monkeypatch, seed, faults):
    """What `run_selftest(seed, 200)` raises with each (input, corruption,
    oracle builder) of `faults` corrupted wherever the package builds that
    input, and (suite number, trial in its chunk, error) of each error a
    chunk gave."""
    chunk_outcomes, raised, eps = qcorr.selftest._chunk_outcomes, [], validation_eps()

    def spied(trials, chunks):
        outcomes = chunk_outcomes(trials, chunks)
        for trial, (got, error) in zip(trials, outcomes):
            if error is not None:
                number = [suite[2].draw for suite in qcorr.selftest._suites(eps)].index(trial.draw)
                raised.append((number, len(got), (type(error), str(error))))
        return outcomes

    with monkeypatch.context() as patched:
        patched.setattr(qcorr.selftest, "_chunk_outcomes", spied)
        for want, corrupt, builder in faults:
            helper = BUILT_BY[builder]
            build = getattr(qcorr.selftest, helper)
            patched.setattr(qcorr.selftest, helper, _corrupting_built(build, want, corrupt))
        with pytest.raises(Exception) as excinfo:
            qcorr.selftest.run_selftest(seed, 200)
    return (type(excinfo.value), str(excinfo.value)), raised


# (later suite, corruption, oracle builder, call): a trial in the suite's
# first chunk, the sixth at one built input per trial
LATER_FAULTS = [
    ("total-correlation-invariance", _off_hermitian, "_random_density", 6),
    ("separable-no-entanglement", _negative_weight, "_random_simplex", 6),
    ("joint-marginal-consistency", _off_hermitian, "_random_density", 6),
]


@pytest.mark.parametrize("later, corrupt, builder, at", LATER_FAULTS)
def test_a_run_raises_the_first_error_of_the_lowest_suite_that_has_one(
    monkeypatch, later, corrupt, builder, at
):
    seed = 4
    # the product rule's state of trial 130, the third of its second chunk
    rule = _oracle_error(monkeypatch, seed, NAMES[0], _with_nan, "_random_density", 131)
    other = _oracle_error(monkeypatch, seed, later, corrupt, builder, at)
    number = NAMES.index(later)
    error, raised = _run_error(
        monkeypatch, seed, [(rule[0], _with_nan, "_random_density"), (other[0], corrupt, builder)]
    )
    assert error == rule[1]
    # the later suite raised in its first chunk, the product rule in its second
    assert raised == [(number, at - 1, other[1]), (0, 2, rule[1])]
    # with the product rule's draw clean, the later suite's error at its trial
    error, raised = _run_error(monkeypatch, seed, [(other[0], corrupt, builder)])
    assert error == other[1]
    assert raised == [(number, at - 1, other[1])]


# chunks of many shapes, padded to one stack --------------------------------


def _every_shape(name, rng):
    """Draws of the named suite, one trial of every shape it draws, twice,
    in a shuffled order: every Dirac (n, k1, k2), every separable count and
    every mixing size."""
    normal = rng.normal
    if name == "classical-dirac-triviality":
        draws = [
            (rng.random((n, k1)), rng.random((n, k2)), rng.integers(0, n))
            for n in (2, 3, 4)
            for k1 in (2, 3)
            for k2 in (2, 3)
        ]
    elif name == "separable-no-entanglement":
        draws = [(rng.random(count), normal(size=(2 * count, 2, 2))) for count in range(1, 9)]
    elif name == "quantum-product-rule":
        draws = [
            (normal(size=(2, 4, 4)), normal(size=(2, 2, 2)), normal(size=(2, n, n)))
            for n in range(4, 8)
        ]
    else:
        draws = [(normal(size=(2, 4, 4)), normal(size=(2, n, n))) for n in range(4, 8)]
    draws = 2 * draws
    return [draws[i] for i in rng.permutation(len(draws))]


PADDED = (
    "quantum-product-rule",
    "total-correlation-invariance",
    "separable-no-entanglement",
    "classical-dirac-triviality",
)


@pytest.mark.parametrize("name", PADDED)
def test_a_chunk_of_every_shape_gives_each_trial_its_own_bits(any_eps, name):
    _, trial, _ = _suite(name)
    for seed in range(12):
        draws = _every_shape(name, np.random.default_rng(seed))
        got = trial.kernel(draws)  # on the stacks: a replay would call it per trial
        want = [trial.kernel([draw])[0] for draw in draws]
        assert [d.hex() for d in got] == [d.hex() for d in want]


def _pairs(rng):
    """Draws of the marginals suite: eight states and qubit pairs."""
    return [(rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 2, 2))) for _ in range(8)]


def test_a_shared_chunk_gives_each_trial_its_own_bits(any_eps):
    # the three quantum suites in one call of the kernel they share: one
    # stack of states, one of qubit pairs, and every mixing size of both
    # decomposing suites in one QR batch per size and one padded stack
    trials = [_suite(name)[1] for name in QUANTUM]
    shared = trials[0].kernel.shared
    for seed in range(12):
        rng = np.random.default_rng(seed)
        chunks = [_every_shape(name, rng) for name in QUANTUM[:2]] + [_pairs(rng)]
        for trial, chunk, got in zip(trials, chunks, shared(dict(enumerate(chunks)))):
            want = [trial.kernel([draw])[0] for draw in chunk]
            assert [d.hex() for d in got] == [d.hex() for d in want]


@pytest.mark.parametrize("name", PADDED)
def test_a_padded_suite_splits_each_chunk_once(monkeypatch, name):
    # the invariance suite has no split; it rebuilds rho_t from both
    # decompositions of the chunk, once each
    step = "_rebuilt_rho_t" if name == "total-correlation-invariance" else "_split"
    original, calls = getattr(qcorr.selftest, step), []

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qcorr.selftest, step, spy)
    _, trial, _ = _suite(name)
    spied, chunks = _spied(trial)
    for seed in range(6):
        _deviations(spied, np.random.default_rng(seed), 10)
        trial.kernel(_every_shape(name, np.random.default_rng(seed)))
    assert chunks == [10] * 6
    assert len(calls) == (2 if step == "_rebuilt_rho_t" else 1) * 12


def test_a_batch_of_mixtures_with_zero_tails_has_each_mixtures_bits():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        size, padded = rng.integers(1, 9), rng.integers(1, 4)
        k1, k2 = rng.integers(1, 5, size=2)
        batch = rng.integers(1, 6)
        weights = np.zeros((batch, size + padded))
        rows_1 = np.zeros((batch, size + padded, k1))
        rows_2 = np.zeros((batch, size + padded, k2))
        alone = []
        for mixture in range(batch):
            n = rng.integers(1, size + 1)
            w, r1, r2 = rng.random(n), rng.random((n, k1)), rng.random((n, k2))
            weights[mixture, :n], rows_1[mixture, :n], rows_2[mixture, :n] = w, r1, r2
            alone.append(qcorr.measure.mix_rows(w, r1, r2))
        got = qcorr.measure.mix_rows(weights, rows_1, rows_2)
        assert got.tobytes() == np.array(alone).tobytes()
        # and along two leading axes
        twice = (np.stack([array] * 2) for array in (weights, rows_1, rows_2))
        assert qcorr.measure.mix_rows(*twice).tobytes() == np.array([alone] * 2).tobytes()


# the helpers the stacks run through, with a leading batch axis -------------


def _qubit_pairs(seed, count):
    draws = np.random.default_rng(seed).normal(size=(count, *qcorr.selftest._PAIR_DRAWS))
    return qcorr.selftest._qubit_effects(qcorr.selftest._units(draws))


def test_batched_projectivity_is_every_stack_projective():
    eps = validation_eps()
    left, _ = _qubit_pairs(0, 6)
    assert _pairwise_projective(left, eps)
    assert all(_pairwise_projective(stack, eps) for stack in left)
    for index in range(len(left)):
        tilted = left.copy()
        tilted[index, 1] += 2 * eps * np.eye(4)  # E1 E1 - E1 is now off by 2 eps
        assert not _pairwise_projective(tilted[index], eps)
        assert not _pairwise_projective(tilted, eps)


def test_batched_commutation_certificate_certifies_every_pair():
    eps = validation_eps()
    left, right = _qubit_pairs(1, 5)
    skews = [
        _check_effects(_BINARY.outcomes, side.reshape(-1, 4, 4), eps) for side in (left, right)
    ]
    products = left[:, :, None] @ right[:, None]
    assert _commutation_certified(
        left, skews[0], right, skews[1], products.reshape(-1, 2, 4, 4), eps
    )
    for a, b, grid in zip(left, right, products):
        single = [_check_effects(_BINARY.outcomes, side, eps) for side in (a, b)]
        assert _commutation_certified(a, single[0], b, single[1], grid, eps)
    # one pair that does not commute keeps the batch from being certified
    bad = right.copy()
    bad[3] = left[4]  # another pair's projector on the same left factor
    skews[1] = _check_effects(_BINARY.outcomes, bad.reshape(-1, 4, 4), eps)
    products = left[:, :, None] @ bad[:, None]
    assert not _commutation_certified(
        left, skews[0], bad, skews[1], products.reshape(-1, 2, 4, 4), eps
    )


def test_batched_exact_commutation_test_names_the_first_pair_that_does_not_commute():
    eps = validation_eps()
    left, right = _qubit_pairs(1, 5)
    right[3] = left[4]  # another pair's projector on the same left factor
    effects = left.swapaxes(0, 1), right.swapaxes(0, 1)  # (k, B, d, d)
    products = _forward_products(*effects)
    labels = _BINARY.labels
    with pytest.raises(NonCommuting, match=r"^effects at '0' and '0' do not commute"):
        _check_commutation(labels, effects[0], labels, effects[1], products, eps)
    first = [side[:, :3] for side in effects]  # the three pairs before it commute
    _check_commutation(labels, first[0], labels, first[1], products[:, :, :3], eps)
    # a batch of one gives the message of the single pair, and of its joint
    one = [side[:, 3:4] for side in effects]
    with pytest.raises(NonCommuting) as batched:
        _check_commutation(labels, one[0], labels, one[1], _forward_products(*one), eps)
    with pytest.raises(NonCommuting) as single:
        products = _forward_products(left[3], right[3])
        _check_commutation(labels, left[3], labels, right[3], products, eps)
    with pytest.raises(NonCommuting) as joint:
        joint_from_commuting(*(Povm._from_stack(_BINARY, side[3].copy()) for side in (left, right)))
    assert str(batched.value) == str(single.value) == str(joint.value)


def _rank_three_state(seed):
    matrix = qcorr.selftest._ginibre_states(np.random.default_rng(seed).normal(size=(2, 4, 4)))
    return _rank_three(matrix)


def test_a_rank_deficient_batch_of_one_is_split_as_one_matrix():
    eps = validation_eps()
    matrix = _rank_three_state(0)
    single = _spectral_split(matrix, eps)
    assert single[0].shape == (3,)  # the split drops the vanishing eigenvalue
    batched = _spectral_split(matrix[None], eps)
    for got, want in zip(batched, single):
        assert got.shape == (1, *want.shape)
        assert got.tobytes() == want.tobytes()
    full = qcorr.selftest._ginibre_states(np.random.default_rng(1).normal(size=(2, 4, 4)))
    assert _spectral_split(np.stack([full, matrix]), eps) is None


def test_a_batch_of_one_that_drops_a_component_is_mixed_as_one_mixture():
    eps = validation_eps()
    weights, vectors = _spectral_split(_rank_three_state(2), eps)
    draws = np.random.default_rng(4).normal(size=(2, 5, 5))
    draws[:, 4, :3] = 0.0  # the first three columns of the basis miss the last row
    single = _random_mixing(draws, weights, vectors)
    assert single[0].shape == (4,)  # the row of weight about 1e-33 is dropped
    batched = _random_mixing(draws[None], weights[None], vectors[None])
    for got, want in zip(batched, single):
        assert got.shape == (1, *want.shape)
        assert got.tobytes() == want.tobytes()
    kept = np.random.default_rng(5).normal(size=(2, 5, 5))
    pair = np.stack([kept, draws]), np.stack([weights] * 2), np.stack([vectors] * 2)
    assert _random_mixing(*pair) is None


def test_errors_on_a_batch_name_the_outcome_of_the_first_offender():
    eps = validation_eps()
    left, _ = _qubit_pairs(2, 3)
    flat = left.reshape(-1, 4, 4).copy()
    flat[3, 0, 1] += 2 * eps  # the second observable's effect at "1"
    with pytest.raises(ValidationError, match=r"^effect at '1' is not Hermitian"):
        _check_effects(_BINARY.outcomes, flat, eps)
    flat[3, 0, 0] = math.nan
    with pytest.raises(ValidationError, match=r"^effect at '1' contains non-finite entries$"):
        _check_effects(_BINARY.outcomes, flat, eps)
    points = ((0, 0), (0, 1), (1, 0), (1, 1))
    num, den = np.full((3, 2, 2), 0.25), np.full((3, 2, 2), 0.25)
    den[2, 1, 0] = 0.0
    with pytest.raises(AbsoluteContinuityViolation, match=r"at \(1, 0\) where"):
        _quotient(num, den, np.full(den.shape, True), points)  # held only where den > 0


def test_faults_on_a_batch_are_those_of_the_first_offender():
    eps = validation_eps()
    rng = np.random.default_rng(3)
    states = qcorr.selftest._ginibre_states(rng.normal(size=(4, 2, 4, 4)))
    assert _density_fault(states, eps) is None
    bad = states.copy()
    bad[2, 0, 1] += 3 * eps
    bad[3, 0, 1] += 2 * eps
    with pytest.raises(ValidationError) as excinfo:
        DensityOperator(bad[2])
    assert _density_fault(bad, eps) == str(excinfo.value)
    bad = states.copy()
    bad[1] *= 1 + 4 * eps
    with pytest.raises(ValidationError) as excinfo:
        DensityOperator(bad[1])
    assert _density_fault(bad, eps) == str(excinfo.value)
    left, _ = _qubit_pairs(4, 3)
    assert _completeness_fault(left, eps) is None
    left[1, 0] *= 1 + 4 * eps
    with pytest.raises(ValidationError) as excinfo:
        qcorr.Povm._from_stack(_BINARY, left[1].copy())
    assert _completeness_fault(left, eps) == str(excinfo.value)


def _reference_weights_fault(space, array, eps):
    """The message of the per-row weight check, one row at a time, or None."""
    for index in (array.argmin(), array.argmax()):
        value, outcome = float(array[index]), space.outcomes[index]
        if not math.isfinite(value):
            return f"weight at {outcome!r} is not finite"
        if value < -eps:
            return f"negative weight {value!r} at {outcome!r}"
    total = math.fsum(array.tolist())
    if abs(total - 1.0) > eps:
        return f"weights sum to {total!r}, expected 1"
    return None


def _first_row_fault(space, rows, eps):
    faults = (_reference_weights_fault(space, row, eps) for row in rows.reshape(-1, len(space)))
    return next((fault for fault in faults if fault is not None), None)


def _set(*cells):
    """A corruption writing each (at, value), `at` a (trial, row, column)."""

    def corrupt(rows):
        rows = rows.copy()
        for at, value in cells:
            rows[at] = value
        return rows

    return corrupt


WEIGHT_FAULTS = [
    _set(((2, 1, 0), math.nan)),
    _set(((2, 1, 0), math.nan), ((1, 2, 1), math.inf)),
    _set(((1, 2, 0), -math.inf), ((1, 2, 2), math.inf)),
    _set(((3, 0, 1), -0.5), ((3, 0, 2), 1.5)),
    _set(((2, 0, 1), 0.5), ((2, 1, 0), math.nan)),  # a sum before a NaN
    _set(((2, 2, 1), 0.5), ((2, 1, 0), math.nan)),  # a NaN before a sum
    _set(((1, 1, 2), 1e-300), ((0, 2, 0), -1e-300)),  # both within eps
]


@pytest.mark.parametrize("corrupt", WEIGHT_FAULTS)
def test_weight_faults_on_a_batch_are_those_of_the_first_offender(any_eps, corrupt):
    eps = validation_eps()
    rows = qcorr.selftest._simplex_rows(np.random.default_rng(5).random((4, 3, 3)), 0.05)
    space = OutcomeSpace(("x0", "x1", "x2"))
    assert _weights_fault(space, rows, eps) is None
    bad = corrupt(rows)
    assert _weights_fault(space, bad, eps) == _first_row_fault(space, bad, eps)
    pairs = ProductSpace(OutcomeSpace(("a",)), space)  # messages name product points
    assert _weights_fault(pairs, bad, eps) == _first_row_fault(pairs, bad, eps)
    for trial in bad:
        assert _weights_fault(space, trial, eps) == _first_row_fault(space, trial, eps)
