"""The stacked selftest kernels and the object API run the same engine steps.

A profile hook records the Python functions a call executes. Each step runs
in a stacked chunk of each suite that uses it, with no trial replayed one at
a time, and in the single-object call it serves.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

import qcorr.selftest
from qcorr import (
    ConvexDecomposition,
    DensityOperator,
    DiscreteMeasure,
    OutcomeSpace,
    Povm,
    PureState,
    correlation_report,
    spin_z_pair,
)
from qcorr.classical_frame import (
    ClassicalObservable,
    PhaseSpace,
    _product_rows,
    _pushed,
    classical_joint,
    classical_report,
)
from qcorr.correlation import _split, _total
from qcorr.hilbert import (
    _density_fault,
    _mixture_fault,
    _mixture_matrix,
    _random_mixing,
    _rows_fault,
    _spectral_split,
    _unit_row_fault,
    random_decomposition,
    spectral_decompose,
)
from qcorr.measure import _quotient, _weights_fault, mix_rows
from qcorr.observable import (
    _born_rows,
    _check_povm,
    _forward_products,
    _trace_rule,
    joint_from_commuting,
    outcome_measure,
)
from qcorr.selftest import _BINARY, _simplex_rows
from qcorr.tolerance import validation_eps

PRODUCT_RULE = "quantum-product-rule"
CLASSICAL_PRODUCT_RULE = "classical-product-rule"
INVARIANCE = "total-correlation-invariance"
SEPARABLE = "separable-no-entanglement"
MARGINALS = "joint-marginal-consistency"
DIRAC = "classical-dirac-triviality"


def _executed(run) -> Counter:
    """How often `run()` enters each Python code object."""
    codes = Counter()

    def profile(frame, event, arg):
        if event == "call":
            codes[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return codes


def _state(seed=0):
    draws = np.random.default_rng(seed).normal(size=(2, 4, 4))
    return DensityOperator(qcorr.selftest._ginibre_states(draws))


def _qubit_pair(seed=0):
    """The checked pair of projective qubit observables of one selftest draw."""
    draws = np.random.default_rng(seed).normal(size=qcorr.selftest._PAIR_DRAWS)
    effects = qcorr.selftest._qubit_effects(qcorr.selftest._units(draws))
    return tuple(Povm._from_stack(_BINARY, stack) for stack in effects)


def _report():
    a1, a2, joint = spin_z_pair()
    dec = random_decomposition(_state(), 5, np.random.default_rng(1))
    return lambda: correlation_report(joint, a1, a2, dec)


def _spectral():
    state = _state()
    return lambda: spectral_decompose(state)


def _random():
    state = _state()
    spectral_decompose(state)  # the state keeps it: the call only mixes
    return lambda: random_decomposition(state, 6, np.random.default_rng(2))


def _from_rows():
    dec = spectral_decompose(_state())
    weights, vectors = dec._weights.copy(), dec._vectors.copy()
    return lambda: ConvexDecomposition._from_rows(weights, vectors, dec.target)


def _joint():
    a1, a2 = _qubit_pair()
    return lambda: joint_from_commuting(a1, a2)


def _povm():
    stack = _qubit_pair()[0]._stack.copy()
    return lambda: Povm._from_stack(_BINARY, stack)


def _measure():
    joint, state = spin_z_pair()[2], _state()
    return lambda: outcome_measure(joint, state)


def _density():
    matrix = _state().matrix
    return lambda: DensityOperator(matrix)


def _components():
    rng = np.random.default_rng(3)
    weights = _simplex_rows(rng.random(3), 0.0)
    vectors = qcorr.selftest._product_vectors(rng.normal(size=(6, 2, 2)))
    return [(w, PureState(vector)) for w, vector in zip(weights.tolist(), vectors)]


def _from_mixture():
    components = _components()
    return lambda: DensityOperator.from_mixture(components)


def _decomposition():
    components = _components()
    state = DensityOperator.from_mixture(components)
    return lambda: ConvexDecomposition(components, state)


def _kernels(seed=0):
    """Two checked kernels on a three-point phase space and a state on it."""
    rng = np.random.default_rng(seed)
    phase = PhaseSpace(("p0", "p1", "p2"))
    a1, a2 = (
        ClassicalObservable.from_matrix(
            phase, OutcomeSpace(labels), _simplex_rows(rng.random((3, len(labels))), 0.05)
        )
        for labels in (("x0", "x1"), ("y0", "y1", "y2"))
    )
    state = DiscreteMeasure.from_array(phase, _simplex_rows(rng.random(3), 0.0))
    return phase, a1, a2, state


def _from_matrix():
    phase, a1, _, _ = _kernels()
    rows = a1.matrix.copy()
    return lambda: ClassicalObservable.from_matrix(phase, a1.codomain, rows)


def _from_array():
    phase, _, _, state = _kernels()
    weights = state.as_array().copy()
    return lambda: DiscreteMeasure.from_array(phase, weights)


def _classical_joint():
    _, a1, a2, _ = _kernels()
    return lambda: classical_joint(a1, a2)


def _classical_report():
    _, a1, a2, state = _kernels()
    joint = classical_joint(a1, a2)
    return lambda: classical_report(joint, a1, a2, state)


# each step, and the set-up of a single-object call it serves
SINGLE = [
    (_split, _report),
    (_total, _report),
    (mix_rows, _report),
    (_quotient, _report),
    (_born_rows, _report),
    (_spectral_split, _spectral),
    (_random_mixing, _random),
    (_rows_fault, _from_rows),
    (_forward_products, _joint),
    (_check_povm, _povm),
    (_trace_rule, _measure),
    (_density_fault, _density),
    (_mixture_matrix, _from_mixture),
    (_mixture_fault, _decomposition),
    (_weights_fault, _from_matrix),
    (_weights_fault, _from_array),
    (_product_rows, _classical_joint),
    (_pushed, _classical_report),
    (_split, _classical_report),
]

STACKED = [
    (PRODUCT_RULE, (_split, _total, _spectral_split, _random_mixing, _rows_fault)),
    (PRODUCT_RULE, (_forward_products, _check_povm, _trace_rule, _born_rows)),
    (CLASSICAL_PRODUCT_RULE, (_weights_fault, _pushed, _split, _total, mix_rows, _quotient)),
    (INVARIANCE, (_total, _spectral_split, _random_mixing, _rows_fault, _trace_rule)),
    (SEPARABLE, (_density_fault, _mixture_matrix, _unit_row_fault, _mixture_fault)),
    (SEPARABLE, (_trace_rule, _born_rows, _split, _total, mix_rows, _quotient)),
    (MARGINALS, (_forward_products, _check_povm, _trace_rule)),
    (DIRAC, (_weights_fault, _product_rows, _pushed, _split, _total, mix_rows, _quotient)),
]


def _chunk(name: str, trials: int) -> tuple[Counter, list]:
    """What one chunk of `trials` trials of the named suite executes, and
    the size of each chunk its kernel computed."""
    suites = qcorr.selftest._suites(validation_eps())
    trial = next(trial for suite, _, trial in suites if suite == name)
    sizes = []

    def kernel(draws):
        sizes.append(len(draws))
        return trial.kernel(draws)

    spied = dataclasses.replace(trial, kernel=kernel)
    rng = np.random.default_rng(7)
    codes = _executed(lambda: qcorr.selftest._deviations([spied], [rng], trials))
    return codes, sizes


@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("name, steps", STACKED)
def test_stacked_chunks_run_the_engine_steps(name, steps, trials):
    codes, sizes = _chunk(name, trials)
    assert sizes == [trials], "the chunk replayed one trial at a time"
    for step in steps:
        assert codes[step.__code__] > 0, step.__name__


# the steps the three d = 4 quantum suites share, each run once per chunk
# of a whole run on all their trials
SHARED = [
    qcorr.selftest._quantum_kernel,
    qcorr.selftest._ginibre_states,
    qcorr.selftest._qubit_effects,
    qcorr.selftest._pair_statistics,
    _spectral_split,
    qcorr.selftest._mixtures,
]


@pytest.mark.parametrize("trials", [1, 5, 200])
def test_a_run_computes_the_quantum_suites_together_once_per_chunk(trials):
    codes = _executed(lambda: qcorr.selftest.run_selftest(7, trials))
    chunks = -(-trials // qcorr.selftest._CHUNK)
    for step in SHARED:
        assert codes[step.__code__] == chunks, step.__name__


@pytest.mark.parametrize(
    "step, setup", SINGLE, ids=[f"{step.__name__}-{setup.__name__}" for step, setup in SINGLE]
)
def test_single_object_calls_run_the_engine_steps(step, setup):
    assert _executed(setup())[step.__code__] > 0
