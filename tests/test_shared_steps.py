"""The stacked selftest kernels and the object API run the same engine steps.

A profile hook records the Python functions a call executes. Each step runs
in a stacked chunk of each suite that uses it, with no trial replayed
through the per-trial compute step, and in the single-object call it
serves.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import qcorr.selftest
from qcorr import ConvexDecomposition, DensityOperator, Povm, correlation_report, spin_z_pair
from qcorr.correlation import _split, _total
from qcorr.hilbert import (
    _random_mixing,
    _rows_fault,
    _spectral_split,
    random_decomposition,
    spectral_decompose,
)
from qcorr.observable import (
    _check_povm,
    _forward_products,
    _trace_rule,
    joint_from_commuting,
    outcome_measure,
)
from qcorr.selftest import _BINARY

PRODUCT_RULE = "quantum-product-rule"
INVARIANCE = "total-correlation-invariance"
MARGINALS = "joint-marginal-consistency"


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
    return DensityOperator(qcorr.selftest._random_density(np.random.default_rng(seed), 4))


def _qubit_pair(seed=0):
    effects = qcorr.selftest._random_qubit_pvm_pair(np.random.default_rng(seed))
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


# each step, and the set-up of the single-object call it serves
SINGLE = {
    _split: _report,
    _total: _report,
    _spectral_split: _spectral,
    _random_mixing: _random,
    _rows_fault: _from_rows,
    _forward_products: _joint,
    _check_povm: _povm,
    _trace_rule: _measure,
}

STACKED = [
    (PRODUCT_RULE, (_split, _total, _spectral_split, _random_mixing, _rows_fault)),
    (PRODUCT_RULE, (_forward_products, _check_povm, _trace_rule)),
    (INVARIANCE, (_total, _spectral_split, _random_mixing, _rows_fault, _trace_rule)),
    (MARGINALS, (_forward_products, _check_povm, _trace_rule)),
]


def _chunk(name: str, trials: int) -> tuple[Counter, object]:
    """What one chunk of `trials` trials of the named suite executes, and
    the code of its per-trial compute step."""
    trial = next(trial for suite, _, trial in qcorr.selftest._suites() if suite == name)
    rng = np.random.default_rng(7)
    codes = _executed(lambda: list(qcorr.selftest._deviations(trial, rng, trials)))
    compute = getattr(trial.compute, "func", trial.compute)  # the invariance step is a partial
    return codes, compute.__code__


@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("name, steps", STACKED)
def test_stacked_chunks_run_the_engine_steps(name, steps, trials):
    codes, compute = _chunk(name, trials)
    assert codes[compute] == 0, "the chunk replayed through the per-trial step"
    for step in steps:
        assert codes[step.__code__] > 0, step.__name__


@pytest.mark.parametrize("step", list(SINGLE), ids=lambda step: step.__name__)
def test_single_object_calls_run_the_engine_steps(step):
    assert _executed(SINGLE[step]())[step.__code__] > 0
