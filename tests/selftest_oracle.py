"""Reference oracle: the three d = 4 quantum selftest trials as one function
each, drawing and computing one trial at a time.

These are the trial functions `qcorr.selftest` ran before it split each into
a draw step and a compute step and computed whole chunks of trials on
stacks, with the two input builders they called. Each takes the suite's
generator, draws one trial's inputs from it, builds and validates every
object through the public constructors and returns the trial's deviation.
Tests compare the package's per-trial deviations, suite results and errors
with them.
"""

import math

import numpy as np

from qcorr import ConvexDecomposition, DensityOperator, Povm
from qcorr.correlation import CorrelationReport, correlation_report
from qcorr.hilbert import _kron, random_decomposition, spectral_decompose
from qcorr.measure import marginal
from qcorr.observable import joint_from_commuting, outcome_measure
from qcorr.selftest import _BINARY, _random_units


def _random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    draws = rng.normal(size=(2, dim, dim))
    ginibre = draws[0] + 1j * draws[1]
    matrix = ginibre @ ginibre.conj().T
    return DensityOperator(matrix / np.trace(matrix).real)


def _random_qubit_pvm_pair(rng: np.random.Generator) -> tuple[Povm, Povm]:
    """Projective qubit observables acting on the two factors of C^2 (x) C^2."""
    eye = np.eye(2, dtype=complex)
    units = _random_units(rng, 2, 2)
    projectors = units[:, :, None] * units.conj()[:, None, :]
    stacks = np.stack([projectors, eye - projectors], axis=1)
    a1 = Povm._from_stack(_BINARY, _kron(stacks[0], eye))
    a2 = Povm._from_stack(_BINARY, _kron(eye, stacks[1]))
    return a1, a2


def _residual(report: CorrelationReport) -> float:
    """The report's product-rule residual; a missing factor is an infinite miss."""
    residual = report.product_rule_residual
    return math.inf if residual is None else residual


def _quantum_product_rule(rng: np.random.Generator) -> float:
    """rho_c * rho_e recovers rho_t for random states, product projective
    observable pairs, and random decompositions."""
    state = _random_density(rng, 4)
    a1, a2 = _random_qubit_pvm_pair(rng)
    joint = joint_from_commuting(a1, a2)
    dec = random_decomposition(state, int(rng.integers(4, 8)), rng)
    return _residual(correlation_report(joint, a1, a2, dec))


def _invariance(spin: tuple[Povm, Povm, Povm], rng: np.random.Generator) -> float:
    """Total correlation depends only on the state: rebuilding the operator
    from two different decompositions leaves rho_t unchanged pointwise."""
    a1, a2, joint = spin
    state = _random_density(rng, 4)
    spectral = spectral_decompose(state)
    shuffled = random_decomposition(state, int(rng.integers(4, 8)), rng)
    rho_1, rho_2 = (
        correlation_report(
            joint, a1, a2, ConvexDecomposition.from_components(dec.components)
        ).rho_t
        for dec in (spectral, shuffled)
    )
    return rho_1.max_difference(rho_2)


def _marginals(rng: np.random.Generator) -> float:
    """The joint built from a commuting product pair reproduces both factor
    statistics as marginals."""
    state = _random_density(rng, 4)
    a1, a2 = _random_qubit_pvm_pair(rng)
    joint = joint_from_commuting(a1, a2)
    joint_measure = outcome_measure(joint, state)
    deviation = 0.0
    for side, single in (("left", a1), ("right", a2)):
        reduced = marginal(joint_measure, side)
        direct = outcome_measure(single, state)
        deviation = max(
            deviation,
            max(
                abs(reduced.weight(label) - direct.weight(label))
                for label in single.space.labels
            ),
        )
    return deviation
