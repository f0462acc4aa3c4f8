"""Reference oracle: the six selftest trials as one function each, drawing
and computing one trial at a time.

These are the trial functions `qcorr.selftest` ran before it split each into
a draw step and a kernel over chunks of trials. Each takes the suite's
generator, draws one trial's inputs from it through the one-at-a-time
builders below, builds and validates every object through the public
constructors and returns the trial's deviation. The builders draw one unit
vector, one Ginibre part or one probability row per generator call, as the
package drew them before it batched its draws, and share no code with the
package's draw helpers. A suite's kernel must give these bits on a chunk,
and on a single trial also raise the error (type and message) its oracle
raises there, in the order its oracle checks: a chunk that fails a check
is computed again through the kernel one trial at a time. Tests compare
the package's per-trial deviations, suite results, errors and built inputs
with them.
"""

import math

import numpy as np

from qcorr import ConvexDecomposition, DensityOperator, Povm, PureState
from qcorr.classical_frame import (
    ClassicalJoint,
    ClassicalObservable,
    PhaseSpace,
    classical_joint,
    classical_report,
)
from qcorr.correlation import CorrelationReport, correlation_report
from qcorr.hilbert import random_decomposition, spectral_decompose
from qcorr.measure import (
    DensityFunction,
    DiscreteMeasure,
    OutcomeSpace,
    ProductSpace,
    dirac,
    marginal,
)
from qcorr.observable import joint_from_commuting, outcome_measure

_BINARY = OutcomeSpace(("0", "1"))


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


def _random_units(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` random unit vectors of C^dim as rows, drawn one at a time."""
    return np.array([_random_unit(rng, dim) for _ in range(count)])


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The state matrix G G^H over its trace, its Ginibre matrix G drawn one
    part at a time; the trial that draws it checks it."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = ginibre @ ginibre.conj().T
    return matrix / np.trace(matrix).real


def _random_row(rng: np.random.Generator, size: int, floor: float) -> np.ndarray:
    weights = rng.random(size) + floor
    return weights / weights.sum()


def _random_simplex(
    rng: np.random.Generator, size: int | tuple[int, int], floor: float = 0.0
) -> np.ndarray:
    """Random probability weights, or a matrix of rows, one row at a time."""
    if isinstance(size, tuple):
        return np.array([_random_row(rng, size[1], floor) for _ in range(size[0])])
    return _random_row(rng, size, floor)


def _qubit_effects(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The effect stacks of the projective qubit observables {P, I - P} of
    the unit vectors `units` (2, 2) on the two factors of C^2 (x) C^2, built
    with np.kron and the mapping constructor."""
    eye = np.eye(2, dtype=complex)
    left, right = units
    p = np.outer(left, left.conj())
    q = np.outer(right, right.conj())
    a1 = Povm(_BINARY, {"0": np.kron(p, eye), "1": np.kron(eye - p, eye)})
    a2 = Povm(_BINARY, {"0": np.kron(eye, q), "1": np.kron(eye, eye - q)})
    return a1._stack, a2._stack


def _random_qubit_pvm_pair(rng: np.random.Generator) -> tuple[Povm, Povm]:
    """Projective qubit observables acting on the two factors of C^2 (x) C^2."""
    units = _random_units(rng, 2, 2)
    return tuple(Povm._from_stack(_BINARY, stack) for stack in _qubit_effects(units))


def _random_phase_space(rng: np.random.Generator) -> PhaseSpace:
    size = int(rng.integers(2, 5))
    return PhaseSpace(tuple(f"p{i}" for i in range(size)))


def _random_kernel(
    rng: np.random.Generator, phase: PhaseSpace, codomain: OutcomeSpace
) -> ClassicalObservable:
    rows = _random_simplex(rng, (len(phase), len(codomain)), floor=0.05)
    return ClassicalObservable.from_matrix(phase, codomain, rows)


def _frechet_coupling(rng: np.random.Generator, p: float, q: float) -> list[float]:
    """A random coupling of two binary rows with the given success weights,
    row-major over (0,0), (0,1), (1,0), (1,1).

    Any value of the (0,0) cell between the Frechet bounds yields a joint row
    whose marginals are exactly (p, 1-p) and (q, 1-q).
    """
    low = max(0.0, p + q - 1.0)
    high = min(p, q)
    c = low + (high - low) * rng.random()
    return [c, p - c, q - c, 1.0 - p - q + c]


def _product_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` random product unit vectors of C^2 (x) C^2 as rows, one
    np.kron each, each drawn left factor first."""
    units = _random_units(rng, 2 * count, 2)
    return np.array([np.kron(left, right) for left, right in zip(units[0::2], units[1::2])])


def _residual(report: CorrelationReport) -> float:
    """The report's product-rule residual; a missing factor is an infinite miss."""
    residual = report.product_rule_residual
    return math.inf if residual is None else residual


def _deviation_from_one(rho: DensityFunction | None) -> float:
    """Largest |rho - 1| on the support; a missing density is an infinite miss."""
    return math.inf if rho is None else rho.deviation_from(1.0)


def _quantum_product_rule(rng: np.random.Generator) -> float:
    """rho_c * rho_e recovers rho_t for random states, product projective
    observable pairs, and random decompositions."""
    state = DensityOperator(_random_density(rng, 4))
    a1, a2 = _random_qubit_pvm_pair(rng)
    joint = joint_from_commuting(a1, a2)
    dec = random_decomposition(state, int(rng.integers(4, 8)), rng)
    return _residual(correlation_report(joint, a1, a2, dec))


def _classical_product_rule(rng: np.random.Generator) -> float:
    """Same product rule in the classical frame, with joints drawn between
    the Frechet bounds so marginal consistency holds by construction."""
    phase = _random_phase_space(rng)
    a1 = _random_kernel(rng, phase, _BINARY)
    a2 = _random_kernel(rng, phase, _BINARY)
    rows = [_frechet_coupling(rng, p, q) for p, q in zip(a1.matrix[:, 0], a2.matrix[:, 0])]
    joint = ClassicalJoint.from_matrix(phase, ProductSpace(_BINARY, _BINARY), rows)
    state = DiscreteMeasure.from_array(phase, _random_simplex(rng, len(phase), floor=0.05))
    return _residual(classical_report(joint, a1, a2, state))


def _invariance(spin: tuple[Povm, Povm, Povm], rng: np.random.Generator) -> float:
    """Total correlation depends only on the state: rebuilding the operator
    from two different decompositions leaves rho_t unchanged pointwise."""
    a1, a2, joint = spin
    state = DensityOperator(_random_density(rng, 4))
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
    state = DensityOperator(_random_density(rng, 4))
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


def _separable(spin: tuple[Povm, Povm, Povm], rng: np.random.Generator) -> float:
    """Mixtures of product pure states carry no entanglement-type correlation
    relative to their product decomposition."""
    a1, a2, joint = spin
    count = int(rng.integers(1, 9))
    weights = _random_simplex(rng, count, floor=0.02)
    components = [
        (w, PureState(vector))
        for w, vector in zip(weights.tolist(), _product_vectors(rng, count))
    ]
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    return _deviation_from_one(correlation_report(joint, a1, a2, dec).rho_e)


def _classical_dirac(rng: np.random.Generator) -> float:
    """Classical correlation is constant 1 at every point-mass state: a sharp
    phase-space point leaves nothing for the mixing to correlate."""
    phase = _random_phase_space(rng)
    codomain_1 = OutcomeSpace(tuple(f"x{i}" for i in range(int(rng.integers(2, 4)))))
    codomain_2 = OutcomeSpace(tuple(f"y{i}" for i in range(int(rng.integers(2, 4)))))
    a1 = _random_kernel(rng, phase, codomain_1)
    a2 = _random_kernel(rng, phase, codomain_2)
    point = phase.labels[int(rng.integers(0, len(phase)))]
    report = classical_report(classical_joint(a1, a2), a1, a2, dirac(phase, point))
    return _deviation_from_one(report.rho_c)
