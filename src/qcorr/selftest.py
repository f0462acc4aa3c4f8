"""Seeded randomized property suites, runnable from the CLI.

Each suite draws its own generator from one seed, so a run is reproducible
from the single reported number. A suite records the worst deviation it saw;
a trial fails when that deviation crosses the suite tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classical_frame import (
    ClassicalJoint,
    ClassicalObservable,
    PhaseSpace,
    classical_joint,
    classical_report,
)
from .correlation import CorrelationReport, correlation_report
from .errors import ValidationError
from .hilbert import (
    ConvexDecomposition,
    DensityOperator,
    PureState,
    random_decomposition,
    spectral_decompose,
)
from .measure import DensityFunction, DiscreteMeasure, OutcomeSpace, ProductSpace, dirac, marginal
from .observable import Povm, joint_from_commuting, outcome_measure, spin_z_pair
from .tolerance import PRODUCT_RULE_TOL

__all__ = ["SuiteResult", "SelftestReport", "run_selftest"]

INVARIANCE_TOL = 1e-7
SEPARABLE_TOL = 1e-7
MARGINAL_TOL = 1e-9
DIRAC_TOL = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class SelftestReport:
    seed: int
    trials: int
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(suite.passed for suite in self.suites)


# random draws ---------------------------------------------------------------


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


def _random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = ginibre @ ginibre.conj().T
    return DensityOperator(matrix / np.trace(matrix).real)


_BINARY = OutcomeSpace(("0", "1"))


def _random_qubit_pvm_pair(rng: np.random.Generator) -> tuple[Povm, Povm]:
    """Projective qubit observables acting on the two factors of C^2 (x) C^2."""
    eye = np.eye(2, dtype=complex)
    left = _random_unit(rng, 2)
    right = _random_unit(rng, 2)
    p = np.outer(left, left.conj())
    q = np.outer(right, right.conj())
    a1 = Povm(_BINARY, {"0": np.kron(p, eye), "1": np.kron(eye - p, eye)})
    a2 = Povm(_BINARY, {"0": np.kron(eye, q), "1": np.kron(eye, eye - q)})
    return a1, a2


def _random_simplex(rng: np.random.Generator, size: int, floor: float = 0.0) -> np.ndarray:
    weights = rng.random(size) + floor
    return weights / weights.sum()


def _random_phase_space(rng: np.random.Generator) -> PhaseSpace:
    size = int(rng.integers(2, 5))
    return PhaseSpace(tuple(f"p{i}" for i in range(size)))


def _random_kernel(
    rng: np.random.Generator, phase: PhaseSpace, codomain: OutcomeSpace
) -> ClassicalObservable:
    rows = [_random_simplex(rng, len(codomain), floor=0.05) for _ in phase.labels]
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


# suites ---------------------------------------------------------------------


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
    state = _random_density(rng, 4)
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


def _separable(spin: tuple[Povm, Povm, Povm], rng: np.random.Generator) -> float:
    """Mixtures of product pure states carry no entanglement-type correlation
    relative to their product decomposition."""
    a1, a2, joint = spin
    count = int(rng.integers(1, 9))
    weights = _random_simplex(rng, count, floor=0.02)
    components = [
        (float(w), PureState(np.kron(_random_unit(rng, 2), _random_unit(rng, 2))))
        for w in weights
    ]
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    return _deviation_from_one(correlation_report(joint, a1, a2, dec).rho_e)


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


def _suites() -> tuple:
    """(name, tolerance, trial) for every suite, in report order. The spin
    pair is built per call, so it follows the validation eps in force."""
    spin = spin_z_pair()
    return (
        ("quantum-product-rule", PRODUCT_RULE_TOL, _quantum_product_rule),
        ("classical-product-rule", PRODUCT_RULE_TOL, _classical_product_rule),
        ("total-correlation-invariance", INVARIANCE_TOL, partial(_invariance, spin)),
        ("separable-no-entanglement", SEPARABLE_TOL, partial(_separable, spin)),
        ("joint-marginal-consistency", MARGINAL_TOL, _marginals),
        ("classical-dirac-triviality", DIRAC_TOL, _classical_dirac),
    )


def _run_suite(
    name: str,
    tolerance: float,
    trial: Callable[[np.random.Generator], float],
    rng: np.random.Generator,
    trials: int,
) -> SuiteResult:
    """Run `trial` `trials` times on `rng`; each call draws its inputs and
    returns the deviation that `tolerance` bounds. The worst deviation is
    folded from 0 in trial order; one at or above `tolerance` is a failure."""
    deviations = [trial(rng) for _ in range(trials)]
    failures = sum(deviation >= tolerance for deviation in deviations)
    return SuiteResult(name, trials, failures, max(0.0, *deviations), tolerance)


def run_selftest(seed: int | None = None, trials: int = 200) -> SelftestReport:
    """Run every property suite with `trials` draws each.

    Pass the reported seed back in to reproduce a run exactly.
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**32))
    elif seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    suites = _suites()
    streams = np.random.SeedSequence(seed).spawn(len(suites))
    results = tuple(
        _run_suite(name, tolerance, trial, np.random.default_rng(stream), trials)
        for (name, tolerance, trial), stream in zip(suites, streams)
    )
    return SelftestReport(seed=seed, trials=trials, suites=results)
