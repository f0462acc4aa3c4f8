"""Seeded randomized property suites, runnable from the CLI.

Each suite draws its own generator from one seed, so a run is reproducible
from the single reported number. A suite records the worst deviation it saw;
a trial fails when that deviation crosses the suite tolerance. Every suite
takes the raw draws of a chunk of trials first, builds the chunk's inputs
from them and computes the chunk on stacks through the engine's own batched
steps (the checks, the joint's products, the spectral split, the random
mixing and the one correlation split, `correlation._split`), with the bits
of its per-trial code, which replays any chunk the stacks cannot hold (see
`_Stacked`). The suites whose trials differ in shape (phase-space size,
codomains, component count) stack each group of one shape.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .classical_frame import (
    ClassicalJoint,
    ClassicalObservable,
    PhaseSpace,
    _product_rows,
    _pushed,
    classical_joint,
    classical_report,
)
from .correlation import CorrelationReport, _split, _total, correlation_report
from .errors import QcorrError, ValidationError
from .hilbert import (
    ConvexDecomposition,
    DensityOperator,
    PureState,
    _density_fault,
    _kron,
    _mixture_matrix,
    _random_mixing,
    _row_norms,
    _rows_fault,
    _spectral_split,
    spectral_decompose,
)
from .measure import (
    DensityFunction,
    DiscreteMeasure,
    OutcomeSpace,
    ProductSpace,
    _integer,
    _nanmax,
    _weights_fault,
    dirac,
    marginal,
)
from .observable import (
    Povm,
    _born_rows,
    _check_povm,
    _commutation_certified,
    _forward_products,
    _pairwise_projective,
    _trace_rule,
    joint_from_commuting,
    outcome_measure,
    spin_z_pair,
)
from .tolerance import PRODUCT_RULE_TOL, validation_eps

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

# A trial's draw step makes only its generator calls and returns their raw
# arrays. The helpers below build its inputs from them, each on one trial's
# draws or on a stack of trials' (leading axes), with the same bits either way.


def _ginibre_states(draws: np.ndarray) -> np.ndarray:
    """The state matrices (..., d, d) of Ginibre draws (..., 2, d, d), real
    part first: G G^H over its trace. The trial that draws them checks them."""
    ginibre = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    matrices = ginibre @ ginibre.conj().swapaxes(-1, -2)
    return matrices / np.trace(matrices, axis1=-2, axis2=-1).real[..., None, None]


def _units(draws: np.ndarray) -> np.ndarray:
    """The unit vectors (..., d) of C^d of normal draws (..., 2, d), real
    part first."""
    vectors = draws[..., 0, :] + 1j * draws[..., 1, :]
    return vectors / _row_norms(vectors)[..., None]


def _product_vectors(draws: np.ndarray) -> np.ndarray:
    """The product unit vectors (..., n, 4) of C^2 (x) C^2 of the unit draws
    (..., 2 n, 2, 2), each left factor first."""
    units = _units(draws)
    return _kron(units[..., 0::2, :], units[..., 1::2, :], core=1)


def _simplex_rows(uniforms: np.ndarray, floor: float) -> np.ndarray:
    """Probability rows (..., n) of uniform draws (..., n) raised by `floor`:
    kernel rows and weights; the trial that draws them checks them."""
    weights = uniforms + floor
    return weights / weights.sum(axis=-1, keepdims=True)


_BINARY = OutcomeSpace(("0", "1"))
_BINARY_PAIRS = ProductSpace(_BINARY, _BINARY)
# the normal draws of a d = 4 quantum trial's state and of its qubit pair
_STATE_DRAWS = (2, 4, 4)
_PAIR_DRAWS = (2, 2, 2)


def _qubit_effects(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The effect stacks (2, 4, 4) of the two projective qubit observables
    {P, I - P} of the unit vectors `units` (2, 2), acting on the two factors
    of C^2 (x) C^2, or (B, 2, 4, 4) of each pair of a batch (B, 2, 2); the
    trial that draws the units checks the effects."""
    eye = np.eye(2, dtype=complex)
    projectors = units[..., :, None] * units.conj()[..., None, :]
    stacks = np.stack([projectors, eye - projectors], axis=-3)  # (..., side, outcome, 2, 2)
    return _kron(stacks[..., 0, :, :, :], eye), _kron(eye, stacks[..., 1, :, :, :])


def _labels(prefix: str, size: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(size))


def _frechet_coupling(p: np.ndarray, q: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Random couplings (n, 4) of binary rows with the success weights `p`
    and `q` (n,), each placed by one uniform draw of `cells` (n,), row-major
    over (0,0), (0,1), (1,0), (1,1); or (B, n, 4) of a batch (B, n).

    Any value of the (0,0) cell between the Frechet bounds yields a joint row
    whose marginals are exactly (p, 1-p) and (q, 1-q).
    """
    low = np.maximum(0.0, p + q - 1.0)
    high = np.minimum(p, q)
    c = low + (high - low) * cells
    return np.stack([c, p - c, q - c, 1.0 - p - q + c], axis=-1)


# suites ---------------------------------------------------------------------


def _residual(report: CorrelationReport) -> float:
    """The report's product-rule residual; a missing factor is an infinite miss."""
    residual = report.product_rule_residual
    return math.inf if residual is None else residual


def _deviation_from_one(rho: DensityFunction | None) -> float:
    """Largest |rho - 1| on the support; a missing density is an infinite miss."""
    return math.inf if rho is None else rho.deviation_from(1.0)


def _mixing_draws(rng: np.random.Generator) -> np.ndarray:
    """A decomposition size in 4..7, then the draws (2, size, size) that
    `random_decomposition` takes for it."""
    size = int(rng.integers(4, 8))
    return rng.normal(size=(2, size, size))


def _random_mixture(state: DensityOperator, mixing: np.ndarray) -> ConvexDecomposition:
    """`random_decomposition` of `state` on the drawn `mixing`."""
    spectral = spectral_decompose(state)
    mixture = _random_mixing(mixing, spectral._weights, spectral.vectors)
    return ConvexDecomposition._from_rows(*mixture, state)


def _qubit_pair(draws: np.ndarray) -> tuple[Povm, Povm]:
    """The checked pair of projective qubit observables of the unit draws
    `draws` (2, 2, 2)."""
    return tuple(Povm._from_stack(_BINARY, stack) for stack in _qubit_effects(_units(draws)))


def _product_rule_draws(rng: np.random.Generator) -> tuple:
    return rng.normal(size=_STATE_DRAWS), rng.normal(size=_PAIR_DRAWS), _mixing_draws(rng)


def _quantum_product_rule(draws: tuple) -> float:
    """rho_c * rho_e recovers rho_t for random states, product projective
    observable pairs, and random decompositions."""
    normals, pair, mixing = draws
    state = DensityOperator(_ginibre_states(normals))
    a1, a2 = _qubit_pair(pair)
    joint = joint_from_commuting(a1, a2)
    dec = _random_mixture(state, mixing)
    return _residual(correlation_report(joint, a1, a2, dec))


def _classical_product_rule_draws(rng: np.random.Generator) -> tuple:
    """A phase-space size in 2..4, the uniforms of both kernels' rows, one
    uniform per coupling cell and the uniforms of the state's weights."""
    size = int(rng.integers(2, 5))
    return rng.random((size, 2)), rng.random((size, 2)), rng.random(size), rng.random(size)


def _classical_product_rule(draws: tuple) -> float:
    """Same product rule in the classical frame, with joints drawn between
    the Frechet bounds so marginal consistency holds by construction."""
    uniforms_1, uniforms_2, cells, uniforms = draws
    rows_1, rows_2, weights = (_simplex_rows(u, 0.05) for u in (uniforms_1, uniforms_2, uniforms))
    phase = PhaseSpace(_labels("p", len(weights)))
    a1 = ClassicalObservable.from_matrix(phase, _BINARY, rows_1)
    a2 = ClassicalObservable.from_matrix(phase, _BINARY, rows_2)
    rows = _frechet_coupling(a1.matrix[:, 0], a2.matrix[:, 0], cells)
    joint = ClassicalJoint.from_matrix(phase, _BINARY_PAIRS, rows)
    state = DiscreteMeasure.from_array(phase, weights)
    return _residual(classical_report(joint, a1, a2, state))


def _invariance_draws(rng: np.random.Generator) -> tuple:
    return rng.normal(size=_STATE_DRAWS), _mixing_draws(rng)


def _invariance(spin: tuple[Povm, Povm, Povm], draws: tuple) -> float:
    """Total correlation depends only on the state: rebuilding the operator
    from two different decompositions leaves rho_t unchanged pointwise."""
    a1, a2, joint = spin
    normals, mixing = draws
    state = DensityOperator(_ginibre_states(normals))
    spectral = spectral_decompose(state)
    shuffled = _random_mixture(state, mixing)
    rho_1, rho_2 = (
        correlation_report(
            joint, a1, a2, ConvexDecomposition.from_components(dec.components)
        ).rho_t
        for dec in (spectral, shuffled)
    )
    return rho_1.max_difference(rho_2)


def _separable_draws(rng: np.random.Generator) -> tuple:
    """A component count n in 1..8, the uniforms of the weights and the unit
    draws (2 n, 2, 2) of the product vectors."""
    count = int(rng.integers(1, 9))
    return rng.random(count), rng.normal(size=(2 * count, 2, 2))


def _separable_mixture(draws: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The weights (..., n) and product vectors (..., n, 4) of the separable
    suite's draws, of one trial or of a group of one count."""
    uniforms, normals = draws
    return _simplex_rows(uniforms, 0.02), _product_vectors(normals)


def _separable(spin: tuple[Povm, Povm, Povm], draws: tuple) -> float:
    """Mixtures of product pure states carry no entanglement-type correlation
    relative to their product decomposition."""
    a1, a2, joint = spin
    weights, vectors = _separable_mixture(draws)
    components = [(w, PureState(vector)) for w, vector in zip(weights.tolist(), vectors)]
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    return _deviation_from_one(correlation_report(joint, a1, a2, dec).rho_e)


def _marginals_draws(rng: np.random.Generator) -> tuple:
    return rng.normal(size=_STATE_DRAWS), rng.normal(size=_PAIR_DRAWS)


def _marginals(draws: tuple) -> float:
    """The joint built from a commuting product pair reproduces both factor
    statistics as marginals."""
    normals, pair = draws
    state = DensityOperator(_ginibre_states(normals))
    a1, a2 = _qubit_pair(pair)
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


def _classical_dirac_draws(rng: np.random.Generator) -> tuple:
    """Phase-space and both codomain sizes, the uniforms of both kernels'
    rows and the point's index (a numpy integer)."""
    size, k1, k2 = (int(rng.integers(2, high)) for high in (5, 4, 4))
    return rng.random((size, k1)), rng.random((size, k2)), rng.integers(0, size)


def _classical_dirac(draws: tuple) -> float:
    """Classical correlation is constant 1 at every point-mass state: a sharp
    phase-space point leaves nothing for the mixing to correlate."""
    uniforms_1, uniforms_2, point = draws
    rows_1, rows_2 = _simplex_rows(uniforms_1, 0.05), _simplex_rows(uniforms_2, 0.05)
    phase = PhaseSpace(_labels("p", len(rows_1)))
    codomain_1, codomain_2 = _dirac_codomains(rows_1, rows_2)
    a1 = ClassicalObservable.from_matrix(phase, codomain_1, rows_1)
    a2 = ClassicalObservable.from_matrix(phase, codomain_2, rows_2)
    report = classical_report(classical_joint(a1, a2), a1, a2, dirac(phase, phase.labels[point]))
    return _deviation_from_one(report.rho_c)


def _dirac_codomains(rows_1: np.ndarray, rows_2: np.ndarray) -> tuple:
    """The codomains of the Dirac suite's kernel rows (..., k1) and (..., k2)."""
    return tuple(
        OutcomeSpace(_labels(prefix, rows.shape[-1]))
        for prefix, rows in (("x", rows_1), ("y", rows_2))
    )


# stacked chunks -------------------------------------------------------------

# Trials a stacked suite draws and computes at a time: its stacks hold a few
# hundred 4 x 4 matrices however many trials a run asks for.
_CHUNK = 128


class _Replay(Exception):
    """A chunk the stacked kernel cannot hold: it replays trial by trial."""


def _require(verdict) -> None:
    if not verdict:
        raise _Replay


@dataclass(frozen=True)
class _Stacked:
    """A trial as `draw`, every generator call of one trial returning its
    raw arrays, and `compute`, which builds the trial's inputs from them and
    runs the per-object code. `kernel` takes the draws of a whole chunk and
    returns their deviations, computed on stacks with the bits of `compute`,
    or raises where `compute` would raise or where a trial does not fit the
    stacks."""

    draw: Callable[[np.random.Generator], tuple]
    compute: Callable[[tuple], float]
    kernel: Callable[[list], list]

    def __call__(self, rng: np.random.Generator) -> float:
        return self.compute(self.draw(rng))


def _chunk_deviations(trial: Callable, rng: np.random.Generator, count: int) -> list:
    """The deviations of the next `count` trials. A stacked trial draws them
    all first. When its kernel declines the chunk, or a check it shares with
    the per-object code raises, every trial is computed from its stored
    draws in order, so an error is raised at its own trial with its own
    message."""
    if not isinstance(trial, _Stacked):
        return [trial(rng) for _ in range(count)]
    draws = [trial.draw(rng) for _ in range(count)]
    try:
        return trial.kernel(draws)
    except (_Replay, QcorrError, np.linalg.LinAlgError):
        return [trial.compute(draw) for draw in draws]


def _shape_groups(draws: list):
    """The chunk's trials grouped by the shapes of their draws, numpy arrays
    or scalars, in order of first appearance: (trial indices, each draw of
    the group's trials stacked) per group."""
    groups = {}
    for trial, draw in enumerate(draws):
        groups.setdefault(tuple([array.shape for array in draw]), []).append(trial)
    for index in groups.values():
        yield index, tuple(np.array(stack) for stack in zip(*(draws[i] for i in index)))


def _densities_accepted(matrices: np.ndarray, eps: float) -> bool:
    """Whether `DensityOperator` takes every matrix of the stack (b, d, d)."""
    return bool(np.isfinite(matrices).all()) and _density_fault(matrices, eps) is None


def _stacked_states(draws: list) -> tuple[np.ndarray, float]:
    """The chunk's state matrices (B, d, d), built from its Ginibre draws (the
    first draw) and checked as `DensityOperator` checks each, and the
    validation eps."""
    matrices = _ginibre_states(np.array([draw[0] for draw in draws]))
    eps = validation_eps()
    _require(_densities_accepted(matrices, eps))
    return matrices, eps


def _stacked_decompositions(split, matrices: np.ndarray, eps: float) -> tuple:
    """`split`, weights (b, n) and unit rows (b, n, d) of the targets
    `matrices` (b, d, d), once `ConvexDecomposition._from_rows` takes each."""
    _require(split is not None)
    _require(_rows_fault(*split, matrices, eps) is None)
    return split


def _stacked_mixtures(draws: list, spectral: tuple, matrices: np.ndarray, eps: float) -> list:
    """`_random_mixture` of each state on its drawn mixing (the last draw),
    from the chunk's spectral splits `spectral`, in groups of one size:
    (trial indices, weights (b, n), unit rows (b, n, d)) per size n."""
    weights, rows = spectral
    groups = []
    for index, (normals,) in _shape_groups([draw[-1:] for draw in draws]):
        mixture = _random_mixing(normals, weights[index], rows[index])
        groups.append((index, *_stacked_decompositions(mixture, matrices[index], eps)))
    return groups


def _finite_list(deviations: np.ndarray) -> list:
    _require(np.isfinite(deviations).all())
    return deviations.tolist()


def _stacked_statistics(draws: list) -> tuple:
    """`_stacked_states`, the chunk's factor effects (B, k, d, d), each side
    checked as `Povm._from_stack` checks it, and the outcome weights
    (B, k k + k + k) of each pair's joint, built and checked as
    `joint_from_commuting` builds and checks it, and of the pair."""
    matrices, eps = _stacked_states(draws)
    sides = _qubit_effects(_units(np.array([draw[1] for draw in draws])))
    skews = [_check_povm(_BINARY.outcomes, side, eps) for side in sides]
    _require(all(_pairwise_projective(side, eps) for side in sides))
    products = _forward_products(*(side.swapaxes(0, 1) for side in sides))  # (k, k, B, d, d)
    k, _, count, dim, _ = products.shape
    rows = products.reshape(k, k * count, dim, dim)
    _require(_commutation_certified(sides[0], skews[0], sides[1], skews[1], rows, eps))
    joints = products.transpose(2, 0, 1, 3, 4).reshape(count, k * k, dim, dim)
    statistics = _trace_rule(np.concatenate([joints, *sides], 1), matrices)
    return matrices, eps, *sides, statistics


def _product_rule_kernel(draws: list) -> list:
    matrices, eps, left, right, statistics = _stacked_statistics(draws)
    spectral = _stacked_decompositions(_spectral_split(matrices, eps), matrices, eps)
    points = _BINARY_PAIRS.points
    residuals = np.empty(len(draws))
    for index, mixed, vectors in _stacked_mixtures(draws, spectral, matrices, eps):
        born = _born_rows(np.concatenate([left[index], right[index]], 1), vectors)
        measures = statistics[index, :4], statistics[index, 4:6], statistics[index, 6:]
        residual = _split(*measures, mixed, born[..., :2], born[..., 2:], points)[-1]
        _require(residual is not None)
        residuals[index] = residual
    return _finite_list(residuals)


def _require_weights(space, rows: np.ndarray, eps: float) -> None:
    """Require that `ClassicalObservable.from_matrix` (or, for one row per
    trial, `DiscreteMeasure.from_array`) takes every trial's `rows`."""
    _require(_weights_fault(space, rows, eps) is None)


def _classical_split(weights: np.ndarray, joint: np.ndarray, rows_1, rows_2, points) -> tuple:
    """`classical_report`'s split of the states `weights` (b, n) through the
    joint rows (b, n, k1 k2) and kernel rows (b, n, k1) and (b, n, k2)."""
    measures = (_pushed(weights, rows) for rows in (joint, rows_1, rows_2))
    return _split(*measures, weights, rows_1, rows_2, points)


def _classical_product_rule_kernel(draws: list) -> list:
    eps = validation_eps()
    residuals = np.empty(len(draws))
    for index, (uniforms_1, uniforms_2, cells, uniforms) in _shape_groups(draws):
        rows_1, rows_2, weights = (
            _simplex_rows(u, 0.05) for u in (uniforms_1, uniforms_2, uniforms)
        )
        _require_weights(_BINARY, rows_1, eps)
        _require_weights(_BINARY, rows_2, eps)
        joint = _frechet_coupling(rows_1[..., 0], rows_2[..., 0], cells)
        _require_weights(_BINARY_PAIRS, joint, eps)
        _require_weights(PhaseSpace(_labels("p", weights.shape[-1])), weights, eps)
        residual = _classical_split(weights, joint, rows_1, rows_2, _BINARY_PAIRS.points)[-1]
        _require(residual is not None)
        residuals[index] = residual
    return _finite_list(residuals)


def _rebuilt_rho_t(spin: tuple[Povm, Povm, Povm], mixture: tuple, eps: float) -> np.ndarray:
    """rho_t (b, 2, 2) at the state `ConvexDecomposition.from_components`
    rebuilds from each mixture, weights (b, n) and unit rows (b, n, d)."""
    a1, a2, joint = spin
    matrices = _mixture_matrix(*mixture)
    _require(_densities_accepted(matrices, eps))
    _stacked_decompositions(mixture, matrices, eps)
    statistics = _trace_rule(np.concatenate([joint._stack, a1._stack, a2._stack]), matrices)
    measures = statistics[:, :4], statistics[:, 4:6], statistics[:, 6:]
    return _total(*measures, joint.space.points)[-1]


def _invariance_kernel(spin: tuple[Povm, Povm, Povm], draws: list) -> list:
    matrices, eps = _stacked_states(draws)
    spectral = _stacked_decompositions(_spectral_split(matrices, eps), matrices, eps)
    rho_t = _rebuilt_rho_t(spin, spectral, eps)
    gaps = np.empty(len(draws))
    for index, mixed, vectors in _stacked_mixtures(draws, spectral, matrices, eps):
        shuffled = _rebuilt_rho_t(spin, (mixed, vectors), eps)
        gaps[index] = _nanmax(np.abs(rho_t[index] - shuffled).reshape(len(index), -1))
    return _finite_list(gaps)


def _separable_kernel(spin: tuple[Povm, Povm, Povm], draws: list) -> list:
    a1, a2, joint = spin
    eps = validation_eps()
    groups = []
    for index, group in _shape_groups(draws):
        mixture = _separable_mixture(group)
        groups.append((index, *mixture, _mixture_matrix(*mixture)))
    # every state is 4 x 4: one density check for the whole chunk
    _require(_densities_accepted(np.concatenate([group[-1] for group in groups]), eps))
    sides = np.concatenate([a1._stack, a2._stack])
    stack = np.concatenate([joint._stack, sides])
    deviations = np.empty(len(draws))
    for index, weights, vectors, matrices in groups:
        _require(_rows_fault(weights, vectors, matrices, eps) is None)
        statistics = _trace_rule(stack, matrices)
        born = _born_rows(sides, vectors)
        measures = statistics[:, :4], statistics[:, 4:6], statistics[:, 6:]
        rho_e = _split(*measures, weights, born[..., :2], born[..., 2:], joint.space.points)[4][0]
        _require(rho_e is not None)
        deviations[index] = _nanmax(np.abs(rho_e - 1.0).reshape(len(index), -1))
    return _finite_list(deviations)


def _marginals_kernel(draws: list) -> list:
    statistics = _stacked_statistics(draws)[-1]
    grid = statistics[:, :4].reshape(-1, 2, 2)
    reduced = np.concatenate([grid.sum(axis=2), grid.sum(axis=1)], axis=1)
    gaps = np.abs(reduced - statistics[:, 4:])
    _require(np.isfinite(gaps).all())
    return _nanmax(gaps).tolist()


def _classical_dirac_kernel(draws: list) -> list:
    eps = validation_eps()
    deviations = np.empty(len(draws))
    for index, (uniforms_1, uniforms_2, point) in _shape_groups(draws):
        rows_1, rows_2 = _simplex_rows(uniforms_1, 0.05), _simplex_rows(uniforms_2, 0.05)
        codomains = _dirac_codomains(rows_1, rows_2)
        _require_weights(codomains[0], rows_1, eps)
        _require_weights(codomains[1], rows_2, eps)
        states = np.eye(rows_1.shape[1])[point]  # each trial's point mass
        joint = _product_rows(rows_1, rows_2)
        outcomes = ProductSpace(*codomains).points
        rho_c = _classical_split(states, joint, rows_1, rows_2, outcomes)[3][0]
        _require(rho_c is not None)
        deviations[index] = _nanmax(np.abs(rho_c - 1.0).reshape(len(index), -1))
    return _finite_list(deviations)


@cache
def _spin_pair(eps: float) -> tuple[Povm, Povm, Povm]:
    """`spin_z_pair` built and checked under the validation eps `eps`, which
    its observables keep; they are read-only, so runs share them."""
    return spin_z_pair()


def _suites() -> tuple:
    """(name, tolerance, trial) for every suite, in report order, with the
    spin pair of the validation eps in force."""
    spin = _spin_pair(validation_eps())
    product_rule = _Stacked(_product_rule_draws, _quantum_product_rule, _product_rule_kernel)
    classical_product_rule = _Stacked(
        _classical_product_rule_draws, _classical_product_rule, _classical_product_rule_kernel
    )
    invariance = _Stacked(
        _invariance_draws, partial(_invariance, spin), partial(_invariance_kernel, spin)
    )
    separable = _Stacked(
        _separable_draws, partial(_separable, spin), partial(_separable_kernel, spin)
    )
    marginals = _Stacked(_marginals_draws, _marginals, _marginals_kernel)
    dirac_triviality = _Stacked(_classical_dirac_draws, _classical_dirac, _classical_dirac_kernel)
    return (
        ("quantum-product-rule", PRODUCT_RULE_TOL, product_rule),
        ("classical-product-rule", PRODUCT_RULE_TOL, classical_product_rule),
        ("total-correlation-invariance", INVARIANCE_TOL, invariance),
        ("separable-no-entanglement", SEPARABLE_TOL, separable),
        ("joint-marginal-consistency", MARGINAL_TOL, marginals),
        ("classical-dirac-triviality", DIRAC_TOL, dirac_triviality),
    )


def _deviations(trial: Callable, rng: np.random.Generator, trials: int):
    """Each trial's deviation in trial order, `_CHUNK` trials at a time."""
    for start in range(0, trials, _CHUNK):
        yield from _chunk_deviations(trial, rng, min(_CHUNK, trials - start))


def _run_suite(
    name: str,
    tolerance: float,
    trial: Callable[[np.random.Generator], float],
    rng: np.random.Generator,
    trials: int,
) -> SuiteResult:
    """Run `trial` `trials` times on `rng`; each call draws its inputs and
    returns the deviation that `tolerance` bounds. The worst deviation is
    folded from 0 in trial order, as max(0.0, *deviations) folds it; one at
    or above `tolerance` is a failure."""
    failures, worst = 0, 0.0
    for deviation in _deviations(trial, rng, trials):
        failures += deviation >= tolerance
        worst = max(worst, deviation)
    return SuiteResult(name, trials, failures, worst, tolerance)


def run_selftest(seed: int | None = None, trials: int = 200) -> SelftestReport:
    """Run every property suite with `trials` draws each.

    Pass the reported seed back in to reproduce a run exactly.
    """
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**32))
    else:
        seed = _integer(seed, "seed")
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
    suites = _suites()
    streams = np.random.SeedSequence(seed).spawn(len(suites))
    results = tuple(
        _run_suite(name, tolerance, trial, np.random.default_rng(stream), trials)
        for (name, tolerance, trial), stream in zip(suites, streams)
    )
    return SelftestReport(seed=seed, trials=trials, suites=results)
