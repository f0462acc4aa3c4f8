"""Seeded randomized property suites, runnable from the CLI.

Each suite draws its own generator from one seed, so a run is reproducible
from the single reported number. A suite records the worst deviation it saw;
a trial fails when that deviation crosses the suite tolerance. A suite is
one draw step, which makes one trial's generator calls, and one kernel,
which builds a chunk of trials' inputs from their draws and computes them
on stacks through the engine's own batched steps (the checks, the joint's
products, the spectral split, the random mixing and the one correlation
split, `correlation._split`). On one trial the kernel has the bits and the
errors of the public constructors, and a chunk it cannot hold, or that
fails a check, is computed again through it one trial at a time (see
`_chunk_outcomes`). A run is chunk-major (`_deviations`): for each chunk
of trials every suite draws its chunk, and the three d = 4 quantum suites
share one kernel (`_quantum_kernel`, each suite's a `_Slot` of it), which
computes their chunks together: one stack of states, one pass over the
product rule's and the marginals' qubit pairs, one spectral split and
random mixing over the product rule's and the invariance suite's states,
then each suite's own tail. A run raises what running the suites one after
another would: the first error, in trial order, of the lowest-numbered
suite that has one. Where trials differ in shape (phase-space size and
codomains in the Dirac suite, component count in the separable and both
decomposing quantum suites), each trial's inputs are built with those of
its shape and padded with zeros to the chunk's largest shape (`_padded`),
one stack per chunk; every step on a padded axis gives each trial the bits
it has alone, and the checks skip the pads. The classical product rule
stacks each group of one phase-space size: its pushes sum over that axis
in BLAS.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .classical_frame import PhaseSpace, _product_rows, _pushed
from .correlation import _split, _total
from .errors import NotProjective, QcorrError, ValidationError
from .hilbert import (
    _density_fault,
    _kron,
    _mixture_fault,
    _mixture_matrix,
    _random_mixing,
    _row_norms,
    _rows_fault,
    _spectral_split,
    _unit_row_fault,
)
from .measure import OutcomeSpace, ProductSpace, _checked_weights, _integer, _nanmax
from .observable import (
    Povm,
    _born_rows,
    _check_commutation,
    _check_povm,
    _commutation_certified,
    _forward_products,
    _pairwise_projective,
    _trace_rule,
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

# Each suite is a draw step, which makes every generator call of one trial
# and returns its raw arrays, and a kernel over a chunk of those draws (see
# `_Stacked`).


def _mixing_draws(rng: np.random.Generator) -> np.ndarray:
    """A decomposition size in 4..7, then the draws (2, size, size) that
    `random_decomposition` takes for it."""
    size = int(rng.integers(4, 8))
    return rng.normal(size=(2, size, size))


def _product_rule_draws(rng: np.random.Generator) -> tuple:
    return rng.normal(size=_STATE_DRAWS), rng.normal(size=_PAIR_DRAWS), _mixing_draws(rng)


def _classical_product_rule_draws(rng: np.random.Generator) -> tuple:
    """A phase-space size in 2..4, the uniforms of both kernels' rows, one
    uniform per coupling cell and the uniforms of the state's weights."""
    size = int(rng.integers(2, 5))
    return rng.random((size, 2)), rng.random((size, 2)), rng.random(size), rng.random(size)


def _invariance_draws(rng: np.random.Generator) -> tuple:
    return rng.normal(size=_STATE_DRAWS), _mixing_draws(rng)


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


def _marginals_draws(rng: np.random.Generator) -> tuple:
    return rng.normal(size=_STATE_DRAWS), rng.normal(size=_PAIR_DRAWS)


def _classical_dirac_draws(rng: np.random.Generator) -> tuple:
    """Phase-space and both codomain sizes, the uniforms of both kernels'
    rows and the point's index (a numpy integer)."""
    size, k1, k2 = (int(rng.integers(2, high)) for high in (5, 4, 4))
    return rng.random((size, k1)), rng.random((size, k2)), rng.integers(0, size)


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
    """A chunk of more than one trial that the stacks cannot hold: a spectral
    split or a random mixing in it drops a component."""


@dataclass(frozen=True)
class _Stacked:
    """A suite's trial as `draw`, every generator call of one trial returning
    its raw arrays, and `kernel`, which takes the draws of a chunk, builds
    the trials' inputs from them and returns their deviations, computed on
    stacks. On one trial the kernel returns the deviation, or raises the
    error (type and message), of building and checking every object through
    the public constructors and reporting it."""

    draw: Callable[[np.random.Generator], tuple]
    kernel: Callable[[list], list]


@dataclass(frozen=True)
class _Slot:
    """The kernel of one of the suites whose chunks `shared` computes
    together: `shared` takes the chunks of draws of some of them by index
    and returns every suite's deviations by index, this suite's at `index`.
    Called on this suite's draws, it computes them alone."""

    shared: Callable[[dict], tuple]
    index: int

    def __call__(self, draws: list) -> list:
        return self.shared({self.index: draws})[self.index]


def _together(trials: list, chunks: list) -> list:
    """The deviations of each of `trials`' chunks of draws `chunks`, from one
    call of the kernel their `_Slot`s share, or of the one trial's kernel."""
    kernel = trials[0].kernel
    if not isinstance(kernel, _Slot):
        return [kernel(chunks[0])]
    computed = kernel.shared({trial.kernel.index: chunk for trial, chunk in zip(trials, chunks)})
    return [computed[trial.kernel.index] for trial in trials]


def _chunk_outcomes(trials: list, chunks: list) -> list:
    """(deviations, the error raised or None) of each of `trials`' chunks of
    draws `chunks`, computed together (`_together`). When that raises on
    more than one trial (a check failed, or the stacks cannot hold them) or
    gives a deviation that is not finite, each suite's trials are computed
    again from their stored draws through its own kernel, one trial at a
    time and in order, so an error is raised at its own trial with its own
    message; no suite after the first that raises is computed."""
    if sum(map(len, chunks)) > 1:
        try:
            computed = _together(trials, chunks)
        except (_Replay, QcorrError, np.linalg.LinAlgError):
            pass
        else:
            if all(math.isfinite(deviation) for got in computed for deviation in got):
                return [(got, None) for got in computed]
    outcomes = []
    for trial, chunk in zip(trials, chunks):
        got = []
        try:
            for draw in chunk:
                got += trial.kernel([draw])
        except Exception as error:  # the run raises it unless a lower suite raises
            outcomes.append((got, error))
            break
        outcomes.append((got, None))
    return outcomes


def _deviations(trials: list, rngs: list, count: int) -> list:
    """The deviations of `count` trials of each of `trials` on its generator
    in `rngs`, one list per suite in trial order, chunk-major: for each
    chunk of at most `_CHUNK` trials, the suites that one kernel computes
    together (those whose `_Slot`s share it, or a suite alone) draw their
    chunks, in trial order, and compute them (`_chunk_outcomes`). Raises
    what computing the suites one after another raises: the first error,
    in trial order, of the lowest-numbered suite that has one; the suites
    after it compute none of their later chunks."""
    groups = {}
    for number, trial in enumerate(trials):
        key = trial.kernel.shared if isinstance(trial.kernel, _Slot) else number
        groups.setdefault(key, []).append(number)
    deviations = [[] for _ in trials]
    errors = {}
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        for group in groups.values():
            live = [number for number in group if number < min(errors, default=len(trials))]
            if not live:
                continue
            chunks = [[trials[number].draw(rngs[number]) for _ in range(size)] for number in live]
            outcomes = _chunk_outcomes([trials[number] for number in live], chunks)
            for number, (got, error) in zip(live, outcomes):
                deviations[number] += got
                if error is not None:
                    errors[number] = error
    if errors:
        raise errors[min(errors)]
    return deviations


def _shape_groups(draws: list):
    """The chunk's trials grouped by the shapes of their draws, numpy arrays
    or scalars, in order of first appearance: (trial indices, each draw of
    the group's trials stacked) per group."""
    groups = {}
    for trial, draw in enumerate(draws):
        groups.setdefault(tuple([array.shape for array in draw]), []).append(trial)
    for index in groups.values():
        yield index, tuple(np.array(stack) for stack in zip(*(draws[i] for i in index)))


def _padded(groups: list, count: int, *fills) -> tuple:
    """The arrays of `groups`, (trial indices, arrays (b, m, ...)) each,
    as one stack (count, n, ...) per position over the chunk's `count`
    trials, every axis as long as its longest and the position's fill past
    each trial's own end; then where the first array of each trial holds an
    entry (count, n). A chunk of one shape has no pad."""
    if len(groups) == 1:  # every trial, in order
        arrays = groups[0][1:]
        return (*arrays, np.ones(arrays[0].shape[:2], bool))
    stacks = []
    for position, fill in enumerate(fills, 1):
        shape = tuple(map(max, zip(*(group[position].shape[1:] for group in groups))))
        stack = np.full((count, *shape), fill, groups[0][position].dtype)
        for group in groups:
            corner = tuple(map(slice, group[position].shape[1:]))
            for trial, block in zip(group[0], group[position]):
                stack[(trial, *corner)] = block
        stacks.append(stack)
    sizes = np.zeros(count, int)
    for index, array, *_ in groups:
        sizes[index] = array.shape[1]
    return (*stacks, np.arange(stacks[0].shape[1]) < sizes[:, None])


def _raise(fault: str | None) -> None:
    """Raise a fault helper's message as the constructor that asks it does."""
    if fault is not None:
        raise ValidationError(fault)


def _check_density(matrices: np.ndarray, eps: float) -> None:
    """Raise as `DensityOperator` raises at the first of `matrices` (n, d, d)
    it rejects at eps."""
    if not np.isfinite(matrices).all():
        raise ValidationError("density matrix contains non-finite entries")
    _raise(_density_fault(matrices, eps))


def _decomposed(split, matrices: np.ndarray, eps: float) -> tuple:
    """`split`, weights (B, n) and unit rows (B, n, d) of the targets
    `matrices` (B, d, d), once `ConvexDecomposition._from_rows` takes each;
    a split that a larger batch cannot hold (None) replays the chunk."""
    if split is None:
        raise _Replay
    _raise(_rows_fault(*split, matrices, eps))
    return split


# the unit row that carries a padded mixture's zero weights
_PAD_ROW = np.eye(4, dtype=complex)[0]


def _mixtures(draws: list, spectral: tuple, matrices: np.ndarray, eps: float) -> tuple:
    """`random_decomposition` of each state on its drawn mixing (the last
    draw), from the chunk's spectral splits `spectral`, one QR batch per
    size n: weights (B, n) and unit rows (B, n, d) padded to the largest
    size, and where they hold a component (B, n), once
    `ConvexDecomposition._from_rows` takes each."""
    weights, rows = spectral
    groups = []
    for index, (normals,) in _shape_groups([draw[-1:] for draw in draws]):
        mixture = _random_mixing(normals, weights[index], rows[index])
        if mixture is None:
            raise _Replay
        groups.append((index, *mixture))
    mixed, vectors, real = _padded(groups, len(draws), 0.0, _PAD_ROW)
    _raise(_rows_fault(mixed, vectors, matrices, eps, real))
    return mixed, vectors, real


def _pair_statistics(draws: list, matrices: np.ndarray, eps: float) -> tuple:
    """The factor effects (B, k, d, d) of the qubit pairs of `draws` (each
    trial's second draw), each side checked as `Povm._from_stack` checks it
    and the pair as `joint_from_commuting` checks it, then the outcome
    weights (B, k k + k + k) at `matrices` (B, d, d) of each pair's joint,
    built as `joint_from_commuting` builds it, and of the pair."""
    sides = _qubit_effects(_units(np.array([draw[1] for draw in draws])))
    skews = [_check_povm(_BINARY.outcomes, side, eps) for side in sides]
    for name, side in zip(("first", "second"), sides):
        if not _pairwise_projective(side, eps):
            raise NotProjective(f"{name} observable is not projective")
    effects = [side.swapaxes(0, 1) for side in sides]  # (k, B, d, d)
    products = _forward_products(*effects)  # (k, k, B, d, d)
    k, _, count, dim, _ = products.shape
    rows = products.reshape(k, k * count, dim, dim)
    if not _commutation_certified(sides[0], skews[0], sides[1], skews[1], rows, eps):
        _check_commutation(_BINARY.labels, effects[0], _BINARY.labels, effects[1], products, eps)
    joints = products.transpose(2, 0, 1, 3, 4).reshape(count, k * k, dim, dim)
    return *sides, _trace_rule(np.concatenate([joints, *sides], 1), matrices)


def _rebuilt_rho_t(
    spin: tuple[Povm, Povm, Povm], weights: np.ndarray, vectors: np.ndarray, eps: float, real=None
) -> np.ndarray:
    """rho_t (B, 2, 2) at the state `ConvexDecomposition.from_components`
    rebuilds from each mixture, weights (B, n) and unit rows (B, n, d), its
    components `real` when it is padded (`_mixture_fault`)."""
    a1, a2, joint = spin
    matrices = _mixture_matrix(weights, vectors)
    _check_density(matrices, eps)
    _raise(_mixture_fault(weights, vectors, matrices, eps, real))
    statistics = _trace_rule(np.concatenate([joint._stack, a1._stack, a2._stack]), matrices)
    measures = statistics[:, :4], statistics[:, 4:6], statistics[:, 6:]
    return _total(*measures, joint.space.points)[-1]


def _quantum_kernel(spin: tuple[Povm, Povm, Povm], eps: float, chunks: dict) -> tuple:
    """The deviations of the product rule's, the invariance suite's and the
    marginals suite's chunks of draws, `chunks` at 0, 1 and 2 (a suite not
    there has none), computed together: every state in one stack and one
    density check, the product rule's and the marginals' qubit pairs in one
    pass, the product rule's and the invariance suite's spectral splits and
    random mixings in one batch, then each suite's own tail on its slice.
    On one suite's draws alone it runs that suite's checks in the order its
    oracle runs them.

    - product rule: rho_c * rho_e recovers rho_t for random states, product
      projective observable pairs, and random decompositions;
    - invariance: total correlation depends only on the state: rebuilding
      the operator from two different decompositions (the spectral one and
      a random one) leaves rho_t unchanged pointwise;
    - marginals: the joint built from a commuting product pair reproduces
      both factor statistics as marginals.
    """
    product_rule, invariance, marginals = (chunks.get(index, []) for index in range(3))
    # the states in the order invariance, product rule, marginals: the first
    # two suites decompose theirs, the last two measure a qubit pair on them
    mixed, paired = invariance + product_rule, product_rule + marginals
    inv, rule = len(invariance), len(product_rule)
    matrices = _ginibre_states(np.array([draw[0] for draw in mixed + marginals]))
    _check_density(matrices, eps)
    if paired:
        left, right, statistics = _pair_statistics(paired, matrices[inv:], eps)
    if mixed:
        targets = matrices[: len(mixed)]
        spectral = _decomposed(_spectral_split(targets, eps), targets, eps)
        weights, vectors, real = _mixtures(mixed, spectral, targets, eps)
    residuals = []
    if product_rule:
        born = _born_rows(np.concatenate([left[:rule], right[:rule]], 1), vectors[inv:])
        rows = statistics[:rule]
        measures = rows[:, :4], rows[:, 4:6], rows[:, 6:]
        points = _BINARY_PAIRS.points
        residual = _split(*measures, weights[inv:], born[..., :2], born[..., 2:], points)[-1]
        residuals = [math.inf] * rule if residual is None else residual.tolist()
    gaps = []
    if invariance:
        rho_t = _rebuilt_rho_t(spin, spectral[0][:inv], spectral[1][:inv], eps)
        shuffled = _rebuilt_rho_t(spin, weights[:inv], vectors[:inv], eps, real[:inv])
        gaps = _nanmax(np.abs(rho_t - shuffled).reshape(inv, -1)).tolist()
    misses = []
    if marginals:
        rows = statistics[rule:]
        grid = rows[:, :4].reshape(-1, 2, 2)
        reduced = np.concatenate([grid.sum(axis=2), grid.sum(axis=1)], axis=1)
        misses = _nanmax(np.abs(reduced - rows[:, 4:])).tolist()
    return residuals, gaps, misses


def _classical_split(weights: np.ndarray, joint: np.ndarray, rows_1, rows_2, points) -> tuple:
    """`classical_report`'s split of the states `weights` (b, n) through the
    joint rows (b, n, k1 k2) and kernel rows (b, n, k1) and (b, n, k2)."""
    measures = (_pushed(weights, rows) for rows in (joint, rows_1, rows_2))
    return _split(*measures, weights, rows_1, rows_2, points)


def _classical_product_rule_kernel(eps: float, draws: list) -> list:
    """Same product rule in the classical frame, with joints drawn between
    the Frechet bounds so marginal consistency holds by construction. The
    rows are checked as `ClassicalObservable.from_matrix`, the joint's as
    `ClassicalJoint.from_matrix` and the state as `DiscreteMeasure.from_array`
    check them."""
    residuals = np.empty(len(draws))
    for index, (uniforms_1, uniforms_2, cells, uniforms) in _shape_groups(draws):
        rows_1, rows_2, weights = (
            _simplex_rows(u, 0.05) for u in (uniforms_1, uniforms_2, uniforms)
        )
        _checked_weights(_BINARY, rows_1, eps)
        _checked_weights(_BINARY, rows_2, eps)
        joint = _frechet_coupling(rows_1[..., 0], rows_2[..., 0], cells)
        _checked_weights(_BINARY_PAIRS, joint, eps)
        _checked_weights(PhaseSpace(_labels("p", weights.shape[-1])), weights, eps)
        residual = _classical_split(weights, joint, rows_1, rows_2, _BINARY_PAIRS.points)[-1]
        residuals[index] = math.inf if residual is None else residual
    return residuals.tolist()


def _from_one(rho: np.ndarray | None, count: int) -> list:
    """Largest |rho - 1| on the support of each of `count` densities (count,
    k1, k2); a missing density (None) is an infinite miss for each."""
    if rho is None:
        return [math.inf] * count
    return _nanmax(np.abs(rho - 1.0).reshape(count, -1)).tolist()


def _separable_kernel(spin: tuple[Povm, Povm, Povm], eps: float, draws: list) -> list:
    """Mixtures of product pure states carry no entanglement-type correlation
    relative to their product decomposition. Each mixture is checked as
    `PureState` checks its rows, then as `DensityOperator.from_mixture` and
    `ConvexDecomposition` check it."""
    a1, a2, joint = spin
    groups = [(index, *_separable_mixture(group)) for index, group in _shape_groups(draws)]
    weights, vectors, real = _padded(groups, len(draws), 0.0, _PAD_ROW)
    fault = _unit_row_fault(vectors.reshape(-1, vectors.shape[-1]), eps)
    _raise(None if fault is None else fault[1])
    matrices = _mixture_matrix(weights, vectors)
    _check_density(matrices, eps)
    _raise(_mixture_fault(weights, vectors, matrices, eps, real))
    sides = np.concatenate([a1._stack, a2._stack])
    statistics = _trace_rule(np.concatenate([joint._stack, sides]), matrices)
    born = _born_rows(sides, vectors)
    measures = statistics[:, :4], statistics[:, 4:6], statistics[:, 6:]
    rho_e = _split(*measures, weights, born[..., :2], born[..., 2:], joint.space.points)[4][0]
    return _from_one(rho_e, len(draws))


def _classical_dirac_kernel(eps: float, draws: list) -> list:
    """Classical correlation is constant 1 at every point-mass state: a sharp
    phase-space point leaves nothing for the mixing to correlate. The rows
    are checked as `ClassicalObservable.from_matrix` checks them."""
    groups = [
        (index, _simplex_rows(uniforms_1, 0.05), _simplex_rows(uniforms_2, 0.05))
        for index, (uniforms_1, uniforms_2, _) in _shape_groups(draws)
    ]
    # the phase points padded with zero rows, the outcomes with zeros
    rows_1, rows_2, real = _padded(groups, len(draws), 0.0, 0.0)
    codomains = _dirac_codomains(rows_1, rows_2)
    _checked_weights(codomains[0], rows_1[real], eps)
    _checked_weights(codomains[1], rows_2[real], eps)
    states = np.zeros(real.shape)
    states[range(len(draws)), [draw[-1] for draw in draws]] = 1.0  # each trial's point mass
    joint = _product_rows(rows_1, rows_2)
    outcomes = ProductSpace(*codomains).points
    rho_c = _classical_split(states, joint, rows_1, rows_2, outcomes)[3][0]
    return _from_one(rho_c, len(draws))


@cache
def _spin_pair(eps: float) -> tuple[Povm, Povm, Povm]:
    """`spin_z_pair` built and checked under the validation eps `eps`, which
    its observables keep; they are read-only, so runs share them."""
    return spin_z_pair()


def _suites(eps: float) -> tuple:
    """(name, tolerance, trial) for every suite, in report order, with the
    validation eps `eps` and its spin pair; the three d = 4 quantum suites
    share `_quantum_kernel`."""
    spin = _spin_pair(eps)
    quantum = partial(_quantum_kernel, spin, eps)
    product_rule = _Stacked(_product_rule_draws, _Slot(quantum, 0))
    classical_product_rule = _Stacked(
        _classical_product_rule_draws, partial(_classical_product_rule_kernel, eps)
    )
    invariance = _Stacked(_invariance_draws, _Slot(quantum, 1))
    separable = _Stacked(_separable_draws, partial(_separable_kernel, spin, eps))
    marginals = _Stacked(_marginals_draws, _Slot(quantum, 2))
    dirac_triviality = _Stacked(_classical_dirac_draws, partial(_classical_dirac_kernel, eps))
    return (
        ("quantum-product-rule", PRODUCT_RULE_TOL, product_rule),
        ("classical-product-rule", PRODUCT_RULE_TOL, classical_product_rule),
        ("total-correlation-invariance", INVARIANCE_TOL, invariance),
        ("separable-no-entanglement", SEPARABLE_TOL, separable),
        ("joint-marginal-consistency", MARGINAL_TOL, marginals),
        ("classical-dirac-triviality", DIRAC_TOL, dirac_triviality),
    )


def _suite_result(name: str, tolerance: float, deviations: list) -> SuiteResult:
    """The result of a suite whose trials gave `deviations`, in trial order,
    each bounded by `tolerance`. The worst deviation is folded from 0 in
    trial order, as max(0.0, *deviations) folds it; one at or above
    `tolerance` is a failure."""
    failures, worst = 0, 0.0
    for deviation in deviations:
        failures += deviation >= tolerance
        worst = max(worst, deviation)
    return SuiteResult(name, len(deviations), failures, worst, tolerance)


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
    suites = _suites(validation_eps())
    streams = np.random.SeedSequence(seed).spawn(len(suites))
    rngs = [np.random.default_rng(stream) for stream in streams]
    deviations = _deviations([trial for _, _, trial in suites], rngs, trials)
    results = tuple(
        _suite_result(name, tolerance, got)
        for (name, tolerance, _), got in zip(suites, deviations)
    )
    return SelftestReport(seed=seed, trials=trials, suites=results)
