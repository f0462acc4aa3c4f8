"""Seeded randomized property suites, runnable from the CLI.

Each suite draws its own generator from one seed, so a run is reproducible
from the single reported number. A suite records the worst deviation it saw;
a trial fails when that deviation crosses the suite tolerance. A suite is a
draw step, which makes one trial's generator calls, and a kernel, which
builds a chunk of trials' inputs from their draws and computes them on
stacks through the engine's own batched steps; on one trial it has the bits
and the errors of the public constructors. A run is chunk-major
(`_deviations`): every suite draws its chunk, and the four d = 4 quantum
suites share one kernel (`_quantum_kernel`, each suite's a `_Slot` of it).
A chunk that fails a check, or that the stacks cannot hold, is computed
again suite by suite on its stacks, and a suite that fails there too one
trial at a time (`_chunk_outcomes`), so a run raises what running the suites
one after another would. Trials of several shapes (phase-space size,
codomains, component count) are built once per chunk on draws padded with
zeros to its largest shape (`_padded`): every step on a padded axis gives
each trial its own bits, and the checks skip the pads. Only the random
mixing runs once per size, and the classical product rule's pushes, BLAS
sums over the phase axis, once per phase-space size (`_size_groups`).
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


def _simplex_rows(uniforms: np.ndarray, floor: float, real=None) -> np.ndarray:
    """Probability rows (..., n) of uniform draws (..., n) raised by `floor`:
    kernel rows and weights; the trial that draws them checks them. Rows of
    draws padded past their own entries, `real` (..., n), are zero there
    and keep the bits of the row alone; n is at most 8."""
    weights = uniforms + floor
    if real is None:
        return weights / weights.sum(axis=-1, keepdims=True)
    assert weights.shape[-1] <= 8, "a padded row of more than 8 entries"
    weights = np.where(real, weights, 0.0)
    # numpy's pairwise sum (umath loops_utils.h.src) adds a row under 8 in order,
    # zero tail or not, but a row of 8 in 8 unrolled sums: only a full row sums 8
    sums = weights.sum(axis=-1, keepdims=True), weights[..., :7].sum(axis=-1, keepdims=True)
    totals = np.where(np.broadcast_to(real, weights.shape)[..., -1:], *sums)
    return np.divide(weights, totals, out=np.zeros_like(weights), where=real)


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


def _marginals_draws(rng: np.random.Generator) -> tuple:
    return rng.normal(size=_STATE_DRAWS), rng.normal(size=_PAIR_DRAWS)


def _classical_dirac_draws(rng: np.random.Generator) -> tuple:
    """Phase-space and both codomain sizes, the uniforms of both kernels'
    rows and the point's index (a numpy integer)."""
    size, k1, k2 = (int(rng.integers(2, high)) for high in (5, 4, 4))
    return rng.random((size, k1)), rng.random((size, k2)), rng.integers(0, size)


# stacked chunks -------------------------------------------------------------

# Trials a stacked suite draws and computes at a time: its stacks hold a few
# hundred 4 x 4 matrices however many trials a run asks for.
_CHUNK = 128


class _Replay(Exception):
    """A chunk of several trials the stacks cannot hold: a split or mixing drops a component."""


@dataclass(frozen=True)
class _Stacked:
    """A suite's trial: `draw` makes every generator call of one trial and
    returns its raw arrays; `kernel` builds a chunk's inputs from their draws
    and returns their deviations, computed on stacks. On one trial it has
    the deviation, or raises the error, of the public constructors."""

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


def _on_stacks(trials: list, chunks: list) -> list | None:
    """The deviations of each of `trials`' chunks of draws `chunks`, from one
    call of the kernel their `_Slot`s share, or of the one trial's kernel;
    None when that raises on the stacks (a check failed, or the stacks
    cannot hold the trials) or gives a deviation that is not finite."""
    kernel = trials[0].kernel
    try:
        if isinstance(kernel, _Slot):
            indices = [trial.kernel.index for trial in trials]
            computed = kernel.shared(dict(zip(indices, chunks)))
            computed = [computed[index] for index in indices]
        else:
            computed = [kernel(chunks[0])]
    except (_Replay, QcorrError, np.linalg.LinAlgError):
        return None
    return computed if all(map(math.isfinite, sum(computed, []))) else None


def _chunk_outcomes(trials: list, chunks: list) -> list:
    """(deviations, the error raised or None) of each of `trials`' chunks of
    draws `chunks`, computed together when that holds on the stacks
    (`_on_stacks`). Otherwise each suite's chunk is computed alone on its
    stacks, and a suite whose chunk fails there too, or is one trial, is
    computed again from its stored draws through its own kernel, one trial
    at a time and in order, so an error is raised at its own trial with its
    own message; no suite after the first that raises is computed."""
    if sum(map(len, chunks)) > 1:
        together = _on_stacks(trials, chunks)
        if together is not None:
            return [(got, None) for got in together]
    outcomes = []
    for trial, chunk in zip(trials, chunks):
        alone = _on_stacks([trial], [chunk]) if len(trials) > 1 and len(chunk) > 1 else None
        if alone is not None:
            outcomes.append((alone[0], None))
            continue
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


def _padded(stacks: list, fill=0.0) -> np.ndarray:
    """The arrays `stacks` (b, ...) as one stack along their first axis,
    every other axis as long as its longest and `fill` past each array's
    own end."""
    shape = tuple(map(max, zip(*(stack.shape[1:] for stack in stacks))))
    if all(stack.shape[1:] == shape for stack in stacks):
        return np.concatenate(stacks)
    padded, start = np.full((sum(map(len, stacks)), *shape), fill, stacks[0].dtype), 0
    for stack in stacks:
        padded[(slice(start, start + len(stack)), *map(slice, stack.shape[1:]))] = stack
        start += len(stack)
    return padded


def _padded_draws(draws: list, *fills) -> tuple:
    """The first draws of a chunk's trials `draws`, one stack (B, ...) per
    draw padded with its fill in `fills` (`_padded`)."""
    return tuple(_padded([draw[i][None] for draw in draws], fill) for i, fill in enumerate(fills))


def _within(lengths) -> np.ndarray:
    """Where each of a chunk's trials, of `lengths` (B,) entries along an
    axis padded to the longest, holds an entry (B, longest)."""
    return np.arange(max(lengths)) < np.asarray(lengths)[:, None]


def _size_groups(sizes) -> list:
    """The chunk's trials grouped by their `sizes` (B,), in order of first
    appearance, for the steps that run once per size: (size, trials) each."""
    return [(size, [t for t, s in enumerate(sizes) if s == size]) for size in dict.fromkeys(sizes)]


def _pushed_per_size(weights: np.ndarray, matrix: np.ndarray, sizes: list) -> np.ndarray:
    """`_pushed` of a batch (B, n) and (B, n, k) padded with zeros past each
    state's `sizes` (B,) points, one size at a time on the unpadded slices."""
    pushed = np.empty(weights.shape[:1] + matrix.shape[-1:])
    for size, group in _size_groups(sizes):
        pushed[group] = _pushed(weights[group, :size], matrix[group, :size])
    return pushed


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


# the unit row that carries a padded mixture's zero weights, and the normal
# draws of the unit vector (1, 0) of C^2, whose product with itself it is
_PAD_ROW = np.eye(4, dtype=complex)[0]
_PAD_DRAW = np.array([[1.0, 0.0], [0.0, 0.0]])


def _joined(*mixtures) -> tuple:
    """Mixtures, each weights (b, n), unit rows (b, n, d) and where they
    hold a component (b, n), as one batch padded to the most components
    with zero weights on `_PAD_ROW`."""
    fills = (0.0, _PAD_ROW, False)
    return tuple(_padded(list(stacks), fill) for stacks, fill in zip(zip(*mixtures), fills))


def _mixtures(draws: list, spectral: tuple, matrices: np.ndarray, eps: float) -> tuple:
    """`random_decomposition` of each state on its drawn mixing (the last
    draw), from the chunk's spectral splits `spectral`, one QR batch per
    size n: weights (B, n) and unit rows (B, n, d) padded to the largest
    size, and where they hold a component (B, n), once
    `ConvexDecomposition._from_rows` takes each."""
    weights, rows = spectral
    index, groups = [], []
    for _, group in _size_groups([draw[-1].shape[-1] for draw in draws]):
        normals = np.array([draws[trial][-1] for trial in group])
        mixture = _random_mixing(normals, weights[group], rows[group])
        if mixture is None:
            raise _Replay
        index += group
        groups.append((*mixture, np.ones(mixture[0].shape, bool)))
    mixed, vectors, real = (array[np.argsort(index)] for array in _joined(*groups))
    _raise(_rows_fault(mixed, vectors, matrices, eps, real))
    return mixed, vectors, real


def _separable_mixtures(draws: list, eps: float) -> tuple:
    """The separable suite's weights (B, n) and product vectors (B, n, 4),
    padded to the largest count, and where they hold a component (B, n),
    once `PureState` takes each row."""
    uniforms, normals = _padded_draws(draws, 0.0, _PAD_DRAW)
    real = _within([len(draw[0]) for draw in draws])
    weights, vectors = _simplex_rows(uniforms, 0.02, real), _product_vectors(normals)
    fault = _unit_row_fault(vectors.reshape(-1, vectors.shape[-1]), eps)
    _raise(None if fault is None else fault[1])
    return weights, vectors, real


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


def _rebuilt_statistics(spin: tuple, weights, vectors, real, eps: float) -> np.ndarray:
    """The spin pair's outcome weights (B, 4 + 2 + 2), joint first, at the
    state `DensityOperator.from_mixture` builds from each mixture, weights
    (B, n) on unit rows (B, n, d) where `real`, once `ConvexDecomposition`
    takes it."""
    matrices = _mixture_matrix(weights, vectors)
    _check_density(matrices, eps)
    _raise(_mixture_fault(weights, vectors, matrices, eps, real))
    return _trace_rule(np.concatenate([spin[2]._stack, spin[0]._stack, spin[1]._stack]), matrices)


def _quantum_kernel(spin: tuple[Povm, Povm, Povm], eps: float, chunks: dict) -> list:
    """The deviations of the product rule's, the invariance suite's, the
    separable suite's and the marginals suite's chunks of draws, `chunks`
    at 0, 1, 2 and 3 (a suite not there has none), computed together: one
    pass each over the Ginibre states, the qubit pairs, the decompositions,
    the rebuilt states (invariance and separable) and the split (product
    rule and separable), then each suite's own tail. On one suite's draws
    alone it runs that suite's checks in the order its oracle runs them.

    - product rule: rho_c * rho_e recovers rho_t for random states, product
      projective observable pairs, and random decompositions;
    - invariance: rebuilding the state from two of its decompositions (the
      spectral one and a random one) leaves rho_t unchanged pointwise;
    - separable: mixtures of product pure states carry no entanglement-type
      correlation relative to their product decomposition;
    - marginals: the joint built from a commuting product pair reproduces
      both factor statistics as marginals.
    """
    product_rule, invariance, separable, marginals = (chunks.get(index, []) for index in range(4))
    # the states in the order invariance, product rule, marginals: the first
    # two suites decompose theirs, the last two measure a qubit pair on them
    mixed, paired = invariance + product_rule, product_rule + marginals
    inv, rule = len(invariance), len(product_rule)
    if mixed or marginals:
        matrices = _ginibre_states(np.array([draw[0] for draw in mixed + marginals]))
        _check_density(matrices, eps)
    if paired:
        left, right, statistics = _pair_statistics(paired, matrices[inv:], eps)
    if mixed:
        targets = matrices[: len(mixed)]
        spectral = _spectral_split(targets, eps)
        if spectral is None:  # a state of a larger batch drops an eigenvalue
            raise _Replay
        _raise(_rows_fault(*spectral, targets, eps))
        weights, vectors, real = _mixtures(mixed, spectral, targets, eps)
    # the invariance suite's states rebuilt from its spectral and its random
    # decompositions, then the separable mixtures: a spectral one can fail
    # only the trace test, which the density check runs first on them all
    rebuilt = []
    if invariance:
        sets = (*spectral, np.ones(spectral[0].shape, bool)), (weights, vectors, real)
        rebuilt += [tuple(array[:inv] for array in arrays) for arrays in sets]
    if separable:
        rebuilt.append(_separable_mixtures(separable, eps))
    if rebuilt:
        measured = _rebuilt_statistics(spin, *_joined(*rebuilt), eps)
    # one split of the product rule's mixtures and the separable ones, each
    # suite's Born rows at its own width (a zero tail changes their bits)
    # and joined with the components innermost, as `_born_rows` lays them
    # out: `mix_rows` sums in that layout's order
    split = []
    if product_rule:
        born = _born_rows(np.concatenate([left[:rule], right[:rule]], 1), vectors[inv:])
        split.append((statistics[:rule], weights[inv:], born.mT))
    if separable:
        sides = np.concatenate([spin[0]._stack, spin[1]._stack])
        mixture, components, _ = rebuilt[-1]  # the separable mixtures
        split.append((measured[2 * inv :], mixture, _born_rows(sides, components).mT))
    if split:
        rows, mixture, born = (_padded(list(arrays)) for arrays in zip(*split))
        born, points = born.mT, (_BINARY_PAIRS if product_rule else spin[2].space).points
        measures = np.split(rows, [4, 6], axis=1)  # the joint's, then each side's
        *_, (rho_e, _), residual = _split(*measures, mixture, born[..., :2], born[..., 2:], points)
    deviations = [[], [], [], []]
    if product_rule:
        deviations[0] = [math.inf] * rule if residual is None else residual[:rule].tolist()
    if invariance:
        rho_t = _total(*np.split(measured[: 2 * inv], [4, 6], axis=1), spin[2].space.points)[-1]
        deviations[1] = _nanmax(np.abs(rho_t[:inv] - rho_t[inv:]).reshape(inv, -1)).tolist()
    if separable:
        deviations[2] = _from_one(None if rho_e is None else rho_e[rule:], len(separable))
    if marginals:
        grid = statistics[rule:, :4].reshape(-1, 2, 2)
        reduced = np.concatenate([grid.sum(axis=2), grid.sum(axis=1)], axis=1)
        deviations[3] = _nanmax(np.abs(reduced - statistics[rule:, 4:])).tolist()
    return deviations


def _classical_product_rule_kernel(eps: float, draws: list) -> list:
    """Same product rule in the classical frame, with joints drawn between
    the Frechet bounds so marginal consistency holds by construction. The
    rows are checked as `ClassicalObservable.from_matrix`, the joint's as
    `ClassicalJoint.from_matrix` and the state as `DiscreteMeasure.from_array`
    check them. The phase points are padded with zero rows and weights."""
    sizes = [len(draw[-1]) for draw in draws]
    phase = _within(sizes)
    uniforms_1, uniforms_2, cells, uniforms = _padded_draws(draws, 0.0, 0.0, 0.0, 0.0)
    rows_1, rows_2 = (_simplex_rows(u, 0.05, phase[..., None]) for u in (uniforms_1, uniforms_2))
    weights = _simplex_rows(uniforms, 0.05, phase)
    _checked_weights(_BINARY, rows_1[phase], eps)
    _checked_weights(_BINARY, rows_2[phase], eps)
    joint = _frechet_coupling(rows_1[..., 0], rows_2[..., 0], cells)
    _checked_weights(_BINARY_PAIRS, joint[phase], eps)
    _checked_weights(PhaseSpace(_labels("p", phase.shape[-1])), weights, eps)
    # `classical_report`'s split, each state pushed at its own size
    measures = (_pushed_per_size(weights, rows, sizes) for rows in (joint, rows_1, rows_2))
    residual = _split(*measures, weights, rows_1, rows_2, _BINARY_PAIRS.points)[-1]
    return [math.inf] * len(draws) if residual is None else residual.tolist()


def _from_one(rho: np.ndarray | None, count: int) -> list:
    """Largest |rho - 1| on the support of each of `count` densities (count,
    k1, k2); a missing density (None) is an infinite miss for each."""
    if rho is None:
        return [math.inf] * count
    return _nanmax(np.abs(rho - 1.0).reshape(count, -1)).tolist()


def _classical_dirac_kernel(eps: float, draws: list) -> list:
    """Classical correlation is constant 1 at every point-mass state: a sharp
    phase-space point leaves nothing for the mixing to correlate. The rows
    are checked as `ClassicalObservable.from_matrix` checks them. The phase
    points are padded with zero rows, the outcomes with zeros."""
    phase = _within([len(draw[0]) for draw in draws])
    rows, codomains = [], []
    for side, (prefix, uniforms) in enumerate(zip("xy", _padded_draws(draws, 0.0, 0.0))):
        outcomes = _within([draw[side].shape[1] for draw in draws])
        rows.append(_simplex_rows(uniforms, 0.05, phase[..., None] & outcomes[:, None, :]))
        codomains.append(OutcomeSpace(_labels(prefix, outcomes.shape[1])))
        _checked_weights(codomains[side], rows[side][phase], eps)
    states = np.zeros(phase.shape)
    states[range(len(draws)), [draw[-1] for draw in draws]] = 1.0  # each trial's point mass
    # `classical_report`'s split: a push of a point mass is exact on the pads
    measures = (_pushed(states, kernel) for kernel in (_product_rows(*rows), *rows))
    rho_c = _split(*measures, states, *rows, ProductSpace(*codomains).points)[3][0]
    return _from_one(rho_c, len(draws))


@cache
def _spin_pair(eps: float) -> tuple[Povm, Povm, Povm]:
    """`spin_z_pair` built and checked under the validation eps `eps`, which
    its observables keep; they are read-only, so runs share them."""
    return spin_z_pair()


def _suites(eps: float) -> tuple:
    """(name, tolerance, trial) for every suite, in report order, with the
    validation eps `eps` and its spin pair; the four d = 4 quantum suites
    share `_quantum_kernel`."""
    quantum = partial(_quantum_kernel, _spin_pair(eps), eps)
    product_rule = _Stacked(_product_rule_draws, _Slot(quantum, 0))
    classical_product_rule = _Stacked(
        _classical_product_rule_draws, partial(_classical_product_rule_kernel, eps)
    )
    invariance = _Stacked(_invariance_draws, _Slot(quantum, 1))
    separable = _Stacked(_separable_draws, _Slot(quantum, 2))
    marginals = _Stacked(_marginals_draws, _Slot(quantum, 3))
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
