"""Discrete probability measures on labeled outcome spaces.

Provides point masses and marginals, plus pointwise density functions
(likelihood ratios) between measures on the same space.
Product-space points are ordered row-major: the right factor varies fastest.
Measures and densities each hold one read-only float array in that order.
`mix_rows`, `_quotient` and `_nanmax` are array steps of the one
correlation split, `correlation._split`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Literal, Union

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    NotAProductSpace,
    SpaceMismatch,
    UnknownLabel,
    ValidationError,
)
from .tolerance import EPS, validation_eps

__all__ = [
    "OutcomeSpace",
    "ProductSpace",
    "DiscreteMeasure",
    "DensityFunction",
    "dirac",
    "marginal",
    "mix_rows",
]

Outcome = Union[str, tuple[str, str]]


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered finite set of distinct outcome labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValidationError("outcome space needs at least one label")
        if not all(isinstance(label, str) and label for label in labels):
            raise ValidationError("outcome labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"outcome labels must be distinct, got {labels!r}")

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.labels

    @cached_property
    def index(self) -> Mapping[str, int]:
        """Position of each outcome in the space's order."""
        return MappingProxyType({label: i for i, label in enumerate(self.labels)})

    def __contains__(self, label) -> bool:
        return label in self.labels

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ProductSpace:
    """Cartesian product of two outcome spaces; points ordered row-major."""

    left: OutcomeSpace
    right: OutcomeSpace

    def __post_init__(self):
        for name, factor in (("left", self.left), ("right", self.right)):
            if isinstance(factor, ProductSpace) or not isinstance(factor, OutcomeSpace):
                raise ValidationError(f"{name} factor must be a simple outcome space")

    @cached_property
    def points(self) -> tuple[tuple[str, str], ...]:
        return tuple((l, r) for l in self.left.labels for r in self.right.labels)

    @property
    def outcomes(self) -> tuple[tuple[str, str], ...]:
        return self.points

    @cached_property
    def index(self) -> Mapping[tuple[str, str], int]:
        """Position of each point in the row-major order."""
        return MappingProxyType({point: i for i, point in enumerate(self.points)})

    def __contains__(self, point) -> bool:
        return (
            isinstance(point, tuple)
            and len(point) == 2
            and point[0] in self.left.labels
            and point[1] in self.right.labels
        )

    def __len__(self) -> int:
        return len(self.left.labels) * len(self.right.labels)


Space = Union[OutcomeSpace, ProductSpace]


def _position(space: Space, outcome) -> int:
    """Index of `outcome` in the space's order; a product point may be given
    as any pair."""
    try:
        return space.index[tuple(outcome) if isinstance(outcome, list) else outcome]
    except (KeyError, TypeError):
        pass
    if isinstance(space, ProductSpace):
        raise UnknownLabel(f"outcome {outcome!r} is not a point of the product space")
    raise UnknownLabel(f"outcome {outcome!r} is not in the space {space.labels!r}")


def _number(value, name: str, dtype: type = float) -> float | complex:
    """`value` as a `dtype` scalar (float or complex); anything else raises
    ValidationError naming it. At float dtype a numpy complex scalar is
    rejected like a Python complex, not cast to its real part."""
    try:
        if dtype is float and isinstance(value, np.complexfloating):
            raise TypeError
        return dtype(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name}: expected a number, got {value!r}") from None
    except OverflowError:
        raise ValidationError(f"{name}: number too large for a float") from None


def _integer(value, name: str) -> int:
    """`value`, a Python or numpy integer but not a bool, as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def _number_array(values, name: str, expected: str, dtype: type = float) -> np.ndarray:
    """`values` as a fresh `dtype` (float or complex) array. Input numpy
    cannot read raises ValidationError: `expected` for a ragged sequence, or
    a message naming the first entry of `name` that is not a `dtype` number.
    Input numpy reads as objects, or as complex at float dtype, is read cell
    by cell like a mapping's values, so that no complex number loses its
    imaginary part."""
    try:
        array = np.array(values)
        if array.dtype.kind not in ("O" if dtype is complex else "Oc"):
            return array.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    try:
        cells = np.array(values, dtype=object)
    except ValueError:
        raise ValidationError(f"{expected}, got a ragged sequence") from None
    array = np.empty(cells.shape, dtype=dtype)
    for index in np.ndindex(cells.shape):
        cell = cells[index]
        if isinstance(cell, (list, tuple, np.ndarray)):
            raise ValidationError(f"{expected}, got a ragged sequence")
        array[index] = _number(cell, name + "".join(f"[{i}]" for i in index), dtype)
    return array


def _derived(cls, space: Space, values: np.ndarray):
    """A `cls` (DiscreteMeasure or DensityFunction) on `space` holding
    `values`, which the engine derived from validated objects, read-only and
    unchecked: rounding in their sums and products can move a sum past the
    input tolerance that every input met."""
    held = cls.__new__(cls)
    held._space = space
    held._array = np.ascontiguousarray(values, dtype=float).reshape(-1)
    held._array.setflags(write=False)
    return held


def _readonly_row(space: Space, values) -> np.ndarray:
    """`values` as a fresh read-only float array of one entry per outcome."""
    expected = f"expected {len(space)} values"
    array = _number_array(values, "values", expected).ravel()
    if array.size != len(space):
        raise ValidationError(f"{expected}, got {array.size}")
    array.setflags(write=False)
    return array


class DiscreteMeasure:
    """Probability measure on a finite labeled space.

    Every outcome of the space gets an entry; outcomes missing from the input
    mapping count as zero. Weights may dip below zero only within the
    validation tolerance (rounding noise), and must sum to one.
    """

    __slots__ = ("_space", "_array")

    def __init__(self, space: Space, weights: Mapping):
        values = np.zeros(len(space))
        for outcome, value in dict(weights).items():
            values[_position(space, outcome)] = _number(value, f"weight at {outcome!r}")
        values.setflags(write=False)
        self._space = space
        self._array = _checked_weights(space, values, validation_eps())

    @classmethod
    def from_array(cls, space: Space, values) -> "DiscreteMeasure":
        """Measure whose weights are `values`, aligned with the space's
        outcome order (row-major for product spaces)."""
        measure = cls.__new__(cls)
        measure._space = space
        measure._array = _checked_weights(space, _readonly_row(space, values), validation_eps())
        return measure

    @property
    def space(self) -> Space:
        return self._space

    @property
    def weights(self) -> Mapping[Outcome, float]:
        return MappingProxyType(dict(zip(self._space.outcomes, self._array.tolist())))

    def weight(self, outcome) -> float:
        return float(self._array[_position(self._space, outcome)])

    def as_array(self) -> np.ndarray:
        """Weights aligned with the space's outcome order (row-major), read-only."""
        return self._array

    def support(self, threshold: float = EPS) -> tuple[Outcome, ...]:
        outcomes = self._space.outcomes
        return tuple(outcomes[i] for i in np.flatnonzero(self._array > threshold))

    def items(self):
        return self.weights.items()

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self._array)} outcomes)"


def _checked_weights(space: Space, array: np.ndarray, eps: float) -> np.ndarray:
    """`array`, one float weight per outcome, or rows of them, checked finite,
    not below -eps, summing to 1 (`_weights_fault`)."""
    fault = _weights_fault(space, array, eps)
    if fault is not None:
        raise ValidationError(fault)
    return array


def _weights_fault(space: Space, rows: np.ndarray, eps: float) -> str | None:
    """Why `_checked_weights` rejects a row of `rows` (..., k), each one float
    weight per outcome of `space`, at eps, or None: the message of the first
    row, in order, with an extreme (its argmin, then its argmax) not finite
    or below -eps, or whose exact sum (one `_exact_sum` per row) is off 1 by
    more than eps."""
    rows = rows.reshape(-1, rows.shape[-1])
    flat = rows.reshape(-1)
    # when the extremes of the whole batch pass (a NaN fails), every row's do
    passed = flat[flat.argmin()] >= -eps and flat[flat.argmax()] < math.inf
    for number, values in enumerate(rows.tolist()):
        if not passed:
            row = rows[number]
            for index in (row.argmin(), row.argmax()):  # the extremes; both find a NaN
                value, outcome = float(row[index]), space.outcomes[index]
                if not math.isfinite(value):
                    return f"weight at {outcome!r} is not finite"
                if value < -eps:
                    return f"negative weight {value!r} at {outcome!r}"
        total = _exact_sum(values)
        if abs(total - 1.0) > eps:
            return f"weights sum to {total!r}, expected 1"
    return None


def _exact_sum(weights) -> float:
    """`math.fsum` of finite `weights`, none far below zero, with a sum past
    the float range read as inf: `math.fsum` raises OverflowError there."""
    try:
        return math.fsum(weights)
    except OverflowError:
        return math.inf


def dirac(space: Space, outcome) -> DiscreteMeasure:
    """Point mass at `outcome`."""
    values = np.zeros(len(space))
    values[_position(space, outcome)] = 1.0
    return _derived(DiscreteMeasure, space, values)


def marginal(nu: DiscreteMeasure, side: Literal["left", "right"]) -> DiscreteMeasure:
    """Marginal of a product-space measure onto one factor."""
    if not isinstance(nu.space, ProductSpace):
        raise NotAProductSpace("marginal requires a measure on a product space")
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    grid = nu.as_array().reshape(len(nu.space.left), len(nu.space.right))
    if side == "left":
        return _derived(DiscreteMeasure, nu.space.left, grid.sum(axis=1))
    return _derived(DiscreteMeasure, nu.space.right, grid.sum(axis=0))


class DensityFunction:
    """Pointwise quotient of two measures, defined on the denominator support.

    Values exist exactly on the support; everything else is genuinely
    undefined (NaN in the array, a dash in tables, null in JSON), not zero.
    """

    __slots__ = ("_space", "_array")

    def __init__(self, space: Space, values: Mapping):
        array = np.full(len(space), np.nan)
        given = np.zeros(len(space), dtype=bool)
        for outcome, value in dict(values).items():
            position = _position(space, outcome)
            array[position] = _number(value, f"density value at {outcome!r}")
            given[position] = True
        array.setflags(write=False)
        self._space = space
        self._array = _checked_density(space, array, given)

    @classmethod
    def from_array(cls, space: Space, values) -> "DensityFunction":
        """Density whose values are `values` in the space's outcome order;
        NaN entries lie off the support."""
        array = _readonly_row(space, values)
        density = cls.__new__(cls)
        density._space = space
        density._array = _checked_density(space, array, array == array)  # False at NaN
        return density

    @property
    def space(self) -> Space:
        return self._space

    @property
    def values(self) -> Mapping[Outcome, float]:
        pairs = zip(self._space.outcomes, self._array.tolist())
        return MappingProxyType({o: v for o, v in pairs if not math.isnan(v)})

    @property
    def support(self) -> frozenset:
        outcomes = self._space.outcomes
        return frozenset(outcomes[i] for i in np.flatnonzero(~np.isnan(self._array)))

    def as_array(self) -> np.ndarray:
        """Values in the space's outcome order, NaN off the support, read-only."""
        return self._array

    def value(self, outcome) -> float:
        value = self._array[_position(self._space, outcome)]
        if math.isnan(value):
            raise UnknownLabel(f"outcome {outcome!r} is outside the support")
        return float(value)

    def get(self, outcome) -> float | None:
        value = self._array[_position(self._space, outcome)]
        return None if math.isnan(value) else float(value)

    def deviation_from(self, constant: float) -> float:
        """Largest |value - constant| over the support; 0.0 if support is empty."""
        return float(_nanmax(np.abs(self._array - constant)))

    def max_difference(self, other: "DensityFunction") -> float:
        """Largest pointwise gap to `other` over the shared support."""
        if self._space != other.space:
            raise SpaceMismatch("densities live on different spaces")
        return float(_nanmax(np.abs(self._array - other._array)))

    def __repr__(self) -> str:
        count = int(np.count_nonzero(~np.isnan(self._array)))
        return f"DensityFunction(support={count}/{len(self._space.outcomes)})"


def _checked_density(space: Space, array: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """`array` (NaN off the support) once every `defined` entry is checked
    finite and nonnegative."""
    invalid = defined > ((array >= 0.0) & (array < math.inf))
    index = int(invalid.argmax())  # the first invalid entry, if any
    if invalid[index]:
        value, outcome = float(array[index]), space.outcomes[index]
        raise ValidationError(f"density value {value!r} at {outcome!r} is invalid")
    return array


def _nanmax(values: np.ndarray) -> np.ndarray:
    """Largest non-NaN entry of the nonnegative `values` along the last axis,
    0.0 where there is none: a scalar for one row, one per row of a batch."""
    return np.fmax.reduce(values, axis=-1, initial=0.0)


def _quotient(num: np.ndarray, den: np.ndarray, outcomes: Sequence) -> np.ndarray:
    """num / den where den exceeds EPS, NaN elsewhere; `outcomes` labels the
    flat entries for the error at the first point where num escapes den. A
    batch of tables along leading axes is labelled table by table."""
    support = den > EPS
    escaped = (num > EPS) > support
    index = escaped.argmax()  # the first escaped point, if any
    if escaped.flat[index]:
        raise AbsoluteContinuityViolation(
            f"numerator has mass {float(num.flat[index])!r} at "
            f"{outcomes[index % len(outcomes)]!r} where the denominator vanishes"
        )
    return np.maximum(num, 0.0) / np.where(support, den, np.nan)


def mix_rows(weights: np.ndarray, rows_1: np.ndarray, rows_2: np.ndarray) -> np.ndarray:
    """Classical product sum_i w_i rows_1[i] (x) rows_2[i] of the per-component
    outcome rows (n x k1 and n x k2), as a k1 x k2 table, or of each mixture
    of a batch, one at a time: a batched product sums in another order."""
    if weights.ndim > 1:
        return np.array([mix_rows(*mixture) for mixture in zip(weights, rows_1, rows_2)])
    pairs = rows_1[:, :, None] * rows_2[:, None, :]
    return (weights @ pairs.reshape(len(weights), -1)).reshape(pairs.shape[1:])
