"""Built-in example scenarios and the bundled scenario files.

Each example id is a bundled JSON file under ``qcorr/data``, the only copy
of its scenario. Parameters reweight the components of every decomposition
in the file, in file order, zero weights dropped, and the state becomes the
mixture of the first decomposition; a parameter left out keeps the file's
value, so editing a file and overriding a parameter are equivalent. The two
classical scenarios, ``classical_fuzzy.json`` and ``classical_uniform.json``,
have no example id and are loaded with
``loads_scenario(bundled_scenario_text(name))``.

Example ids
-----------
``i``            separable two-qubit mixture: weights w1..w4 (file values
                 0.4/0.3/0.2/0.1) on the spin product states (up,up),
                 (down,down), (up,down), (down,up)
``ii``           Bell-diagonal state: weights w1..w4 (file values
                 0.4/0.3/0.2/0.1) on the maximally entangled states Phi+,
                 Phi-, Psi+, Psi-
``iii``          doubly degenerate state a(uu+dd) + b(ud+du) with a + b = 1/2
                 (file values 1/4 each; a value left out completes the sum)
                 and three decompositions, each weighted (a, a, b, b): on
                 (up,up), (down,down), (up,down), (down,up) (product-basis), on
                 Phi+, Phi-, Psi+, Psi- (bell-basis) and on (up,up),
                 (down,down), Psi+, Psi- (mixed-basis). The first two give
                 identical total correlation with opposite splits; mixed-basis
                 blends the two.
``iii-mixed``    the most mixed case a = b = 1/4, reported with the mixed
                 decomposition only, whose split shows classical correlation
                 and entanglement compensating each other; no parameters
``appendix``     a fixed three-term separable product mixture in general
                 position, weighted 0.5/0.3/0.2 (no entanglement relative to
                 its product decomposition); no parameters
``appendix-px``  weight w on (up,up) and 1 - w on (x+,x+) (file value
                 w = 0.5)
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Mapping
from importlib import resources

from .errors import UnknownExample, ValidationError
from .hilbert import ConvexDecomposition, DensityOperator
from .measure import _exact_sum, _number
from .report import ReportDocument
from .scenario import QuantumScenario, Scenario, loads_scenario, run_scenario
from .tolerance import validation_eps

__all__ = [
    "PAPER_EXAMPLE_IDS",
    "BUNDLED_SCENARIOS",
    "build_paper_example",
    "run_paper_example",
    "bundled_scenario_text",
    "bundled_scenario_names",
]

PAPER_EXAMPLE_IDS = ("i", "ii", "iii", "iii-mixed", "appendix", "appendix-px")

# example id -> bundled file name
BUNDLED_SCENARIOS = {
    "i": "separable.json",
    "ii": "bell_diagonal.json",
    "iii": "degenerate.json",
    "iii-mixed": "most_mixed.json",
    "appendix": "separable_general.json",
    "appendix-px": "spin_x_mixture.json",
}

_EXTRA_BUNDLED = ("classical_fuzzy.json", "classical_uniform.json")


def _four_weights(values: dict, file_weights: tuple) -> tuple[float, ...]:
    """w1..w4 on the four components; a weight left out keeps the file's."""
    weights = tuple(values.get(f"w{i}", w) for i, w in enumerate(file_weights, 1))
    for w in weights:
        if w < 0.0:
            raise ValidationError(f"weight {w!r} must be nonnegative")
    total = _exact_sum(weights)
    if abs(total - 1.0) > validation_eps():
        raise ValidationError(f"weights sum to {total!r}, expected 1")
    return weights


def _degenerate_weights(values: dict, file_weights: tuple) -> tuple[float, ...]:
    """(a, a, b, b); a value left out completes a + b = 1/2."""
    a = values["a"] if "a" in values else 0.5 - values["b"]
    b = values["b"] if "b" in values else 0.5 - a
    for name, value in (("a", a), ("b", b)):
        if value < 0.0:
            raise ValidationError(f"parameter {name} = {value!r} must be nonnegative")
    if abs((a + b) - 0.5) > validation_eps():
        raise ValidationError(f"parameters must satisfy a + b = 1/2, got a + b = {a + b!r}")
    return (a, a, b, b)


def _spin_x_weights(values: dict, file_weights: tuple) -> tuple[float, ...]:
    """(w, 1 - w)."""
    w = values["w"]
    if not 0.0 <= w <= 1.0:
        raise ValidationError(f"parameter w = {w!r} must lie in [0, 1]")
    return (w, 1.0 - w)


# example id -> (its parameters, how an error names them, the component
# weights of every decomposition of its file given the parameters)
_EXAMPLES = {
    "i": (("w1", "w2", "w3", "w4"), "w1..w4", _four_weights),
    "ii": (("w1", "w2", "w3", "w4"), "w1..w4", _four_weights),
    "iii": (("a", "b"), "a and b", _degenerate_weights),
    "iii-mixed": ((), None, None),
    "appendix": ((), None, None),
    "appendix-px": (("w",), "w", _spin_x_weights),
}


@functools.cache
def _bundled_example(name: str, eps: float) -> QuantumScenario:
    """The bundled file `name` parsed under the validation eps `eps`, which
    its objects keep; every object in it is read-only, so calls share it."""
    return loads_scenario(bundled_scenario_text(name), source=name)


def build_paper_example(example_id: str, params: Mapping | None = None) -> Scenario:
    """The scenario behind a built-in example id, with parameter overrides."""
    if example_id not in _EXAMPLES:
        known = ", ".join(PAPER_EXAMPLE_IDS)
        raise UnknownExample(f"unknown example id {example_id!r}; choose one of: {known}")
    names, named, weigh = _EXAMPLES[example_id]
    params = dict(params or {})
    for key in params:
        if not names:
            raise ValidationError(f"example {example_id!r} takes no parameters")
        if key not in names:
            raise ValidationError(f"unknown parameter {key!r}; this example takes {named}")
    values = {}
    for key, value in params.items():
        number = values[key] = _number(value, f"parameter {key!r}")
        if not math.isfinite(number):
            raise ValidationError(f"parameter {key!r}: expected a finite number, got {number!r}")
    scenario = _bundled_example(BUNDLED_SCENARIOS[example_id], validation_eps())
    if not values:
        return dataclasses.replace(scenario, decompositions=dict(scenario.decompositions))
    weights = weigh(values, next(iter(scenario.decompositions.values())).weights)
    parts = {
        name: [(w, s) for w, (_, s) in zip(weights, dec.components) if w > 0.0]
        for name, dec in scenario.decompositions.items()
    }
    state = DensityOperator.from_mixture(next(iter(parts.values())))
    return dataclasses.replace(
        scenario,
        state=state,
        decompositions={name: ConvexDecomposition(part, state) for name, part in parts.items()},
    )


def run_paper_example(
    example_id: str,
    params: Mapping | None = None,
    decomposition: str | None = None,
) -> ReportDocument:
    """Build and run a built-in example."""
    return run_scenario(build_paper_example(example_id, params), decomposition=decomposition)


def bundled_scenario_names() -> tuple[str, ...]:
    """File names of every scenario shipped with the package."""
    return tuple(BUNDLED_SCENARIOS.values()) + _EXTRA_BUNDLED


def bundled_scenario_text(name: str) -> str:
    """Raw JSON text of a bundled scenario file."""
    path = resources.files("qcorr").joinpath("data").joinpath(name)
    try:
        return path.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        known = ", ".join(bundled_scenario_names())
        raise UnknownExample(f"no bundled scenario {name!r}; choose one of: {known}") from None
