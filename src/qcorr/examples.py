"""Built-in example scenarios and the bundled scenario files.

Each example id builds a scenario programmatically; the bundled JSON files
under ``qcorr/data`` are the serialized default-parameter versions of the
same builders, so editing a file and overriding a parameter are equivalent.
The two classical scenarios, ``classical_fuzzy.json`` and
``classical_uniform.json``, have no builder: the files are their only copy,
loaded with ``loads_scenario(bundled_scenario_text(name))``.

Example ids
-----------
``i``            separable two-qubit mixture over the product basis
                 (parameters w1..w4, default 0.4/0.3/0.2/0.1)
``ii``           Bell-diagonal state mixed over the maximally entangled
                 basis (parameters w1..w4, default 0.4/0.3/0.2/0.1)
``iii``          degenerate state with three inequivalent decompositions
                 (parameters a, b with a + b = 1/2, default 1/4 each)
``iii-mixed``    the most mixed case a = b = 1/4, reported with the mixed
                 decomposition whose split shows classical correlation and
                 entanglement compensating each other; no parameters
``appendix``     a fixed three-term separable product mixture in general
                 position (no entanglement relative to its product
                 decomposition); no parameters
``appendix-px``  mixture of aligned and x-polarized product states
                 (parameter w, default 0.5)
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from importlib import resources

import numpy as np

from .errors import UnknownExample, ValidationError
from .hilbert import ConvexDecomposition, DensityOperator, PureState
from .measure import _number
from .observable import _spin_z_observables
from .report import ReportDocument
from .scenario import QuantumScenario, Scenario, run_scenario
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

_SQRT2 = math.sqrt(2.0)

_UP = np.array([1.0, 0.0], dtype=complex)
_DOWN = np.array([0.0, 1.0], dtype=complex)
_X_PLUS = np.array([1.0, 1.0], dtype=complex) / _SQRT2


def _product_state(left: np.ndarray, right: np.ndarray) -> PureState:
    return PureState(np.kron(left, right))


def _product_basis() -> tuple[PureState, PureState, PureState, PureState]:
    """Spin product basis: (up,up), (down,down), (up,down), (down,up)."""
    pairs = ((_UP, _UP), (_DOWN, _DOWN), (_UP, _DOWN), (_DOWN, _UP))
    return tuple(_product_state(left, right) for left, right in pairs)


def _bell_states() -> tuple[PureState, PureState, PureState, PureState]:
    """Maximally entangled basis: Phi+, Phi-, Psi+, Psi-."""
    uu = np.kron(_UP, _UP)
    dd = np.kron(_DOWN, _DOWN)
    ud = np.kron(_UP, _DOWN)
    du = np.kron(_DOWN, _UP)
    return (
        PureState((uu + dd) / _SQRT2),
        PureState((uu - dd) / _SQRT2),
        PureState((ud + du) / _SQRT2),
        PureState((ud - du) / _SQRT2),
    )


def _bloch_state(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)],
        dtype=complex,
    )


def _nonzero(components) -> list:
    return [(w, s) for w, s in components if w > 0.0]


def _spin_scenario(name: str, state: DensityOperator, decompositions: dict) -> QuantumScenario:
    a1, a2 = _spin_z_observables()
    return QuantumScenario(
        name=name,
        state=state,
        observable_1=a1,
        observable_2=a2,
        joint=None,
        decompositions=decompositions,
        spectral=False,
    )


def _mixture_scenario(name: str, decomposition: str, components) -> QuantumScenario:
    """The mixture of `components` with zero weights dropped, reported relative
    to that one decomposition."""
    components = _nonzero(components)
    state = DensityOperator.from_mixture(components)
    return _spin_scenario(name, state, {decomposition: ConvexDecomposition(components, state)})


def _check_weights(weights) -> tuple[float, ...]:
    weights = tuple(float(w) for w in weights)
    for w in weights:
        if not math.isfinite(w) or w < 0.0:
            raise ValidationError(f"weight {w!r} must be nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > validation_eps():
        raise ValidationError(f"weights sum to {total!r}, expected 1")
    return weights


def build_separable_mixture(w1=0.4, w2=0.3, w3=0.2, w4=0.1) -> QuantumScenario:
    """Mixture of the four spin product states, weighted w1..w4 on
    (up,up), (down,down), (up,down), (down,up)."""
    weights = _check_weights((w1, w2, w3, w4))
    return _mixture_scenario("separable-mixture", "product-basis", zip(weights, _product_basis()))


def build_bell_diagonal(w1=0.4, w2=0.3, w3=0.2, w4=0.1) -> QuantumScenario:
    """Mixture of the four maximally entangled basis states, weighted
    w1..w4 on (Phi+, Phi-, Psi+, Psi-)."""
    weights = _check_weights((w1, w2, w3, w4))
    return _mixture_scenario("bell-diagonal", "bell-basis", zip(weights, _bell_states()))


def _degenerate_parts(a: float, b: float):
    a = float(a)
    b = float(b)
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value) or value < 0.0:
            raise ValidationError(f"parameter {name} = {value!r} must be nonnegative")
    if abs((a + b) - 0.5) > validation_eps():
        raise ValidationError(f"parameters must satisfy a + b = 1/2, got a + b = {a + b!r}")
    products = _product_basis()
    phi_plus, phi_minus, psi_plus, psi_minus = _bell_states()
    product_dec = _nonzero(zip((a, a, b, b), products))
    bell_dec = _nonzero(zip((a, a, b, b), (phi_plus, phi_minus, psi_plus, psi_minus)))
    mixed_dec = _nonzero(zip((a, a, b, b), (products[0], products[1], psi_plus, psi_minus)))
    state = DensityOperator.from_mixture(product_dec)
    return state, product_dec, bell_dec, mixed_dec


def build_degenerate(a=None, b=None) -> QuantumScenario:
    """Doubly degenerate state a(uu+dd) + b(ud+du) with three decompositions.

    A parameter left out completes a + b = 1/2; both left out give 1/4 each.
    The product-basis and bell-basis decompositions produce identical total
    correlation with opposite splits; mixed-basis blends the two.
    """
    if a is None:
        a = 0.25 if b is None else 0.5 - float(b)
    if b is None:
        b = 0.5 - float(a)
    state, product_dec, bell_dec, mixed_dec = _degenerate_parts(a, b)
    decompositions = {
        "product-basis": ConvexDecomposition(product_dec, state),
        "bell-basis": ConvexDecomposition(bell_dec, state),
        "mixed-basis": ConvexDecomposition(mixed_dec, state),
    }
    return _spin_scenario("degenerate-state", state, decompositions)


def build_most_mixed() -> QuantumScenario:
    """The most mixed two-qubit state with the mixed-basis decomposition.

    Total correlation is constant 1, yet the split relative to this
    decomposition carries nontrivial classical correlation and entanglement
    that compensate each other.
    """
    state, _, _, mixed_dec = _degenerate_parts(0.25, 0.25)
    return _spin_scenario(
        "most-mixed-compensation",
        state,
        {"mixed-basis": ConvexDecomposition(mixed_dec, state)},
    )


def build_separable_general() -> QuantumScenario:
    """Three-term separable product mixture with general-position factors."""
    weights = (0.5, 0.3, 0.2)
    lefts = [
        _bloch_state(0.0, 0.0),
        _bloch_state(2.0 * math.pi / 3.0, math.pi / 5.0),
        _bloch_state(math.pi / 2.0, -math.pi / 3.0),
    ]
    rights = [
        _bloch_state(math.pi / 3.0, 0.0),
        _bloch_state(math.pi, 0.0),
        _bloch_state(math.pi / 2.0, math.pi / 2.0),
    ]
    components = [(w, _product_state(l, r)) for w, l, r in zip(weights, lefts, rights)]
    return _mixture_scenario("separable-general", "product-states", components)


def build_spin_x_mixture(w=0.5) -> QuantumScenario:
    """Mixture w * (up,up) + (1-w) * (x+,x+) of two product states."""
    w = float(w)
    if not math.isfinite(w) or not 0.0 <= w <= 1.0:
        raise ValidationError(f"parameter w = {w!r} must lie in [0, 1]")
    components = [
        (w, _product_state(_UP, _UP)),
        (1.0 - w, _product_state(_X_PLUS, _X_PLUS)),
    ]
    return _mixture_scenario("spin-x-mixture", "product-states", components)


# example id -> (builder, its keyword parameters, how an error names them)
_EXAMPLES = {
    "i": (build_separable_mixture, ("w1", "w2", "w3", "w4"), "w1..w4"),
    "ii": (build_bell_diagonal, ("w1", "w2", "w3", "w4"), "w1..w4"),
    "iii": (build_degenerate, ("a", "b"), "a and b"),
    "iii-mixed": (build_most_mixed, (), None),
    "appendix": (build_separable_general, (), None),
    "appendix-px": (build_spin_x_mixture, ("w",), "w"),
}


def build_paper_example(example_id: str, params: Mapping | None = None) -> Scenario:
    """The scenario behind a built-in example id, with parameter overrides."""
    if example_id not in _EXAMPLES:
        known = ", ".join(PAPER_EXAMPLE_IDS)
        raise UnknownExample(f"unknown example id {example_id!r}; choose one of: {known}")
    builder, names, named = _EXAMPLES[example_id]
    params = dict(params or {})
    for key in params:
        if not names:
            raise ValidationError(f"example {example_id!r} takes no parameters")
        if key not in names:
            raise ValidationError(f"unknown parameter {key!r}; this example takes {named}")
    return builder(**{key: _number(value, f"parameter {key!r}") for key, value in params.items()})


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
