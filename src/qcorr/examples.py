"""Built-in example scenarios and the bundled scenario files.

Each example id builds a scenario programmatically; the bundled JSON files
under ``qcorr/data`` are the serialized default-parameter versions of the
same builders, so editing a file and overriding a parameter are equivalent.

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

from .classical_frame import ClassicalJoint, ClassicalObservable, PhaseSpace
from .errors import UnknownExample, ValidationError
from .hilbert import ConvexDecomposition, DensityOperator, PureState
from .measure import DiscreteMeasure, OutcomeSpace, ProductSpace
from .observable import spin_z_pair
from .report import ReportDocument
from .scenario import ClassicalScenario, QuantumScenario, Scenario, run_scenario
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
    a1, a2, _ = spin_z_pair()
    return QuantumScenario(
        name=name,
        state=state,
        observable_1=a1,
        observable_2=a2,
        joint=None,
        decompositions=decompositions,
        spectral=False,
    )


def _check_weights(weights, count: int = 4) -> tuple[float, ...]:
    weights = tuple(float(w) for w in weights)
    if len(weights) != count:
        raise ValidationError(f"expected {count} weights, got {len(weights)}")
    for w in weights:
        if not math.isfinite(w) or w < 0.0:
            raise ValidationError(f"weight {w!r} must be nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > validation_eps():
        raise ValidationError(f"weights sum to {total!r}, expected 1")
    return weights


def build_separable_mixture(weights=(0.4, 0.3, 0.2, 0.1)) -> QuantumScenario:
    """Mixture of the four spin product states, weighted w1..w4 on
    (up,up), (down,down), (up,down), (down,up)."""
    components = _nonzero(zip(_check_weights(weights), _product_basis()))
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    return _spin_scenario("separable-mixture", state, {"product-basis": dec})


def build_bell_diagonal(weights=(0.4, 0.3, 0.2, 0.1)) -> QuantumScenario:
    """Mixture of the four maximally entangled basis states, weighted
    w1..w4 on (Phi+, Phi-, Psi+, Psi-)."""
    checked = _check_weights(weights)
    components = _nonzero(zip(checked, _bell_states()))
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    return _spin_scenario("bell-diagonal", state, {"bell-basis": dec})


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


def build_degenerate(a: float = 0.25, b: float = 0.25) -> QuantumScenario:
    """Doubly degenerate state a(uu+dd) + b(ud+du) with three decompositions.

    The product-basis and bell-basis decompositions produce identical total
    correlation with opposite splits; mixed-basis blends the two.
    """
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
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    return _spin_scenario("separable-general", state, {"product-states": dec})


def build_spin_x_mixture(w: float = 0.5) -> QuantumScenario:
    """Mixture w * (up,up) + (1-w) * (x+,x+) of two product states."""
    w = float(w)
    if not math.isfinite(w) or not 0.0 <= w <= 1.0:
        raise ValidationError(f"parameter w = {w!r} must lie in [0, 1]")
    components = _nonzero(
        [
            (w, _product_state(_UP, _UP)),
            (1.0 - w, _product_state(_X_PLUS, _X_PLUS)),
        ]
    )
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    return _spin_scenario("spin-x-mixture", state, {"product-states": dec})


def build_classical_fuzzy() -> ClassicalScenario:
    """Two identical fuzzy binary observables with a perfectly correlated
    joint kernel, evaluated at a Dirac state.

    The joint is marginally consistent but differs from the product joint,
    so the entanglement-type density is nonconstant at a pure state.
    """
    phase = PhaseSpace(("alpha", "beta"))
    codomain = OutcomeSpace(("0", "1"))
    rows = {"alpha": {"0": 0.7, "1": 0.3}, "beta": {"0": 0.3, "1": 0.7}}
    a1 = ClassicalObservable(phase, codomain, rows)
    a2 = ClassicalObservable(phase, codomain, rows)
    joint = ClassicalJoint(
        phase,
        ProductSpace(codomain, codomain),
        {
            "alpha": {("0", "0"): 0.7, ("0", "1"): 0.0, ("1", "0"): 0.0, ("1", "1"): 0.3},
            "beta": {("0", "0"): 0.3, ("0", "1"): 0.0, ("1", "0"): 0.0, ("1", "1"): 0.7},
        },
    )
    state = DiscreteMeasure(phase, {"alpha": 1.0})
    return ClassicalScenario(
        name="fuzzy-correlated-joint",
        phase_space=phase,
        state=state,
        observable_1=a1,
        observable_2=a2,
        joint=joint,
    )


def build_classical_uniform() -> ClassicalScenario:
    """Deterministic readout of a uniform two-point phase space under the
    canonical product joint; all correlation is classical."""
    phase = PhaseSpace(("alpha", "beta"))
    codomain = OutcomeSpace(("0", "1"))
    rows = {"alpha": {"0": 1.0}, "beta": {"1": 1.0}}
    a1 = ClassicalObservable(phase, codomain, rows)
    a2 = ClassicalObservable(phase, codomain, rows)
    state = DiscreteMeasure(phase, {"alpha": 0.5, "beta": 0.5})
    return ClassicalScenario(
        name="deterministic-uniform",
        phase_space=phase,
        state=state,
        observable_1=a1,
        observable_2=a2,
        joint=None,
    )


def _params_to_weights(params: Mapping, defaults) -> tuple[float, ...]:
    weights = list(defaults)
    for key, value in params.items():
        if key not in ("w1", "w2", "w3", "w4"):
            raise ValidationError(f"unknown parameter {key!r}; this example takes w1..w4")
        weights[int(key[1]) - 1] = float(value)
    return tuple(weights)


def _build_i(params: Mapping) -> QuantumScenario:
    return build_separable_mixture(_params_to_weights(params, (0.4, 0.3, 0.2, 0.1)))


def _build_ii(params: Mapping) -> QuantumScenario:
    return build_bell_diagonal(_params_to_weights(params, (0.4, 0.3, 0.2, 0.1)))


def _build_iii(params: Mapping) -> QuantumScenario:
    unknown = set(params) - {"a", "b"}
    if unknown:
        raise ValidationError(
            f"unknown parameter {sorted(unknown)[0]!r}; this example takes a and b"
        )
    if "a" in params and "b" in params:
        a, b = float(params["a"]), float(params["b"])
    elif "a" in params:
        a = float(params["a"])
        b = 0.5 - a
    elif "b" in params:
        b = float(params["b"])
        a = 0.5 - b
    else:
        a = b = 0.25
    return build_degenerate(a, b)


def _build_no_params(builder, example_id: str):
    def build(params: Mapping):
        if params:
            raise ValidationError(f"example {example_id!r} takes no parameters")
        return builder()

    return build


def _build_appendix_px(params: Mapping) -> QuantumScenario:
    unknown = set(params) - {"w"}
    if unknown:
        raise ValidationError(f"unknown parameter {sorted(unknown)[0]!r}; this example takes w")
    return build_spin_x_mixture(float(params.get("w", 0.5)))


_BUILDERS = {
    "i": _build_i,
    "ii": _build_ii,
    "iii": _build_iii,
    "iii-mixed": _build_no_params(build_most_mixed, "iii-mixed"),
    "appendix": _build_no_params(build_separable_general, "appendix"),
    "appendix-px": _build_appendix_px,
}


def build_paper_example(example_id: str, params: Mapping | None = None) -> Scenario:
    """The scenario behind a built-in example id, with parameter overrides."""
    if example_id not in _BUILDERS:
        known = ", ".join(PAPER_EXAMPLE_IDS)
        raise UnknownExample(f"unknown example id {example_id!r}; choose one of: {known}")
    return _BUILDERS[example_id](dict(params or {}))


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
