"""Scenario files: a versioned JSON schema plus the runner.

Schema "qcorr/1"
----------------
Common fields: ``schema`` (must be ``"qcorr/1"``), ``name``, ``mode``
(``"quantum"`` or ``"classical"``). Complex scalars are ``[re, im]`` pairs
(bare reals are accepted on input); matrices are row-major lists of rows.
Wherever values are keyed by outcomes, the file stores an array aligned with
the declared label order, row-major for product spaces.

Quantum mode::

    {
      "schema": "qcorr/1", "name": "...", "mode": "quantum",
      "dim": 4,
      "state": [[...], ...],                       # dim x dim density matrix
      "observables": [
        {"labels": [...], "effects": [M, ...]},    # one matrix per label
        {"labels": [...], "operator": M}           # or a self-adjoint operator
      ],
      "joint": "auto-commuting",                   # or {"effects": [M, ...]} row-major
      "decompositions": "spectral"                 # or {name: [{"weight": w, "vector": [...]}]}
    }

Classical mode::

    {
      "schema": "qcorr/1", "name": "...", "mode": "classical",
      "phase_space": ["p1", ...],
      "state": [...],                              # one weight per phase point
      "observables": [
        {"labels": [...], "kernel": [[...], ...]}  # one row per phase point
      ],
      "joint": "classical-product"                 # or {"kernel": [[...], ...]} row-major rows
    }

The serializer emits the normalized form (complex pairs everywhere, effects
form for observables), so load -> serialize -> load is stable.
"""

from __future__ import annotations

import copy
import json
import reprlib
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .classical_frame import (
    ClassicalJoint,
    ClassicalObservable,
    PhaseSpace,
    classical_joint,
    classical_report,
    is_deterministic,
    is_marginally_consistent,
)
from .correlation import CorrelationReport, _require_joint, correlation_report
from .errors import ParseError, ValidationError
from .hilbert import ConvexDecomposition, DensityOperator, _unit_row_fault
from .measure import DiscreteMeasure, OutcomeSpace, ProductSpace
from .observable import Povm, joint_from_commuting
from .report import ReportDocument
from .tolerance import EPS, NOTE_TOL, validation_eps

__all__ = [
    "SCHEMA",
    "QuantumScenario",
    "ClassicalScenario",
    "load_scenario",
    "loads_scenario",
    "scenario_from_jsonable",
    "scenario_to_jsonable",
    "run_scenario",
]

SCHEMA = "qcorr/1"


@dataclass
class QuantumScenario:
    name: str
    state: DensityOperator
    observable_1: Povm
    observable_2: Povm
    joint: Povm | None  # None: build the commuting product joint at run time
    decompositions: dict[str, ConvexDecomposition] = field(default_factory=dict)
    spectral: bool = False

    mode = "quantum"


@dataclass
class ClassicalScenario:
    name: str
    phase_space: PhaseSpace
    state: DiscreteMeasure
    observable_1: ClassicalObservable
    observable_2: ClassicalObservable
    joint: ClassicalJoint | None  # None: canonical product joint

    mode = "classical"


Scenario = QuantumScenario | ClassicalScenario


# ---------------------------------------------------------------------------
# parsing helpers; every failure names the offending field path


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


# Lists and objects nested past two levels print as [...] and {...}, and long
# strings, numbers and lists are cut, so that a value nested as deep as the
# JSON decoder allows can still be quoted.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 2


def _quote(value) -> str:
    """The file's `value` as an error message quotes it."""
    return _QUOTE.repr(value)


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    return value


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {_quote(value)}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number too large for a float")


def _complex_scalar(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_real(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], f"{path}[0]"), _real(value[1], f"{path}[1]"))
    _fail(path, f"expected a number or [re, im] pair, got {_quote(value)}")


def _plain_array(value, shape: tuple[int, ...], dtype: type = complex) -> np.ndarray | None:
    """`value` as a `dtype` (complex or float) array of `shape` in one numpy
    call, when it is nested lists whose leaves are plain ints or floats that
    fit a float, at complex dtype every entry a real or every entry an
    [re, im] pair; otherwise None, and the walk, which names each fault,
    parses it."""
    if type(value) is not list:
        return None
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    pairs = dtype is complex and array.shape == shape + (2,)
    if array.shape != shape and not pairs:
        return None
    items = value
    for _ in range(array.ndim - 1):
        if set(map(type, items)) != {list}:
            return None
        items = list(chain.from_iterable(items))
    if not set(map(type, items)) <= {int, float}:
        return None
    return array.view(complex).reshape(shape) if pairs else array.astype(dtype, copy=False)


def _walk(value, path: str, shape: tuple, leaf):
    """`value` as nested lists of `shape` (None: any length) with `leaf`
    read at each entry; the first fault, depth first, names its path."""
    if not shape:
        return leaf(value, path)
    entries = _expect_list(value, path, length=shape[0])
    return [_walk(entry, f"{path}[{i}]", shape[1:], leaf) for i, entry in enumerate(entries)]


def _array(value, path: str, shape: tuple[int, ...], dtype: type = complex) -> np.ndarray:
    """A numeric field as a `dtype` (complex or float) array of `shape`: the
    one-call path, else the walk."""
    array = _plain_array(value, shape, dtype)
    if array is None:
        leaf = _complex_scalar if dtype is complex else _real
        array = np.array(_walk(value, path, shape, leaf), dtype=dtype)
    return array


def _labels(value, path: str) -> tuple[str, ...]:
    return tuple(_walk(value, path, (None,), _string))


def _wrap(path: str, builder):
    try:
        return builder()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# loading


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; one that cannot be read or is not
    UTF-8 raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_scenario(text, source=str(path))


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario JSON from a string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{source}: invalid JSON: nested too deeply to decode") from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    return scenario_from_jsonable(data)


def scenario_from_jsonable(data) -> Scenario:
    """Build a validated scenario from already-parsed JSON data."""
    root = _expect_mapping(data, "scenario")
    schema = root.get("schema")
    if schema != SCHEMA:
        _fail("schema", f"expected {SCHEMA!r}, got {_quote(schema)}")
    name = _string(root.get("name"), "name")
    mode = root.get("mode")
    if mode == "quantum":
        return _quantum_from_jsonable(root, name)
    if mode == "classical":
        return _classical_from_jsonable(root, name)
    _fail("mode", f"expected 'quantum' or 'classical', got {_quote(mode)}")


_QUANTUM_KEYS = {"schema", "name", "mode", "dim", "state", "observables", "joint", "decompositions"}
_CLASSICAL_KEYS = {"schema", "name", "mode", "phase_space", "state", "observables", "joint"}


def _check_keys(root: dict, allowed: set[str]):
    unknown = sorted(set(root) - allowed)
    if unknown:
        _fail(unknown[0], "unknown field")


def _quantum_from_jsonable(root: dict, name: str) -> QuantumScenario:
    _check_keys(root, _QUANTUM_KEYS)
    dim = root.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        _fail("dim", f"expected an integer >= 2, got {_quote(dim)}")
    state_matrix = _array(root.get("state"), "state", (dim, dim))
    state = _wrap("state", lambda: DensityOperator(state_matrix))

    observables = _expect_list(root.get("observables"), "observables", length=2)
    povms = [
        _observable_from_jsonable(entry, f"observables[{i}]", dim)
        for i, entry in enumerate(observables)
    ]

    joint_value = root.get("joint", "auto-commuting")
    if joint_value == "auto-commuting":
        joint = None
    else:
        joint = _joint_from_jsonable(joint_value, "joint", povms[0], povms[1], dim)

    decompositions: dict[str, ConvexDecomposition] = {}
    spectral = False
    dec_value = root.get("decompositions", "spectral")
    if dec_value == "spectral":
        spectral = True
    else:
        mapping = _expect_mapping(dec_value, "decompositions")
        if not mapping:
            _fail("decompositions", "expected 'spectral' or at least one named decomposition")
        for dec_name, entries in mapping.items():
            path = f"decompositions[{dec_name!r}]"
            decompositions[dec_name] = _decomposition(entries, path, dim, state)
    return QuantumScenario(
        name=name,
        state=state,
        observable_1=povms[0],
        observable_2=povms[1],
        joint=joint,
        decompositions=decompositions,
        spectral=spectral,
    )


def _decomposition(entries, path: str, dim: int, state: DensityOperator) -> ConvexDecomposition:
    """A file decomposition, checked in one batch by `_from_rows`. Its
    errors, and which of them comes first, are those of building one
    PureState per component as its entry parses, then the public
    constructor."""
    weights, rows = [], []
    try:
        for i, entry in enumerate(_expect_list(entries, path)):
            item = _expect_mapping(entry, f"{path}[{i}]")
            weights.append(_real(item.get("weight"), f"{path}[{i}].weight"))
            rows.append(_array(item.get("vector"), f"{path}[{i}].vector", (dim,)))
    except ValidationError:
        _raise_row_fault(path, rows)  # a bad row before the fault fails first
        raise
    rows = np.array(rows, dtype=complex).reshape(len(rows), dim)
    try:
        return ConvexDecomposition._from_rows(np.array(weights), rows, state)
    except ValidationError as exc:
        _raise_row_fault(path, rows)
        raise ValidationError(f"{path}: {exc}") from exc


def _raise_row_fault(path: str, rows) -> None:
    """Raise PureState's error, named by its component, for the first of
    `rows` it rejects."""
    if len(rows):
        fault = _unit_row_fault(np.asarray(rows), validation_eps())
        if fault is not None:
            raise ValidationError(f"{path}[{fault[0]}].vector: {fault[1]}")


def _observable_from_jsonable(entry, path: str, dim: int) -> Povm:
    mapping = _expect_mapping(entry, path)
    labels = _labels(mapping.get("labels"), f"{path}.labels")
    has_effects = "effects" in mapping
    has_operator = "operator" in mapping
    if has_effects == has_operator:
        _fail(path, "expected exactly one of 'effects' or 'operator'")
    if has_operator:
        operator = _array(mapping["operator"], f"{path}.operator", (dim, dim))
        return _wrap(path, lambda: Povm.from_operator(operator, labels=labels))
    stack = _array(mapping["effects"], f"{path}.effects", (len(labels), dim, dim))
    return _wrap(path, lambda: Povm._from_stack(OutcomeSpace(labels), stack))


def _joint_from_jsonable(value, path: str, a1: Povm, a2: Povm, dim: int) -> Povm:
    mapping = _expect_mapping(value, path)
    if set(mapping) != {"effects"}:
        _fail(path, "expected 'auto-commuting' or an object with an 'effects' array")
    space = ProductSpace(a1.space, a2.space)
    stack = _array(mapping["effects"], f"{path}.effects", (len(space), dim, dim))
    return _wrap(path, lambda: Povm._from_stack(space, stack))


def _classical_from_jsonable(root: dict, name: str) -> ClassicalScenario:
    _check_keys(root, _CLASSICAL_KEYS)
    phase = _wrap("phase_space", lambda: PhaseSpace(_labels(root.get("phase_space"), "phase_space")))
    weights = _array(root.get("state"), "state", (len(phase),), float)
    state = _wrap("state", lambda: DiscreteMeasure.from_array(phase, weights))
    observables = _expect_list(root.get("observables"), "observables", length=2)
    kernels = [
        _kernel_from_jsonable(entry, f"observables[{i}]", phase)
        for i, entry in enumerate(observables)
    ]
    joint_value = root.get("joint", "classical-product")
    if joint_value == "classical-product":
        joint = None
    else:
        mapping = _expect_mapping(joint_value, "joint")
        if set(mapping) != {"kernel"}:
            _fail("joint", "expected 'classical-product' or an object with a 'kernel' array")
        codomain = ProductSpace(kernels[0].codomain, kernels[1].codomain)
        rows = _array(mapping["kernel"], "joint.kernel", (len(phase), len(codomain)), float)
        joint = _wrap("joint", lambda: ClassicalJoint.from_matrix(phase, codomain, rows))
    return ClassicalScenario(
        name=name,
        phase_space=phase,
        state=state,
        observable_1=kernels[0],
        observable_2=kernels[1],
        joint=joint,
    )


def _kernel_from_jsonable(entry, path: str, phase: PhaseSpace) -> ClassicalObservable:
    mapping = _expect_mapping(entry, path)
    labels = _labels(mapping.get("labels"), f"{path}.labels")
    codomain = _wrap(f"{path}.labels", lambda: OutcomeSpace(labels))
    rows = _array(mapping.get("kernel"), f"{path}.kernel", (len(phase), len(codomain)), float)
    return _wrap(path, lambda: ClassicalObservable.from_matrix(phase, codomain, rows))


# ---------------------------------------------------------------------------
# serialization (normalized form)


def _complex_pairs(array: np.ndarray) -> np.ndarray:
    """A complex array as a float array with a trailing [re, im] axis."""
    array = np.ascontiguousarray(array, dtype=complex)
    return array.view(float).reshape(array.shape + (2,))


def scenario_to_jsonable(scenario: Scenario) -> dict:
    """Serialize a scenario back to the normalized JSON form."""
    return _echo(scenario, np.ndarray.tolist)


def _echo(scenario: Scenario, array) -> dict:
    """The normalized form of `scenario`, each of its float arrays passed
    through `array`: `np.ndarray.tolist` gives plain lists, `np.asarray`
    keeps the arrays for the report writer to format in one call each."""
    if isinstance(scenario, QuantumScenario):
        return _quantum_echo(scenario, array)
    if isinstance(scenario, ClassicalScenario):
        return _classical_echo(scenario, array)
    raise ValidationError(f"not a scenario: {scenario!r}")


def _quantum_echo(scenario: QuantumScenario, array) -> dict:
    if scenario.spectral:
        decompositions = "spectral"
    else:
        decompositions = {
            name: [
                {"weight": weight, "vector": vector}
                for weight, vector in zip(dec.weights, array(_complex_pairs(dec.vectors)))
            ]
            for name, dec in scenario.decompositions.items()
        }
    if scenario.joint is None:
        joint = "auto-commuting"
    else:
        joint = {"effects": array(_complex_pairs(scenario.joint._stack))}
    return {
        "schema": SCHEMA,
        "name": scenario.name,
        "mode": "quantum",
        "dim": scenario.state.dim,
        "state": array(_complex_pairs(scenario.state.matrix)),
        "observables": [
            {"labels": list(o.space.labels), "effects": array(_complex_pairs(o._stack))}
            for o in (scenario.observable_1, scenario.observable_2)
        ],
        "joint": joint,
        "decompositions": decompositions,
    }


def _classical_echo(scenario: ClassicalScenario, array) -> dict:
    if scenario.joint is None:
        joint = "classical-product"
    else:
        joint = {"kernel": array(scenario.joint.matrix)}
    return {
        "schema": SCHEMA,
        "name": scenario.name,
        "mode": "classical",
        "phase_space": list(scenario.phase_space.labels),
        "state": array(scenario.state.as_array()),
        "observables": [
            {"labels": list(o.codomain.labels), "kernel": array(o.matrix)}
            for o in (scenario.observable_1, scenario.observable_2)
        ],
        "joint": joint,
    }


# ---------------------------------------------------------------------------
# running


def run_scenario(scenario: Scenario, decomposition: str | None = None) -> ReportDocument:
    """Run a scenario and assemble the report document.

    `decomposition` restricts a quantum run to one named decomposition, or
    forces the spectral default with the literal name "spectral". Classical
    scenarios ignore it (their split is canonical).
    """
    if isinstance(scenario, QuantumScenario):
        return _run_quantum(scenario, decomposition)
    if isinstance(scenario, ClassicalScenario):
        return _run_classical(scenario)
    raise ValidationError(f"not a scenario: {scenario!r}")


def _select_decompositions(scenario: QuantumScenario, requested: str | None):
    if requested == "spectral":
        return [("spectral", scenario.state)]
    if requested is not None:
        if requested not in scenario.decompositions:
            known = sorted(scenario.decompositions) + ["spectral"]
            raise ValidationError(
                f"unknown decomposition {requested!r}; available: {', '.join(known)}"
            )
        return [(requested, scenario.decompositions[requested])]
    if scenario.spectral:
        return [("spectral", scenario.state)]
    if not scenario.decompositions:
        raise ValidationError("scenario declares no decompositions")
    return list(scenario.decompositions.items())


def _quantum_joint(scenario: QuantumScenario) -> Povm:
    """The joint a quantum run reports with: the commuting product joint of
    the pair, or the explicit joint once its marginals are checked."""
    a1, a2 = scenario.observable_1, scenario.observable_2
    if scenario.joint is None:
        return joint_from_commuting(a1, a2)
    _require_joint(scenario.joint, a1, a2)
    return scenario.joint


def _run_quantum(scenario: QuantumScenario, requested: str | None) -> ReportDocument:
    a1, a2 = scenario.observable_1, scenario.observable_2
    joint = _quantum_joint(scenario)
    blocks = {
        name: correlation_report(joint, a1, a2, dec)
        for name, dec in _select_decompositions(scenario, requested)
    }
    shared = next(iter(blocks.values()))

    purity = scenario.state.purity()
    pure = purity >= 1.0 - EPS
    spectral = any(b.decomposition_source == "spectral" for b in blocks.values())
    flags = {
        "joint_mode": "explicit" if scenario.joint is not None else "auto-commuting",
        "joint_marginals_consistent": True,  # enforced by the engine
        "state_pure": pure,
        "decomposition_relative": not pure,
        "spectral_decomposition_used": spectral,
    }
    notes = _quantum_notes(shared, blocks, pure, spectral)
    return _document(scenario, shared, blocks, flags, notes)


def _document(
    scenario: Scenario, shared: CorrelationReport, blocks: dict, flags: dict, notes: list[str]
) -> ReportDocument:
    snapshot = copy.copy(scenario)  # the echo shows the scenario as it was run
    if isinstance(snapshot, QuantumScenario):
        snapshot.decompositions = dict(scenario.decompositions)
    return ReportDocument(
        scenario=snapshot,
        mode=scenario.mode,
        space=shared.joint_measure.space,
        joint_measure=shared.joint_measure,
        marginal_1=shared.marginal_1,
        marginal_2=shared.marginal_2,
        product_measure=shared.product_measure,
        rho_t=shared.rho_t,
        blocks=blocks,
        flags=flags,
        notes=notes,
    )


def _quantum_notes(shared, blocks: dict, pure: bool, spectral: bool) -> list[str]:
    notes = []
    if not pure:
        notes.append(
            "classical and entanglement densities are relative to the chosen "
            "decomposition; only their product is decomposition-independent"
        )
    if spectral:
        notes.append(
            "the spectral decomposition is one convex decomposition among many"
        )
    support = sorted(shared.rho_t.support)
    if len(support) == 1:
        point = support[0]
        notes.append(
            f"joint and product statistics are concentrated at ({point[0]},{point[1]}); "
            "all other outcomes carry no mass"
        )
    if shared.rho_t.deviation_from(1.0) <= EPS:
        for name, block in blocks.items():
            if block.rho_c is not None and block.rho_c.deviation_from(1.0) > NOTE_TOL:
                notes.append(
                    f"decomposition '{name}': total correlation is trivial, yet "
                    "classical correlation and entanglement are both present and "
                    "compensate each other"
                )
    return notes


def _run_classical(scenario: ClassicalScenario) -> ReportDocument:
    a1, a2 = scenario.observable_1, scenario.observable_2
    joint = scenario.joint if scenario.joint is not None else classical_joint(a1, a2)
    state = scenario.state
    result = classical_report(joint, a1, a2, state)
    state_is_dirac = bool(state.as_array().max() >= 1.0 - EPS)
    flags = {
        "joint_mode": "explicit" if scenario.joint is not None else "classical-product",
        "joint_marginally_consistent": is_marginally_consistent(joint, a1, a2),
        "observable_1_deterministic": is_deterministic(a1),
        "observable_2_deterministic": is_deterministic(a2),
        "state_dirac": state_is_dirac,
    }
    notes = []
    rho_e = result.rho_e
    if state_is_dirac and rho_e is not None and rho_e.deviation_from(1.0) > NOTE_TOL:
        notes.append(
            "entanglement-type correlation at a pure (Dirac) state: the chosen "
            "joint correlates outcomes beyond the product coupling"
        )
    return _document(scenario, result, {"classical-product": result}, flags, notes)
