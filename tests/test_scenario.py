import copy
import json

import numpy as np
import pytest

from qcorr import (
    ParseError,
    QuantumScenario,
    ValidationError,
    load_scenario,
    loads_scenario,
    run_scenario,
    scenario_from_jsonable,
    scenario_to_jsonable,
)
from qcorr.cli import EXIT_OK, EXIT_VALIDATION, main
from qcorr.examples import bundled_scenario_text
from qcorr.scenario import _complex_array, _matrix

DIAG = [[1.0, 0.0], [0.0, 0.0]]
ANTIDIAG = [[0.0, 0.0], [0.0, 1.0]]


def quantum_doc():
    """Minimal valid one-qubit scenario measured twice along the same axis."""
    return {
        "schema": "qcorr/1",
        "name": "minimal",
        "mode": "quantum",
        "dim": 2,
        "state": [[0.6, 0.0], [0.0, 0.4]],
        "observables": [
            {"labels": ["u", "d"], "effects": [DIAG, ANTIDIAG]},
            {"labels": ["u", "d"], "effects": [DIAG, ANTIDIAG]},
        ],
        "joint": "auto-commuting",
        "decompositions": {
            "basis": [
                {"weight": 0.6, "vector": [1.0, 0.0]},
                {"weight": 0.4, "vector": [0.0, 1.0]},
            ]
        },
    }


def classical_doc():
    return {
        "schema": "qcorr/1",
        "name": "minimal-classical",
        "mode": "classical",
        "phase_space": ["a", "b"],
        "state": [0.5, 0.5],
        "observables": [
            {"labels": ["0", "1"], "kernel": [[1.0, 0.0], [0.0, 1.0]]},
            {"labels": ["0", "1"], "kernel": [[0.8, 0.2], [0.2, 0.8]]},
        ],
        "joint": "classical-product",
    }


def test_loads_rejects_invalid_json():
    with pytest.raises(ParseError, match="line 1"):
        loads_scenario("{not json")


def test_load_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario("/no/such/scenario.json")


def test_schema_field_is_checked():
    doc = quantum_doc()
    doc["schema"] = "qcorr/99"
    with pytest.raises(ValidationError, match="schema"):
        scenario_from_jsonable(doc)


def test_unknown_fields_are_rejected():
    doc = quantum_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown field"):
        scenario_from_jsonable(doc)


def test_mode_is_checked():
    doc = quantum_doc()
    doc["mode"] = "both"
    with pytest.raises(ValidationError, match="mode"):
        scenario_from_jsonable(doc)


def test_state_must_be_a_density_matrix():
    doc = quantum_doc()
    doc["state"] = [[0.6, 0.1], [0.0, 0.4]]
    with pytest.raises(ValidationError, match="state.*Hermitian"):
        scenario_from_jsonable(doc)
    doc["state"] = [[0.6, 0.0], [0.0, 0.38]]
    with pytest.raises(ValidationError, match="trace"):
        scenario_from_jsonable(doc)


def test_decomposition_weights_must_sum_to_one():
    doc = quantum_doc()
    doc["decompositions"]["basis"][1]["weight"] = 0.38
    with pytest.raises(ValidationError, match="0.98"):
        scenario_from_jsonable(doc)


def test_decomposition_must_rebuild_the_state():
    doc = quantum_doc()
    doc["decompositions"]["basis"] = [
        {"weight": 0.5, "vector": [1.0, 0.0]},
        {"weight": 0.5, "vector": [0.0, 1.0]},
    ]
    with pytest.raises(ValidationError, match="reconstruct"):
        scenario_from_jsonable(doc)


def test_observable_needs_effects_or_operator_not_both():
    doc = quantum_doc()
    doc["observables"][0]["operator"] = DIAG
    with pytest.raises(ValidationError, match="exactly one"):
        scenario_from_jsonable(doc)
    del doc["observables"][0]["operator"]
    del doc["observables"][0]["effects"]
    with pytest.raises(ValidationError, match="exactly one"):
        scenario_from_jsonable(doc)


def test_operator_form_builds_projective_observable():
    doc = quantum_doc()
    doc["observables"][0] = {"labels": ["u", "d"], "operator": [[0.5, 0.0], [0.0, -0.5]]}
    scenario = scenario_from_jsonable(doc)
    assert scenario.observable_1.is_projective
    assert scenario.observable_1.space.labels == ("u", "d")


def test_complex_entries_accept_bare_reals_and_pairs():
    doc = quantum_doc()
    paired = copy.deepcopy(doc)
    paired["state"] = [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]
    a = scenario_from_jsonable(doc)
    b = scenario_from_jsonable(paired)
    assert (a.state.matrix == b.state.matrix).all()


def test_kernel_row_length_is_checked():
    doc = classical_doc()
    doc["observables"][0]["kernel"][0] = [1.0]
    with pytest.raises(ValidationError, match="kernel"):
        scenario_from_jsonable(doc)


def test_classical_state_length_matches_phase_space():
    doc = classical_doc()
    doc["state"] = [1.0]
    with pytest.raises(ValidationError, match="state"):
        scenario_from_jsonable(doc)


def test_classical_state_entry_error_names_its_path_once():
    doc = classical_doc()
    doc["state"] = [1.0, "x"]
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_jsonable(doc)
    assert str(excinfo.value) == "state[1]: expected a number, got 'x'"


def test_classical_joint_row_error_names_its_path_once():
    doc = classical_doc()
    doc["joint"] = {"kernel": [[0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5]]}
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_jsonable(doc)
    assert str(excinfo.value) == "joint.kernel[0]: expected 4 entries, got 3"


def test_classical_weight_errors_keep_their_field_prefix():
    doc = classical_doc()
    doc["state"] = [0.5, 0.6]
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_jsonable(doc)
    assert str(excinfo.value) == "state: weights sum to 1.1, expected 1"
    doc = classical_doc()
    doc["joint"] = {"kernel": [[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.0, 0.6]]}
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_jsonable(doc)
    assert str(excinfo.value) == "joint: weights sum to 1.1, expected 1"


def test_explicit_classical_joint_rows():
    doc = classical_doc()
    doc["joint"] = {
        "kernel": [
            [0.8, 0.0, 0.0, 0.2],
            [0.0, 0.2, 0.8, 0.0],
        ]
    }
    scenario = scenario_from_jsonable(doc)
    assert scenario.joint is not None
    row = scenario.joint.row("a")
    assert row.weight(("0", "0")) == pytest.approx(0.8)


def test_quantum_round_trip_is_stable():
    scenario = scenario_from_jsonable(quantum_doc())
    first = scenario_to_jsonable(scenario)
    second = scenario_to_jsonable(scenario_from_jsonable(first))
    assert first == second
    # and the serialized text parses back to the same document
    assert json.loads(json.dumps(first)) == first


def test_classical_round_trip_is_stable():
    scenario = scenario_from_jsonable(classical_doc())
    first = scenario_to_jsonable(scenario)
    second = scenario_to_jsonable(scenario_from_jsonable(first))
    assert first == second


def test_run_scenario_selects_named_decomposition():
    scenario = scenario_from_jsonable(quantum_doc())
    report = run_scenario(scenario, decomposition="basis")
    assert list(report.blocks) == ["basis"]


def test_run_scenario_unknown_decomposition():
    scenario = scenario_from_jsonable(quantum_doc())
    with pytest.raises(ValidationError, match="available: basis, spectral"):
        run_scenario(scenario, decomposition="nope")


def test_run_scenario_forced_spectral():
    scenario = scenario_from_jsonable(quantum_doc())
    report = run_scenario(scenario, decomposition="spectral")
    assert report.blocks["spectral"].decomposition_source == "spectral"
    assert report.flags["spectral_decomposition_used"]
    assert any("among many" in note for note in report.notes)


def test_run_scenario_requires_some_decomposition():
    scenario = scenario_from_jsonable(quantum_doc())
    bare = QuantumScenario(
        name="no-decs",
        state=scenario.state,
        observable_1=scenario.observable_1,
        observable_2=scenario.observable_2,
        joint=None,
    )
    with pytest.raises(ValidationError, match="declares no decompositions"):
        run_scenario(bare)


def test_classical_run_reports_flags():
    report = run_scenario(scenario_from_jsonable(classical_doc()))
    assert report.mode == "classical"
    assert report.flags["observable_1_deterministic"]
    assert not report.flags["observable_2_deterministic"]
    assert report.flags["joint_marginally_consistent"]


# the one-call matrix parser takes only what the walk accepts unnamed ---------


def _separable(edit):
    doc = json.loads(bundled_scenario_text("separable.json"))
    edit(doc)
    return doc


def _set_state_entry(value):
    return lambda doc: doc["state"][0].__setitem__(0, value)


def _first_components(doc):
    return next(iter(doc["decompositions"].values()))


def _bad_norm_then_bad_weight(doc):
    components = _first_components(doc)
    components[0]["vector"] = [[2.0, 0.0]] + components[0]["vector"][1:]
    components[1]["weight"] = "0.3"


DECOMPOSITION = "decompositions['product-basis']"

# edit of the bundled separable file -> the message every earlier version gave
PARSER_PINS = {
    "true-entry": (
        _set_state_entry(True),
        "state[0][0]: expected a number or [re, im] pair, got True",
    ),
    "numeric-string-entry": (
        _set_state_entry("0.5"),
        "state[0][0]: expected a number or [re, im] pair, got '0.5'",
    ),
    "bool-in-pair": (
        _set_state_entry([True, 0.0]),
        "state[0][0][0]: expected a number, got True",
    ),
    "null-entry": (
        _set_state_entry(None),
        "state[0][0]: expected a number or [re, im] pair, got None",
    ),
    "bool-in-real-row": (
        lambda doc: doc["state"].__setitem__(0, [0.4, 0.0, 0.0, False]),
        "state[0][3]: expected a number or [re, im] pair, got False",
    ),
    "three-element-pair": (
        _set_state_entry([0.4, 0.0, 0.0]),
        "state[0][0]: expected a number or [re, im] pair, got [0.4, 0.0, 0.0]",
    ),
    "ragged-row": (
        lambda doc: doc["state"][0].pop(),
        "state[0]: expected 4 entries, got 3",
    ),
    "integer-beyond-float-in-pair": (
        _set_state_entry([10**400, 0.0]),
        "state[0][0][0]: number too large for a float",
    ),
    # earlier versions crashed with an OverflowError traceback here
    "integer-beyond-float": (
        _set_state_entry(10**400),
        "state[0][0]: number too large for a float",
    ),
    "true-in-effect": (
        lambda doc: doc["observables"][0]["effects"][0][0].__setitem__(0, True),
        "observables[0].effects[0][0][0]: expected a number or [re, im] pair, got True",
    ),
    "null-in-vector": (
        lambda doc: _first_components(doc)[0]["vector"].__setitem__(0, None),
        f"{DECOMPOSITION}[0].vector[0]: expected a number or [re, im] pair, got None",
    ),
    # component 0 fails its norm before component 1's weight is read
    "bad-norm-then-bad-weight": (
        _bad_norm_then_bad_weight,
        f"{DECOMPOSITION}[0].vector: state vector norm is 2.0, expected 1",
    ),
}


@pytest.mark.parametrize("case", list(PARSER_PINS))
def test_parser_keeps_each_message(case, tmp_path, capsys):
    edit, message = PARSER_PINS[case]
    text = json.dumps(_separable(edit))
    with pytest.raises(ValidationError) as excinfo:
        loads_scenario(text)
    assert str(excinfo.value) == message
    path = tmp_path / "scenario.json"
    path.write_text(text)
    for verb in ("run", "validate"):
        assert main([verb, str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"


def test_row_mixing_numbers_and_pairs_is_accepted(tmp_path, capsys):
    mixed = _separable(lambda doc: doc["state"][0].__setitem__(1, 0.0))
    assert (
        scenario_from_jsonable(mixed).state.matrix
        == scenario_from_jsonable(_separable(lambda doc: None)).state.matrix
    ).all()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(mixed))
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "valid: separable-mixture (quantum)\n"


def _leaves(value, wrap):
    if isinstance(value, list):
        return [_leaves(v, wrap) for v in value]
    return wrap(value)


class _Int(int):
    pass


def test_numpy_float_leaves_are_accepted_as_before():
    plain = _separable(lambda doc: None)
    wrapped = _leaves(plain["state"], np.float64)
    assert _complex_array(wrapped, (4, 4)) is None  # the walk parses them
    doc = dict(plain, state=wrapped)
    assert scenario_from_jsonable(doc).state.matrix.tobytes() == (
        scenario_from_jsonable(plain).state.matrix.tobytes()
    )


def test_fast_path_and_walk_give_the_same_bits():
    rng = np.random.default_rng(13)
    scales = 10.0 ** rng.integers(-300, 300, size=60)
    floats = (rng.normal(size=60) * scales).tolist() + [-0.0, 5e-324, -2.5e-320]
    ints = [0, -1, 2**53 + 1, -(2**62) - 3, 2**63 - 1, 2**63]
    ints += rng.integers(-(2**62), 2**62, size=11).tolist()
    values = np.array(floats + ints, dtype=object)  # 80 leaves
    dim = 4
    for leaves in (values[:32], values[32:64], values[48:]):
        for shape in ((dim, dim), (dim, dim, 2)):
            value = leaves[: np.prod(shape)].reshape(shape).tolist()
            fast = _complex_array(value, (dim, dim))
            assert fast is not None
            # leaves of a subclass send the same numbers down the walk
            walked = _leaves(value, lambda v: _Int(v) if type(v) is int else np.float64(v))
            assert _complex_array(walked, (dim, dim)) is None
            assert fast.tobytes() == _matrix(walked, "m", dim).tobytes()
