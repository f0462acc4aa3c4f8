import copy
import json

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
    assert [block.name for block in report.blocks] == ["basis"]


def test_run_scenario_unknown_decomposition():
    scenario = scenario_from_jsonable(quantum_doc())
    with pytest.raises(ValidationError, match="available: basis, spectral"):
        run_scenario(scenario, decomposition="nope")


def test_run_scenario_forced_spectral():
    scenario = scenario_from_jsonable(quantum_doc())
    report = run_scenario(scenario, decomposition="spectral")
    assert report.blocks[0].source == "spectral"
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
