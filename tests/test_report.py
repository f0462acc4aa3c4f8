import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    PAPER_EXAMPLE_IDS,
    bundled_scenario_names,
    bundled_scenario_text,
    emit_report,
    loads_scenario,
    run_paper_example,
    run_scenario,
)
import qcorr.report
import qcorr.scenario
from qcorr.cli import _selftest_jsonable
from qcorr.report import _json_text
from qcorr.selftest import run_selftest


def _classical_uniform():
    return loads_scenario(bundled_scenario_text("classical_uniform.json"))


def test_table_layout_row_major_and_six_digits():
    text = emit_report(run_paper_example("i"))
    lines = text.splitlines()
    header = next(line for line in lines if "(+1/2,+1/2)" in line)
    # row-major point order across the columns
    assert header.index("(+1/2,+1/2)") < header.index("(+1/2,-1/2)")
    assert header.index("(+1/2,-1/2)") < header.index("(-1/2,+1/2)")
    rho_t_line = next(line for line in lines if line.startswith("rho_t"))
    assert "1.33333" in rho_t_line  # six significant digits
    assert "PASS" in text


def test_table_marks_off_support_points():
    text = emit_report(run_scenario(_classical_uniform()))
    rho_e_line = next(
        line for line in text.splitlines() if line.lstrip().startswith("rho_e")
    )
    assert "—" in rho_e_line


def test_json_report_shape():
    doc = json.loads(emit_report(run_paper_example("iii"), format="json"))
    assert doc["schema"] == "qcorr/report/1"
    assert doc["mode"] == "quantum"
    assert doc["outcomes"][0] == ["+1/2", "+1/2"]
    assert len(doc["total_correlation"]) == 4
    names = [block["name"] for block in doc["decompositions"]]
    assert names == ["product-basis", "bell-basis", "mixed-basis"]
    for block in doc["decompositions"]:
        assert block["product_rule_residual"] < 1e-7
        assert block["product_rule_pass"] is True


def test_json_off_support_is_null():
    doc = json.loads(
        emit_report(run_scenario(_classical_uniform()), format="json")
    )
    rho_e = doc["decompositions"][0]["entanglement"]
    assert rho_e[1] is None and rho_e[2] is None
    assert rho_e[0] == 1.0 and rho_e[3] == 1.0


def test_report_emission_is_deterministic():
    a = emit_report(run_paper_example("appendix"), format="json")
    b = emit_report(run_paper_example("appendix"), format="json")
    assert a == b


# the JSON writer is json.dumps(obj, indent=2), byte for byte ----------------


class _Float(float):
    def __repr__(self):
        return "not how stdlib writes it"


class _Int(int):
    def __repr__(self):
        return "not how stdlib writes it"


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_INTS = st.integers() | st.integers(min_value=2**64, max_value=2**200).flatmap(
    lambda n: st.sampled_from([n, -n])
)
# quotes, backslashes, control characters and text beyond ASCII
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7fé€\U0001f600 '), max_size=8) | st.text(max_size=8)
_SCALARS = (
    _FLOATS
    | _FLOATS.map(_Float)
    | _INTS
    | _INTS.map(_Int)
    | st.booleans()
    | st.none()
    | _TEXT
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.lists(_FLOATS, max_size=5)
    | st.dictionaries(_TEXT, children, max_size=5),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_DOCUMENTS)
def test_writer_matches_stdlib_indented_json(document):
    assert _json_text(document) == json.dumps(document, indent=2)


@pytest.mark.parametrize(
    "document",
    [[], {}, (), [[]], {"": {}}, [math.nan, math.inf, -math.inf], [-0.0, 5e-324], [_Float(0.5)]],
)
def test_writer_matches_stdlib_on_edge_documents(document):
    assert _json_text(document) == json.dumps(document, indent=2)


_ARRAY_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, 1e22, -1e22, math.nan, math.inf, -math.inf]
)


@st.composite
def _float_arrays(draw):
    """Float arrays of 1 to 4 dimensions, zero-length axes included."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    values = draw(st.lists(_ARRAY_FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=float).reshape(shape)


def _tolist(document):
    if isinstance(document, np.ndarray):
        return document.tolist()
    if isinstance(document, dict):
        return {key: _tolist(value) for key, value in document.items()}
    if isinstance(document, list):
        return [_tolist(value) for value in document]
    return document


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_float_arrays(), _float_arrays())
def test_writer_writes_a_float_array_as_stdlib_writes_its_tolist(first, second):
    document = {"top": first, "nested": [{"array": second, "x": 1.5}, first], "empty": []}
    assert _json_text(document) == json.dumps(_tolist(document), indent=2)
    assert _json_text(second) == json.dumps(second.tolist(), indent=2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(_FLOATS | st.none(), max_size=6),
    st.lists(st.lists(_TEXT, max_size=3), max_size=4),
    st.lists(_TEXT, max_size=4),
)
def test_writer_matches_stdlib_on_densities_outcomes_and_labels(density, outcomes, labels):
    """Density lists holding None, lists of label lists and lists of text,
    which the writer joins in one pass."""
    document = {"density": density, "outcomes": outcomes, "nested": [labels, [outcomes, density]]}
    assert _json_text(document) == json.dumps(document, indent=2)


def test_outcomes_densities_and_labels_take_one_call(monkeypatch):
    calls = []
    write = qcorr.report._json_text

    def counting(*args):
        calls.append(None)
        return write(*args)

    monkeypatch.setattr(qcorr.report, "_json_text", counting)
    outcomes = [["+1/2", "-1/2"], ["-1/2", "\u00e9\""]]
    for part in (outcomes, [0.5, None, math.nan, -math.inf], [None, None], ["x", "y"]):
        calls.clear()
        assert qcorr.report._json_text(part) == json.dumps(part, indent=2)
        assert len(calls) == 1


def test_writer_rejects_what_stdlib_cannot_write():
    with pytest.raises(TypeError):
        _json_text({"x": object()})


def _reports():
    for name in bundled_scenario_names():
        scenario = loads_scenario(bundled_scenario_text(name))
        yield run_scenario(scenario)
        yield run_scenario(scenario, decomposition="spectral")
    for example in PAPER_EXAMPLE_IDS:
        yield run_paper_example(example)
        yield run_paper_example(example, decomposition="spectral")


def test_json_reports_are_stdlib_indented_json():
    reports = list(_reports())
    assert len(reports) == 2 * (len(bundled_scenario_names()) + len(PAPER_EXAMPLE_IDS))
    for report in reports:
        assert emit_report(report, format="json") == json.dumps(report.to_jsonable(), indent=2)
    selftest = _selftest_jsonable(run_selftest(seed=3, trials=2))
    assert _json_text(selftest) == json.dumps(selftest, indent=2)


def test_table_reports_never_build_the_echo(monkeypatch):
    def refuse(scenario, array):
        raise AssertionError("a table report built the scenario echo")

    monkeypatch.setattr(qcorr.scenario, "_echo", refuse)
    reports = list(_reports())
    for report in reports:
        assert emit_report(report).startswith(f"scenario: {report.scenario.name}\n")
    with pytest.raises(AssertionError, match="built the scenario echo"):
        emit_report(reports[0], format="json")


def test_json_report_shows_the_scenario_as_it_was_run():
    scenario = loads_scenario(bundled_scenario_text("degenerate.json"))
    report = run_scenario(scenario)
    before = emit_report(report, format="json")
    first = next(iter(scenario.decompositions))
    scenario.decompositions["copy"] = scenario.decompositions.pop(first)
    scenario.name = "renamed"
    assert emit_report(report, format="json") == before
    assert emit_report(run_scenario(scenario), format="json") != before
