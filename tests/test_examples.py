import json

import numpy as np
import pytest

from qcorr import (
    EPS,
    PAPER_EXAMPLE_IDS,
    UnknownExample,
    ValidationError,
    bundled_scenario_names,
    bundled_scenario_text,
    loads_scenario,
    run_paper_example,
    run_scenario,
    scenario_to_jsonable,
)
from qcorr.cli import EXIT_OK, EXIT_VALIDATION, main
from qcorr.examples import BUNDLED_SCENARIOS, build_paper_example


def test_unknown_example_id():
    with pytest.raises(UnknownExample, match="appendix-px"):
        build_paper_example("nope")


def test_example_i_parameter_override_matches_formula():
    w = {"w1": 0.7, "w2": 0.1, "w3": 0.1, "w4": 0.1}
    report = run_paper_example("i", params=w)
    top = report.rho_t.value(("+1/2", "+1/2"))
    assert top == pytest.approx(0.7 / (0.8 * 0.8), abs=1e-12)


def test_example_i_rejects_unknown_parameter():
    with pytest.raises(ValidationError, match="w1..w4"):
        run_paper_example("i", params={"q": 1.0})


def test_example_iii_parameter_constraint():
    with pytest.raises(ValidationError, match="a \\+ b"):
        build_paper_example("iii", params={"a": 0.3, "b": 0.3})
    # a alone fixes b
    scenario = build_paper_example("iii", params={"a": 0.4})
    report = run_paper_example("iii", params={"a": 0.4})
    assert report.rho_t.value(("+1/2", "+1/2")) == pytest.approx(1.6, abs=1e-12)
    assert scenario.name == "degenerate-state"


def test_examples_without_parameters_reject_them():
    for example_id in ("iii-mixed", "appendix"):
        with pytest.raises(ValidationError, match="no parameters"):
            build_paper_example(example_id, params={"w": 0.3})


def test_spin_x_mixture_validates_range():
    with pytest.raises(ValidationError, match="\\[0, 1\\]"):
        build_paper_example("appendix-px", {"w": 1.5})


def test_spin_x_mixture_drops_vanished_component():
    scenario = build_paper_example("appendix-px", {"w": 1.0})
    dec = scenario.decompositions["product-states"]
    assert len(dec) == 1


# each parameterised example's parameters at the values of its file
FILE_PARAMS = {
    "i": {"w1": 0.4, "w2": 0.3, "w3": 0.2, "w4": 0.1},
    "ii": {"w1": 0.4, "w2": 0.3, "w3": 0.2, "w4": 0.1},
    "iii": {"a": 0.25},
    "appendix-px": {"w": 0.5},
}


@pytest.mark.parametrize("example_id", sorted(FILE_PARAMS))
def test_the_file_weights_as_parameters_rebuild_the_file(example_id):
    """The state recomputed from the reweighted decompositions has the
    file's bits, signed zeros included."""
    scenario = build_paper_example(example_id, FILE_PARAMS[example_id])
    assert scenario.state is not build_paper_example(example_id).state
    text = bundled_scenario_text(BUNDLED_SCENARIOS[example_id])
    assert json.dumps(scenario_to_jsonable(scenario)) == json.dumps(json.loads(text))


@pytest.mark.parametrize("example_id", PAPER_EXAMPLE_IDS)
def test_paper_examples_follow_the_eps_in_force(example_id, monkeypatch):
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    assert build_paper_example(example_id).observable_1._eps == 1e-6
    monkeypatch.delenv("QCORR_EPS")
    assert build_paper_example(example_id).observable_1._eps == EPS


def test_paper_example_under_an_invalid_eps_raises_the_eps_error(monkeypatch):
    monkeypatch.delenv("QCORR_EPS", raising=False)
    build_paper_example("i")
    monkeypatch.setenv("QCORR_EPS", "x")
    with pytest.raises(ValidationError) as excinfo:
        build_paper_example("i")
    assert str(excinfo.value) == "QCORR_EPS must be a number, got 'x'"


@pytest.mark.parametrize("params", [None, {"a": 0.1}])
def test_each_call_returns_its_own_scenario_and_decompositions(params):
    first = build_paper_example("iii", params)
    second = build_paper_example("iii", params)
    assert first is not second
    assert first.decompositions is not second.decompositions
    first.decompositions.clear()
    assert list(build_paper_example("iii", params).decompositions) == [
        "product-basis",
        "bell-basis",
        "mixed-basis",
    ]


def test_bundled_scenarios_all_load():
    for name in bundled_scenario_names():
        scenario = loads_scenario(bundled_scenario_text(name), source=name)
        assert scenario.name


def test_unknown_bundled_name():
    with pytest.raises(UnknownExample, match="no bundled scenario"):
        bundled_scenario_text("missing.json")


def test_file_and_params_routes_agree():
    """Editing the bundled file and passing parameters are the same thing."""
    from qcorr import run_scenario

    by_params = run_paper_example("ii", FILE_PARAMS["ii"])
    by_file = run_scenario(
        loads_scenario(bundled_scenario_text("bell_diagonal.json"))
    )
    assert by_params.rho_t.values == by_file.rho_t.values
    assert (
        by_params.blocks["bell-basis"].rho_e.values == by_file.blocks["bell-basis"].rho_e.values
    )


# how each example names its parameters when it rejects a key
TAKES = {
    "i": "this example takes w1..w4",
    "ii": "this example takes w1..w4",
    "iii": "this example takes a and b",
    "appendix-px": "this example takes w",
}
FIRST_PARAMETER = {"i": "w1", "ii": "w1", "iii": "a", "appendix-px": "w"}


def _rejection(example_id, key):
    if example_id in TAKES:
        return f"unknown parameter {key!r}; {TAKES[example_id]}"
    return f"example {example_id!r} takes no parameters"


def _cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("example_id", PAPER_EXAMPLE_IDS)
@pytest.mark.parametrize("keys", [("q",), ("z", "q"), ("q", "z"), ("z", "w1", "q")])
def test_unknown_parameters_are_named_in_the_order_given(example_id, keys, capsys):
    """The first key given that the example does not take is named, here
    always the first key."""
    message = _rejection(example_id, keys[0])
    params = ",".join(f"{key}=0.5" for key in keys)
    code, out, err = _cli(["paper-example", example_id, "--params", params], capsys)
    assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")
    with pytest.raises(ValidationError) as excinfo:
        build_paper_example(example_id, params=dict.fromkeys(keys, 0.5))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("example_id", PAPER_EXAMPLE_IDS)
@pytest.mark.parametrize("value", ["x", None, [0.5], 0.5 + 1j])
def test_non_numeric_parameter_values_are_validation_errors(example_id, value):
    key = FIRST_PARAMETER.get(example_id, "w")
    expected = (
        f"parameter {key!r}: expected a number, got {value!r}"
        if example_id in TAKES
        else _rejection(example_id, key)
    )
    with pytest.raises(ValidationError) as excinfo:
        run_paper_example(example_id, params={key: value})
    assert str(excinfo.value) == expected


@pytest.mark.parametrize(
    "alone, both",
    [
        ("a=0.4", f"a=0.4,b={0.5 - 0.4!r}"),
        ("b=0.1", f"a={0.5 - 0.1!r},b=0.1"),
        ("a=0.5", "a=0.5,b=0.0"),
        ("b=0.5", "a=0.0,b=0.5"),
    ],
)
def test_degenerate_parameter_alone_completes_the_sum(alone, both, capsys):
    """a or b alone is the same run as both with a + b = 1/2 in floats."""
    by_one = _cli(["paper-example", "iii", "--params", alone, "--format", "json"], capsys)
    by_both = _cli(["paper-example", "iii", "--params", both, "--format", "json"], capsys)
    assert by_one[0] == EXIT_OK
    assert by_one == by_both


@pytest.mark.parametrize(
    "example_id, params, message",
    [
        ("i", "w1=-0.1,w2=0.6", "weight -0.1 must be nonnegative"),
        ("i", "w1=0.5", "weights sum to 1.1, expected 1"),
        ("i", "w1=inf", "parameter 'w1': expected a finite number, got inf"),
        ("i", "w1=1e400", "parameter 'w1': expected a finite number, got inf"),
        ("ii", "w1=nan", "parameter 'w1': expected a finite number, got nan"),
        ("ii", "w4=0.2", "weights sum to 1.1, expected 1"),
        ("iii", "a=0.3,b=0.3", "parameters must satisfy a + b = 1/2, got a + b = 0.6"),
        ("iii", "a=-0.1", "parameter a = -0.1 must be nonnegative"),
        ("iii", "a=0.6", "parameter b = -0.09999999999999998 must be nonnegative"),
        ("iii", "b=0.6", "parameter a = -0.09999999999999998 must be nonnegative"),
        ("iii", "a=nan", "parameter 'a': expected a finite number, got nan"),
        ("iii", "b=nan", "parameter 'b': expected a finite number, got nan"),
        ("iii", "b=inf", "parameter 'b': expected a finite number, got inf"),
        ("appendix-px", "w=1.5", "parameter w = 1.5 must lie in [0, 1]"),
        ("appendix-px", "w=-0.1", "parameter w = -0.1 must lie in [0, 1]"),
        ("appendix-px", "w=nan", "parameter 'w': expected a finite number, got nan"),
        ("appendix-px", "w=inf", "parameter 'w': expected a finite number, got inf"),
    ],
)
def test_out_of_range_parameters_exit_1_with_their_message(example_id, params, message, capsys):
    code, out, err = _cli(["paper-example", example_id, "--params", params], capsys)
    assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")


def _bundled_report(name):
    return run_scenario(loads_scenario(bundled_scenario_text(name)))


def _assert_values(actual, expected):
    np.testing.assert_allclose(actual.as_array(), expected, rtol=0.0, atol=1e-12)


def test_classical_fuzzy_report_in_closed_form():
    """Dirac state at alpha: the joint row (0.7, 0, 0, 0.3) against the
    product of the fuzzy rows, with rho_c = 1 and rho_e = rho_t."""
    report = _bundled_report("classical_fuzzy.json")
    block = report.blocks["classical-product"]
    rho_t = [10 / 7, 0.0, 0.0, 10 / 3]
    _assert_values(report.joint_measure, [0.7, 0.0, 0.0, 0.3])
    _assert_values(report.product_measure, [0.49, 0.21, 0.21, 0.09])
    _assert_values(report.rho_t, rho_t)
    _assert_values(block.rho_c, [1.0, 1.0, 1.0, 1.0])
    _assert_values(block.rho_e, rho_t)


def test_classical_uniform_report_in_closed_form():
    """Deterministic readout of a uniform state: all correlation is classical,
    and rho_e lives only where the joint has mass."""
    report = _bundled_report("classical_uniform.json")
    block = report.blocks["classical-product"]
    _assert_values(report.rho_t, [2.0, 0.0, 0.0, 2.0])
    _assert_values(block.rho_c, [2.0, 0.0, 0.0, 2.0])
    _assert_values(block.rho_e, [1.0, np.nan, np.nan, 1.0])
    assert block.rho_e.support == {("0", "0"), ("1", "1")}
