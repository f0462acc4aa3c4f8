import json

import pytest

from qcorr import (
    UnknownExample,
    ValidationError,
    bundled_scenario_names,
    bundled_scenario_text,
    loads_scenario,
    run_paper_example,
    scenario_to_jsonable,
)
from qcorr.examples import (
    BUNDLED_SCENARIOS,
    build_classical_fuzzy,
    build_classical_uniform,
    build_paper_example,
    build_spin_x_mixture,
)


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
        build_spin_x_mixture(1.5)


def test_spin_x_mixture_drops_vanished_component():
    scenario = build_spin_x_mixture(1.0)
    dec = scenario.decompositions["product-states"]
    assert len(dec) == 1


@pytest.mark.parametrize("example_id,filename", sorted(BUNDLED_SCENARIOS.items()))
def test_bundled_files_are_the_serialized_default_builders(example_id, filename):
    text = bundled_scenario_text(filename)
    assert json.loads(text) == scenario_to_jsonable(build_paper_example(example_id))


@pytest.mark.parametrize(
    "filename,builder",
    [
        ("classical_fuzzy.json", build_classical_fuzzy),
        ("classical_uniform.json", build_classical_uniform),
    ],
)
def test_bundled_classical_files_match_builders(filename, builder):
    text = bundled_scenario_text(filename)
    assert json.loads(text) == scenario_to_jsonable(builder())


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

    by_params = run_paper_example("ii")
    by_file = run_scenario(
        loads_scenario(bundled_scenario_text("bell_diagonal.json"))
    )
    assert by_params.rho_t.values == by_file.rho_t.values
    assert (
        by_params.blocks["bell-basis"].rho_e.values == by_file.blocks["bell-basis"].rho_e.values
    )
