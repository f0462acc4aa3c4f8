import json

from qcorr import (
    bundled_scenario_text,
    emit_report,
    loads_scenario,
    run_paper_example,
    run_scenario,
)


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
