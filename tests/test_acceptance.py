"""Acceptance gate for the correlation engine.

Each test covers one numbered criterion and records its outcome in a module
registry; the terminal summary hook in conftest prints one status line per
criterion at the end of the run. Criteria 1 to 4 pin the closed-form
correlation tables of the bundled examples, criterion 5 runs the seeded
property suites inside a time budget, criterion 6 requires every bundled
scenario file to survive a load/run/emit/reload round trip bit for bit.

Tolerances here are contractual. Do not loosen them to make a failure go
away; a violation means the engine is wrong.
"""

import json
import time
from contextlib import contextmanager
from importlib import resources

import pytest

from qcorr.examples import run_paper_example
from qcorr.report import emit_report
from qcorr.scenario import loads_scenario, run_scenario, scenario_to_jsonable
from qcorr.selftest import run_selftest

TOL = 1e-9
EXAMPLE_RUN_BUDGET_S = 0.1
SELFTEST_TRIALS = 200
SELFTEST_SEED = 20260818
SELFTEST_BUDGET_S = 10.0

CRITERIA = {
    1: "separable mixture: closed-form rho_t, rho_e == 1, rho_c == rho_t, run < 0.1 s",
    2: "Bell-diagonal family: rho_t from diagonal/off-diagonal weights, rho_c == 1",
    3: "degenerate state: identical rho_t under three decompositions, opposite splits",
    4: "sharp/rotated mixture: joint table, rho_e == 1, closed-form rho_c",
    5: "seeded property suites, 200 trials each, all pass within 10 s",
    6: "bundled scenarios: load, run, emit, reload, byte-identical reports",
}

# criterion number -> True (all checks passed) or False (at least one failed)
RESULTS: dict[int, bool] = {}


@contextmanager
def criterion(number: int):
    try:
        yield
    except BaseException:
        RESULTS[number] = False
        raise
    if RESULTS.get(number) is not False:
        RESULTS[number] = True


def summary_lines() -> list[str]:
    lines = []
    for number in sorted(CRITERIA):
        outcome = RESULTS.get(number)
        status = "NOT RUN" if outcome is None else ("PASS" if outcome else "FAIL")
        lines.append(f"criterion {number} [{status}] {CRITERIA[number]}")
    return lines


def _values(density, space) -> list:
    return [density.get(point) for point in space.points]


def test_criterion_1_separable_mixture():
    w1, w2, w3, w4 = 0.4, 0.3, 0.2, 0.1
    with criterion(1):
        started = time.perf_counter()
        report = run_paper_example("i")
        elapsed = time.perf_counter() - started

        pp, pm, mp, mm = report.space.points
        expected = {
            pp: w1 / ((w1 + w3) * (w1 + w4)),
            pm: w3 / ((w1 + w3) * (w2 + w3)),
            mp: w4 / ((w2 + w4) * (w1 + w4)),
            mm: w2 / ((w2 + w4) * (w2 + w3)),
        }
        for point, value in expected.items():
            assert abs(report.rho_t.value(point) - value) < TOL

        block = report.blocks["product-basis"]
        assert block.rho_e.deviation_from(1.0) < TOL
        assert block.rho_c.max_difference(report.rho_t) < TOL
        assert block.product_rule_residual < TOL

        assert elapsed < EXAMPLE_RUN_BUDGET_S, f"run took {elapsed:.3f} s"


@pytest.mark.parametrize(
    "weights",
    [
        (0.4, 0.3, 0.2, 0.1),
        (0.25, 0.25, 0.25, 0.25),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.5, 0.5),
        (0.7, 0.05, 0.15, 0.1),
    ],
)
def test_criterion_2_bell_diagonal(weights):
    w1, w2, w3, w4 = weights
    with criterion(2):
        params = {"w1": w1, "w2": w2, "w3": w3, "w4": w4}
        report = run_paper_example("ii", params=params)
        pp, pm, mp, mm = report.space.points

        diagonal = 2.0 * (w1 + w2)
        off_diagonal = 2.0 * (w3 + w4)
        assert abs(report.rho_t.value(pp) - diagonal) < TOL
        assert abs(report.rho_t.value(mm) - diagonal) < TOL
        assert abs(report.rho_t.value(pm) - off_diagonal) < TOL
        assert abs(report.rho_t.value(mp) - off_diagonal) < TOL

        block = report.blocks["bell-basis"]
        assert block.rho_c.deviation_from(1.0) < TOL
        assert block.rho_e.max_difference(report.rho_t) < TOL
        assert block.product_rule_residual < TOL


@pytest.mark.parametrize("a,b", [(0.3, 0.2), (0.45, 0.05)])
def test_criterion_3_degenerate_opposite_splits(a, b):
    with criterion(3):
        report = run_paper_example("iii", params={"a": a, "b": b})
        pp, pm, mp, mm = report.space.points

        # same rho_t whichever decomposition is chosen
        assert abs(report.rho_t.value(pp) - 4.0 * a) < TOL
        assert abs(report.rho_t.value(mm) - 4.0 * a) < TOL
        assert abs(report.rho_t.value(pm) - 4.0 * b) < TOL
        assert abs(report.rho_t.value(mp) - 4.0 * b) < TOL

        product = report.blocks["product-basis"]
        assert product.rho_e.deviation_from(1.0) < TOL
        assert product.rho_c.max_difference(report.rho_t) < TOL

        bell = report.blocks["bell-basis"]
        assert bell.rho_c.deviation_from(1.0) < TOL
        assert bell.rho_e.max_difference(report.rho_t) < TOL

        mixed = report.blocks["mixed-basis"]
        rho_c_diag = 2.0 * (2.0 * a + b)
        rho_e_diag = 2.0 * a / (2.0 * a + b)
        for point, c_value, e_value in [
            (pp, rho_c_diag, rho_e_diag),
            (mm, rho_c_diag, rho_e_diag),
            (pm, 2.0 * b, 2.0),
            (mp, 2.0 * b, 2.0),
        ]:
            assert abs(mixed.rho_c.value(point) - c_value) < TOL
            assert abs(mixed.rho_e.value(point) - e_value) < TOL

        for block in report.blocks.values():
            assert block.product_rule_residual < TOL


def test_criterion_3_maximally_mixed_compensation():
    # a = b = 1/4 is the maximally mixed state: rho_t == 1 while the mixed
    # decomposition still splits into non-trivial compensating factors
    with criterion(3):
        for report in (
            run_paper_example("iii", params={"a": 0.25, "b": 0.25}),
            run_paper_example("iii-mixed"),
        ):
            assert report.rho_t.deviation_from(1.0) < TOL
            mixed = report.blocks["mixed-basis"]
            pp, pm, mp, mm = report.space.points
            assert abs(mixed.rho_c.value(pp) - 1.5) < TOL
            assert abs(mixed.rho_c.value(mm) - 1.5) < TOL
            assert abs(mixed.rho_c.value(pm) - 0.5) < TOL
            assert abs(mixed.rho_c.value(mp) - 0.5) < TOL
            assert abs(mixed.rho_e.value(pp) - 2.0 / 3.0) < TOL
            assert abs(mixed.rho_e.value(mm) - 2.0 / 3.0) < TOL
            assert abs(mixed.rho_e.value(pm) - 2.0) < TOL
            assert abs(mixed.rho_e.value(mp) - 2.0) < TOL
            assert mixed.product_rule_residual < TOL


@pytest.mark.parametrize("w", [0.2, 0.5, 0.9])
def test_criterion_4_sharp_rotated_mixture(w):
    with criterion(4):
        report = run_paper_example("appendix-px", params={"w": w})
        pp, pm, mp, mm = report.space.points

        assert abs(report.joint_measure.weight(pp) - (1.0 + 3.0 * w) / 4.0) < TOL
        for point in (pm, mp, mm):
            assert abs(report.joint_measure.weight(point) - (1.0 - w) / 4.0) < TOL

        block = report.blocks["product-states"]
        assert block.rho_e.deviation_from(1.0) < TOL
        assert abs(block.rho_c.value(pp) - (1.0 + 3.0 * w) / (1.0 + w) ** 2) < TOL
        assert abs(block.rho_c.value(mm) - 1.0 / (1.0 - w)) < TOL
        assert abs(block.rho_c.value(pm) - 1.0 / (1.0 + w)) < TOL
        assert abs(block.rho_c.value(mp) - 1.0 / (1.0 + w)) < TOL
        assert block.product_rule_residual < TOL


def test_criterion_5_property_suites():
    with criterion(5):
        started = time.perf_counter()
        report = run_selftest(seed=SELFTEST_SEED, trials=SELFTEST_TRIALS)
        elapsed = time.perf_counter() - started

        assert elapsed < SELFTEST_BUDGET_S, f"selftest took {elapsed:.2f} s"
        names = {suite.name for suite in report.suites}
        assert names == {
            "quantum-product-rule",
            "classical-product-rule",
            "total-correlation-invariance",
            "separable-no-entanglement",
            "joint-marginal-consistency",
            "classical-dirac-triviality",
        }
        for suite in report.suites:
            assert suite.trials == SELFTEST_TRIALS
            assert suite.passed, f"{suite.name}: worst {suite.max_deviation:.3e}"
        assert report.passed


def _bundled_names() -> list[str]:
    root = resources.files("qcorr.data")
    return sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".json"))


@pytest.mark.parametrize("name", _bundled_names())
def test_criterion_6_scenario_round_trip(name):
    with criterion(6):
        text = resources.files("qcorr.data").joinpath(name).read_text()
        first = loads_scenario(text, source=name)
        report_1 = emit_report(run_scenario(first), format="json")

        rewritten = json.dumps(scenario_to_jsonable(first), indent=2) + "\n"
        assert rewritten == text

        second = loads_scenario(rewritten, source=name)
        report_2 = emit_report(run_scenario(second), format="json")
        assert report_1 == report_2
