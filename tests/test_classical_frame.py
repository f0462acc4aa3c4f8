import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.hilbert
import qcorr.measure
import qcorr.tolerance
from qcorr import (
    AbsoluteContinuityViolation,
    ClassicalJoint,
    ClassicalObservable,
    DiscreteMeasure,
    OutcomeSpace,
    PhaseSpace,
    Povm,
    ProductSpace,
    SpaceMismatch,
    UnknownLabel,
    ValidationError,
    classical_joint,
    classical_report,
    dirac,
    is_deterministic,
    is_marginally_consistent,
)
from qcorr.classical_frame import apply
from qcorr.tolerance import validation_eps
from split_oracle import reference_kernel

PHASE = PhaseSpace(("alpha", "beta"))
BITS = OutcomeSpace(("0", "1"))
TRITS = OutcomeSpace(("a", "b", "c"))


def fuzzy():
    rows = {"alpha": {"0": 0.7, "1": 0.3}, "beta": {"0": 0.3, "1": 0.7}}
    return ClassicalObservable(PHASE, BITS, rows)


def readout(assignment):
    """Deterministic kernel sending each phase point to its assigned label."""
    return ClassicalObservable(
        PHASE, BITS, {point: {label: 1.0} for point, label in assignment.items()}
    )


def test_kernel_validation():
    with pytest.raises(ValidationError, match="missing"):
        ClassicalObservable(PHASE, BITS, {"alpha": {"0": 1.0}})
    with pytest.raises(UnknownLabel):
        ClassicalObservable(
            PHASE, BITS, {"alpha": {"0": 1.0}, "beta": {"0": 1.0}, "gamma": {"0": 1.0}}
        )
    with pytest.raises(SpaceMismatch):
        ClassicalObservable(
            PHASE, BITS, {"alpha": dirac(OutcomeSpace(("x",)), "x"), "beta": {"0": 1.0}}
        )


def test_classical_joint_requires_product_codomain():
    with pytest.raises(ValidationError, match="product"):
        ClassicalJoint(PHASE, BITS, {"alpha": {"0": 1.0}, "beta": {"0": 1.0}})
    with pytest.raises(ValidationError, match="product"):
        ClassicalJoint.from_matrix(PHASE, BITS, [[1.0, 0.0], [1.0, 0.0]])


def test_from_matrix_holds_a_readonly_copy():
    rows = np.array([[0.7, 0.3], [0.3, 0.7]])
    observable = ClassicalObservable.from_matrix(PHASE, BITS, rows)
    rows[0, 0] = 5.0
    assert observable.matrix.tolist() == [[0.7, 0.3], [0.3, 0.7]]
    assert np.array_equal(observable.matrix, fuzzy().matrix)
    with pytest.raises(ValueError):
        observable.matrix[0, 0] = 1.0
    assert observable.row("beta").as_array().tolist() == [0.3, 0.7]


def test_from_matrix_checks_the_shape():
    with pytest.raises(ValidationError) as excinfo:
        ClassicalObservable.from_matrix(PHASE, BITS, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    assert str(excinfo.value) == "kernel matrix must have shape (2, 2), got (2, 3)"
    with pytest.raises(ValidationError, match="got \\(2,\\)"):
        ClassicalObservable.from_matrix(PHASE, BITS, [0.5, 0.5])


def test_from_matrix_rejects_rows_summing_past_the_float_range():
    with pytest.raises(ValidationError) as excinfo:
        ClassicalObservable.from_matrix(PHASE, BITS, [[0.5, 0.5], [1e308, 1e308]])
    assert str(excinfo.value) == "weights sum to inf, expected 1"


def test_from_matrix_rejects_ragged_and_non_numeric_input():
    with pytest.raises(ValidationError) as excinfo:
        ClassicalObservable.from_matrix(PHASE, BITS, [[1.0, 0.0], [1.0]])
    assert str(excinfo.value) == "kernel matrix must have shape (2, 2), got a ragged sequence"
    with pytest.raises(ValidationError) as excinfo:
        ClassicalObservable.from_matrix(PHASE, BITS, [[1.0, 0.0], [1.0, "x"]])
    assert str(excinfo.value) == "kernel matrix[1][1]: expected a number, got 'x'"
    with pytest.raises(ValidationError) as excinfo:
        ClassicalObservable(PHASE, BITS, {"alpha": {"0": None}, "beta": {"0": 1.0}})
    assert str(excinfo.value) == "weight at '0': expected a number, got None"


def _count_calls(monkeypatch, function) -> list:
    """The argument tuples of every call of `function` through any qcorr
    module's binding of it, until the test ends."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "qcorr" or name.startswith("qcorr."):
            for attribute, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attribute, counted)
    return calls


def test_kernels_and_operators_are_coerced_and_checked_once(monkeypatch):
    coerced = _count_calls(monkeypatch, qcorr.measure._number_array)
    eps_reads = _count_calls(monkeypatch, qcorr.tolerance.validation_eps)
    deviations = _count_calls(monkeypatch, qcorr.hilbert._hermitian_deviation)

    points = PhaseSpace(("p1", "p2", "p3", "p4"))
    kernel = [[1.0, 0.0], [0.7, 0.3], [0.5, 0.5], [0.0, 1.0]]
    ClassicalObservable.from_matrix(points, BITS, kernel)
    assert (len(coerced), len(eps_reads)) == (1, 1)

    Povm.from_operator(np.diag([1.0, 0.0, -1.0]))
    assert len(deviations) == 1


def test_row_rejects_unknown_points():
    with pytest.raises(UnknownLabel, match="'gamma' is not a phase-space point"):
        fuzzy().row("gamma")


def test_apply_at_dirac_returns_the_row():
    observable = fuzzy()
    out = apply(observable, dirac(PHASE, "alpha"))
    assert out.weight("0") == pytest.approx(0.7)
    assert out.weight("1") == pytest.approx(0.3)


def test_apply_is_affine_in_the_state():
    observable = fuzzy()
    mixed = DiscreteMeasure(PHASE, {"alpha": 0.25, "beta": 0.75})
    out = apply(observable, mixed)
    assert out.weight("0") == pytest.approx(0.25 * 0.7 + 0.75 * 0.3)


def test_apply_rejects_foreign_state():
    observable = fuzzy()
    with pytest.raises(SpaceMismatch):
        apply(observable, dirac(PhaseSpace(("x", "y")), "x"))


def test_is_deterministic():
    assert is_deterministic(readout({"alpha": "0", "beta": "1"}))
    assert not is_deterministic(fuzzy())


def test_canonical_joint_rows_are_products():
    a1 = fuzzy()
    a2 = readout({"alpha": "0", "beta": "1"})
    joint = classical_joint(a1, a2)
    row = joint.row("alpha")
    assert row.weight(("0", "0")) == pytest.approx(0.7)
    assert row.weight(("1", "0")) == pytest.approx(0.3)
    assert row.weight(("0", "1")) == pytest.approx(0.0, abs=1e-15)
    assert is_marginally_consistent(joint, a1, a2)


def test_canonical_joint_is_the_rowwise_outer_product():
    a1 = fuzzy()
    a2 = ClassicalObservable(
        PHASE, TRITS, {"alpha": {"a": 0.1, "b": 0.2, "c": 0.7}, "beta": {"b": 1.0}}
    )
    joint = classical_joint(a1, a2)
    assert joint.codomain == ProductSpace(BITS, TRITS)
    for i, point in enumerate(PHASE.labels):
        expected = np.multiply.outer(a1.matrix[i], a2.matrix[i]).ravel()
        assert np.array_equal(joint.matrix[i], expected)
        assert np.array_equal(joint.row(point).as_array(), expected)


def test_row_of_a_canonical_joint_is_held_as_derived(monkeypatch):
    # at the default eps each factor row, summing to 1 + 9e-10, is valid;
    # their products sum to about 1 + 1.8e-9, which a re-check would reject
    monkeypatch.delenv("QCORR_EPS", raising=False)
    off = [[0.6 + 9e-10, 0.4], [0.5, 0.5 + 9e-10]]
    a1 = ClassicalObservable.from_matrix(PHASE, BITS, off)
    a2 = ClassicalObservable.from_matrix(PHASE, BITS, off[::-1])
    joint = classical_joint(a1, a2)
    for i, point in enumerate(PHASE.labels):
        row = joint.row(point)
        assert math.fsum(row.as_array().tolist()) - 1.0 > validation_eps()
        assert np.array_equal(row.as_array(), joint.matrix[i])


def test_row_read_under_a_tighter_eps_is_the_accepted_row(monkeypatch):
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    observable = ClassicalObservable.from_matrix(PHASE, BITS, [[0.7 + 5e-7, 0.3], [0.3, 0.7]])
    monkeypatch.setenv("QCORR_EPS", "1e-12")
    row = observable.row("alpha")
    assert row.as_array().tolist() == [0.7 + 5e-7, 0.3]
    with pytest.raises(ValueError):
        row.as_array()[0] = 0.0


def test_marginal_consistency_detects_mismatch():
    a1 = fuzzy()
    a2 = fuzzy()
    # this joint's left marginal is (0.5, 0.5) per row, not (0.7, 0.3)
    kernel = {
        point: {("0", "0"): 0.5, ("1", "1"): 0.5}
        for point in PHASE.labels
    }
    joint = ClassicalJoint(PHASE, ProductSpace(BITS, BITS), kernel)
    assert not is_marginally_consistent(joint, a1, a2)


def test_rho_t_accepts_inconsistent_joint_until_support_escapes():
    """Inconsistency alone is tolerated; the density only fails when the
    joint puts mass outside the product's support."""
    a1 = readout({"alpha": "0", "beta": "1"})
    a2 = readout({"alpha": "0", "beta": "1"})
    # joint claims the observables disagree at alpha, though each alone says "0"
    kernel = {
        "alpha": {("1", "1"): 1.0},
        "beta": {("1", "1"): 1.0},
    }
    joint = ClassicalJoint(PHASE, ProductSpace(BITS, BITS), kernel)
    with pytest.raises(AbsoluteContinuityViolation, match=r"at \('1', '1'\)"):
        classical_report(joint, a1, a2, dirac(PHASE, "alpha"))


def test_rho_c_is_one_at_dirac_states():
    a1 = fuzzy()
    a2 = readout({"alpha": "0", "beta": "1"})
    for point in PHASE.labels:
        report = classical_report(classical_joint(a1, a2), a1, a2, dirac(PHASE, point))
        assert report.rho_c.deviation_from(1.0) < 1e-12


def test_classical_report_has_no_decomposition_size():
    a1, a2 = fuzzy(), readout({"alpha": "0", "beta": "1"})
    state = DiscreteMeasure(PHASE, {"alpha": 0.5, "beta": 0.5})
    report = classical_report(classical_joint(a1, a2), a1, a2, state)
    assert report.decomposition_source == "canonical"
    assert report.decomposition_size is None


def test_rho_c_nontrivial_at_mixed_state_with_sharp_readout():
    a1 = readout({"alpha": "0", "beta": "1"})
    joint_stats_state = DiscreteMeasure(PHASE, {"alpha": 0.5, "beta": 0.5})
    rho = classical_report(classical_joint(a1, a1), a1, a1, joint_stats_state).rho_c
    assert rho.value(("0", "0")) == pytest.approx(2.0)
    assert rho.value(("1", "1")) == pytest.approx(2.0)
    assert rho.value(("0", "1")) == pytest.approx(0.0, abs=1e-15)


def test_rho_e_sees_joint_beyond_product_coupling():
    """A perfectly correlated joint over fuzzy readouts carries correlation
    at a sharp phase point that the canonical product cannot produce."""
    a1 = fuzzy()
    kernel = {
        "alpha": {("0", "0"): 0.7, ("1", "1"): 0.3},
        "beta": {("0", "0"): 0.3, ("1", "1"): 0.7},
    }
    joint = ClassicalJoint(PHASE, ProductSpace(BITS, BITS), kernel)
    report = classical_report(joint, a1, a1, dirac(PHASE, "alpha"))
    rho_e = report.rho_e
    assert rho_e.value(("0", "0")) == pytest.approx(0.7 / 0.49)
    assert rho_e.value(("1", "1")) == pytest.approx(0.3 / 0.09)
    assert rho_e.value(("0", "1")) == pytest.approx(0.0, abs=1e-15)

    # and the product rule still closes
    assert report.rho_c.deviation_from(1.0) < 1e-12
    assert report.product_rule_residual < 1e-12


def test_every_deterministic_pair_is_consistent_and_classical():
    """Exhaustive check over all sixteen deterministic kernel pairs on a
    two-point phase space with binary codomains."""
    assignments = [
        dict(zip(PHASE.labels, combo))
        for combo in itertools.product(BITS.labels, repeat=2)
    ]
    state = DiscreteMeasure(PHASE, {"alpha": 0.35, "beta": 0.65})
    for left, right in itertools.product(assignments, repeat=2):
        a1 = readout(left)
        a2 = readout(right)
        joint = classical_joint(a1, a2)
        assert is_deterministic(joint)
        assert is_marginally_consistent(joint, a1, a2)
        report = classical_report(joint, a1, a2, state)
        # relative to its own canonical joint everything is classical
        assert report.rho_e.deviation_from(1.0) < 1e-12
        assert report.rho_c.max_difference(report.rho_t) < 1e-12
        assert report.product_rule_residual < 1e-12


# constructor agreement with the row-by-row oracle ------------------------------

FAULTS = ("tiny", "negative", "nonfinite", "off-sum")


@st.composite
def kernel_rows(draw):
    """Row-stochastic points x outcomes tables (lists of rows) with up to two
    rows changed: a mass from 1e-12 to 1e-4, an entry straddling -eps, a NaN
    or infinite entry, or a row whose sum straddles 1 +- eps."""
    eps = validation_eps()
    points = draw(st.integers(1, 4))
    size = draw(st.integers(2, 4))
    rows = []
    for _ in range(points):
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
        total = math.fsum(raw)
        rows.append([value / total for value in raw])
    for i in draw(st.lists(st.integers(0, points - 1), unique=True, max_size=2)):
        row, j = rows[i], draw(st.integers(0, size - 1))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "tiny":
            mass = 10.0 ** draw(st.floats(-12.0, -4.0))
            scale = (1.0 - mass) / (1.0 - row[j])
            row[:] = [value * scale for value in row]
            row[j] = mass
        elif fault == "negative":
            entry = -eps * draw(st.floats(0.5, 1.5))
            row[(j + 1) % size] += row[j] - entry
            row[j] = entry
        elif fault == "nonfinite":
            row[j] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        else:
            scale = 1.0 + eps * draw(st.floats(-3.0, 3.0))
            row[:] = [value * scale for value in row]
    return rows


def _spaces(rows):
    phase = PhaseSpace(tuple(f"p{i}" for i in range(len(rows))))
    return phase, OutcomeSpace(tuple(f"x{j}" for j in range(len(rows[0]))))


def _outcome(build):
    """The matrix `build` returns, or the type and message of its error."""
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


@settings(max_examples=300)
@given(kernel_rows())
def test_kernel_constructors_agree_with_the_row_by_row_oracle(rows):
    phase, codomain = _spaces(rows)
    kernel = {point: dict(zip(codomain.labels, row)) for point, row in zip(phase.labels, rows)}
    expected = _outcome(lambda: reference_kernel(phase, codomain, kernel))
    _assert_same_outcome(_outcome(lambda: ClassicalObservable(phase, codomain, kernel).matrix), expected)
    _assert_same_outcome(
        _outcome(lambda: ClassicalObservable.from_matrix(phase, codomain, rows).matrix), expected
    )


ROW_FORMS = ("mapping", "measure", "foreign-measure", "unknown-label", "missing")


@st.composite
def kernel_mappings(draw):
    """Kernels as mappings in any point order, with rows given as plain
    mappings or as measures, rows on a foreign space, unknown outcome labels,
    missing rows and an unknown phase point."""
    rows = draw(kernel_rows())
    phase, codomain = _spaces(rows)
    items = []
    for point, row in zip(phase.labels, rows):
        form = draw(st.sampled_from(ROW_FORMS))
        weights = dict(zip(codomain.labels, row))
        if form == "measure":
            try:
                items.append((point, DiscreteMeasure.from_array(codomain, row)))
            except ValidationError:
                items.append((point, weights))
        elif form == "foreign-measure":
            items.append((point, dirac(OutcomeSpace(("elsewhere",)), "elsewhere")))
        elif form == "unknown-label":
            items.append((point, {**weights, "nowhere": 0.0}))
        elif form == "mapping":
            items.append((point, weights))
    if draw(st.booleans()):
        items.append(("stranger", dict(zip(codomain.labels, rows[0]))))
    return phase, codomain, dict(draw(st.permutations(items)))


@settings(max_examples=300)
@given(kernel_mappings())
def test_mapping_constructor_keeps_the_oracle_precedence(case):
    phase, codomain, kernel = case
    _assert_same_outcome(
        _outcome(lambda: ClassicalObservable(phase, codomain, kernel).matrix),
        _outcome(lambda: reference_kernel(phase, codomain, kernel)),
    )


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0.5, 0.5], [1.5, -0.5], [math.nan, 1.0]], "negative weight -0.5 at '1'"),
        ([[math.inf, 0.0], [0.5, 0.6], [0.5, 0.5]], "weight at '0' is not finite"),
        ([[0.5, 0.5], [0.5, 0.6], [-1.0, 2.0]], "weights sum to 1.1, expected 1"),
    ],
    ids=["negative-then-nan", "inf-then-off-sum", "off-sum-then-negative"],
)
def test_two_faults_report_the_first_row(rows, message):
    phase = PhaseSpace(("p0", "p1", "p2"))
    kernel = {point: dict(zip(BITS.labels, row)) for point, row in zip(phase.labels, rows)}
    with pytest.raises(ValidationError) as oracle:
        reference_kernel(phase, BITS, kernel)
    assert str(oracle.value) == message
    for build in (
        lambda: ClassicalObservable(phase, BITS, kernel),
        lambda: ClassicalObservable.from_matrix(phase, BITS, rows),
    ):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert (type(excinfo.value), str(excinfo.value)) == (type(oracle.value), message)
