import itertools

import pytest

from qcorr import (
    AbsoluteContinuityViolation,
    ClassicalJoint,
    ClassicalObservable,
    DiscreteMeasure,
    OutcomeSpace,
    PhaseSpace,
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

PHASE = PhaseSpace(("alpha", "beta"))
BITS = OutcomeSpace(("0", "1"))


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
