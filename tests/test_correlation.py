"""Engine-level checks against hand-derived closed forms.

The two-qubit cases here have exact rational answers, so tolerances are
tight; anything looser would hide sign or ordering mistakes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from qcorr import (
    PRODUCT_RULE_TOL,
    AbsoluteContinuityViolation,
    ConvexDecomposition,
    DensityOperator,
    JointMarginalMismatch,
    PureState,
    correlation_report,
    spectral_decompose,
)
from conftest import DOWN, SQRT2, UP


def product_components(weights):
    vectors = [
        np.kron(UP, UP),
        np.kron(DOWN, DOWN),
        np.kron(UP, DOWN),
        np.kron(DOWN, UP),
    ]
    return [(w, PureState(v)) for w, v in zip(weights, vectors) if w > 0]


def bell_components(weights):
    vectors = [
        (np.kron(UP, UP) + np.kron(DOWN, DOWN)) / SQRT2,
        (np.kron(UP, UP) - np.kron(DOWN, DOWN)) / SQRT2,
        (np.kron(UP, DOWN) + np.kron(DOWN, UP)) / SQRT2,
        (np.kron(UP, DOWN) - np.kron(DOWN, UP)) / SQRT2,
    ]
    return [(w, PureState(v)) for w, v in zip(weights, vectors) if w > 0]


def test_separable_mixture_closed_form(spin_pair):
    """Mixture over the product basis: rho_t has the ratio form
    w / (marginal * marginal) and all correlation is classical."""
    a1, a2, joint = spin_pair
    w1, w2, w3, w4 = 0.4, 0.3, 0.2, 0.1
    components = product_components((w1, w2, w3, w4))
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    report = correlation_report(joint, a1, a2, dec)

    rho_t = report.rho_t
    assert rho_t.value(("+1/2", "+1/2")) == pytest.approx(w1 / ((w1 + w3) * (w1 + w4)), abs=1e-12)
    assert rho_t.value(("-1/2", "-1/2")) == pytest.approx(w2 / ((w2 + w4) * (w2 + w3)), abs=1e-12)
    assert rho_t.value(("+1/2", "-1/2")) == pytest.approx(w3 / ((w1 + w3) * (w2 + w3)), abs=1e-12)
    assert rho_t.value(("-1/2", "+1/2")) == pytest.approx(w4 / ((w2 + w4) * (w1 + w4)), abs=1e-12)

    assert report.rho_e.deviation_from(1.0) < 1e-12
    assert report.rho_c.max_difference(rho_t) < 1e-12


def test_bell_diagonal_closed_form(spin_pair):
    """Mixture over the maximally entangled basis: flat classical side,
    everything sits in the entanglement factor."""
    a1, a2, joint = spin_pair
    w = (0.4, 0.3, 0.2, 0.1)
    components = bell_components(w)
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    report = correlation_report(joint, a1, a2, dec)

    rho_t = report.rho_t
    diag = 2.0 * (w[0] + w[1])
    off = 2.0 * (w[2] + w[3])
    assert rho_t.value(("+1/2", "+1/2")) == pytest.approx(diag, abs=1e-12)
    assert rho_t.value(("-1/2", "-1/2")) == pytest.approx(diag, abs=1e-12)
    assert rho_t.value(("+1/2", "-1/2")) == pytest.approx(off, abs=1e-12)
    assert rho_t.value(("-1/2", "+1/2")) == pytest.approx(off, abs=1e-12)

    assert report.rho_c.deviation_from(1.0) < 1e-12
    assert report.rho_e.max_difference(rho_t) < 1e-12


@pytest.mark.parametrize("a,b", [(0.3, 0.2), (0.45, 0.05), (0.25, 0.25)])
def test_degenerate_state_three_splits(spin_pair, a, b):
    """One state, three decompositions, three different splits of the same
    total correlation."""
    a1, a2, joint = spin_pair
    product_dec = product_components((a, a, b, b))
    bell_dec = bell_components((a, a, b, b))
    state = DensityOperator.from_mixture(product_dec)

    rho_t = correlation_report(joint, a1, a2, state).rho_t
    for point, expected in [
        (("+1/2", "+1/2"), 4 * a),
        (("+1/2", "-1/2"), 4 * b),
        (("-1/2", "+1/2"), 4 * b),
        (("-1/2", "-1/2"), 4 * a),
    ]:
        assert rho_t.value(point) == pytest.approx(expected, abs=1e-12)

    # split one: all classical
    split_p = correlation_report(joint, a1, a2, ConvexDecomposition(product_dec, state))
    assert split_p.rho_t.max_difference(rho_t) < 1e-12
    assert split_p.rho_e.deviation_from(1.0) < 1e-12
    assert split_p.rho_c.max_difference(rho_t) < 1e-12

    # split two: all entanglement
    split_b = correlation_report(joint, a1, a2, ConvexDecomposition(bell_dec, state))
    assert split_b.rho_t.max_difference(rho_t) < 1e-12
    assert split_b.rho_c.deviation_from(1.0) < 1e-12
    assert split_b.rho_e.max_difference(rho_t) < 1e-12

    # split three: mixed components, both factors nontrivial
    mixed = product_dec[:2] + bell_dec[2:]
    split_m = correlation_report(joint, a1, a2, ConvexDecomposition(mixed, state))
    rho_c, rho_e = split_m.rho_c, split_m.rho_e
    assert rho_c.value(("+1/2", "+1/2")) == pytest.approx(2 * (2 * a + b), abs=1e-12)
    assert rho_c.value(("+1/2", "-1/2")) == pytest.approx(2 * b, abs=1e-12)
    assert rho_e.value(("+1/2", "+1/2")) == pytest.approx(2 * a / (2 * a + b), abs=1e-12)
    assert rho_e.value(("+1/2", "-1/2")) == pytest.approx(2.0, abs=1e-12)


def test_most_mixed_compensation(spin_pair):
    """At a = b = 1/4 the total correlation is flat, yet the mixed
    decomposition still splits it into nontrivial factors."""
    a1, a2, joint = spin_pair
    product_dec = product_components((0.25, 0.25, 0.25, 0.25))
    bell_dec = bell_components((0.25, 0.25, 0.25, 0.25))
    state = DensityOperator.from_mixture(product_dec)
    mixed = ConvexDecomposition(product_dec[:2] + bell_dec[2:], state)

    report = correlation_report(joint, a1, a2, mixed)
    assert report.rho_t.deviation_from(1.0) < 1e-12
    rho_c, rho_e = report.rho_c, report.rho_e
    for point, c, e in [
        (("+1/2", "+1/2"), 1.5, 2.0 / 3.0),
        (("+1/2", "-1/2"), 0.5, 2.0),
        (("-1/2", "+1/2"), 0.5, 2.0),
        (("-1/2", "-1/2"), 1.5, 2.0 / 3.0),
    ]:
        assert rho_c.value(point) == pytest.approx(c, abs=1e-12)
        assert rho_e.value(point) == pytest.approx(e, abs=1e-12)


def test_classical_product_measure_mixes_componentwise(spin_pair):
    a1, a2, joint = spin_pair
    components = product_components((0.5, 0.5, 0.0, 0.0))
    dec = ConvexDecomposition.from_components(components)
    cpm = correlation_report(joint, a1, a2, dec).classical_product
    assert cpm.weight(("+1/2", "+1/2")) == pytest.approx(0.5)
    assert cpm.weight(("-1/2", "-1/2")) == pytest.approx(0.5)
    assert cpm.weight(("+1/2", "-1/2")) == pytest.approx(0.0, abs=1e-12)


def test_bell_state_entanglement_factor(spin_pair, bell_phi_plus):
    """The maximally entangled state doubles the aligned outcomes relative to
    its classical product and kills the crossed ones."""
    a1, a2, joint = spin_pair
    state = DensityOperator.from_pure(bell_phi_plus)
    dec = ConvexDecomposition([(1.0, bell_phi_plus)], state)
    rho_e = correlation_report(joint, a1, a2, dec).rho_e
    assert rho_e.value(("+1/2", "+1/2")) == pytest.approx(2.0)
    assert rho_e.value(("-1/2", "-1/2")) == pytest.approx(2.0)
    assert rho_e.value(("+1/2", "-1/2")) == pytest.approx(0.0, abs=1e-12)


def test_entanglement_absolute_continuity_violation(spin_pair):
    """A slightly tilted product state puts joint mass ~eps^2 at the far
    corner while the classical product weight there is eps^4, which sits
    below the support threshold: the density must refuse, not clip. The
    pure state's marginal product vanishes there too, so the report fails
    already at rho_t."""
    a1, a2, joint = spin_pair
    eps = 1e-3
    psi = PureState(
        np.sqrt(1 - eps**2) * np.kron(UP, UP) + eps * np.kron(DOWN, DOWN)
    )
    state = DensityOperator.from_pure(psi)
    dec = ConvexDecomposition([(1.0, psi)], state)
    with pytest.raises(AbsoluteContinuityViolation, match=r"at \('-1/2', '-1/2'\)"):
        correlation_report(joint, a1, a2, dec)


def test_pure_state_trivial_decomposition_all_ones(spin_pair):
    a1, a2, joint = spin_pair
    psi = PureState(np.kron(UP, UP))
    state = DensityOperator.from_pure(psi)
    dec = ConvexDecomposition([(1.0, psi)], state)
    report = correlation_report(joint, a1, a2, dec)
    assert report.rho_t.deviation_from(1.0) < 1e-12
    assert report.rho_c.deviation_from(1.0) < 1e-12
    assert report.rho_e.deviation_from(1.0) < 1e-12
    assert report.product_rule_residual < 1e-12


def test_correlation_report_spectral_default(spin_pair):
    a1, a2, joint = spin_pair
    state = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]))
    report = correlation_report(joint, a1, a2, state)
    assert report.decomposition_source == "spectral"
    assert report.product_rule_residual < 1e-9
    explicit = correlation_report(joint, a1, a2, spectral_decompose(state))
    assert explicit.decomposition_source == "explicit"
    assert explicit.rho_t.max_difference(report.rho_t) == 0.0


def test_correlation_report_records_density_failures(spin_pair):
    # a second component keeps both marginals healthy, so rho_t exists while
    # the entanglement factor still dies at the far corner
    a1, a2, joint = spin_pair
    eps = 1e-3
    psi = PureState(
        np.sqrt(1 - eps**2) * np.kron(UP, UP) + eps * np.kron(DOWN, DOWN)
    )
    components = [(0.5, psi), (0.5, PureState(np.kron(DOWN, UP)))]
    state = DensityOperator.from_mixture(components)
    dec = ConvexDecomposition(components, state)
    report = correlation_report(joint, a1, a2, dec)
    assert report.rho_t.value(("-1/2", "-1/2")) == pytest.approx(2.0, abs=1e-5)
    assert report.rho_c is not None
    assert report.rho_e is None
    assert "vanishes" in report.rho_e_error
    assert report.product_rule_residual is None


def test_total_correlation_rejects_mismatched_joint(spin_pair):
    a1, a2, _ = spin_pair
    state = DensityOperator(np.eye(4) / 4)
    with pytest.raises(JointMarginalMismatch):
        correlation_report(a1, a1, a2, state)


def test_product_rule_pass_boundaries(spin_pair):
    a1, a2, joint = spin_pair
    report = correlation_report(joint, a1, a2, DensityOperator(np.eye(4) / 4))
    assert report.product_rule_pass is True
    assert replace(report, product_rule_residual=None).product_rule_pass is None
    at_tolerance = replace(report, product_rule_residual=PRODUCT_RULE_TOL)
    assert at_tolerance.product_rule_pass is False
    below = replace(report, product_rule_residual=math.nextafter(PRODUCT_RULE_TOL, 0.0))
    assert below.product_rule_pass is True
