"""Engine-level checks against hand-derived closed forms.

The two-qubit cases here have exact rational answers, so tolerances are
tight; anything looser would hide sign or ordering mistakes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import qcorr.correlation
from qcorr import (
    PRODUCT_RULE_TOL,
    ConvexDecomposition,
    DensityOperator,
    JointMarginalMismatch,
    OutcomeSpace,
    Povm,
    PureState,
    correlation_report,
    joint_from_commuting,
    random_decomposition,
    spectral_decompose,
    spin_z_pair,
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


def _tilted(eps):
    return PureState(np.sqrt(1 - eps**2) * np.kron(UP, UP) + eps * np.kron(DOWN, DOWN))


def _values(rho):
    return rho.as_array().reshape(2, 2)


def test_tilted_product_state_has_every_density_at_the_far_corner(spin_pair):
    """A slightly tilted product state puts joint mass b = eps^2 at the far
    corner, where the product of the marginals and the classical product
    are b^2, below EPS. Both supports are taken from the linear masses,
    b in each marginal and in each component row, so every density exists
    there: rho_t = rho_e = 1/b, and rho_c = 1 for one pure component."""
    a1, a2, joint = spin_pair
    eps = 1e-3
    a, b = 1 - eps**2, eps**2
    psi = _tilted(eps)
    dec = ConvexDecomposition([(1.0, psi)], DensityOperator.from_pure(psi))
    report = correlation_report(joint, a1, a2, dec)
    rho_t = np.array([[1 / a, 0.0], [0.0, 1 / b]])
    np.testing.assert_allclose(_values(report.rho_t), rho_t, rtol=1e-12, atol=0)
    np.testing.assert_allclose(_values(report.rho_c), np.ones((2, 2)), rtol=1e-12, atol=0)
    np.testing.assert_allclose(_values(report.rho_e), rho_t, rtol=1e-12, atol=0)
    assert report.product_rule_residual < 1e-9


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


def test_decomposition_size_is_the_number_of_components(spin_pair):
    a1, a2, joint = spin_pair
    state = DensityOperator(np.diag([0.5, 0.3, 0.2, 0.0]))
    explicit = random_decomposition(state, 6, np.random.default_rng(3))
    assert correlation_report(joint, a1, a2, explicit).decomposition_size == len(explicit)
    spectral = correlation_report(joint, a1, a2, state)
    assert spectral.decomposition_size == len(spectral_decompose(state)) == 3


def test_a_mixture_has_its_entanglement_factor_at_the_far_corner(spin_pair):
    # a second component keeps both marginals healthy; the classical product
    # at the far corner is b^2 / 2, below EPS, but the tilted component's
    # weighted rows carry b / 2 there, so rho_e exists and is 1/b
    a1, a2, joint = spin_pair
    eps = 1e-3
    a, b = 1 - eps**2, eps**2
    components = [(0.5, _tilted(eps)), (0.5, PureState(np.kron(DOWN, UP)))]
    dec = ConvexDecomposition(components, DensityOperator.from_mixture(components))
    report = correlation_report(joint, a1, a2, dec)
    joint_table = np.array([[a, 0.0], [1.0, b]]) / 2
    product = np.outer([a, b + 1], [a + 1, b]) / 4
    classical = (np.outer([a, b], [a, b]) + np.array([[0.0, 0.0], [1.0, 0.0]])) / 2
    for rho, num, den in (
        (report.rho_t, joint_table, product),
        (report.rho_c, classical, product),
        (report.rho_e, joint_table, classical),
    ):
        np.testing.assert_allclose(_values(rho), num / den, rtol=1e-12, atol=0)
    assert report.rho_e_error is None
    assert report.product_rule_residual < 1e-9


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


def _counted(monkeypatch, name: str) -> list:
    """The argument tuples of every call `correlation` makes to its binding
    `name`, until the test ends."""
    function, calls = getattr(qcorr.correlation, name), []

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(qcorr.correlation, name, counted)
    return calls


def _haar_pair(rng, side: int):
    """Rank-one PVMs of two Haar bases, one on each factor of
    C^side (x) C^side, and their product joint."""
    eye = np.eye(side)
    pair = []
    for name, left in (("a", True), ("b", False)):
        ginibre = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        q, r = np.linalg.qr(ginibre)
        unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        effects = {}
        for index, column in enumerate(unitary.T):
            projector = np.outer(column, column.conj())
            effects[f"{name}{index}"] = np.kron(projector, eye) if left else np.kron(eye, projector)
        pair.append(Povm(OutcomeSpace(tuple(effects)), effects))
    return pair[0], pair[1], joint_from_commuting(*pair)


def _random_state(rng, dim: int) -> DensityOperator:
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = ginibre @ ginibre.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    return DensityOperator(matrix / np.trace(matrix).real)


def _instance(dim: int):
    """(a1, a2, joint, state, decomposition): the spin pair at d = 4, a
    benchmark-style Haar pair at d = 16, with a random full-rank state and a
    random decomposition of it into 2 * dim components."""
    rng = np.random.default_rng(dim)
    a1, a2, joint = spin_z_pair() if dim == 4 else _haar_pair(rng, 4)
    state = _random_state(rng, dim)
    return a1, a2, joint, state, random_decomposition(state, 2 * dim, rng)


def _bits(report) -> tuple:
    """Every field of a report, each array as its bytes."""
    measures = (
        report.joint_measure,
        report.marginal_1,
        report.marginal_2,
        report.product_measure,
        report.classical_product,
        report.rho_t,
        report.rho_c,
        report.rho_e,
    )
    return tuple(None if m is None else m.as_array().tobytes() for m in measures) + (
        report.rho_c_error,
        report.rho_e_error,
        report.product_rule_residual,
        report.decomposition_source,
        report.decomposition_size,
    )


@pytest.mark.parametrize("dim", [4, 16])
def test_a_state_runs_the_trace_rule_once_for_its_decompositions(dim, monkeypatch):
    a1, a2, joint, state, decomposition = _instance(dim)
    fresh = [DensityOperator(state.matrix) for _ in range(2)]
    expected = [
        correlation_report(joint, a1, a2, ConvexDecomposition(decomposition.components, fresh[0])),
        correlation_report(joint, a1, a2, fresh[1]),
    ]
    traced = _counted(monkeypatch, "outcome_measure")
    joint_checks = _counted(monkeypatch, "check_joint")
    reports = [
        correlation_report(joint, a1, a2, decomposition),
        correlation_report(joint, a1, a2, state),
    ]
    assert [args[0] for args in traced] == [joint, a1, a2]
    assert all(args[1] is state for args in traced)
    assert len(joint_checks) == 2
    assert [_bits(r) for r in reports] == [_bits(r) for r in expected]


@pytest.mark.parametrize("dim", [4, 16])
def test_another_joint_or_state_recomputes_the_statistics(dim, monkeypatch):
    a1, a2, joint, state, decomposition = _instance(dim)
    other_state = DensityOperator(state.matrix)
    traced = _counted(monkeypatch, "outcome_measure")
    first = correlation_report(joint, a1, a2, state)
    rebuilt = joint_from_commuting(a1, a2)
    second = correlation_report(rebuilt, a1, a2, decomposition)
    third = correlation_report(rebuilt, a1, a2, other_state)
    assert [args[0] for args in traced] == [joint, a1, a2, rebuilt, a1, a2, rebuilt, a1, a2]
    assert [args[1] for args in traced] == [state] * 6 + [other_state] * 3
    assert _bits(second)[:3] == _bits(first)[:3] == _bits(third)[:3]

