import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    DimensionMismatch,
    NonCommuting,
    NotProjective,
    OutcomeSpace,
    Povm,
    ProductSpace,
    PureState,
    ValidationError,
    check_joint,
    correlation_report,
    joint_from_commuting,
    outcome_measure,
    spin_z_pair,
    validation_eps,
)
from conftest import DOWN, UP, inexact_commuting_effects

BITS = OutcomeSpace(("0", "1"))


def qubit_pvm(vector):
    proj = np.outer(vector, np.conj(vector))
    return Povm(BITS, {"0": proj, "1": np.eye(2) - proj})


def test_povm_requires_exact_outcome_coverage():
    with pytest.raises(ValidationError) as info:
        Povm(OutcomeSpace(("0", "1")), {"0": np.eye(2)})
    assert str(info.value) == "effects must cover the space exactly (missing ['1'])"


def test_povm_requires_completeness():
    with pytest.raises(ValidationError, match="identity"):
        Povm(BITS, {"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 0.5])})


def test_povm_requires_positive_effects():
    with pytest.raises(ValidationError, match="positive"):
        Povm(BITS, {"0": np.diag([1.5, 0.0]), "1": np.diag([-0.5, 1.0])})


def test_povm_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        Povm(BITS, {"0": np.eye(2), "1": np.zeros((3, 3))})


def test_povm_rejects_empty_effects():
    with pytest.raises(ValidationError, match="effect at 'a' must not be empty"):
        Povm(OutcomeSpace(("a",)), {"a": np.zeros((0, 0))})


def test_projectivity_is_detected_not_declared():
    assert qubit_pvm(UP).is_projective
    smeared = 0.6 * np.diag([1.0, 0.0]) + 0.2 * np.eye(2)
    noisy = Povm(BITS, {"0": smeared, "1": np.eye(2) - smeared})
    assert not noisy.is_projective


def test_from_operator_groups_degenerate_eigenvalues():
    observable = Povm.from_operator(np.diag([1.0, 1.0, -1.0]))
    assert observable.space.labels == ("1", "-1")
    np.testing.assert_allclose(observable.effect("1"), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_from_operator_custom_labels():
    observable = Povm.from_operator(np.diag([0.5, -0.5]), labels=("+1/2", "-1/2"))
    assert observable.space.labels == ("+1/2", "-1/2")
    np.testing.assert_allclose(observable.effect("+1/2"), np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(ValidationError, match="labels"):
        Povm.from_operator(np.diag([0.5, -0.5]), labels=("a", "b", "c"))


def test_outcome_measure_trace_rule():
    state = DensityOperator(np.diag([0.7, 0.3]))
    nu = outcome_measure(qubit_pvm(UP), state)
    assert nu.weight("0") == pytest.approx(0.7)
    assert nu.weight("1") == pytest.approx(0.3)


def test_outcome_measure_dimension_check():
    state = DensityOperator(np.eye(4) / 4)
    with pytest.raises(DimensionMismatch):
        outcome_measure(qubit_pvm(UP), state)


def test_joint_from_commuting_effects_are_products(spin_pair):
    a1, a2, joint = spin_pair
    built = joint_from_commuting(a1, a2)
    for point in built.space.points:
        np.testing.assert_allclose(
            built.effect(point), joint.effect(point), atol=1e-12
        )


def test_joint_from_commuting_rejects_noncommuting():
    x_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    a1 = qubit_pvm(UP)
    a2 = qubit_pvm(x_plus)
    with pytest.raises(NonCommuting):
        joint_from_commuting(a1, a2)


def test_joint_from_commuting_rejects_nonprojective():
    half = Povm(BITS, {"0": np.eye(2) * 0.5, "1": np.eye(2) * 0.5})
    with pytest.raises(NotProjective):
        joint_from_commuting(half, half)


def test_joint_marginals_recover_the_factors(spin_pair):
    """Summing the joint's effects over one factor's outcomes gives the other
    factor's effects."""
    a1, a2, joint = spin_pair
    for label in a1.space.labels:
        left = sum(joint.effect((label, other)) for other in a2.space.labels)
        right = sum(joint.effect((other, label)) for other in a1.space.labels)
        np.testing.assert_allclose(left, a1.effect(label), atol=1e-12)
        np.testing.assert_allclose(right, a2.effect(label), atol=1e-12)


def test_check_joint_accepts_the_product_joint(spin_pair):
    a1, a2, joint = spin_pair
    assert check_joint(joint, a1, a2)
    assert check_joint(Povm(joint.space, joint.effects), a1, a2)  # re-summed


@pytest.mark.parametrize("setting", [None, "1e-10", "1e-6"])
def test_joint_derived_from_its_pair_passes_that_pairs_check(setting, monkeypatch):
    """The product joint's left marginal misses a1 by 1.32 eps, because a2's
    effects sum to the identity only within 0.9 eps. The joint holds its pair
    and is not re-summed against it; an explicit copy of the joint, or the
    joint against an equal but separately built pair, still is."""
    if setting is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", setting)
    effects_1, effects_2 = inexact_commuting_effects(validation_eps())
    a1, a2 = (Povm(BITS, dict(zip(BITS.labels, e))) for e in (effects_1, effects_2))
    assert a1.is_projective and a2.is_projective
    joint = joint_from_commuting(a1, a2)
    assert check_joint(joint, a1, a2)
    report = correlation_report(joint, a1, a2, DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1])))
    assert report.product_rule_pass
    assert not check_joint(Povm(joint.space, joint.effects), a1, a2)
    assert not check_joint(joint, Povm(BITS, a1.effects), Povm(BITS, a2.effects))


def test_check_joint_rejects_wrong_marginals(spin_pair):
    a1, a2, joint = spin_pair
    # transposing the factor roles makes the left marginal measure qubit two
    swapped = Povm(
        ProductSpace(a1.space, a2.space),
        {
            (l1, l2): joint.effect((l2, l1))
            for l1 in a1.space.labels
            for l2 in a2.space.labels
        },
    )
    assert not check_joint(swapped, a1, a2)


def test_check_joint_rejects_non_product_space(spin_pair):
    a1, a2, _ = spin_pair
    assert not check_joint(a1, a1, a2)


def test_spin_z_pair_statistics_at_bell_state(spin_pair, bell_phi_plus):
    a1, a2, joint = spin_pair
    state = DensityOperator.from_pure(bell_phi_plus)
    nu = outcome_measure(joint, state)
    assert nu.weight(("+1/2", "+1/2")) == pytest.approx(0.5)
    assert nu.weight(("+1/2", "-1/2")) == pytest.approx(0.0, abs=1e-12)
    assert nu.weight(("-1/2", "-1/2")) == pytest.approx(0.5)


def test_spin_basis_order_row_major(spin_pair):
    # basis order: (up,up), (up,down), (down,up), (down,down)
    a1, a2, joint = spin_pair
    up_down = PureState(np.kron(UP, DOWN))
    nu = outcome_measure(joint, DensityOperator.from_pure(up_down))
    assert nu.weight(("+1/2", "-1/2")) == pytest.approx(1.0)


def test_spin_z_pair_stacks_are_the_kron_products_bit_for_bit():
    """Signed zeros included: the joint from `joint_from_commuting` carries
    the very bits of the hand-built kron products."""
    projectors = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    eye = np.eye(2, dtype=complex)
    a1, a2, joint = spin_z_pair()
    expected = (
        (a1, [np.kron(p, eye) for p in projectors]),
        (a2, [np.kron(eye, p) for p in projectors]),
        (joint, [np.kron(p, q) for p in projectors for q in projectors]),
    )
    for povm, matrices in expected:
        effects = np.stack([povm.effect(o) for o in povm.space.outcomes])
        assert effects.dtype == complex
        assert effects.tobytes() == np.stack(matrices).tobytes()
    assert joint.space == ProductSpace(a1.space, a2.space)
    assert a1.space.labels == a2.space.labels == ("+1/2", "-1/2")


def _scaled_pvm_pair(c):
    """a1 = {(1+c) P x I, Q x I} and a2 = {I x (1+c) P, I x Q}: each off the
    identity by c, their product joint by about 2c."""
    p, q, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
    a1 = Povm(BITS, {"0": (1 + c) * np.kron(p, eye), "1": np.kron(q, eye)})
    a2 = Povm(BITS, {"0": (1 + c) * np.kron(eye, p), "1": np.kron(eye, q)})
    return a1, a2


@pytest.mark.parametrize("setting, c", [(None, 0.9e-9), ("1e-6", 7e-7)])
def test_joint_of_factors_that_pass_validation_is_built_and_reported(setting, c, monkeypatch):
    if setting is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", setting)
    a1, a2 = _scaled_pvm_pair(c)
    assert a1.is_projective and a2.is_projective
    joint = joint_from_commuting(a1, a2)
    np.testing.assert_array_equal(joint.effect(("0", "0")), (1 + c) ** 2 * np.diag([1.0, 0, 0, 0]))
    assert check_joint(joint, a1, a2)
    report = correlation_report(joint, a1, a2, DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1])))
    assert report.product_rule_pass


def test_stack_constructor_names_a_non_psd_effect():
    """A complete stack with a negative eigenvalue is still caught."""
    stack = np.stack([np.diag([1.0, -1e-3]), np.diag([0.0, 1.0 + 1e-3])]).astype(complex)
    with pytest.raises(ValidationError, match="effect at '0' is not positive semidefinite"):
        Povm._from_stack(BITS, stack)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trace_rule_sums_past_eps_on_valid_effects(sign):
    """Effects off the identity by c = 0.9 eps entrywise give outcome weights
    summing to 1 + 4c at the uniform superposition: the trace rule holds them
    as computed."""
    c = 0.9 * validation_eps()
    uniform = np.full(4, 0.5)
    ones = np.ones((4, 4))
    projector = np.outer(uniform, uniform)
    povm = Povm(BITS, {"0": projector + sign * c * ones, "1": np.eye(4) - projector})
    nu = outcome_measure(povm, DensityOperator(np.outer(uniform, uniform)))
    assert nu.weight("0") == pytest.approx(1.0 + sign * 4 * c, abs=1e-15)
    assert nu.weight("1") == pytest.approx(0.0, abs=1e-15)
