"""The array split kernel against the outcome-by-outcome reference oracle.

Both frames report through `qcorr.correlation.split_report`. These checks
hold it to the dict-based split in `split_oracle` on the bundled scenarios,
the paper examples, seeded random draws in each frame, and a case whose
entanglement density does not exist.
"""

import re

import numpy as np
import pytest

from qcorr import (
    AbsoluteContinuityViolation,
    ClassicalJoint,
    ClassicalObservable,
    ConvexDecomposition,
    DensityOperator,
    DiscreteMeasure,
    OutcomeSpace,
    PhaseSpace,
    ProductSpace,
    PureState,
    bundled_scenario_names,
    bundled_scenario_text,
    build_paper_example,
    classical_joint,
    correlation_report,
    random_decomposition,
    spectral_decompose,
    validation_eps,
)
from qcorr.classical_frame import classical_report
from qcorr.correlation import split_report
from qcorr.observable import Povm, joint_from_commuting
from qcorr.scenario import ClassicalScenario, loads_scenario
from qcorr.tolerance import EPS
from conftest import (
    DOWN,
    HAAR_FACTOR_DIMS,
    HAAR_FACTOR_EPS,
    HAAR_FACTOR_EPS_IDS,
    UP,
    full_rank_state,
    haar_factor_pair,
    set_qcorr_eps,
)
import split_oracle

TOL = 1e-12
RANDOM_DRAWS = 200
_NUMBER = re.compile(r"-?\d+\.?\d*(?:e[-+]?\d+)?")


def _close(a: float, b: float) -> bool:
    """Equal within TOL, relative to the value once it exceeds one."""
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _same_message(actual: str, expected: str) -> bool:
    """Equal text, with the numbers it quotes equal within TOL."""
    if _NUMBER.sub("#", actual) != _NUMBER.sub("#", expected):
        return False
    pairs = zip(_NUMBER.findall(actual), _NUMBER.findall(expected))
    return all(_close(float(a), float(b)) for a, b in pairs)


def _assert_measure(measure, expected: dict) -> None:
    assert measure.space.outcomes == tuple(expected)
    for outcome, value in expected.items():
        assert _close(measure.weight(outcome), value), outcome


def _assert_density(rho, expected: dict | None) -> None:
    if expected is None:
        assert rho is None
        return
    assert rho.support == frozenset(expected)
    for outcome, value in expected.items():
        assert _close(rho.value(outcome), value), outcome


def assert_matches(report, oracle: dict) -> None:
    """Every field of a CorrelationReport agrees with the oracle's split."""
    _assert_measure(report.joint_measure, oracle["joint"])
    _assert_measure(report.marginal_1, oracle["marginal_1"])
    _assert_measure(report.marginal_2, oracle["marginal_2"])
    _assert_measure(report.product_measure, oracle["product"])
    _assert_measure(report.classical_product, oracle["classical"])
    for name in ("rho_t", "rho_c", "rho_e"):
        _assert_density(getattr(report, name), oracle[name])
    for name in ("rho_c_error", "rho_e_error"):
        actual, expected = getattr(report, name), oracle[name]
        assert (actual is None) == (expected is None)
        if expected is not None:
            assert _same_message(actual, expected), (actual, expected)
    if oracle["residual"] is None:
        assert report.product_rule_residual is None
    else:
        # rounding in rho_c * rho_e - rho_t scales with the densities' size
        scale = max(1.0, *oracle["rho_t"].values())
        assert abs(report.product_rule_residual - oracle["residual"]) <= TOL * scale


def check_quantum(joint, a1, a2, decomposition) -> None:
    try:
        expected = split_oracle.quantum_split(joint, a1, a2, decomposition)
    except AbsoluteContinuityViolation as exc:
        with pytest.raises(AbsoluteContinuityViolation) as raised:
            correlation_report(joint, a1, a2, decomposition)
        assert _same_message(str(raised.value), str(exc))
        return
    assert_matches(correlation_report(joint, a1, a2, decomposition), expected)


def check_classical(joint, a1, a2, state) -> None:
    try:
        expected = split_oracle.classical_split(joint, a1, a2, state)
    except AbsoluteContinuityViolation as exc:
        with pytest.raises(AbsoluteContinuityViolation) as raised:
            classical_report(joint, a1, a2, state)
        assert _same_message(str(raised.value), str(exc))
        return
    assert_matches(classical_report(joint, a1, a2, state), expected)


def check_scenario(scenario) -> None:
    a1, a2 = scenario.observable_1, scenario.observable_2
    if isinstance(scenario, ClassicalScenario):
        joint = scenario.joint if scenario.joint is not None else classical_joint(a1, a2)
        check_classical(joint, a1, a2, scenario.state)
        return
    joint = scenario.joint if scenario.joint is not None else joint_from_commuting(a1, a2)
    decompositions = [*scenario.decompositions.values(), spectral_decompose(scenario.state)]
    for decomposition in decompositions:
        check_quantum(joint, a1, a2, decomposition)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenarios_match_oracle(name):
    check_scenario(loads_scenario(bundled_scenario_text(name)))


@pytest.mark.parametrize("example_id", ["i", "ii", "iii", "iii-mixed", "appendix", "appendix-px"])
def test_paper_examples_match_oracle(example_id):
    check_scenario(build_paper_example(example_id))


def test_kernel_support_threshold_is_eps():
    """A denominator just above EPS carries a value; one at EPS does not, and
    a numerator above EPS there is an absolute-continuity failure."""
    left, right = OutcomeSpace(("a", "b")), OutcomeSpace(("x",))
    space = ProductSpace(left, right)
    one = np.array([1.0])

    def split(mass, joint_mass):
        marginal = np.array([1.0 - mass, mass])
        return split_report(
            DiscreteMeasure.from_array(space, [1.0 - joint_mass, joint_mass]),
            DiscreteMeasure.from_array(left, marginal),
            DiscreteMeasure.from_array(right, one),
            one,
            marginal[None, :],
            one[None, :],
            "explicit",
        )

    above = split(2 * EPS, 2 * EPS)
    np.testing.assert_allclose(above.rho_t.as_array(), [1.0, 1.0])
    at = split(EPS, EPS)
    assert np.isnan(at.rho_t.as_array()[1]) and np.isnan(at.rho_c.as_array()[1])
    with pytest.raises(AbsoluteContinuityViolation, match=r"at \('b', 'x'\)"):
        split(EPS, 2 * EPS)


# random draws ---------------------------------------------------------------


def _random_unit(rng, dim):
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


def _random_factor_pvm(rng, left: bool) -> Povm:
    """A random qubit basis measured on one factor of C^2 (x) C^2."""
    eye = np.eye(2, dtype=complex)
    vector = _random_unit(rng, 2)
    p = np.outer(vector, vector.conj())
    lifted = [np.kron(e, eye) if left else np.kron(eye, e) for e in (p, eye - p)]
    return Povm(OutcomeSpace(("0", "1")), dict(zip(("0", "1"), lifted)))


def _random_quantum_case(rng):
    a1, a2 = _random_factor_pvm(rng, True), _random_factor_pvm(rng, False)
    rank = int(rng.integers(1, 5))
    weights = rng.random(rank) + 0.05
    components = [
        (float(w), PureState(_random_unit(rng, 4))) for w in weights / weights.sum()
    ]
    state = DensityOperator.from_mixture(components)
    kind = int(rng.integers(3))
    if kind == 0:
        decomposition = ConvexDecomposition(components, state)
    elif kind == 1:
        decomposition = random_decomposition(state, int(rng.integers(rank, 8)), rng)
    else:
        decomposition = spectral_decompose(state)
    return joint_from_commuting(a1, a2), a1, a2, decomposition


@pytest.mark.parametrize("seed", range(RANDOM_DRAWS))
def test_random_quantum_draws_match_oracle(seed):
    check_quantum(*_random_quantum_case(np.random.default_rng([11, seed])))


@pytest.mark.parametrize("d", HAAR_FACTOR_DIMS)
@pytest.mark.parametrize("setting", HAAR_FACTOR_EPS, ids=HAAR_FACTOR_EPS_IDS)
def test_haar_factor_pairs_match_oracle(setting, d, monkeypatch):
    """The benchmark's large-d shape: a commuting Haar-factor pair reported
    from a random 2d-component and from the spectral decomposition of a
    random full-rank state."""
    set_qcorr_eps(monkeypatch, setting)
    a1, a2 = haar_factor_pair(d, "commuting")
    rng = np.random.default_rng(d)
    state = full_rank_state(rng, d)
    joint = joint_from_commuting(a1, a2)
    for decomposition in (random_decomposition(state, 2 * d, rng), spectral_decompose(state)):
        check_quantum(joint, a1, a2, decomposition)


def _random_row(rng, size: int) -> np.ndarray:
    """A probability row, sometimes with exact zeros."""
    row = rng.random(size) * (rng.random(size) > 0.3)
    if not row.any():
        row[int(rng.integers(size))] = 1.0
    return row / row.sum()


def _random_classical_case(rng):
    phase = PhaseSpace(tuple(f"p{i}" for i in range(int(rng.integers(1, 5)))))
    spaces = [
        OutcomeSpace(tuple(f"{name}{i}" for i in range(int(rng.integers(2, 4)))))
        for name in ("x", "y")
    ]

    def kernel(space):
        return {p: dict(zip(space.outcomes, _random_row(rng, len(space)))) for p in phase.labels}

    a1, a2 = (ClassicalObservable(phase, space, kernel(space)) for space in spaces)
    if rng.random() < 0.5:
        joint = classical_joint(a1, a2)
    else:
        codomain = ProductSpace(*spaces)
        joint = ClassicalJoint(phase, codomain, kernel(codomain))
    state = DiscreteMeasure(phase, dict(zip(phase.labels, _random_row(rng, len(phase)))))
    return joint, a1, a2, state


@pytest.mark.parametrize("seed", range(RANDOM_DRAWS))
def test_random_classical_draws_match_oracle(seed):
    check_classical(*_random_classical_case(np.random.default_rng([13, seed])))


def test_random_classical_draws_reach_the_failure_paths():
    """The classical draws exercise missing densities, not only clean splits."""
    seen = set()
    for seed in range(RANDOM_DRAWS):
        case = _random_classical_case(np.random.default_rng([13, seed]))
        try:
            expected = split_oracle.classical_split(*case)
        except AbsoluteContinuityViolation:
            seen.add("rho_t missing")
            continue
        seen.add("rho_e missing" if expected["rho_e"] is None else "split")
    assert seen == {"rho_t missing", "rho_e missing", "split"}


# absolute continuity -------------------------------------------------------


def _tilted():
    eps = 1e-3
    return PureState(np.sqrt(1 - eps**2) * np.kron(UP, UP) + eps * np.kron(DOWN, DOWN))


def test_tilted_product_state_matches_at_the_far_corner(spin_pair):
    """The tilted product state of test_correlation: the joint has mass
    1e-6 at the far corner, where the product of the marginals and the
    classical product are 1e-12. Both supports come from the linear masses
    there, so rho_t, rho_c and rho_e all exist, as in the oracle."""
    a1, a2, joint = spin_pair
    psi = _tilted()
    dec = ConvexDecomposition([(1.0, psi)], DensityOperator.from_pure(psi))
    expected = split_oracle.quantum_split(joint, a1, a2, dec)
    assert set(expected["rho_e"]) == set(expected["joint"])  # every point
    assert _close(expected["rho_t"][("-1/2", "-1/2")], 1e6)
    assert_matches(correlation_report(joint, a1, a2, dec), expected)


def test_tilted_mixture_matches_at_the_far_corner(spin_pair):
    a1, a2, joint = spin_pair
    components = [(0.5, _tilted()), (0.5, PureState(np.kron(DOWN, UP)))]
    dec = ConvexDecomposition(components, DensityOperator.from_mixture(components))
    expected = split_oracle.quantum_split(joint, a1, a2, dec)
    assert expected["rho_e_error"] is None
    assert _close(expected["rho_e"][("-1/2", "-1/2")], 1e6)
    assert_matches(correlation_report(joint, a1, a2, dec), expected)


SMALL = 1.5e-9  # above EPS, though each component below carries a share under it


@pytest.mark.parametrize("count, second", [(2, UP), (10, DOWN)])
def test_component_masses_under_eps_add_up_to_the_support(spin_pair, count, second):
    """`count` equal components sqrt(1 - m)|up, up> + w^k sqrt(m)|down, second>,
    w = exp(2 pi i / count), m = SMALL: each puts m / count, under EPS, on
    the first spin's down outcome, and the joint has mass m at (down,
    second). Their sum bounds the joint there, so rho_e exists: 1 where the
    classical product is m (second = UP, product components) and 1/m where
    it is m^2 (second = DOWN)."""
    a1, a2, joint = spin_pair
    m = SMALL
    components = [
        (
            1 / count,
            PureState(
                np.sqrt(1 - m) * np.kron(UP, UP)
                + np.exp(2j * np.pi * k / count) * np.sqrt(m) * np.kron(DOWN, second)
            ),
        )
        for k in range(count)
    ]
    dec = ConvexDecomposition(components, DensityOperator.from_mixture(components))
    expected = split_oracle.quantum_split(joint, a1, a2, dec)
    report = correlation_report(joint, a1, a2, dec)
    point = ("-1/2", "+1/2" if second is UP else "-1/2")
    assert report.rho_e_error is None
    np.testing.assert_allclose(
        report.rho_e.value(point), 1.0 if second is UP else 1 / m, rtol=1e-6
    )
    assert_matches(report, expected)


def test_classical_row_masses_under_eps_add_up_to_the_support():
    """The classical form of the case above: at the uniform state each of
    two points gives the first readout mass m = SMALL at '1', so each
    weighted row carries m / 2, under EPS, while the joint and the
    classical product at ('1', '1') are both m, and rho_e = 1 there."""
    m = SMALL
    phase, bits = PhaseSpace(("alpha", "beta")), OutcomeSpace(("0", "1"))
    state = DiscreteMeasure(phase, {"alpha": 0.5, "beta": 0.5})
    a1 = ClassicalObservable.from_matrix(phase, bits, [[1 - m, m], [1 - m, m]])
    a2 = ClassicalObservable.from_matrix(phase, bits, [[0.0, 1.0], [0.0, 1.0]])
    joint = classical_joint(a1, a2)
    report = classical_report(joint, a1, a2, state)
    assert report.rho_e_error is None
    np.testing.assert_allclose(report.rho_e.value(("1", "1")), 1.0, rtol=1e-6)
    assert report.product_rule_pass
    assert_matches(report, split_oracle.classical_split(joint, a1, a2, state))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_inputs_off_by_nine_tenths_of_eps_run_in_both_frames(sign):
    """State and kernel rows (classical) or state trace and effects (quantum)
    each pass validation off by 0.9 eps; the measures and densities the
    engine derives from them drift further and must still be reported."""
    c = sign * 0.9 * validation_eps()
    phase, bits = PhaseSpace(("alpha", "beta")), OutcomeSpace(("0", "1"))
    state = DiscreteMeasure.from_array(phase, [0.5 + c, 0.5])
    a1 = ClassicalObservable.from_matrix(phase, bits, [[0.7 + c, 0.3], [0.3, 0.7 + c]])
    a2 = ClassicalObservable.from_matrix(phase, bits, [[0.4 + c, 0.6], [0.6, 0.4 + c]])
    assert classical_report(classical_joint(a1, a2), a1, a2, state).product_rule_pass

    p, q, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
    b1 = Povm(bits, {"0": (1 + c) * np.kron(p, eye), "1": np.kron(q, eye)})
    b2 = Povm(bits, {"0": (1 + c) * np.kron(eye, p), "1": np.kron(eye, q)})
    quantum_state = DensityOperator(np.diag([0.4 + c, 0.3, 0.2, 0.1]) + 0.05 * np.eye(4)[::-1])
    for decomposition in (quantum_state, random_decomposition(quantum_state, 8, np.random.default_rng(5))):
        report = correlation_report(joint_from_commuting(b1, b2), b1, b2, decomposition)
        assert report.product_rule_pass
