"""Batched POVM validation, the Cholesky positivity certificate, the
commutation certificate and the pairwise projectivity test.

`Povm` validates its stacked effects in one batched pass, certifying
positivity by a shifted Cholesky factorisation where it can and by
`eigvalsh` elsewhere, and decides projectivity when it is read, multiplying
each effect by the effects from it onward in one batched product. These
checks hold its verdicts and errors, and those of `DensityOperator` and
`joint_from_commuting`, to the one-matrix-at-a-time references in
`projective_oracle`, on built observables and on raw stacks. A grid of
factor pairs tilted to commute up to about eps checks that every pair the
commutation test passes builds a joint that reports, in the library and
through the command line. The commutation certificate in front of the
joint's exact test is held to the route it takes and to the oracle's
verdicts, on factors exactly and only nearly Hermitian.
"""

import json

import numpy as np
import pytest

from qcorr import (
    ConvergenceFailure,
    DensityOperator,
    NonCommuting,
    OutcomeSpace,
    Povm,
    QcorrError,
    QuantumScenario,
    ValidationError,
    bundled_scenario_names,
    bundled_scenario_text,
    correlation_report,
    joint_from_commuting,
    scenario_to_jsonable,
)
from qcorr import observable
from qcorr.cli import EXIT_OK, main
from qcorr.hilbert import _max_abs
from qcorr.observable import _pairwise_projective
from qcorr.scenario import loads_scenario
from qcorr.tolerance import EPS, validation_eps
import projective_oracle

# QCORR_EPS settings every oracle comparison runs under (None: unset)
EPS_SETTINGS = [None, "1e-6", "1e-12"]


@pytest.fixture(params=EPS_SETTINGS, ids=lambda v: f"QCORR_EPS={v}")
def qcorr_eps(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", request.param)
    return request.param


def _outcome(build):
    """The value `build()` returns, or the type and message of its error."""
    try:
        return build()
    except QcorrError as exc:
        return type(exc), str(exc)


def assert_same_povm(space, effects):
    expected = _outcome(lambda: projective_oracle.povm_verdict(space, effects))
    assert _outcome(lambda: Povm(space, effects).is_projective) == expected


def assert_same_joint(a1, a2):
    expected = _outcome(lambda: projective_oracle.joint_verdict(a1, a2))
    assert _outcome(lambda: joint_from_commuting(a1, a2).is_projective) == expected
    return expected


def assert_same_density(matrix):
    expected = _outcome(lambda: projective_oracle.density_verdict(matrix))
    assert _outcome(lambda: DensityOperator(matrix) and None) == expected


def _haar(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _labels(count):
    return OutcomeSpace(tuple(f"x{i}" for i in range(count)))


def _pvm_effects(rng, dim, count):
    """Projectors onto `count` consecutive blocks of Haar-random columns."""
    basis = _haar(rng, dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=count - 1, replace=False))
    return [block @ block.conj().T for block in np.split(basis, cuts, axis=1)]


def _as_povm_input(effects):
    space = _labels(len(effects))
    return space, dict(zip(space.labels, effects))


# oracle comparisons ---------------------------------------------------------


@pytest.mark.parametrize("dim", [4, 9, 16])
def test_haar_pvms_match_oracle(qcorr_eps, dim):
    rng = np.random.default_rng(dim)
    for count in (2, 3, dim):
        assert_same_povm(*_as_povm_input(_pvm_effects(rng, dim, count)))


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_haar_joints_match_oracle(qcorr_eps, factor):
    rng = np.random.default_rng(factor)
    eye = np.eye(factor)
    for _ in range(3):
        left = [np.kron(p, eye) for p in _pvm_effects(rng, factor, factor)]
        right = [np.kron(eye, p) for p in _pvm_effects(rng, factor, factor)]
        a1 = Povm(*_as_povm_input(left))
        a2 = Povm(*_as_povm_input(right))
        assert_same_joint(a1, a2)
        assert joint_from_commuting(a1, a2).is_projective
        # the same factors in unrelated bases of the whole space do not commute
        skew = Povm(*_as_povm_input(_pvm_effects(rng, factor * factor, 3)))
        assert_same_joint(a1, skew)


def test_from_operator_with_degenerate_spectra_matches_oracle(qcorr_eps):
    rng = np.random.default_rng(7)
    for dim in (4, 9, 16):
        for _ in range(4):
            levels = rng.normal(size=3)
            # repeated levels and splittings either side of DEGENERACY_TOL
            spectrum = rng.choice(levels, size=dim)
            spectrum[: dim // 2] += rng.choice([0.0, 5e-8, 2e-7], size=dim // 2)
            basis = _haar(rng, dim)
            measured = Povm.from_operator(basis @ np.diag(spectrum) @ basis.conj().T)
            assert_same_povm(measured.space, measured.effects)


@pytest.mark.parametrize("spread", [1e-13, 1e-11, 3e-10, 1e-9, 1e-7, 1e-3, 0.5])
def test_smeared_povms_match_oracle(qcorr_eps, spread):
    rng = np.random.default_rng(11)
    for dim in (4, 9):
        effects = _pvm_effects(rng, dim, 3)
        smeared = [
            (1 - spread) * e + spread * np.trace(e).real / dim * np.eye(dim) for e in effects
        ]
        assert_same_povm(*_as_povm_input(smeared))


def test_zero_effect_matches_oracle(qcorr_eps):
    rng = np.random.default_rng(5)
    for dim in (4, 9):
        effects = _pvm_effects(rng, dim, 2) + [np.zeros((dim, dim))]
        assert_same_povm(*_as_povm_input(effects))
        assert Povm(*_as_povm_input(effects)).is_projective


def _near_threshold(delta, overlap, dim=3):
    a = np.zeros(dim)
    a[0] = 1.0
    b = np.zeros(dim)
    b[0], b[1] = overlap, np.sqrt(1.0 - overlap * overlap)
    e1 = (1 - delta) * np.outer(a, a)
    e2 = (1 - delta) * np.outer(b, b)
    return [e1, e2, np.eye(dim) - e1 - e2]


DELTAS = np.linspace(0.0, 1.2e-9, 13)
OVERLAPS = np.linspace(0.0, 3e-9, 16)


def test_near_threshold_family_matches_oracle(qcorr_eps):
    tally = {"error": 0, True: 0, False: 0}
    for delta in DELTAS:
        for overlap in OVERLAPS:
            space, effects = _as_povm_input(_near_threshold(delta, overlap))
            assert_same_povm(space, effects)
            verdict = _outcome(lambda: projective_oracle.povm_verdict(space, effects))
            tally["error" if isinstance(verdict, tuple) else verdict] += 1
    if qcorr_eps is None:
        # the grid straddles all three outcomes at the default tolerance
        assert tally == {"error": 98, True: 65, False: 45}


def test_verdict_uses_the_eps_in_force_at_construction(monkeypatch):
    # idempotent within 1e-6 but not within the default tolerance
    space, effects = _as_povm_input(_near_threshold(1e-7, 0.0))
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    built = Povm(space, effects)
    expected = projective_oracle.povm_verdict(space, effects)
    monkeypatch.delenv("QCORR_EPS")
    assert built.is_projective == expected
    assert expected != projective_oracle.povm_verdict(space, effects)


# error precedence -----------------------------------------------------------


def test_hermitian_failure_precedes_later_dimension_mismatch():
    skewed = np.diag([0.5, 0.5]).astype(complex)
    skewed[0, 1] = 1e-3
    effects = [skewed, np.eye(2) - skewed.conj().T, np.zeros((3, 3))]
    space, table = _as_povm_input(effects)
    assert_same_povm(space, table)
    with pytest.raises(QcorrError, match="effect at 'x0' is not Hermitian"):
        Povm(space, table)


def test_psd_failure_precedes_later_hermitian_failure():
    skewed = np.zeros((2, 2), dtype=complex)
    skewed[0, 1] = 1e-3
    effects = [np.diag([1.2, 0.5]), np.diag([-0.2, 0.5]), skewed]
    space, table = _as_povm_input(effects)
    assert_same_povm(space, table)
    with pytest.raises(QcorrError, match="effect at 'x1' is not positive semidefinite"):
        Povm(space, table)


def test_eigensolver_failure_surfaces_as_convergence_failure(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the routes below are those of the default eps
    monkeypatch.delenv("QCORR_EPS", raising=False)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    # the certificate settles the identity without the eigensolver
    assert Povm(*_as_povm_input([np.eye(16)])).is_projective
    # a negative eigenvalue fails the Cholesky factorisation, a huge trace
    # fails the rounding guard, and a stack this small skips the certificate;
    # each falls back to the eigensolver
    negative = np.diag(np.r_[1.5, np.ones(15)])
    huge = np.diag(np.r_[1e9, np.zeros(15)])
    for effects in (
        [negative, np.eye(16) - negative],
        [huge, np.eye(16) - huge],
        [np.eye(2)],
    ):
        with pytest.raises(ConvergenceFailure, match="eigensolver did not converge"):
            Povm(*_as_povm_input(effects))
    with pytest.raises(ConvergenceFailure, match="eigensolver did not converge"):
        DensityOperator(np.diag(np.r_[1.5, np.full(15, -0.5 / 15)]))


# the Cholesky certificate ----------------------------------------------------

# smallest eigenvalues probed, in units of -eps
FLOOR_FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1 - 1e-3, 1 + 1e-3, 1.5]


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """A list that gains one entry per `np.linalg.eigvalsh` call."""
    calls = []
    solve = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def _with_floor(rng, dim, floor, others):
    """Haar rotation of diag(floor, *others)."""
    basis = _haar(rng, dim)
    return (basis * np.concatenate([[floor], others])) @ basis.conj().T


def _effects_with_floor(rng, dim, floor, top=1.0):
    """Two effects summing to the identity; the first has smallest eigenvalue
    `floor` and its others in [0, top]."""
    first = _with_floor(rng, dim, floor, rng.uniform(0.0, top, size=dim - 1))
    return [first, np.eye(dim) - first]


def _density_with_floor(rng, dim, floor):
    """A unit-trace Hermitian matrix with smallest eigenvalue `floor`."""
    return _with_floor(rng, dim, floor, rng.dirichlet(np.ones(dim - 1)) * (1.0 - floor))


def test_cholesky_failure_only_means_not_certified(qcorr_eps, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    rng = np.random.default_rng(13)
    assert_same_povm(*_as_povm_input(_pvm_effects(rng, 9, 3)))
    for fraction in FLOOR_FRACTIONS:
        floor = -fraction * validation_eps()
        assert_same_povm(*_as_povm_input(_effects_with_floor(rng, 9, floor)))
        assert_same_density(_density_with_floor(rng, 9, floor))


@pytest.mark.parametrize("dim", [2, 4, 9, 16])
def test_certificate_matches_oracle_at_the_eigenvalue_floor(qcorr_eps, eigvalsh_calls, dim):
    eps = validation_eps()
    rng = np.random.default_rng(dim)
    for fraction in FLOOR_FRACTIONS:
        for _ in range(3):
            space, effects = _as_povm_input(_effects_with_floor(rng, dim, -fraction * eps))
            expected = _outcome(lambda: projective_oracle.povm_verdict(space, effects))
            eigvalsh_calls.clear()
            assert _outcome(lambda: Povm(space, effects).is_projective) == expected
            if fraction > 0.5:
                assert eigvalsh_calls  # only the eigensolver can reject
            elif fraction <= 0.25 and dim >= 9 and qcorr_eps != "1e-12":
                assert not eigvalsh_calls  # the certificate decided
            matrix = _density_with_floor(rng, dim, -fraction * eps)
            expected = _outcome(lambda: projective_oracle.density_verdict(matrix))
            eigvalsh_calls.clear()
            assert _outcome(lambda: DensityOperator(matrix) and None) == expected
            if fraction <= 0.25 and dim >= 16 and qcorr_eps != "1e-12":
                assert not eigvalsh_calls


def test_large_traces_fall_back_to_the_eigensolver(qcorr_eps, eigvalsh_calls):
    rng = np.random.default_rng(17)
    for dim in (9, 16):
        for top in (1e7, 1e9, 1e11):
            space, effects = _as_povm_input(_effects_with_floor(rng, dim, 0.0, top))
            expected = _outcome(lambda: projective_oracle.povm_verdict(space, effects))
            eigvalsh_calls.clear()
            assert _outcome(lambda: Povm(space, effects).is_projective) == expected
            assert eigvalsh_calls


def test_tiny_eps_at_d64_falls_back_to_the_eigensolver(monkeypatch, eigvalsh_calls):
    monkeypatch.setenv("QCORR_EPS", "1e-12")
    effects = _pvm_effects(np.random.default_rng(19), 64, 4)
    eigvalsh_calls.clear()
    assert Povm(*_as_povm_input(effects)).is_projective
    assert eigvalsh_calls


def _tilted_factors(dim_a, angle, rng):
    """Factor observables of C^dA (x) C^dA: coordinate projectors of the left
    factor, and those of the right factor tilted by a rotation of the whole
    space by `angle`, so that they commute up to about `angle`."""
    eye = np.eye(dim_a)
    units = [np.diag(row) for row in np.eye(dim_a)]
    left = [np.kron(p, eye) for p in units]
    generator = rng.normal(size=(dim_a**2,) * 2) + 1j * rng.normal(size=(dim_a**2,) * 2)
    values, vectors = np.linalg.eigh(generator + generator.conj().T)
    rotation = (vectors * np.exp(1j * angle * values)) @ vectors.conj().T
    right = [rotation @ np.kron(eye, p) @ rotation.conj().T for p in units]
    return Povm(*_as_povm_input(left)), Povm(*_as_povm_input(right))


def test_near_threshold_commutation_matches_oracle(qcorr_eps):
    eps = validation_eps()
    rng = np.random.default_rng(23)
    verdicts = set()
    for dim_a in (2, 3):
        for scale in np.geomspace(0.05, 5.0, 41):
            a1, a2 = _tilted_factors(dim_a, scale * eps, rng)
            verdict = assert_same_joint(a1, a2)
            verdicts.add(verdict if verdict is True else verdict[0])
    assert {True, NonCommuting} <= verdicts


def _tilt_grid(eps):
    """(dim_a, a1, a2) for the 243 tilted factor pairs of C^dA (x) C^dA,
    dim_a in (2, 3, 4), at angles from 0.05 to 5 eps: about two in five
    commute within eps."""
    rng = np.random.default_rng(23)
    for dim_a in (2, 3, 4):
        for scale in np.geomspace(0.05, 5.0, 81):
            yield (dim_a, *_tilted_factors(dim_a, scale * eps, rng))


def _commutation_gap(a1, a2):
    return max(
        _max_abs(left @ right - right @ left) for left in a1._stack for right in a2._stack
    )


def _smallest_product_eigenvalue(a1, a2):
    """What `eigvalsh` reads as the smallest eigenvalue of any E1(x) E2(y)."""
    return np.linalg.eigvalsh(a1._stack[:, None] @ a2._stack).min()


def _full_rank_state(rng, dim):
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = ginibre @ ginibre.conj().T
    return DensityOperator(matrix / np.trace(matrix).real)


def test_every_commuting_pair_on_the_tilt_grid_builds_a_joint_and_reports(qcorr_eps):
    """The commutation test is the joint's only gate: a product whose
    eigenvalues dip below -eps by rounding is still the joint."""
    eps = validation_eps()
    rng = np.random.default_rng(37)
    states = {dim_a: _full_rank_state(rng, dim_a**2) for dim_a in (2, 3, 4)}
    tally = {"commuting": 0, "non-commuting": 0, "dips below -eps": 0}
    for dim_a, a1, a2 in _tilt_grid(eps):
        if _commutation_gap(a1, a2) > eps:
            tally["non-commuting"] += 1
            with pytest.raises(NonCommuting):
                joint_from_commuting(a1, a2)
            continue
        tally["commuting"] += 1
        joint = joint_from_commuting(a1, a2)
        tally["dips below -eps"] += bool(_smallest_product_eigenvalue(a1, a2) < -eps)
        assert correlation_report(joint, a1, a2, states[dim_a]).product_rule_pass
    assert tally == {"commuting": 99, "non-commuting": 144, "dips below -eps": 13}


def test_tilted_commuting_scenario_that_validates_also_runs(monkeypatch, tmp_path, capsys):
    """A d = 9 file with an auto-commuting joint whose products dip below
    -eps: `validate` and `run` both exit 0, in both formats."""
    monkeypatch.delenv("QCORR_EPS", raising=False)
    eps = validation_eps()
    a1, a2 = next(
        (a1, a2)
        for dim_a, a1, a2 in _tilt_grid(eps)
        if dim_a == 3
        and _commutation_gap(a1, a2) <= eps
        and _smallest_product_eigenvalue(a1, a2) < -eps
    )
    state = _full_rank_state(np.random.default_rng(41), 9)
    scenario = QuantumScenario("tilted-commuting", state, a1, a2, None, spectral=True)
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(scenario_to_jsonable(scenario)))
    for verb in ("validate", "run"):
        for format in ("table", "json"):
            assert main([verb, str(path), "--format", format]) == EXIT_OK
    assert capsys.readouterr().err == ""


def _dsweep_effects(rng, dim_a, left):
    """Rank-one projectors of a Haar basis of one factor, lifted to the pair."""
    eye = np.eye(dim_a)
    basis = _haar(rng, dim_a)
    lifted = [np.outer(column, column.conj()) for column in basis.T]
    return [np.kron(p, eye) if left else np.kron(eye, p) for p in lifted]


@pytest.mark.parametrize("dim", [16, 36])
def test_dsweep_shaped_builds_never_reach_the_eigensolver(monkeypatch, eigvalsh_calls, dim):
    monkeypatch.delenv("QCORR_EPS", raising=False)
    rng = np.random.default_rng(dim)
    dim_a = int(np.sqrt(dim))
    eigvalsh_calls.clear()
    a1 = Povm(*_as_povm_input(_dsweep_effects(rng, dim_a, left=True)))
    a2 = Povm(*_as_povm_input(_dsweep_effects(rng, dim_a, left=False)))
    joint = joint_from_commuting(a1, a2)
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = ginibre @ ginibre.conj().T
    DensityOperator(matrix / np.trace(matrix).real)
    assert len(joint.space) == dim
    assert len(eigvalsh_calls) == 0


def test_stack_constructor_runs_the_mapping_constructors_checks():
    rng = np.random.default_rng(29)
    valid = _pvm_effects(rng, 16, 3)
    nan = [valid[0], np.full((16, 16), np.nan), valid[2]]
    skewed = [valid[0] + 1e-3 * np.triu(np.ones((16, 16)), 1), valid[1], valid[2]]
    incomplete = [valid[0], valid[1], 0.5 * valid[2]]
    negative = _effects_with_floor(rng, 16, -0.1)
    for effects in (valid, nan, skewed, incomplete, negative):
        space, table = _as_povm_input(effects)
        stack = np.array(effects, dtype=complex)
        assert _outcome(lambda: Povm._from_stack(space, stack).effects.keys()) == _outcome(
            lambda: Povm(space, table).effects.keys()
        )
    with pytest.raises(QcorrError, match="effect at 'x1' contains non-finite entries"):
        Povm._from_stack(*_as_povm_input(nan)[:1], np.array(nan, dtype=complex))


def test_joint_effects_are_the_products_bit_for_bit():
    rng = np.random.default_rng(31)
    a1 = Povm(*_as_povm_input(_dsweep_effects(rng, 4, left=True)))
    a2 = Povm(*_as_povm_input(_dsweep_effects(rng, 4, left=False)))
    joint = joint_from_commuting(a1, a2)
    products = [a1.effect(l1) @ a2.effect(l2) for l1 in a1.space.labels for l2 in a2.space.labels]
    np.testing.assert_array_equal(joint._stack, np.array(products))
    assert not joint._stack.flags.writeable


# the commutation certificate -------------------------------------------------


@pytest.fixture
def commutation_routes(monkeypatch):
    """A list that gains the certificate's verdict on each call, and
    "reverse" on each run of the exact test, which computes the reverse
    products."""
    routes = []
    certify, check = observable._commutation_certified, observable._check_commutation

    def certifying(*args):
        routes.append(certify(*args))
        return routes[-1]

    def checking(*args):
        routes.append("reverse")
        return check(*args)

    monkeypatch.setattr(observable, "_commutation_certified", certifying)
    monkeypatch.setattr(observable, "_check_commutation", checking)
    return routes


def _dsweep_pair(dim, seed):
    rng = np.random.default_rng(seed)
    dim_a = int(np.sqrt(dim))
    a1 = Povm(*_as_povm_input(_dsweep_effects(rng, dim_a, left=True)))
    a2 = Povm(*_as_povm_input(_dsweep_effects(rng, dim_a, left=False)))
    return a1, a2


def _auto_commuting_pairs():
    for name in bundled_scenario_names():
        scenario = loads_scenario(bundled_scenario_text(name), source=name)
        if isinstance(scenario, QuantumScenario) and scenario.joint is None:
            yield name, scenario.observable_1, scenario.observable_2


def test_dsweep_shapes_and_bundled_files_are_certified(monkeypatch, commutation_routes):
    monkeypatch.delenv("QCORR_EPS", raising=False)
    pairs = [_dsweep_pair(dim, dim) for dim in (16, 36, 64)]
    bundled = [(a1, a2) for _, a1, a2 in _auto_commuting_pairs()]
    assert len(bundled) == 6
    for a1, a2 in pairs + bundled:
        commutation_routes.clear()
        joint_from_commuting(a1, a2)
        assert commutation_routes == [True]  # no reverse product


def _coordinate_pair(dim_a):
    """The coordinate projectors of each factor of C^dA (x) C^dA: every row
    and column norm 1, no skew, and products without rounding."""
    eye = np.eye(dim_a)
    units = [np.diag(row) for row in eye]
    a1 = Povm(*_as_povm_input([np.kron(p, eye) for p in units]))
    a2 = Povm(*_as_povm_input([np.kron(eye, p) for p in units]))
    return a1, a2


@pytest.mark.parametrize(
    "pair, routes",
    [
        (lambda: _coordinate_pair(2), [True]),
        (lambda: _coordinate_pair(3), [False, "reverse"]),
        (lambda: _dsweep_pair(64, 47), [False, "reverse"]),
    ],
    ids=["coordinate-d4", "coordinate-d9", "dsweep-d64"],
)
def test_tiny_eps_falls_back_to_the_same_joint(monkeypatch, commutation_routes, pair, routes):
    """At QCORR_EPS=1e-12 the rounding allowance delta of the coordinate
    pairs is below eps/4 at d = 4 and between eps/4 and eps/2 at d = 9; at
    d = 64 the dsweep-shaped pair's is above eps/2."""
    monkeypatch.delenv("QCORR_EPS", raising=False)
    a1, a2 = pair()
    certified = joint_from_commuting(a1, a2)
    monkeypatch.setenv("QCORR_EPS", "1e-12")
    commutation_routes.clear()
    exact = joint_from_commuting(a1, a2)
    assert commutation_routes == routes
    np.testing.assert_array_equal(exact._stack, certified._stack)
    products = [a1.effect(l1) @ a2.effect(l2) for l1 in a1.space.labels for l2 in a2.space.labels]
    np.testing.assert_array_equal(exact._stack, np.array(products))


def _skewed(stacks, fraction, rng):
    """Observables with E + t [E, Z] for each effect E of `stacks`, one
    Hermitian Z for all: PVMs to first order in t, and commuting to first
    order where the stacks commute. t puts the largest |E - E^H| at
    `fraction` eps."""
    dim = stacks[0].shape[1]
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    z += z.conj().T
    commutators = [stack @ z - z @ stack for stack in stacks]
    largest = max(np.abs(c - c.conj().transpose(0, 2, 1)).max() for c in commutators)
    scale = fraction * validation_eps() / largest
    return [
        Povm(*_as_povm_input(list(stack + scale * c))) for stack, c in zip(stacks, commutators)
    ]


def test_nearly_hermitian_factors_fall_back_and_match_oracle(qcorr_eps, commutation_routes):
    """Factors Hermitian only within eps, where the adjoint of the forward
    product alone would move the verdict: the certificate declines, and the
    exact test gives the oracle's verdict and message. The tilt grid's right
    factors take a skew of 0.25 to 0.9 eps; commuting dsweep-shaped pairs
    take one of 0.9 eps in both factors, and keep commuting."""
    eps = validation_eps()
    rng = np.random.default_rng(43)
    verdicts = set()
    grid = list(_tilt_grid(eps))
    for (_, a1, a2), fraction in zip(grid, np.linspace(0.25, 0.9, len(grid))):
        (skewed,) = _skewed([a2._stack], fraction, rng)
        commutation_routes.clear()
        verdict = assert_same_joint(a1, skewed)
        assert commutation_routes == [False, "reverse"]
        verdicts.add(verdict if verdict is True else verdict[0])
    assert verdicts == {True, NonCommuting}
    moved = 0
    for trial in range(80):
        dim_a = 2 + trial % 2
        left = np.array(_dsweep_effects(rng, dim_a, left=True), dtype=complex)
        right = np.array(_dsweep_effects(rng, dim_a, left=False), dtype=complex)
        try:
            a1, a2 = _skewed([left, right], 0.9, rng)
        except ValidationError:
            continue  # the skew pushed an eigenvalue below -eps
        commutation_routes.clear()
        assert assert_same_joint(a1, a2) is True
        assert commutation_routes == [False, "reverse"]
        forward = a1._stack[:, None] @ a2._stack
        moved += _max_abs(forward - forward.conj().transpose(0, 1, 3, 2)) > eps
    assert moved  # the adjoint alone would call these non-commuting


# (commuting pairs certified, commuting pairs tested exactly) on the tilt grid
TILT_GRID_ROUTES = {None: (46, 53), "1e-6": (46, 53), "1e-12": (16, 83)}


def test_tilt_grid_routes(qcorr_eps, commutation_routes):
    eps = validation_eps()
    tally = {"certified": 0, "exact": 0, "non-commuting certified": 0}
    for _, a1, a2 in _tilt_grid(eps):
        commutation_routes.clear()
        try:
            joint_from_commuting(a1, a2)
        except NonCommuting:
            tally["non-commuting certified"] += commutation_routes[0]
            continue
        tally["certified" if commutation_routes[0] else "exact"] += 1
    certified, exact = TILT_GRID_ROUTES[qcorr_eps]
    assert tally == {"certified": certified, "exact": exact, "non-commuting certified": 0}


# raw stacks ------------------------------------------------------------------


def _tilted_pair(rng, dim, rank, overlap):
    """Two rank-`rank` projectors whose ranges overlap by about `overlap`."""
    basis = _haar(rng, dim)
    left = basis[:, :rank]
    right, _ = np.linalg.qr(basis[:, rank : 2 * rank] + overlap * left)
    return left @ left.conj().T, right @ right.conj().T


@pytest.mark.parametrize("eps", [EPS, 1e-6, 1e-12])
def test_detection_on_raw_stacks_matches_oracle(eps):
    rng = np.random.default_rng(9)
    verdicts = set()
    for gap in np.geomspace(eps / 20, eps * 20, 25):
        p, q = _tilted_pair(rng, 6, 2, gap)
        for stack in ([(1 - gap) * p], [p, q], [p, (1 - gap) * q, np.eye(6) - p], [p, p]):
            stack = np.asarray(stack, dtype=complex)
            expected = projective_oracle.pairwise_projective(list(stack), eps)
            assert _pairwise_projective(stack, eps) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}
