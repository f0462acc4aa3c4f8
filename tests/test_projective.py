"""Batched POVM validation and the pairwise projectivity test.

`Povm` validates its stacked effects in one batched pass and decides
projectivity when it is read, multiplying each effect by the effects from it
onward in one batched product. These checks hold its verdicts and errors to
the effect-by-effect reference in `projective_oracle`, on built observables
and on raw stacks.
"""

import numpy as np
import pytest

from qcorr import (
    ConvergenceFailure,
    OutcomeSpace,
    Povm,
    QcorrError,
    joint_from_commuting,
)
from qcorr.observable import _effect_spectra, _pairwise_projective
from qcorr.tolerance import EPS
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

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(ConvergenceFailure, match="eigensolver did not converge"):
        Povm(*_as_povm_input([np.eye(2)]))


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


def test_spectra_chunks_agree_with_one_pass(monkeypatch):
    stack = np.stack(_pvm_effects(np.random.default_rng(2), 8, 8))
    whole = _effect_spectra(stack)
    monkeypatch.setattr("qcorr.observable._CHUNK_ENTRIES", 3 * 64)
    chunked = _effect_spectra(stack)
    for got, want in zip(chunked, whole):
        np.testing.assert_array_equal(got, want)
