import math
import sys

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    OutcomeSpace,
    Povm,
    PureState,
    spin_z_pair,
)

SQRT2 = np.sqrt(2.0)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


def inexact_commuting_effects(eps):
    """Effects of a valid commuting projective pair at d = 4, as two lists:
    a1 = {uu*, I - uu*} with u = (0.8, b, b, b), b = sqrt(0.12), and
    a2 = {I + 0.9 eps J, 0} with J the all-ones matrix. The left marginal of
    their product joint is E1(x)(I + 0.9 eps J), 1.32 eps from E1(x)."""
    b = np.sqrt(0.12)
    u = np.array([0.8, b, b, b])
    p, eye = np.outer(u, u), np.eye(4)
    return [p, eye - p], [eye + 0.9 * eps * np.ones((4, 4)), np.zeros((4, 4))]


# the dimensions and QCORR_EPS settings (None: unset) the Haar-factor pairs run at
HAAR_FACTOR_DIMS = (4, 9, 16, 36, 64)
HAAR_FACTOR_EPS = (None, "1e-6", "1e-12")
HAAR_FACTOR_EPS_IDS = ("eps-unset", "eps-1e-6", "eps-1e-12")


def set_qcorr_eps(monkeypatch, setting) -> None:
    """Unset QCORR_EPS for None, else set it to `setting`."""
    if setting is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", setting)


def full_rank_state(rng, d: int) -> DensityOperator:
    """A random full-rank density operator G G* / Tr(G G*), G Ginibre d x d."""
    ginibre = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    matrix = ginibre @ ginibre.conj().T
    return DensityOperator(matrix / np.trace(matrix).real)


def _haar_unitary(rng, n: int) -> np.ndarray:
    ginibre = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_factor_pair(d: int, case: str) -> tuple[Povm, Povm]:
    """A pair like the benchmark's large-d factors, d = m^2: the rank-one
    projectors of a Haar basis of C^m on the first tensor factor and on the
    second, spoilt as `case` says. A factor mixed with its neighbour outcome
    is not projective; a second factor rotated on the whole space does not
    commute with the first."""
    m = math.isqrt(d)
    rng = np.random.default_rng(d)
    eye = np.eye(m)
    stacks = []
    for left in (True, False):
        u = _haar_unitary(rng, m)
        projectors = np.einsum("ai,bi->iab", u, u.conj())
        stacks.append(np.stack([np.kron(p, eye) if left else np.kron(eye, p) for p in projectors]))
    if case == "non-commuting":
        w = _haar_unitary(rng, d)
        stacks[1] = w @ stacks[1] @ w.conj().T
    spoilt = {
        "first-not-projective": (0,),
        "second-not-projective": (1,),
        "neither-projective": (0, 1),
    }
    for side in spoilt.get(case, ()):
        stacks[side] = 0.9 * stacks[side] + 0.1 * np.roll(stacks[side], 1, axis=0)
    pair = []
    for prefix, stack in zip("ab", stacks):
        labels = tuple(f"{prefix}{i}" for i in range(m))
        pair.append(Povm(OutcomeSpace(labels), dict(zip(labels, stack))))
    return tuple(pair)


@pytest.fixture(scope="session")
def spin_pair():
    return spin_z_pair()


@pytest.fixture
def binary_space():
    return OutcomeSpace(("0", "1"))


@pytest.fixture
def bell_phi_plus():
    return PureState((np.kron(UP, UP) + np.kron(DOWN, DOWN)) / SQRT2)


@pytest.fixture
def most_mixed_two_qubit():
    return DensityOperator(np.eye(4) / 4.0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # the acceptance module registers one status line per criterion
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    if module is None:
        return
    lines = module.summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
