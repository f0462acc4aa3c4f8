import sys

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    OutcomeSpace,
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
