"""The selftest trial loop and its suite table."""

import math

import numpy as np

import qcorr.selftest
from qcorr import SuiteResult, run_selftest
from qcorr.selftest import _run_suite

TOL = 1e-7


def _fake_trial(deviations, seen):
    values = iter(deviations)

    def trial(rng):
        seen.append(rng)
        return next(values)

    return trial


def test_run_suite_counts_a_deviation_at_the_tolerance_as_a_failure():
    seen = []
    rng = np.random.default_rng(0)
    deviations = [math.nextafter(TOL, 0.0), TOL, 0.0]
    result = _run_suite("fake", TOL, _fake_trial(deviations, seen), rng, 3)
    assert result == SuiteResult("fake", 3, 1, TOL, TOL)
    assert not result.passed
    assert seen == [rng] * 3


def test_run_suite_reports_an_infinite_miss_as_the_worst_deviation():
    trial = _fake_trial([1e-9, math.inf, 0.0], [])
    result = _run_suite("fake", TOL, trial, np.random.default_rng(0), 3)
    assert result.max_deviation == math.inf
    assert result.failures == 1


def test_run_suite_folds_the_worst_deviation_from_zero():
    trial = _fake_trial([-2.0, -1.0], [])
    result = _run_suite("fake", TOL, trial, np.random.default_rng(0), 2)
    assert result == SuiteResult("fake", 2, 0, 0.0, TOL)
    assert result.passed


def test_spin_pair_is_built_once_per_run(monkeypatch):
    calls = []
    build = qcorr.selftest.spin_z_pair

    def counting():
        calls.append(None)
        return build()

    monkeypatch.setattr(qcorr.selftest, "spin_z_pair", counting)
    report = run_selftest(seed=3, trials=2)
    assert report.passed
    assert len(calls) == 1
