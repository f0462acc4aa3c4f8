import numpy as np
import pytest

from qcorr import DensityOperator, ValidationError
from qcorr.tolerance import EPS, validation_eps


def test_unset_or_empty_qcorr_eps_means_the_default(monkeypatch):
    monkeypatch.delenv("QCORR_EPS", raising=False)
    assert validation_eps() == EPS
    monkeypatch.setenv("QCORR_EPS", "")
    assert validation_eps() == EPS
    assert DensityOperator(np.eye(2) / 2.0).dim == 2


def test_qcorr_eps_overrides_the_default(monkeypatch):
    monkeypatch.setenv("QCORR_EPS", "1e-6")
    assert validation_eps() == 1e-6


@pytest.mark.parametrize(
    "raw, message",
    [
        (" ", "QCORR_EPS must be a number, got ' '"),
        ("eps", "QCORR_EPS must be a number, got 'eps'"),
        ("0", "QCORR_EPS must be positive, got '0'"),
        ("nan", "QCORR_EPS must be positive, got 'nan'"),
    ],
)
def test_blank_or_invalid_qcorr_eps_still_raises(monkeypatch, raw, message):
    monkeypatch.setenv("QCORR_EPS", raw)
    with pytest.raises(ValidationError) as excinfo:
        validation_eps()
    assert str(excinfo.value) == message
