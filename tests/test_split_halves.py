"""Two halves of a large-d step on two threads (`hilbert._in_halves`).

The split runs the very numpy calls of the serial path, so every array,
verdict and error must be the same bits whichever path runs. Each test
forces its path: `_SPLIT_FROM_WORK` at 0 with two CPUs splits every step,
a huge one splits none.
"""

import math
import os
import sys
import threading
import time
from importlib import resources

import numpy as np
import pytest

import qcorr.correlation
import qcorr.hilbert
from qcorr import (
    DensityOperator,
    NonCommuting,
    NotProjective,
    OutcomeSpace,
    Povm,
    correlation_report,
    joint_from_commuting,
    random_decomposition,
)
from qcorr.cli import EXIT_OK, main
from qcorr.hilbert import _in_halves
from qcorr.selftest import run_selftest

SPLIT, SERIAL = "split", "serial"
DIMS = (4, 9, 16, 36, 64)


@pytest.fixture(params=[None, "1e-12"], ids=["eps-unset", "eps-1e-12"])
def eps_setting(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", request.param)


@pytest.fixture()
def fresh_pool(monkeypatch):
    """No worker yet, and two CPUs whatever the affinity mask holds."""
    monkeypatch.setattr(qcorr.hilbert, "_POOL", None)
    monkeypatch.setattr(qcorr.hilbert, "_cpus", lambda: 2)


def _take(monkeypatch, path: str) -> None:
    monkeypatch.setattr(qcorr.hilbert, "_SPLIT_FROM_WORK", 0 if path == SPLIT else 1 << 62)
    monkeypatch.setattr(qcorr.hilbert, "_cpus", lambda: 2)


def _haar_unitary(rng, n: int) -> np.ndarray:
    ginibre = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _povm(prefix: str, stack) -> Povm:
    labels = tuple(f"{prefix}{i}" for i in range(len(stack)))
    return Povm(OutcomeSpace(labels), dict(zip(labels, stack)))


def _instance(d: int, case: str):
    """A pair like the benchmark's large-d inputs, d = m^2: the rank-one
    projectors of a Haar basis of C^m on the first factor and on the second,
    a random full-rank state and a 2d-component decomposition of it. The
    case may spoil the pair: a factor mixed with its neighbour outcome is
    not projective, a second factor rotated on the whole space does not
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
    for side in {"first-not-projective": (0,), "second-not-projective": (1,)}.get(case, ()):
        stacks[side] = 0.9 * stacks[side] + 0.1 * np.roll(stacks[side], 1, axis=0)
    if case == "neither-projective":
        stacks = [0.9 * s + 0.1 * np.roll(s, 1, axis=0) for s in stacks]
    ginibre = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    matrix = ginibre @ ginibre.conj().T
    state = DensityOperator(matrix / np.trace(matrix).real)
    decomposition = random_decomposition(state, 2 * d, rng)
    return _povm("a", stacks[0]), _povm("b", stacks[1]), state, decomposition


def _outcome(monkeypatch, path: str, a1, a2, state, decomposition):
    """The joint's bytes, the Born rows each report mixed and every array
    of both reports, or the error's type and message."""
    _take(monkeypatch, path)
    rows = []
    split_report = qcorr.correlation.split_report

    def spy(*args):
        rows.extend(args[4:6])
        return split_report(*args)

    monkeypatch.setattr(qcorr.correlation, "split_report", spy)
    try:
        joint = joint_from_commuting(a1, a2)
    except (NotProjective, NonCommuting) as exc:
        return type(exc), str(exc)
    reports = [correlation_report(joint, a1, a2, source) for source in (decomposition, state)]
    arrays = [joint._stack] + rows
    for report in reports:
        arrays += [m.as_array() for m in (report.joint_measure, report.classical_product)]
        arrays += [f.as_array() for f in (report.rho_t, report.rho_c, report.rho_e)]
    return [a.tobytes() for a in arrays] + [report.product_rule_residual for report in reports]


CASES = ("commuting", "first-not-projective", "second-not-projective", "neither-projective", "non-commuting")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("d", DIMS)
def test_split_and_serial_paths_are_bit_identical(d, case, eps_setting, monkeypatch):
    instance = _instance(d, case)
    serial = _outcome(monkeypatch, SERIAL, *instance)
    split = _outcome(monkeypatch, SPLIT, *instance)
    assert split == serial
    expected = {
        "first-not-projective": (NotProjective, "first observable is not projective"),
        "second-not-projective": (NotProjective, "second observable is not projective"),
        "neither-projective": (NotProjective, "first observable is not projective"),
    }
    if case in expected:
        assert serial == expected[case]
    elif case == "non-commuting":
        assert serial[0] is NonCommuting
    else:
        assert len(serial) == 17


def _bundled_quantum_files() -> list[str]:
    root = resources.files("qcorr.data")
    return sorted(
        entry.name for entry in root.iterdir()
        if entry.name.endswith(".json") and '"quantum"' in entry.read_text()
    )


@pytest.mark.parametrize("name", _bundled_quantum_files())
def test_bundled_auto_commuting_files_report_the_same_bytes_split(name, eps_setting, monkeypatch, capsys):
    path = str(resources.files("qcorr.data") / name)
    outputs = []
    for way in (SERIAL, SPLIT):
        _take(monkeypatch, way)
        assert main(["run", path, "--format", "json"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_halves_run_on_two_threads_only_when_the_work_reaches_the_threshold(fresh_pool):
    def where():
        return threading.get_ident()

    caller = threading.get_ident()
    below = qcorr.hilbert._SPLIT_FROM_WORK - 1
    assert _in_halves(where, where, below) == (caller, caller)
    assert qcorr.hilbert._POOL is None
    first, second = _in_halves(where, where, qcorr.hilbert._SPLIT_FROM_WORK)
    assert first == caller and second != caller
    assert qcorr.hilbert._POOL is not None


def test_one_cpu_in_the_affinity_mask_splits_nothing(monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity mask on this system")
    monkeypatch.setattr(qcorr.hilbert, "_POOL", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    caller = threading.get_ident()
    assert _in_halves(threading.get_ident, threading.get_ident, 1 << 62) == (caller, caller)
    assert qcorr.hilbert._POOL is None


def test_a_worker_error_reaches_the_caller_after_both_halves(fresh_pool, monkeypatch):
    monkeypatch.setattr(qcorr.hilbert, "_SPLIT_FROM_WORK", 0)
    done = []

    def first():
        time.sleep(0.05)
        done.append("first")

    def second():
        raise ValueError("from the worker")

    with pytest.raises(ValueError, match="from the worker"):
        _in_halves(first, second, 1)
    assert done == ["first"]


def test_a_caller_error_waits_for_the_worker_and_keeps_the_serial_order(fresh_pool, monkeypatch):
    monkeypatch.setattr(qcorr.hilbert, "_SPLIT_FROM_WORK", 0)
    started, done = threading.Event(), []

    def first():
        assert started.wait(10)
        raise KeyError("first")

    def second():
        started.set()
        time.sleep(0.05)
        done.append("second")
        raise ValueError("second")

    with pytest.raises(KeyError, match="first"):
        _in_halves(first, second, 1)
    assert done == ["second"]


def test_concurrent_callers_share_the_worker_and_keep_the_bits(fresh_pool):
    a1, a2, _, _ = _instance(64, "commuting")
    expected = joint_from_commuting(a1, a2)._stack.tobytes()
    results = []

    def call():
        for _ in range(3):
            results.append(joint_from_commuting(a1, a2)._stack.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 12


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this system")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_a_split_joint(fresh_pool):
    a1, a2, _, _ = _instance(64, "commuting")
    expected = joint_from_commuting(a1, a2)._stack.tobytes()
    assert qcorr.hilbert._POOL is not None  # the d = 64 joint split
    pid = os.fork()
    if pid == 0:  # the child: a pool inherited from the parent would never run
        code = 1
        try:
            code = 0 if joint_from_commuting(a1, a2)._stack.tobytes() == expected else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("d, splits", [(36, False), (64, True)])
def test_only_d64_of_the_benchmark_dimensions_splits(d, splits, fresh_pool):
    a1, a2, state, decomposition = _instance(d, "commuting")
    joint = joint_from_commuting(a1, a2)
    for source in (decomposition, state):
        correlation_report(joint, a1, a2, source)
    assert (qcorr.hilbert._POOL is not None) == splits


def test_d4_never_splits(fresh_pool, capsys):
    assert run_selftest(1, 10).passed
    root = resources.files("qcorr.data")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            assert main(["run", str(entry)]) == EXIT_OK
    capsys.readouterr()
    assert qcorr.hilbert._POOL is None
