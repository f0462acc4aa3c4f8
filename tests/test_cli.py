"""End-to-end checks of the command line interface.

Everything goes through ``main(argv)`` so the tests exercise argument
parsing, error mapping, and exit codes exactly as a shell user would see
them, minus the process boundary.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import fcntl
except ImportError:  # not a POSIX system: pipes keep their default size
    fcntl = None

import qcorr
from qcorr.cli import EXIT_ENGINE, EXIT_OK, EXIT_VALIDATION, _build_parser, main
from qcorr.examples import bundled_scenario_text
from qcorr.tolerance import validation_eps
from conftest import inexact_commuting_effects

SRC = str(Path(qcorr.__file__).resolve().parent.parent)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(bundled_scenario_text("degenerate.json"))
    return path


def test_run_table_output(scenario_file, capsys):
    assert main(["run", str(scenario_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "scenario: degenerate-state" in out
    assert "rho_t (total)" in out
    assert "product-basis" in out and "bell-basis" in out and "mixed-basis" in out


def test_run_single_decomposition(scenario_file, capsys):
    assert main(["run", str(scenario_file), "--decomposition", "bell-basis"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bell-basis" in out
    assert "product-basis" not in out


def test_run_unknown_decomposition(scenario_file, capsys):
    code = main(["run", str(scenario_file), "--decomposition", "nope"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "error:" in err and "available:" in err


def test_paper_example_json(capsys):
    assert main(["paper-example", "i", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "qcorr/report/1"
    assert doc["scenario"]["name"] == "separable-mixture"


def test_paper_example_params(capsys):
    argv = ["paper-example", "i", "--params", "w1=0.7,w2=0.1,w3=0.1,w4=0.1"]
    assert main(argv) == EXIT_OK
    assert "rho_t (total)" in capsys.readouterr().out


def test_unknown_example_is_validation_error(capsys):
    assert main(["paper-example", "nope"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown example id" in err


def test_json_error_object(capsys):
    assert main(["paper-example", "nope", "--format", "json"]) == EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "UnknownExample"
    assert "unknown example id" in doc["error"]["message"]


@pytest.mark.parametrize("params", ["w1", "w1=abc", "=0.5"])
def test_malformed_params(params, capsys):
    assert main(["paper-example", "i", "--params", params]) == EXIT_VALIDATION
    capsys.readouterr()


def test_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_file_not_utf8_is_a_parse_error(verb, fmt, tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([verb, str(path), "--format", fmt]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    prefix = f"cannot read {path}: 'utf-8' codec can't decode byte 0xff"
    if fmt == "json":
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(prefix)
    else:
        assert captured.out == ""
        assert captured.err.startswith(f"error: {prefix}")


@pytest.mark.parametrize("depth", [3000, 100000])
@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_json_nested_too_deeply_is_a_parse_error(depth, verb, fmt, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    assert main([verb, str(path), "--format", fmt]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    message = f"{path}: invalid JSON: nested too deeply to decode"
    if fmt == "json":
        assert captured.err == ""
        assert json.loads(captured.out) == {"error": {"type": "ParseError", "message": message}}
    else:
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() converts any length")
@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_json_integer_too_long_to_convert_is_a_parse_error(verb, fmt, tmp_path, capsys):
    literal = "1" + "0" * sys.get_int_max_str_digits()
    doc = json.loads(bundled_scenario_text("classical_fuzzy.json"))
    doc["state"][0] = "LITERAL"
    path = tmp_path / "long_int.json"
    path.write_text(json.dumps(doc).replace('"LITERAL"', literal))
    with pytest.raises(ValueError) as decoding:
        json.loads(literal)
    assert main([verb, str(path), "--format", fmt]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    message = f"{path}: invalid JSON: {decoding.value}"
    if fmt == "json":
        assert captured.err == ""
        assert json.loads(captured.out) == {"error": {"type": "ParseError", "message": message}}
    else:
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _with_nested_value(name: str, place: tuple, depth: int) -> str:
    """Bundled file `name` as JSON text, its value at `place` (keys and
    indices) replaced by `depth` nested empty lists."""
    doc = json.loads(bundled_scenario_text(name))
    *parents, last = place
    target = doc
    for key in parents:
        target = target[key]
    target[last] = "NESTED"
    return json.dumps(doc).replace('"NESTED"', "[" * depth + "]" * depth)


def _deepest_decodable(name: str, place: tuple) -> int:
    """The deepest nesting at `place` that json.loads accepts in this process."""
    def decodes(depth):
        try:
            json.loads(_with_nested_value(name, place, depth))
        except RecursionError:
            return False
        return True

    low, high = 1, 64
    while decodes(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if decodes(middle) else (low, middle)
    return low


@pytest.mark.parametrize(
    "name, place, prefix",
    [
        ("separable.json", ("state", 0, 0), "state[0][0]: expected a number or [re, im] pair"),
        ("classical_fuzzy.json", ("state", 0), "state[0]: expected a number"),
        ("separable.json", ("schema",), "schema: expected 'qcorr/1'"),
        ("separable.json", ("mode",), "mode: expected 'quantum' or 'classical'"),
        ("separable.json", ("dim",), "dim: expected an integer >= 2"),
    ],
)
@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_values_nested_near_the_decoder_limit_are_quoted(
    name, place, prefix, verb, fmt, tmp_path, capsys
):
    path = tmp_path / name
    deepest = _deepest_decodable(name, place)
    for depth in range(deepest - 39, deepest + 1):
        path.write_text(_with_nested_value(name, place, depth))
        assert main([verb, str(path), "--format", fmt]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        if fmt == "json":
            assert captured.err == ""
            error = json.loads(captured.out)["error"]
            kind, message = error["type"], error["message"]
        else:
            assert captured.out == "" and captured.err.startswith("error: ")
            kind, message = None, captured.err[len("error: ") : -1]
        if message.startswith(f"{path}: "):
            assert message == f"{path}: invalid JSON: nested too deeply to decode"
            assert kind in (None, "ParseError")
        else:
            assert message == f"{prefix}, got [[[...]]]"
            assert kind in (None, "ValidationError")


def test_validate_table(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "valid: degenerate-state (quantum)"


def test_validate_json(scenario_file, capsys):
    assert main(["validate", str(scenario_file), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"valid": True, "name": "degenerate-state", "mode": "quantum"}


def test_validate_rejects_bad_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "qcorr/999"}')
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    capsys.readouterr()


def test_validate_names_an_integer_beyond_the_float_range(tmp_path, capsys):
    doc = json.loads(bundled_scenario_text("classical_uniform.json"))
    doc["state"] = [10**400] + [0] * (len(doc["state"]) - 1)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))

    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: state[0]: number too large for a float\n"

    assert main(["validate", str(path), "--format", "json"]) == EXIT_VALIDATION
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "type": "ValidationError",
        "message": "state[0]: number too large for a float",
    }


def _weights_past_the_float_range(name: str) -> dict:
    """A bundled file whose state (classical) or first decomposition
    (quantum) has finite weights that sum past the float range."""
    doc = json.loads(bundled_scenario_text(name))
    if doc["mode"] == "classical":
        doc["state"] = [1e308] * len(doc["state"])
    else:
        for component in next(iter(doc["decompositions"].values())):
            component["weight"] = 1e308
    return doc


@pytest.mark.parametrize(
    "name, message",
    [
        ("classical_fuzzy.json", "state: weights sum to inf, expected 1"),
        (
            "separable.json",
            "decompositions['product-basis']: decomposition weights sum to inf, expected 1",
        ),
    ],
)
@pytest.mark.parametrize("verb", ["run", "validate"])
def test_weights_summing_past_the_float_range_are_a_validation_error(
    name, message, verb, tmp_path, capsys
):
    path = tmp_path / name
    path.write_text(json.dumps(_weights_past_the_float_range(name)))

    assert main([verb, str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"

    assert main([verb, str(path), "--format", "json"]) == EXIT_VALIDATION
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"type": "ValidationError", "message": message}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_paper_example_weights_summing_past_the_float_range(fmt, capsys):
    argv = ["paper-example", "i", "--params", "w1=1e308,w2=1e308", "--format", fmt]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "weights sum to inf, expected 1" in captured.out + captured.err


def test_engine_error_exits_2(tmp_path, capsys):
    # Deterministic kernels pin the marginals to ("0", "0"), but the explicit
    # joint puts all its mass at ("1", "1"): the total-correlation density
    # does not exist, which is an engine failure rather than a parse problem.
    doc = {
        "schema": "qcorr/1",
        "name": "escaped-support",
        "mode": "classical",
        "phase_space": ["alpha", "beta"],
        "state": [1.0, 0.0],
        "observables": [
            {"labels": ["0", "1"], "kernel": [[1.0, 0.0], [0.0, 1.0]]},
            {"labels": ["0", "1"], "kernel": [[1.0, 0.0], [0.0, 1.0]]},
        ],
        "joint": {"kernel": [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]},
    }
    path = tmp_path / "escaped.json"
    path.write_text(json.dumps(doc))

    assert main(["run", str(path)]) == EXIT_ENGINE
    assert "error:" in capsys.readouterr().err

    assert main(["run", str(path), "--format", "json"]) == EXIT_ENGINE
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "AbsoluteContinuityViolation"


def _ill_posed_joint_files(tmp_path):
    """Two quantum files that parse but whose joint a run rejects: an
    auto-commuting pair of sigma_z and sigma_x on the first qubit, and an
    explicit joint whose first two effects are swapped."""
    sigma_z = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    sigma_x = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    auto = json.loads(bundled_scenario_text("degenerate.json"))
    auto["observables"] = [
        {"labels": ["u", "d"], "operator": sigma_z.tolist()},
        {"labels": ["p", "m"], "operator": sigma_x.tolist()},
    ]
    explicit = json.loads(bundled_scenario_text("degenerate.json"))
    effects = [np.diag(row).tolist() for row in np.eye(4)]
    explicit["joint"] = {"effects": [effects[1], effects[0], effects[2], effects[3]]}
    files = {}
    for name, doc in (("non-commuting", auto), ("marginals-miss", explicit)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    return files


ILL_POSED_JOINTS = {
    "non-commuting": (
        "NonCommuting",
        "effects at 'u' and 'p' do not commute (max deviation 5.000e-01)",
    ),
    "marginals-miss": (
        "JointMarginalMismatch",
        "joint observable's marginals do not reproduce the given pair",
    ),
}


@pytest.mark.parametrize("case", sorted(ILL_POSED_JOINTS))
@pytest.mark.parametrize("format", ["table", "json"])
def test_validate_rejects_the_joint_run_rejects(case, format, tmp_path, capsys):
    error_type, message = ILL_POSED_JOINTS[case]
    path = str(_ill_posed_joint_files(tmp_path)[case])
    results = []
    for verb in ("validate", "run"):
        code = main([verb, path, "--format", format])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == EXIT_ENGINE
    if format == "json":
        assert err == ""
        assert json.loads(out) == {"error": {"type": error_type, "message": message}}
    else:
        assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("setting", [None, "1e-10", "1e-6"])
@pytest.mark.parametrize("format", ["table", "json"])
def test_joint_derived_from_its_pair_validates_and_runs(setting, format, tmp_path, capsys, monkeypatch):
    """An auto-commuting pair whose product joint misses the first
    observable's effects by 1.32 eps in its left marginal."""
    if setting is None:
        monkeypatch.delenv("QCORR_EPS", raising=False)
    else:
        monkeypatch.setenv("QCORR_EPS", setting)
    effects = inexact_commuting_effects(validation_eps())
    doc = {
        "schema": "qcorr/1",
        "name": "derived-joint",
        "mode": "quantum",
        "dim": 4,
        "state": np.diag([0.4, 0.3, 0.2, 0.1]).tolist(),
        "observables": [
            {"labels": ["0", "1"], "effects": [m.tolist() for m in side]} for side in effects
        ],
        "joint": "auto-commuting",
        "decompositions": "spectral",
    }
    path = tmp_path / "derived.json"
    path.write_text(json.dumps(doc))
    for verb in ("validate", "run"):
        assert main([verb, str(path), "--format", format]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
    if format == "json":
        assert json.loads(captured.out)["decompositions"][0]["product_rule_pass"] is True
    else:
        assert "(<1e-07: PASS)" in captured.out


def _edge_scenario(state, kernel_1, kernel_2):
    return {
        "schema": "qcorr/1",
        "name": "edge",
        "mode": "classical",
        "phase_space": ["alpha", "beta"],
        "state": state,
        "observables": [
            {"labels": ["0", "1"], "kernel": kernel_1},
            {"labels": ["0", "1"], "kernel": kernel_2},
        ],
        "joint": "classical-product",
    }


# each input is off by 6e-10 < eps, but the derived sums drift to ~1.2e-9
EDGE_SCENARIOS = {
    "state-and-kernel": (
        _edge_scenario(
            [0.5000000006, 0.5],
            [[0.7000000006, 0.3], [0.3000000006, 0.7]],
            [[1.0, 0.0], [0.0, 1.0]],
        ),
        [0.35, 0.15, 0.15, 0.35],
    ),
    "two-kernels": (
        _edge_scenario(
            [0.5, 0.5],
            [[0.7000000006, 0.3], [0.3, 0.7000000006]],
            [[0.4000000006, 0.6], [0.6, 0.4000000006]],
        ),
        [0.23, 0.27, 0.27, 0.23],
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_SCENARIOS))
def test_valid_inputs_whose_derived_sums_drift_past_eps_run(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QCORR_EPS", raising=False)  # the offsets are set against the default
    doc, joint = EDGE_SCENARIOS[case]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "valid: edge (classical)\n"

    assert main(["run", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "product_rule_residual: 0 (<1e-07: PASS)" in captured.out

    assert main(["run", str(path), "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["measures"]["joint"] == pytest.approx(joint, abs=1e-8)
    assert report["decompositions"][0]["product_rule_pass"] is True


def test_selftest_table(capsys):
    assert main(["selftest", "--seed", "7", "--trials", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "seed: 7" in out
    assert "trials per suite: 5" in out
    assert out.strip().endswith("result: PASS")


def test_selftest_json(capsys):
    assert main(["selftest", "--seed", "7", "--trials", "5", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "qcorr/selftest/1"
    assert doc["seed"] == 7 and doc["passed"] is True
    assert len(doc["suites"]) == 6
    assert all(suite["trials"] == 5 for suite in doc["suites"])


@pytest.mark.parametrize(
    "option, message",
    [
        (["--trials", "0"], "trials must be at least 1, got 0"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
    ],
    ids=["trials-0", "seed-negative"],
)
def test_selftest_rejects_bad_arguments(option, message, capsys):
    assert main(["selftest", *option]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"

    assert main(["selftest", *option, "--format", "json"]) == EXIT_VALIDATION
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"error": {"type": "ValidationError", "message": message}}


def test_parser_is_built_once_and_parses_each_call_afresh():
    parser = _build_parser()
    assert _build_parser() is parser
    first = parser.parse_args(["run", "a.json", "--decomposition", "spectral"])
    second = parser.parse_args(["selftest", "--seed", "3"])
    third = parser.parse_args(["run", "b.json"])
    assert (first.file, first.decomposition) == ("a.json", "spectral")
    assert not hasattr(second, "file") and second.seed == 3
    assert (third.file, third.decomposition, third.format) == ("b.json", None, "table")


def _cli_into_pipe(argv, read_first_line):
    """Run the CLI in a subprocess writing into a pipe that is closed after
    one line (or before any output); return its exit status and stderr."""
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        # a one-page pipe makes a long report block until the reader is gone
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcorr.cli", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        if read_first_line:
            assert reader.readline() == b"{\n"
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err.decode()


def test_closed_pipe_after_one_line_ends_quietly():
    path = str(Path(qcorr.__file__).resolve().parent / "data" / "degenerate.json")
    code, err = _cli_into_pipe(["run", path, "--format", "json"], read_first_line=True)
    assert err == ""
    assert code == EXIT_OK


def test_closed_pipe_keeps_the_error_exit_status(tmp_path):
    missing = str(tmp_path / "missing.json")
    code, err = _cli_into_pipe(["run", missing, "--format", "json"], read_first_line=False)
    assert err == ""
    assert code == EXIT_VALIDATION
