"""Command line front end.

Verbs: `run` a scenario file, `paper-example` for the built-in examples,
`validate` a file and the joint a run would use without running it,
`selftest` for the randomized property suites. Exit status 0 on success, 1
when the input fails validation, 2 when the engine rejects a mathematically
ill-posed request or a property suite fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import QcorrError, ValidationError
from .examples import PAPER_EXAMPLE_IDS, run_paper_example
from .report import _json_text, emit_report
from .scenario import QuantumScenario, _quantum_joint, load_scenario, run_scenario
from .selftest import SelftestReport, run_selftest

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ENGINE = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation decomposition for finite quantum and classical models.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    def add_format(sub):
        sub.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output format (default: table)",
        )

    run = verbs.add_parser("run", help="run a scenario file and print the report")
    run.add_argument("file", help="path to a scenario JSON file")
    run.add_argument(
        "--decomposition",
        metavar="NAME",
        help="report only this decomposition; 'spectral' forces the eigenbasis split",
    )
    add_format(run)

    example = verbs.add_parser(
        "paper-example",
        help="run a built-in example: " + ", ".join(PAPER_EXAMPLE_IDS),
    )
    example.add_argument("id", help="example id")
    example.add_argument(
        "--params",
        metavar="K=V,...",
        help="override example parameters, e.g. w1=0.7,w2=0.3 or a=0.3",
    )
    example.add_argument(
        "--decomposition",
        metavar="NAME",
        help="report only this decomposition; 'spectral' forces the eigenbasis split",
    )
    add_format(example)

    validate = verbs.add_parser("validate", help="check a scenario file and its joint without running it")
    validate.add_argument("file", help="path to a scenario JSON file")
    add_format(validate)

    selftest = verbs.add_parser("selftest", help="run the seeded randomized property suites")
    selftest.add_argument("--seed", type=int, default=None, help="seed to reproduce a run")
    selftest.add_argument(
        "--trials", type=int, default=200, help="trials per suite (default: 200)"
    )
    add_format(selftest)

    return parser


def _parse_params(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    params: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep or not key.strip():
            raise ValidationError(f"malformed parameter {chunk!r}, expected k=v")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ValidationError(f"parameter {key.strip()!r} has non-numeric value {value!r}")
    return params


def _print(text: str) -> None:
    """Print `text` to stdout. Once the reader has closed the pipe, the rest of
    the output goes to the null device, so the run ends without a traceback."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # in-process streams have no descriptor
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _emit_error(exc: QcorrError, format: str) -> None:
    if format == "json":
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _print(_json_text(payload))
    else:
        print(f"error: {exc}", file=sys.stderr)


def _selftest_text(report: SelftestReport) -> str:
    lines = [f"seed: {report.seed}", f"trials per suite: {report.trials}"]
    for suite in report.suites:
        status = "PASS" if suite.passed else f"FAIL ({suite.failures} trials)"
        lines.append(
            f"{suite.name:<32} worst {suite.max_deviation:.3e}"
            f" (tolerance {suite.tolerance:.0e}): {status}"
        )
    lines.append("result: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def _selftest_jsonable(report: SelftestReport) -> dict:
    return {
        "schema": "qcorr/selftest/1",
        "seed": report.seed,
        "trials": report.trials,
        "passed": report.passed,
        "suites": [
            {
                "name": suite.name,
                "trials": suite.trials,
                "failures": suite.failures,
                "max_deviation": suite.max_deviation,
                "tolerance": suite.tolerance,
                "passed": suite.passed,
            }
            for suite in report.suites
        ],
    }


def _run_verb(args) -> int:
    if args.verb == "run":
        scenario = load_scenario(args.file)
        report = run_scenario(scenario, decomposition=args.decomposition)
        _print(emit_report(report, format=args.format))
        return EXIT_OK
    if args.verb == "paper-example":
        report = run_paper_example(
            args.id, params=_parse_params(args.params), decomposition=args.decomposition
        )
        _print(emit_report(report, format=args.format))
        return EXIT_OK
    if args.verb == "validate":
        scenario = load_scenario(args.file)
        if isinstance(scenario, QuantumScenario):
            _quantum_joint(scenario)
        if args.format == "json":
            _print(json.dumps({"valid": True, "name": scenario.name, "mode": scenario.mode}))
        else:
            _print(f"valid: {scenario.name} ({scenario.mode})")
        return EXIT_OK
    report = run_selftest(seed=args.seed, trials=args.trials)
    if args.format == "json":
        _print(_json_text(_selftest_jsonable(report)))
    else:
        _print(_selftest_text(report))
    return EXIT_OK if report.passed else EXIT_ENGINE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run_verb(args)
    except ValidationError as exc:
        _emit_error(exc, args.format)
        return EXIT_VALIDATION
    except QcorrError as exc:
        _emit_error(exc, args.format)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
