"""The benchmark's workloads: seeded inputs, one timed op, and its check.

Each workload yields op descriptors from a seeded generator. Generating an
op's inputs and checking its output happen outside the timed interval; the
timed interval holds only calls into qcorr's public API, looked up through
the module at call time so that a traced run sees them.

- ``scenarios``: one op is one in-process ``qcorr.cli.main`` call, ``run``
  on a bundled file or ``paper-example`` with seeded parameters, in table or
  json format; every (file or example, format) pair comes once per round.
  The interactive path at d = 4, where argument parsing, scenario parsing
  and report printing weigh as much as the linear algebra.
- ``selftest``: one op is one ``run_selftest`` call at 10 trials per suite.
  Thousands of tiny objects per op, so per-object cost dominates; the only
  workload where the classical frame does real work.
- ``dsweep``: one op is one instance at d = 16, 36 or 64 (equal counts, in a
  seeded order): two Haar-rotated factor PVMs, their joint, a random
  full-rank state, and reports for a random 2d-component decomposition and
  for the spectral default. The path bound by linear algebra.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qcorr.cli
import qcorr.correlation
import qcorr.examples
import qcorr.hilbert
import qcorr.measure
import qcorr.observable
import qcorr.selftest
from qcorr.tolerance import PRODUCT_RULE_TOL

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Numbers in a json report must match to this; table cells carry six
# significant digits, so they may differ by half a unit in the sixth.
JSON_TOL = 1e-9
TABLE_REL_TOL = 5e-6


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    index: int
    d: int | None
    kind: str
    args: dict = field(default_factory=dict)


# scenarios ------------------------------------------------------------------


def bundled_files() -> tuple[str, ...]:
    return qcorr.examples.bundled_scenario_names()


def bundled_path(name: str) -> str:
    return str(Path(qcorr.examples.__file__).resolve().parent / "data" / name)


def _example_params(rng: np.random.Generator, example_id: str) -> str | None:
    if example_id in ("i", "ii"):
        weights = rng.dirichlet(np.ones(4)) * 0.96 + 0.01
        return ",".join(f"w{i + 1}={w!r}" for i, w in enumerate(weights.tolist()))
    if example_id == "iii":
        a = float(rng.uniform(0.02, 0.48))
        return f"a={a!r},b={0.5 - a!r}"
    if example_id == "appendix-px":
        return f"w={float(rng.uniform(0.02, 0.98))!r}"
    return None


def scenario_argv(kind: str, fmt: str, params: str | None) -> list[str]:
    if kind.endswith(".json"):
        return ["run", bundled_path(kind), "--format", fmt]
    argv = ["paper-example", kind, "--format", fmt]
    if params is not None:
        argv += ["--params", params]
    return argv


def _scenario_op(index: int, kind: str, fmt: str, params: str | None) -> Op:
    d = None if kind.startswith("classical") else 4
    return Op(index, d, kind, {"format": fmt, "argv": scenario_argv(kind, fmt, params)})


class Scenarios:
    name = "scenarios"
    probe = "small"

    def __init__(self, seed: int, references: dict):
        self.references = references
        self.kinds = bundled_files() + qcorr.examples.PAPER_EXAMPLE_IDS
        self.seed = seed

    def ops(self, stream: int):
        """Rounds of every (kind, format) pair once, each round shuffled, so
        the mix is the same for every seed."""
        rng = np.random.default_rng([self.seed, stream])
        pairs = [(kind, fmt) for kind in self.kinds for fmt in ("table", "json")]
        index = 0
        while True:
            for choice in rng.permutation(len(pairs)).tolist():
                kind, fmt = pairs[choice]
                yield _scenario_op(index, kind, fmt, _example_params(rng, kind))
                index += 1

    def warmup_ops(self):
        rng = np.random.default_rng([self.seed, 0xBEEF])
        return [
            _scenario_op(0, kind, fmt, _example_params(rng, kind))
            for kind in self.kinds
            for fmt in ("table", "json")
        ]

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = qcorr.cli.main(op.args["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> None:
        code, text, err = result
        if code != 0:
            raise CheckFailed(f"{op.kind}: exit code {code}: {err.strip() or text.strip()}")
        reference = self.references.get(op.kind)
        if op.args["format"] == "json":
            doc = json.loads(text)
            check_report(doc)
            if reference is not None:
                compare_reports(doc, reference)
        else:
            check_table(text, reference)


def check_report(doc: dict) -> None:
    """Product rule and rho_t definition in a json report."""
    for block in doc["decompositions"]:
        both = block["classical_correlation"] is not None and block["entanglement"] is not None
        if both and block["product_rule_pass"] is not True:
            raise CheckFailed(f"decomposition {block['name']!r} fails the product rule")
    measures = doc["measures"]
    _check_rho_t(
        measures["joint"], measures["product_of_marginals"], doc["total_correlation"], 0.0
    )


def _check_rho_t(joint, product, rho_t, rel_tol: float) -> None:
    """On the support, rho_t * product_of_marginals equals joint."""
    for point, (j, p, r) in enumerate(zip(joint, product, rho_t)):
        if r is None:
            continue
        expected = r * p
        if abs(expected - j) > JSON_TOL + rel_tol * max(abs(expected), abs(j)):
            raise CheckFailed(f"rho_t * product != joint at point {point}: {expected!r} vs {j!r}")


def _near(actual, expected, rel_tol: float) -> bool:
    if expected is None or actual is None:
        return expected is None and actual is None
    return abs(actual - expected) <= JSON_TOL + rel_tol * abs(expected)


def _compare_values(actual, expected, path: str) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            raise CheckFailed(f"{path}: expected an object")
        for key, value in expected.items():
            if key not in actual:
                raise CheckFailed(f"{path}.{key}: missing")
            _compare_values(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            raise CheckFailed(f"{path}: expected a list of {len(expected)}")
        for index, (a, e) in enumerate(zip(actual, expected)):
            _compare_values(a, e, f"{path}[{index}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            raise CheckFailed(f"{path}: expected a number, got {actual!r}")
        if not _near(actual, expected, 0.0):
            raise CheckFailed(f"{path}: {actual!r} differs from reference {expected!r}")
    elif actual != expected:
        raise CheckFailed(f"{path}: {actual!r} differs from reference {expected!r}")


# Error messages are prose; only whether a density is missing is compared.
_ERROR_KEYS = ("classical_correlation_error", "entanglement_error")


def _math_view(doc: dict) -> dict:
    """The parts of a report that carry the math, as compared to a reference."""
    blocks = []
    for block in doc["decompositions"]:
        view = {k: v for k, v in block.items() if k not in _ERROR_KEYS}
        view.update({k: block.get(k) is not None for k in _ERROR_KEYS})
        blocks.append(view)
    return {
        "mode": doc["mode"],
        "outcomes": doc["outcomes"],
        "measures": doc["measures"],
        "total_correlation": doc["total_correlation"],
        "decompositions": blocks,
    }


def compare_reports(doc: dict, reference: dict) -> None:
    """Numbers within JSON_TOL, everything else equal, on the math view."""
    _compare_values(_math_view(doc), _math_view(reference), "report")


_CELL_SPLIT = re.compile(r"\s{2,}")


def _table_rows(text: str) -> list[tuple[str, list[float | None]]]:
    """(label, cells) for every density or measure row of a table report."""
    rows = []
    for line in text.splitlines():
        parts = _CELL_SPLIT.split(line.strip())
        if len(parts) < 2 or parts[0].startswith(("(", "marginal", "decomposition")):
            continue
        try:
            cells = [None if cell == "—" else float(cell) for cell in parts[1:]]
        except ValueError:
            continue
        rows.append((parts[0], cells))
    return rows


def check_table(text: str, reference: dict | None) -> None:
    """Product rule verdicts, rho_t definition and, for a bundled file, the
    reference numbers, all at the table's printed precision."""
    verdicts = [line for line in text.splitlines() if "product_rule_residual:" in line]
    for line in verdicts:
        if not line.rstrip().endswith("PASS)"):
            raise CheckFailed(f"product rule fails: {line.strip()}")
    rows = _table_rows(text)
    labels = [label for label, _ in rows]
    if labels[:3] != ["joint measure", "product of marginals", "rho_t (total)"]:
        raise CheckFailed(f"unexpected table rows {labels[:3]!r}")
    blocks = [rows[i : i + 3] for i in range(3, len(rows), 3)]
    with_both = sum(
        1
        for _, (_, rho_c), (_, rho_e) in blocks
        if any(c is not None for c in rho_c) and any(c is not None for c in rho_e)
    )
    if with_both != len(verdicts):
        raise CheckFailed(f"{with_both} blocks have both densities, {len(verdicts)} verdicts")
    joint, product, rho_t = (cells for _, cells in rows[:3])
    _check_rho_t(joint, product, rho_t, 3 * TABLE_REL_TOL)
    if reference is None:
        return
    expected = [
        reference["measures"]["joint"],
        reference["measures"]["product_of_marginals"],
        reference["total_correlation"],
    ]
    for block in reference["decompositions"]:
        count = len(reference["outcomes"])
        expected.append(block["classical_product_measure"])
        expected.append(block["classical_correlation"] or [None] * count)
        expected.append(block["entanglement"] or [None] * count)
    if len(rows) != len(expected):
        raise CheckFailed(f"table has {len(rows)} rows, reference {len(expected)}")
    for (label, cells), values in zip(rows, expected):
        if len(cells) != len(values) or not all(
            _near(c, v, TABLE_REL_TOL) for c, v in zip(cells, values)
        ):
            raise CheckFailed(f"row {label!r} {cells!r} differs from reference {values!r}")


def load_references() -> dict:
    return {
        name: json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))
        for name in bundled_files()
    }


def reference_report(name: str) -> dict:
    """The json report of a bundled file, as stored in REFERENCE_DIR."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = qcorr.cli.main(["run", bundled_path(name), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"{name}: exit code {code}")
    return json.loads(out.getvalue())


# selftest -------------------------------------------------------------------

SELFTEST_TRIALS = 10


class Selftest:
    name = "selftest"
    probe = "small"

    def __init__(self, seed: int, references: dict):
        self.seed = seed

    def ops(self, stream: int):
        rng = np.random.default_rng([self.seed, stream])
        index = 0
        while True:
            yield Op(index, None, "run_selftest", {"seed": int(rng.integers(2**32))})
            index += 1

    def warmup_ops(self):
        return [next(self.ops(0xBEEF))]

    def run(self, op: Op):
        return qcorr.selftest.run_selftest(op.args["seed"], trials=SELFTEST_TRIALS)

    def check(self, op: Op, report) -> None:
        if not report.passed:
            failed = [suite.name for suite in report.suites if not suite.passed]
            raise CheckFailed(f"selftest seed {op.args['seed']} fails {failed}")


# dsweep ---------------------------------------------------------------------

DSWEEP_DIMS = (16, 36, 64)
RHO_T_AGREEMENT_TOL = 1e-7


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    ginibre = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _factor_effects(rng: np.random.Generator, dim_a: int, left: bool) -> dict:
    """Rank-one projectors of a Haar basis of one factor, lifted to C^dA (x) C^dA."""
    unitary = _haar_unitary(rng, dim_a)
    eye = np.eye(dim_a, dtype=complex)
    effects = {}
    for index in range(dim_a):
        column = unitary[:, index]
        projector = np.outer(column, column.conj())
        if left:
            effects[f"a{index}"] = np.kron(projector, eye)
        else:
            effects[f"b{index}"] = np.kron(eye, projector)
    return effects


def dsweep_inputs(rng: np.random.Generator, d: int) -> dict:
    dim_a = math.isqrt(d)
    ginibre = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    matrix = ginibre @ ginibre.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    return {
        "effects_1": _factor_effects(rng, dim_a, left=True),
        "effects_2": _factor_effects(rng, dim_a, left=False),
        "state": matrix / np.trace(matrix).real,
        "decomposition_seed": int(rng.integers(2**32)),
    }


class Dsweep:
    name = "dsweep"
    probe = "large"

    def __init__(self, seed: int, references: dict):
        self.seed = seed

    def ops(self, stream: int):
        rng = np.random.default_rng([self.seed, stream])
        index = 0
        while True:
            for d in rng.permutation(DSWEEP_DIMS).tolist():
                yield Op(index, d, f"d{d}", dsweep_inputs(rng, d))
                index += 1

    def warmup_ops(self):
        rng = np.random.default_rng([self.seed, 0xBEEF])
        return [Op(0, d, f"d{d}", dsweep_inputs(rng, d)) for d in DSWEEP_DIMS[:2]]

    def run(self, op: Op):
        args = op.args
        a1 = qcorr.observable.Povm(
            qcorr.measure.OutcomeSpace(tuple(args["effects_1"])), args["effects_1"]
        )
        a2 = qcorr.observable.Povm(
            qcorr.measure.OutcomeSpace(tuple(args["effects_2"])), args["effects_2"]
        )
        joint = qcorr.observable.joint_from_commuting(a1, a2)
        state = qcorr.hilbert.DensityOperator(args["state"])
        rng = np.random.default_rng(args["decomposition_seed"])
        decomposition = qcorr.hilbert.random_decomposition(state, 2 * op.d, rng)
        explicit = qcorr.correlation.correlation_report(joint, a1, a2, decomposition)
        spectral = qcorr.correlation.correlation_report(joint, a1, a2, state)
        return explicit, spectral

    def check(self, op: Op, result) -> None:
        for report in result:
            residual = report.product_rule_residual
            if residual is None or not residual < PRODUCT_RULE_TOL:
                raise CheckFailed(f"d={op.d}: product rule residual {residual!r}")
        explicit, spectral = (report.rho_t.values for report in result)
        if explicit.keys() != spectral.keys():
            raise CheckFailed(f"d={op.d}: rho_t supports differ between decompositions")
        gap = max(abs(explicit[o] - spectral[o]) for o in explicit)
        if not gap <= RHO_T_AGREEMENT_TOL:
            raise CheckFailed(f"d={op.d}: rho_t differs by {gap!r} between decompositions")


WORKLOADS = {cls.name: cls for cls in (Scenarios, Selftest, Dsweep)}
