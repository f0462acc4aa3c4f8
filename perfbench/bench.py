"""Set-up, the timed closed loop, the traced run, and the result line."""

from __future__ import annotations

import bisect
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import numpy as np

import qcorr
from tracing import Tracer
from workloads import WORKLOADS, load_references

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if Path(qcorr.__file__).resolve().parent != SRC / "qcorr":
    raise ImportError(f"qcorr imported from {qcorr.__file__}, expected {SRC / 'qcorr'}")

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

# Percentile reported as the tail latency. Each is the highest standard
# level that leaves at least 20 ops beyond it in a 30-second run at the
# slowest rate seen on a 2-core shared host, twice the usual minimum of 10,
# so that the level is fixed and does not depend on how many ops a run got.
TAIL_LEVEL = {"scenarios": 99.0, "selftest": 90.0, "dsweep": 75.0}

# Ops in a traced run per second of --seconds. The count depends only on
# the workload, seed and run length, so `.calls` repeat exactly. One traced
# pass over them takes about a tenth of --seconds; untraced passes over the
# same ops fill the rest and give the base of `trace.overhead`.
TRACE_OPS_PER_SECOND = {"scenarios": 20.0, "selftest": 1.0, "dsweep": 0.4}

# Functions whose time including callees is reported, and the subset whose
# time is also split by the dsweep dimension.
ENTRY_POINTS = (
    "cli.main",
    "scenario.load_scenario",
    "scenario.run_scenario",
    "report.emit_report",
    "examples.build_paper_example",
    "correlation.correlation_report",
    "correlation.classical_product_measure",
    "observable.Povm",
    "observable.joint_from_commuting",
    "hilbert.random_decomposition",
    "selftest.run_selftest",
)
BY_DIMENSION = (
    "observable.Povm",
    "observable.joint_from_commuting",
    "hilbert.random_decomposition",
    "correlation.correlation_report",
)

# The per-layer metrics declared in BENCHMARK.json. Times are listed only
# for names every workload calls; names one workload alone calls are
# listed by their exact call counts. The full table of every called name is
# in the result file.
_COMMON = (
    "hilbert.expectation",
    "hilbert.DensityOperator",
    "hilbert.PureState",
    "hilbert.hermitian_eigenvalues",
    "observable.Povm",
    "observable.outcome_measure",
    "measure.DiscreteMeasure",
    "measure.DensityFunction",
    "measure.product",
    "measure.mix",
    "measure.density",
    "tolerance.validation_eps",
)
_COUNTED = (
    "cli.main",
    "scenario.load_scenario",
    "scenario.run_scenario",
    "scenario.scenario_to_jsonable",
    "report.emit_report",
    "examples.build_paper_example",
    "correlation.correlation_report",
    "correlation.classical_product_measure",
    "observable.joint_from_commuting",
    "hilbert.random_decomposition",
    "hilbert.spectral_decompose",
    "hilbert.ConvexDecomposition",
    "classical_frame.ClassicalObservable",
    "classical_frame.classical_joint",
    "selftest.run_selftest",
)
PER_LAYER = (
    [(f"{name}.{kind}", unit) for name in _COMMON for kind, unit in
     (("calls", "count"), ("self_ms", "ms"))]
    + [(f"{name}.calls", "count") for name in _COUNTED]
    + [
        ("correlation.classical_product_measure.total_ms", "ms"),
        ("observable.joint_from_commuting.total_ms", "ms"),
        ("observable.Povm.total_ms", "ms"),
        ("trace.overhead", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)
END_TO_END = (
    ("throughput", "ops/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# environment ----------------------------------------------------------------


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcorr").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads_in_use() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_stamp(workload: str, seed: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": os.cpu_count(),
    }


# set-up ---------------------------------------------------------------------

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import qcorr; print(time.perf_counter() - start)"
)


def _import_seconds() -> float:
    """Time to import qcorr (and numpy) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout)


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def attempt(self, workload, op):
        """Run one op; return (seconds spent in the op, passed its check)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failing op is counted, the loop goes on
            return self._fail(op, exc, time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        try:
            workload.check(op, result)
        except Exception as exc:
            return self._fail(op, exc, elapsed)
        return elapsed, True

    def _fail(self, op, exc: Exception, elapsed: float):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"op {op.index} ({op.kind}): {type(exc).__name__}: {exc}")
        return elapsed, False


# reference speed -------------------------------------------------------------

# A shared host's speed drifts by tens of percent over seconds. A fixed job
# that does not touch qcorr is timed between ops to track that drift, and
# every time reported is scaled to a machine on which that job takes
# REFERENCE_PROBE_S. The job resembles the workload's ops: many tiny numpy
# calls for the d = 4 workloads, 64x64 complex linear algebra for dsweep,
# because the drift slows those two kinds of code by different amounts.
# Raw wall times go to the result file.
REFERENCE_PROBE_S = 0.005
PROBE_EVERY_S = 0.05  # op time between two probe samples
PROBE_NEIGHBOURS = 5  # samples nearest an op that give its scale
_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.normal(size=(8, 8))
_PROBE_SMALL = _PROBE_SMALL + _PROBE_SMALL.T
_PROBE_LARGE = _PROBE_RNG.normal(size=(64, 64)) + 1j * _PROBE_RNG.normal(size=(64, 64))
_PROBE_LARGE = _PROBE_LARGE + _PROBE_LARGE.conj().T


def _probe_small() -> None:
    for _ in range(220):
        np.linalg.eigvalsh(_PROBE_SMALL)
        np.max(np.abs(_PROBE_SMALL @ _PROBE_SMALL - _PROBE_SMALL))


def _probe_large() -> None:
    for _ in range(9):
        np.linalg.eigvalsh(_PROBE_LARGE)
        np.trace(_PROBE_LARGE @ _PROBE_LARGE).real


PROBES = {"small": _probe_small, "large": _probe_large}


class Speed:
    """Probe samples taken during a run, and the scale they give each op."""

    def __init__(self, probe: str):
        self._probe = PROBES[probe]
        self.times: list[float] = []
        self.samples: list[float] = []
        self._since = 0.0
        self._probe()  # first call pays one-off costs

    def sample(self) -> None:
        start = time.perf_counter()
        self._probe()
        self.times.append(time.perf_counter())
        self.samples.append(self.times[-1] - start)
        self._since = 0.0

    def after_op(self, elapsed: float) -> None:
        self._since += elapsed
        if self._since >= PROBE_EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_PROBE_S over the median of the samples nearest `at`."""
        index = bisect.bisect(self.times, at)
        low = max(0, min(index - PROBE_NEIGHBOURS // 2, len(self.samples) - PROBE_NEIGHBOURS))
        return REFERENCE_PROBE_S / statistics.median(self.samples[low : low + PROBE_NEIGHBOURS])

    def overall_scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def set_up(name: str, seed: int, tally: Tally, references: dict | None = None):
    """Import timing, inputs and warm-up, SETUP_REPEATS times.

    Returns the workload object of the last repeat, the median scaled
    set-up time and the median raw one. `references` replaces the stored
    reference reports when given.
    """
    raw, scaled = [], []
    speed = None
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        start = time.perf_counter()
        refs = references if references is not None else load_references()
        workload = WORKLOADS[name](seed, refs)
        for op in workload.warmup_ops():
            tally.attempt(workload, op)
        raw.append(import_s + time.perf_counter() - start)
        speed = speed or Speed(workload.probe)
        for _ in range(PROBE_NEIGHBOURS):
            speed.sample()
        scaled.append(raw[-1] * speed.scale(speed.times[-1]))
    return workload, statistics.median(scaled), statistics.median(raw)


# measurement ----------------------------------------------------------------


def tail(latencies: list[float], level: float) -> tuple[float, int]:
    """The `level` percentile and the number of ops above it."""
    value = float(np.percentile(latencies, level))
    return value, sum(1 for latency in latencies if latency > value)


def _by_dimension(latencies, dims) -> dict:
    grouped: dict = {}
    for latency, d in zip(latencies, dims):
        if d is not None:
            grouped.setdefault(d, []).append(latency)
    return {d: statistics.median(values) for d, values in sorted(grouped.items())}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, ops, tally: Tally, seconds: float | None = None, tracer=None):
    """Run ops until the iterator ends or `seconds` pass.

    Returns the scaled time, raw time and dimension of each op, and the
    probe samples.
    """
    speed = Speed(workload.probe)
    speed.sample()
    raw, ends, dims = [], [], []
    stop = time.perf_counter() + seconds if seconds is not None else math.inf
    for op in ops:
        if tracer is not None:
            tracer.op = op.index
        elapsed, _ = tally.attempt(workload, op)
        raw.append(elapsed)
        ends.append(time.perf_counter())
        dims.append(op.d)
        speed.after_op(elapsed)
        if ends[-1] >= stop:
            break
    speed.sample()
    scaled = [elapsed * speed.scale(end) for elapsed, end in zip(raw, ends)]
    return scaled, raw, dims, speed


def measure(workload, seconds: float, tally: Tally) -> dict:
    latencies, raw, dims, speed = run_ops(workload, workload.ops(1), tally, seconds)
    level = TAIL_LEVEL[workload.name]
    tail_s, beyond = tail(latencies, level)
    return {
        "metrics": {
            "throughput": len(latencies) / math.fsum(latencies),
            "latency_ms.p50": 1e3 * statistics.median(latencies),
            "latency_ms.tail": 1e3 * tail_s,
        },
        "details": {
            "ops": len(latencies),
            "tail_percentile": level,
            "ops_beyond_tail": beyond,
            "latency_ms.p50_by_d": {
                f"d{d}": 1e3 * value for d, value in _by_dimension(latencies, dims).items()
            },
            "raw": {
                "throughput": len(raw) / math.fsum(raw),
                "latency_ms.p50": 1e3 * statistics.median(raw),
                "latency_ms.tail": 1e3 * tail(raw, level)[0],
            },
            "probe_ms.p50": 1e3 * statistics.median(speed.samples),
            "probe_samples": len(speed.samples),
        },
    }


def trace_op_count(name: str, seconds: float) -> int:
    count = max(1, math.ceil(seconds * TRACE_OPS_PER_SECOND[name]))
    if name == "dsweep":
        count = 3 * math.ceil(count / 3)
    return count


def traced(workload, name: str, seconds: float, tally: Tally, out_dir: Path, seed: int) -> dict:
    """Run a fixed op list traced once and untraced until `seconds` pass;
    return per-layer metrics."""
    stop = time.perf_counter() + seconds
    ops = list(islice(workload.ops(2), trace_op_count(name, seconds)))
    untraced_s, _, dims, _ = run_ops(workload, ops, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_raw, _, speed = run_ops(workload, ops, tally, tracer=tracer)
    finally:
        tracer.uninstall()
    passes = [math.fsum(untraced_s)]
    while time.perf_counter() + statistics.median(passes) < stop:
        more = run_ops(workload, ops, tally)[0]
        untraced_s += more
        passes.append(math.fsum(more))
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(out_dir / f"spans-{name}-{seed}.jsonl", name, dims)

    calls, self_s, total_s, total_by_d, top_level_s = tracer.summarize(dims)
    count = len(ops)
    ms = 1e3 * speed.overall_scale()
    table = {}
    for name_id, layer_name in enumerate(tracer.names):
        if calls[name_id]:
            table[f"{layer_name}.calls"] = calls[name_id] / count
            table[f"{layer_name}.self_ms"] = ms * self_s[name_id] / count
            if layer_name in ENTRY_POINTS:
                table[f"{layer_name}.total_ms"] = ms * total_s[name_id] / count
    ops_by_d = {d: dims.count(d) for d in set(dims) if d is not None}
    by_d = {
        f"{tracer.names[name_id]}.total_ms.d{d}": ms * spent / ops_by_d[d]
        for (name_id, d), spent in total_by_d.items()
        if d in ops_by_d and tracer.names[name_id] in BY_DIMENSION
    }
    table.update(sorted(by_d.items()))
    for d, value in _by_dimension(untraced_s, dims * len(passes)).items():
        table[f"latency_ms.p50.d{d}"] = 1e3 * value
    table["trace.overhead"] = math.fsum(traced_s) / statistics.median(passes) - 1.0
    table["trace.coverage"] = top_level_s / math.fsum(traced_raw)
    metrics = {metric: table.get(metric, 0.0) for metric, _ in PER_LAYER}
    details = {"ops": count, "untraced_passes": len(passes), "spans": len(tracer.spans)}
    return {"metrics": metrics, "details": {**details, "table": table}}


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    tally = Tally()
    workload, setup_s, setup_raw_s = set_up(name, seed, tally)
    if trace:
        part = traced(workload, name, seconds, tally, out_dir, seed)
        units = dict(PER_LAYER)
    else:
        part = measure(workload, seconds, tally)
        part["metrics"]["setup_s"] = setup_s
        part["metrics"]["peak_rss_mb"] = _peak_rss_mb()
        units = dict(END_TO_END)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": part["metrics"][metric], "unit": unit} for metric, unit in units.items()
        },
    }
    details = {
        "stamp": environment_stamp(name, seed, trace),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "failures": tally.messages,
        **part["details"],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    side_file = out_dir / f"result-{name}-{seed}-trace{int(trace)}.json"
    side_file.write_text(json.dumps({"result": result, "details": details}, indent=2) + "\n")
    return {"result": result, "details": details}


def print_result(outcome: dict) -> None:
    details = outcome["details"]
    print("stamp: " + json.dumps(details["stamp"]))
    for message in details["failures"]:
        print("failure: " + message)
    if "tail_percentile" in details:
        print(
            f"latency_ms.tail is p{details['tail_percentile']:g} of {details['ops']} ops,"
            f" {details['ops_beyond_tail']} beyond it"
        )
        for key, value in details["latency_ms.p50_by_d"].items():
            print(f"latency_ms.p50.{key}: {value:.4f}")
    for key, value in details.get("table", {}).items():
        print(f"{key}: {value:.6g}")
    print(json.dumps(outcome["result"]))
