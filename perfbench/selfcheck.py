"""Self-tests of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Two traced runs at the same seed report identical `.calls`.
2. A second seed generates different inputs, and every op still passes.
3. A corrupted reference report makes ops fail.

Exits 0 when all three hold.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scenarios", "selftest", "dsweep")


def bench_line(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])


def calls(line: dict) -> dict:
    return {k: v["value"] for k, v in line["metrics"].items() if k.endswith(".calls")}


def check_calls_repeat() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        first, second = (calls(bench_line(workload, 7, 2, 1)) for _ in range(2))
        if first != second or not first:
            problems.append(f"{workload}: .calls differ between traced runs at one seed")
    return problems


def _fingerprint(op) -> str:
    def plain(value):
        if hasattr(value, "tolist"):
            return value.tolist()
        if isinstance(value, dict):
            return {str(k): plain(v) for k, v in value.items()}
        return value

    return json.dumps([op.kind, plain(op.args)], default=repr)


def check_second_seed() -> list[str]:
    from workloads import WORKLOADS as CLASSES, load_references

    problems = []
    references = load_references()
    for workload in WORKLOADS:
        inputs = [
            [_fingerprint(op) for op in islice(CLASSES[workload](seed, references).ops(1), 6)]
            for seed in (1, 2)
        ]
        if inputs[0] == inputs[1]:
            problems.append(f"{workload}: seeds 1 and 2 generate the same inputs")
        line = bench_line(workload, 2, 3, 0)
        if not line["correct"] or line["failed"]:
            problems.append(f"{workload}: seed 2 has {line['failed']} failing ops")
    return problems


def check_corrupted_reference() -> list[str]:
    import bench
    from workloads import load_references

    references = load_references()
    corrupted = copy.deepcopy(references)
    corrupted["separable.json"]["measures"]["joint"][0] += 1e-3
    problems = []
    for refs, expect_failures in ((references, False), (corrupted, True)):
        tally = bench.Tally()
        workload, _, _ = bench.set_up("scenarios", 3, tally, references=refs)
        bench.measure(workload, 2.0, tally)
        if bool(tally.failed) != expect_failures:
            state = "corrupted" if expect_failures else "stored"
            problems.append(f"scenarios with the {state} references: {tally.failed} failing ops")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    problems = []
    for check in (check_calls_repeat, check_second_seed, check_corrupted_reference):
        found = check()
        print(f"{check.__name__}: {'FAIL' if found else 'PASS'}")
        for problem in found:
            print(f"  {problem}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
