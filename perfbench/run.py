"""qcorr benchmark: one client in a closed loop over one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times ops for ``--seconds`` seconds with no wrappers
installed and prints the end-to-end metrics. With ``--trace 1`` it runs a
fixed, seed-determined list of ops twice, first untraced and then with every
layer's public functions wrapped (see tracing.py), prints the per-layer
metrics, and writes the spans as JSON lines under ``perfbench/out``.

Every reported time is scaled to a reference speed: a fixed job that does
not touch qcorr is timed between ops, and each op's time is multiplied by
5 ms over that job's time near it (see bench.Speed). On a shared host this
removes most of the run-to-run drift; the raw wall times are kept in the
result file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the environment stamp and the details behind the metrics; the same
details go to ``perfbench/out/result-<workload>-<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# The launcher fixes the BLAS thread count before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scenarios", "selftest", "dsweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"qcorr sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    bench.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
