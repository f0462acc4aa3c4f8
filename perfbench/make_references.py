"""Write the reference reports of the bundled scenario files.

    python3 perfbench/make_references.py

Each file in perfbench/references is the json report of `qcorr run` on the
bundled file of the same name. The scenarios workload compares its reports
against them, so regenerate them only when the math is meant to change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_DIR, bundled_files, reference_report  # noqa: E402

if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in bundled_files():
        report = reference_report(name)
        (REFERENCE_DIR / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE_DIR / name}")
