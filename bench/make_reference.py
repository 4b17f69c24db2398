"""Regenerate ``bench/reference.json``, the exact outputs the checks compare to.

The stored file was generated once from the commit that added the
benchmark.  The values are free of random numbers: they are the same for
every seed.  Regenerate only if a change to the program is meant to change
them, and say so in that change.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import os

# The same pinned environment as the benchmark's own runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import REFERENCE, WORKLOADS, csv_rows  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracelab.cli as cli

    work = ROOT / ".bench_out" / "reference"
    try:
        if cli.run(WORKLOADS["sweep_t11"].argv(0, work)) != 0:
            print("error: sweep_t11 failed", file=sys.stderr)
            return 1
        columns, rows = csv_rows(work / "sweep.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {"sweep_t11": {"columns": columns, "rows": rows}}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
