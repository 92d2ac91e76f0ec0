"""Record the compare workload's reference rows at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.csv.gz: the rows of ``run_benchmark``
with, per (order, kernel) cell, the output scale max|oracle| that the
reference check's tolerance is relative to. Run it only when a change is
meant to move the rows, and say so in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from diffconv import run_benchmark  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    for workload in wl.COMPARE_SIZE_FILTERS:
        config = wl.compare_config(workload, wl.REFERENCE_SEED)
        scales = {}

        def audit(order, j, outputs):
            scales[order, j] = float(np.max(np.abs(outputs[0])))

        replica = wl.replica_run_benchmark(spans.Tracer(), config, audit=audit)
        rows = run_benchmark(config)
        if replica != rows:
            raise SystemExit(f"{workload}: replica rows differ from run_benchmark rows")
        wl.write_reference(workload, rows, scales)
        print(f"{workload}: {len(rows)} rows -> {wl.reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
