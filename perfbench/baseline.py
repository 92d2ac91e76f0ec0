"""Summarize the untraced runs in .perfbench_out/ into perfbench/baseline.json.

    python3 perfbench/baseline.py --caches "L2 4 MiB per core, L3 300 MiB shared"

For every workload and every number a run reports (the end-to-end metrics and
the workload's own ones), records the median and quartiles over the runs'
values, with the seeds, commit and environment they came from. run.py prints
the recorded entry beside each new run's numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--caches", required=True,
                        help="cache sizes of the machine the runs were made on")
    args = parser.parse_args()
    reports = [json.loads(p.read_text()) for p in sorted(OUT_DIR.glob("report-*-trace0.json"))]
    if not reports:
        raise SystemExit(f"no untraced reports in {OUT_DIR}")
    workloads = {}
    for workload in sorted({r["workload"] for r in reports}):
        runs = [r for r in reports if r["workload"] == workload]
        values: dict[str, list[float]] = {}
        for r in runs:
            numbers = {**r["metrics"], **r["workload_metrics"]}
            for name, metric in numbers.items():
                if isinstance(metric, dict) and isinstance(metric.get("value"), (int, float)):
                    values.setdefault(name, []).append(metric["value"])
        workloads[workload] = {
            "seeds": sorted(r["seed"] for r in runs),
            "seconds": sorted({r["seconds"] for r in runs}),
            "metrics": {name: summary(v) for name, v in values.items() if len(v) >= 2},
        }
    env = dict(reports[0]["environment"])
    env.pop("seed", None)
    env.pop("caches_at_baseline", None)
    env["caches"] = args.caches
    baseline = {"environment": env, "workloads": workloads}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"{len(reports)} runs -> {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
