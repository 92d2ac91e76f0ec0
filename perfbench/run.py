"""diffconv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload compare-k3 --seed 1 --seconds 40 --trace 0

Runs one workload (see README.md beside this file) from the root of a source
checkout and prints, as the last line on stdout, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it is the full report (environment, every timing's median, upper
percentile and sample count, the workload's own numbers and the recorded
baseline), which is also written to ``.perfbench_out/``.

The work runs in child processes (worker.py), one at a time: a closed loop
with one caller. Each child is timed from its start to its ready line, which
is the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("compare-k3", "filter-1024", "cold-start")

# A run must end within 180 s: no cold-start process beyond the first two is
# started unless one as long as the last would end by SOFT_LIMIT_S, and a
# child still running at HARD_LIMIT_S is killed and the run fails.
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0
# Fresh set-ups timed in an untraced run; setup_s is their median. Set-up
# builds the K = 3 and K = 7 banks in filter-1024 (about 2 s); elsewhere it
# is an interpreter start and input generation, so more samples are cheap.
SETUP_SAMPLES = {"compare-k3": 5, "filter-1024": 3, "cold-start": 5}
COLD_MIN_PROCESSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DIFFCONV_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(job: dict, started: float) -> tuple[float, dict | None]:
    """Start worker.py on ``job``; return its set-up time and its result."""
    deadline = started + HARD_LIMIT_S
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT, bufsize=0,
    )
    pending = bytearray()
    try:
        ready = read_line(proc, pending, deadline)
        setup_s = perf_counter() - t0
        if ready != {"ready": True}:
            raise RunFailed(f"{job['workload']} set-up did not finish")
        result = None if job["role"] == "setup" else read_line(proc, pending, deadline)
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
        if code != 0 or (job["role"] != "setup" and result is None):
            raise RunFailed(f"{job['workload']} worker exited with code {code}")
        return setup_s, result
    except subprocess.TimeoutExpired:
        raise RunFailed("time limit reached") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def read_line(proc, pending: bytearray, deadline: float) -> dict | None:
    """The child's next stdout line as JSON; None at end of output."""
    fd = proc.stdout.fileno()
    while b"\n" not in pending:
        remaining = deadline - perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise RunFailed("time limit reached")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return None
        pending += chunk
    line, _, rest = bytes(pending).partition(b"\n")
    pending[:] = rest
    return json.loads(line)


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[list, list]:
    """Run the workload's processes; return set-up times and child results."""
    started = perf_counter()
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    setups, results = [], []

    def child(role: str, **changes) -> None:
        setup_s, result = run_child(dict(job, role=role, **changes), started)
        setups.append(setup_s)
        if result is not None:
            results.append(result)

    samples = SETUP_SAMPLES[workload]
    if workload != "cold-start":
        # Set-up samples come before and after the measuring process, so
        # that one slow spell of a shared machine does not take them all.
        for _ in range(0 if trace else (samples - 1) // 2):
            child("setup")
        child("measure")
    else:
        # Every operation needs a fresh interpreter: at least
        # COLD_MIN_PROCESSES of them, and more while one more as long as the
        # last still ends within the run. A traced run alternates traced and
        # untraced processes, starting with a traced one.
        last_s = 0.0
        while len(results) < COLD_MIN_PROCESSES or (
                perf_counter() - started + last_s <= min(seconds, SOFT_LIMIT_S)):
            t0 = perf_counter()
            child("cold", trace=int(trace and len(results) % 2 == 0))
            last_s = perf_counter() - t0
    while not trace and len(setups) < samples:
        child("setup")
    return setups, results


def timing(values: list[float], unit: str) -> dict:
    """Median, the highest listed percentile with at least ten samples beyond
    it (None when there are too few samples), the sample count and the
    samples."""
    values = sorted(values)
    n = len(values)
    upper = None
    for per_mille in (999, 990, 950, 900, 750, 500):
        if n * (1000 - per_mille) >= 10 * 1000:
            value = statistics.quantiles(values, n=1000)[per_mille - 1]
            upper = {"p": per_mille / 10, "value": value}
            break
    return {"value": statistics.median(values), "unit": unit, "percentile": upper,
            "samples": n, "values": values}


def source_commit() -> str | None:
    """The checked-out commit, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, baseline: dict, results: list[dict]) -> dict:
    env = child_env()
    return {
        "commit": source_commit(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "caches_at_baseline": baseline.get("environment", {}).get("caches"),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "DIFFCONV_THREADS": env.get("DIFFCONV_THREADS"),
        "seed": seed,
        "load": "closed loop, one caller, one process at a time",
    }


def load_baseline() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def workload_numbers(workload: str, results: list[dict]) -> dict:
    """The workload's own end-to-end numbers, under the names later changes cite."""
    ops = op_totals(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out = {"error_rate": {"value": failed / attempted, "unit": "ratio",
                          "failed": failed, "attempted": attempted}}
    if workload.startswith("compare"):
        out["compare_s"] = timing(ops, "s")
        out["diff_eps1"] = {"value": results[0]["diff_eps1"], "unit": "1"}
    elif workload == "filter-1024":
        for k, values in results[0]["per_size_s"].items():
            out[f"filter_k{k}_ms"] = timing([v * 1e3 for v in values], "ms")
        mib = results[0]["array_mib"]
        out["array_mib"] = {"value": mib, "unit": "MiB", "note": (
            f"each array is {mib:.0f} MiB: more than the 4 MiB L2 per core, less than "
            "4x the 300 MiB shared L3 of the baseline machine, so no bandwidth ratio is "
            "reported")}
    else:
        out["cold_first_call_s"] = timing(ops, "s")
        errs = [r["poly_rel_err"] for r in results if r["poly_rel_err"] is not None]
        out["poly_rel_err"] = {"value": max(errs) if errs else None, "unit": "1"}
        out["first_call_s_by_size"] = [r["op_steps"][0] for r in results]
    return out


def op_totals(results: list[dict]) -> list[float]:
    """Wall time of every operation of the run."""
    return [sum(steps) for r in results for steps in r["op_steps"]]


def fastest(results: list[dict]) -> float:
    """Each step's fastest time in the run, summed over the operation's steps.

    A step is one order's ``run_benchmark`` call (or the closing
    ``rows_to_csv``) of a compare pass, one filter call, or one first call
    of a fresh process. A shared machine has slow spells of many seconds that
    move a run's median by up to half; they only ever add time, and short
    steps find the fast moments inside them, so the sum of each step's
    fastest repeat is what the code costs.
    """
    steps = [steps for r in results for steps in r["op_steps"]]
    return sum(min(times) for times in zip(*steps))


def end_to_end(setups: list[float], results: list[dict]) -> dict:
    """Set-up time, the workload's operation time (a compare pass, a filter
    sweep over both sizes, or the first calls of a fresh process), and the
    measuring processes' peak resident memory."""
    ops = timing(op_totals(results), "s")
    ops["median"] = ops["value"]
    ops["value"] = fastest(results)
    return {
        "setup_s": timing(setups, "s"),
        "op_min_s": ops,
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                        "unit": "MB"},
    }


def per_layer(workload: str, results: list[dict]) -> dict:
    """Each per-layer number's median over the traced processes (one, except
    in cold-start). A cold-start process is one operation, so its tracing
    overhead is the median traced process minus the median untraced one."""
    traced = [r for r in results if "layers" in r]
    layers = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
              for name in spans.per_layer_units()}
    if workload == "cold-start":
        untraced = [sum(r["op_steps"][0]) for r in results if "layers" not in r]
        layers["trace.overhead_s"] = (
            statistics.median(sum(r["op_steps"][0]) for r in traced) - statistics.median(untraced))
    return {name: {"value": float(layers[name]), "unit": unit}
            for name, (unit, _) in spans.per_layer_units().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "diffconv" / "__init__.py").is_file():
        print(f"error: no diffconv source at {ROOT / 'src' / 'diffconv'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups, results = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if any(not r["op_steps"] for r in results):
        print("error: no operation completed", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics = per_layer(args.workload, results)
    else:
        metrics = end_to_end(setups, results)
    baseline = load_baseline()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, baseline, results),
        "metrics": metrics,
        "workload_metrics": workload_numbers(args.workload, results),
        "problems": [p for r in results for p in r["problems"]],
        "baseline": baseline.get("workloads", {}).get(args.workload),
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
