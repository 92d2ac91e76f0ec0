"""One benchmark process: set up a workload, say so, then measure it.

run.py starts this script with a JSON job as its only argument and times it
from the start of the process to the line ``{"ready": true}`` on stdout; that
interval is the workload's set-up. A ``setup`` job exits there. Other jobs
then measure and print one JSON result line. The program under test prints
nothing on stdout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from diffconv import (  # noqa: E402
    METHODS,
    ArrayFileError,
    BenchmarkConfig,
    FieldSpec,
    RandomKernelSpec,
    apply_method,
    build_bank,
    conv2d_diff,
    conv2d_valid,
    generate,
    half_width,
    invert_center_matrix,
    load_array,
    oracle_convolution,
    rows_to_csv,
    run_benchmark,
    random_kernels,
    save_array,
)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

# Minimum timed operations in one measuring process, whatever --seconds says:
# a filter sweep takes seconds, and each call's fastest repeat should come
# from more than one stretch of time.
MIN_OPS = 3
FRAME_PROBE_REPS = {"compare-k3": 9, "filter-1024": 5, "cold-start": 9}


class Gate:
    """Counts operations and the ones that failed a check or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{what}: {p}" for p in problems)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run ``fn``; a raise counts as a failed operation and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, reported
            self.record(what, [f"raised {exc!r}"])
            return None


def ready() -> None:
    print(json.dumps({"ready": True}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def frame_probe(field, kernel, reps: int) -> float:
    """Median conv2d_diff time minus median conv2d_valid time, same inputs."""
    bank = build_bank(kernel)
    diff_t, valid_t = [], []
    for _ in range(reps):
        t0 = perf_counter()
        conv2d_diff(field, kernel, bank=bank)
        t1 = perf_counter()
        conv2d_valid(field, kernel)
        t2 = perf_counter()
        diff_t.append(t1 - t0)
        valid_t.append(t2 - t1)
    return statistics.median(diff_t) - statistics.median(valid_t)


def min_ops(job: dict) -> int:
    """Timed operations at least: a traced run pairs one traced operation
    with one untraced operation."""
    return 1 if job["trace"] else MIN_OPS


def another(done: int, job: dict, deadline: float, last_s: float) -> bool:
    """Whether to time one more operation: while fewer than the minimum are
    done, or while one more as long as the last still ends by the deadline."""
    return done < min_ops(job) or perf_counter() + last_s <= deadline


def trace_result(tr: spans.Tracer, job: dict, untraced: list[float] | None, extra: dict) -> dict:
    """Write the spans out and summarize them. The tracing overhead is the
    median traced operation minus the median untraced one, when this process
    timed both."""
    tr.write(OUT_DIR / f"spans-{job['workload']}-seed{job['seed']}-{os.getpid()}.jsonl")
    layers = spans.summarize(tr)
    traced = tr.ops
    if untraced:
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layers.update(extra)
    return {"layers": layers, "traced_op_s": traced}


# compare-k3 -------------------------------------------------------------------

def setup_compare(job: dict) -> dict:
    config = wl.compare_config(job["workload"], job["seed"])
    # A one-cell pass of the same path builds the size's bank and touches
    # every method once.
    warm = BenchmarkConfig(family=config.family, orders=(1,), height=16, width=16,
                           size=config.size, filter_count=1, seed=job["seed"])
    rows_to_csv(run_benchmark(warm))
    return {"config": config}


def compare_pass(per_order: list) -> tuple[list, str, list[float]]:
    """One compare pass made of one ``run_benchmark`` call per order, which
    gives the same rows as a single call; each call and the final
    ``rows_to_csv`` are timed as separate steps."""
    rows, steps = [], []
    for config in per_order:
        t0 = perf_counter()
        rows.extend(run_benchmark(config))
        steps.append(perf_counter() - t0)
    t0 = perf_counter()
    text = rows_to_csv(rows)
    steps.append(perf_counter() - t0)
    return rows, text, steps


def traced_compare_pass(tr: spans.Tracer, config) -> str:
    with tr.op():
        rows = wl.replica_run_benchmark(tr, config)
        return tr.call("benchmark.rows_to_csv", rows_to_csv, rows)


def measure_compare(job: dict, state: dict, gate: Gate) -> dict:
    config = state["config"]
    workload = job["workload"]
    deadline = perf_counter() + job["seconds"]
    # The reference pass comes first: it is the check at the default seed and
    # the warm-up of the timed passes.
    ref_config = wl.compare_config(workload, wl.REFERENCE_SEED)
    t0 = perf_counter()
    ref = gate.attempt("reference pass", run_benchmark, ref_config)
    last_s = perf_counter() - t0
    if ref is not None:
        gate.record("reference pass", wl.row_problems(ref, ref_config)
                    + wl.reference_problems(ref, wl.load_reference(workload)))
    tr = spans.Tracer() if job["trace"] else None
    per_order = [dataclasses.replace(config, orders=(order,)) for order in config.orders]
    samples, rows, passes = [], None, 0
    while another(passes, job, deadline, last_s):
        passes += 1
        t0 = perf_counter()
        if tr is not None:
            traced_csv = gate.attempt("traced compare pass", traced_compare_pass, tr, config)
        done = gate.attempt("compare pass", compare_pass, per_order)
        last_s = perf_counter() - t0
        if done is None:
            continue
        rows, text, steps = done
        samples.append(steps)
        problems = wl.row_problems(rows, config)
        if tr is not None and traced_csv != text:
            problems.append("traced replica rows differ from run_benchmark rows")
        gate.record("compare pass", problems)
    result = {"op_steps": samples,
              "diff_eps1": wl.diff_eps1(rows) if rows else None}
    if tr is None:
        return result
    agreement = wl.Agreement()
    m = half_width(config.size)

    def audit(order, j, outputs):
        for out in outputs:
            agreement.include(out)
        agreement.close_cell(m)

    wl.replica_run_benchmark(spans.Tracer(), config, audit=audit)
    gate.record("interior agreement", agreement.problems)
    fld = generate(FieldSpec(family=config.family, height=config.height, width=config.width,
                             order=config.orders[-1]))
    kernel = random_kernels(RandomKernelSpec(size=config.size, count=1, seed=config.seed))[0]
    extra = {
        "engine.conv2d_diff.frame_s": frame_probe(fld.data, kernel, FRAME_PROBE_REPS[workload]),
        "benchmark.useful_pixel_share": agreement.useful_share,
    }
    result.update(trace_result(tr, job, [sum(s) for s in samples], extra))
    return result


# filter-1024 ------------------------------------------------------------------

def setup_filter(job: dict, workdir: Path) -> dict:
    image, kernels = wl.filter_inputs(job["seed"])
    path = workdir / "input.npy"
    save_array(path, image)
    # Build both sizes' banks and touch every method once on a small crop.
    for kernel in kernels:
        for method in METHODS:
            apply_method(method, image[:16, :16], kernel, bank=None, seed=job["seed"])
    return {"image": image, "kernels": kernels, "input": path, "output": workdir / "output.npy"}


def filter_call(state, method, kernel, seed, tr):
    """One `diffconv filter` call: load, filter, save. Traced when ``tr`` is set."""
    if tr is None:
        image = load_array(state["input"])
        out = apply_method(method, image, kernel, bank=None, seed=seed)
        save_array(state["output"], out)
        return out
    nbytes = os.path.getsize(state["input"])
    image = tr.call("npyio.load_array", load_array, state["input"], work=nbytes)
    out = wl.traced_apply(tr, method, image, kernel, None, seed)
    tr.call("npyio.save_array", save_array, state["output"], out, work=nbytes)
    return out


def filter_sweep(state, job, gate, valid, digests, tr=None, agreements=None) -> list[float]:
    """All methods at each kernel size, each call checked after it is timed;
    returns the seconds of each call. Traced, the sweep is one operation."""
    op = tr.new_op() if tr is not None else None
    steps = []
    shape = state["image"].shape
    for kernel in state["kernels"]:
        k = kernel.shape[0]
        m = half_width(k)
        for method in METHODS:
            what = f"filter K={k} {method}"
            t0 = perf_counter()
            with tr.op(op) if tr is not None else contextlib.nullcontext():
                out = gate.attempt(what, filter_call, state, method, kernel, job["seed"], tr)
            steps.append(perf_counter() - t0)
            if out is None:
                continue
            problems = wl.output_problems(out, shape)
            if not problems:
                problems = wl.interior_problems(out, valid[k], m)
                try:
                    saved = load_array(state["output"])
                except ArrayFileError as exc:
                    problems.append(f"saved file does not load: {exc}")
                else:
                    if not wl.same_bits(saved, out).all():
                        problems.append("saved file differs from the returned array")
            if digests is not None:
                digest = hash(out.tobytes())
                if digests.setdefault((k, method), digest) != digest:
                    problems.append("traced and untraced outputs differ")
            if agreements is not None:
                agreements[k].include(out)
            gate.record(what, problems)
        if agreements is not None:
            agreements[k].close_cell(m)
    return steps


def measure_filter(job: dict, state: dict, gate: Gate) -> dict:
    valid = {kernel.shape[0]: conv2d_valid(state["image"], kernel) for kernel in state["kernels"]}
    deadline = perf_counter() + job["seconds"]
    sweeps = []
    tr = spans.Tracer() if job["trace"] else None
    digests = {} if tr is not None else None
    agreements = {kernel.shape[0]: wl.Agreement() for kernel in state["kernels"]}
    last_s = 0.0
    while another(len(sweeps), job, deadline, last_s):
        t0 = perf_counter()
        sweeps.append(filter_sweep(state, job, gate, valid, digests))
        if tr is not None:
            filter_sweep(state, job, gate, valid, digests, tr, agreements)
        last_s = perf_counter() - t0
    n = len(METHODS)
    result = {"op_steps": sweeps,
              "array_mib": state["image"].nbytes / 2**20,
              "per_size_s": {str(kernel.shape[0]): [sum(s[i * n:(i + 1) * n]) for s in sweeps]
                             for i, kernel in enumerate(state["kernels"])}}
    if tr is None:
        return result
    useful = [a.useful_share for a in agreements.values()]
    for a in agreements.values():
        gate.record("interior agreement", a.problems)
    extra = {
        "engine.conv2d_diff.frame_s": frame_probe(state["image"], state["kernels"][-1],
                                                  FRAME_PROBE_REPS[job["workload"]]),
        "benchmark.useful_pixel_share": statistics.mean(useful),
    }
    result.update(trace_result(tr, job, [sum(s) for s in sweeps], extra))
    return result


# cold-start -------------------------------------------------------------------

def cold_call(k: int, fld, kernel, tr):
    """The first conv2d_diff for size ``k``. Traced, the cold work it does is
    split into its layers by making the same calls one by one."""
    if tr is None:
        return conv2d_diff(fld.core, kernel)
    tr.call("stencils.invert_center_matrix", invert_center_matrix, k)
    bank = tr.call("transform.build_bank", build_bank, kernel)
    return tr.call("engine.conv2d_diff", conv2d_diff, fld.core, kernel, bank=bank)


def measure_cold(job: dict, state: dict, gate: Gate) -> dict:
    """First conv2d_diff per size in this fresh process, then the checks.

    A traced process is one traced operation; run.py compares it with an
    untraced process for the tracing overhead.
    """
    cases = state["cases"]
    tr = spans.Tracer() if job["trace"] else None
    outputs, first_call = [], []
    with tr.op() if tr is not None else contextlib.nullcontext():
        for k, fld, kernel in cases:
            t0 = perf_counter()
            outputs.append(gate.attempt(f"cold K={k}", cold_call, k, fld, kernel, tr))
            first_call.append(perf_counter() - t0)
    rel_errs = []
    for (k, fld, kernel), out in zip(cases, outputs):
        if out is None:
            continue
        problems = wl.output_problems(out, fld.core.shape)
        if not problems:
            problems = wl.interior_problems(out, conv2d_valid(fld.core, kernel), half_width(k))
            truth = oracle_convolution(fld, kernel)
            rel = float(np.max(np.abs(out - truth)) / np.max(np.abs(truth)))
            rel_errs.append(rel)
            if not rel <= wl.POLY_REL_ERR_MAX:
                problems.append(f"polynomial field error {rel:.3g} exceeds {wl.POLY_REL_ERR_MAX}")
        gate.record(f"cold K={k}", problems)
    result = {"op_steps": [first_call],
              "poly_rel_err": max(rel_errs) if rel_errs else None}
    if tr is not None:
        k, fld, kernel = cases[-1]
        probe = frame_probe(fld.core, kernel, FRAME_PROBE_REPS["cold-start"])
        result.update(trace_result(tr, job, None, {"engine.conv2d_diff.frame_s": probe}))
    return result


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    workload = job["workload"]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if workload in wl.COMPARE_SIZE_FILTERS:
            state = setup_compare(job)
            measure = measure_compare
        elif workload == "filter-1024":
            state = setup_filter(job, Path(tmp))
            measure = measure_filter
        else:
            state = {"cases": wl.cold_inputs(job["seed"])}
            measure = measure_cold
        ready()
        if job["role"] == "setup":
            return 0
        gate = Gate()
        result = measure(job, state, gate)
    result.update({
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "peak_rss_mb": peak_rss_mb(),
        "numpy": np.__version__,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
