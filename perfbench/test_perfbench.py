"""Tests of the benchmark itself: seeded inputs, the traced replica, the span
summary, the reference check and the names it emits."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from diffconv import BenchmarkConfig, rows_to_csv, run_benchmark

import run
import spans
import workloads as wl

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_workload_inputs_are_deterministic_per_seed():
    assert wl.compare_config("compare-k3", 5) == wl.compare_config("compare-k3", 5)
    image_a, kernels_a = wl.filter_inputs(5)
    image_b, kernels_b = wl.filter_inputs(5)
    assert image_a.shape == (wl.FILTER_SIDE, wl.FILTER_SIDE)
    assert np.array_equal(image_a, image_b)
    assert all(np.array_equal(a, b) for a, b in zip(kernels_a, kernels_b))
    assert [k.shape[0] for k in kernels_a] == list(wl.FILTER_SIZES)
    assert not np.array_equal(kernels_a[0], wl.filter_inputs(6)[1][0])
    cold_a, cold_b = wl.cold_inputs(5), wl.cold_inputs(5)
    assert [c[0] for c in cold_a] == list(wl.COLD_SIZES)
    for (_, fld_a, ker_a), (_, fld_b, ker_b) in zip(cold_a, cold_b):
        assert np.array_equal(fld_a.data, fld_b.data)
        assert np.array_equal(ker_a, ker_b)
    assert not np.array_equal(cold_a[0][1].data, wl.cold_inputs(6)[0][1].data)


@pytest.mark.parametrize("size", [3, 5])
def test_replica_equals_run_benchmark_on_tiny_config(size):
    config = BenchmarkConfig(family="chebyshev", orders=(1, 4), height=16, width=12,
                             size=size, filter_count=2, seed=3)
    tr = spans.Tracer()
    with tr.op():
        replica = wl.replica_run_benchmark(tr, config)
    assert rows_to_csv(replica) == rows_to_csv(run_benchmark(config))
    traced = {rec[0] for rec in tr.spans}
    assert traced <= set(spans.LAYERS)
    assert {"engine.conv2d_diff", "engine.conv2d_valid", "baselines.pad",
            "fields.oracle_convolution", "benchmark.derive_seed"} <= traced
    assert wl.row_problems(replica, config) == []


def test_summarize_subtracts_child_time():
    tr = spans.Tracer()
    tr.ops.append(10.0)
    tr.spans.extend([
        ["benchmark.run_benchmark", 1.0, 9.0, -1, 0, 0.0],
        ["engine.conv2d_valid", 2.0, 4.0, 0, 0, 4e9],
        ["engine.conv2d_valid", 5.0, 7.0, 0, 0, 4e9],
    ])
    out = spans.summarize(tr)
    assert out["benchmark.run_benchmark.self_s"] == pytest.approx(4.0)
    assert out["engine.conv2d_valid.calls"] == 2
    assert out["engine.conv2d_valid.self_s"] == pytest.approx(4.0)
    assert out["engine.conv2d_valid.share"] == pytest.approx(0.4)
    assert out["engine.conv2d_valid.gflop_per_s"] == pytest.approx(2.0)
    assert out["trace.unattributed_s"] == pytest.approx(2.0)
    assert out["npyio.load_array.calls"] == 0


def test_reference_check_passes_drift_and_fails_a_wrong_value():
    reference = [("chebyshev", 1, "diff", 0, 1e-3, 2e-6, 50.0),
                 ("chebyshev", 1, "zero", 0, 0.5, 0.4, 50.0)]
    rows = [r[:6] for r in reference]
    assert wl.reference_problems(rows, reference) == []
    drifted = [r[:4] + (r[4] + 1e-14, r[5]) for r in rows]
    assert wl.reference_problems(drifted, reference) == []
    wrong = [rows[0][:4] + (2e-3, rows[0][5]), rows[1]]
    assert wl.reference_problems(wrong, reference)
    reordered = [rows[1], rows[0]]
    assert wl.reference_problems(reordered, reference)


def test_recorded_references_match_their_configs():
    for workload in wl.COMPARE_SIZE_FILTERS:
        config = wl.compare_config(workload, wl.REFERENCE_SEED)
        reference = wl.load_reference(workload)
        assert wl.row_problems([r[:6] for r in reference], config) == []
        assert all(r[6] > 0 for r in reference)


def test_emitted_names_are_declared():
    results = [{"op_steps": [[1.0], [1.2]], "peak_rss_mb": 50.0}]
    e2e = run.end_to_end([0.5, 0.6, 0.7], results)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == declared

    tr = spans.Tracer()
    with tr.op():
        tr.call("engine.conv2d_valid", sum, [1, 2])
    layers = spans.summarize(tr)
    traced = run.per_layer("compare-k3", [{"layers": layers}])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in traced.items()} == declared

    for name in [*e2e, *traced, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert run.WORKLOADS == wl.WORKLOADS


def test_cold_start_layers_are_medians_over_traced_processes():
    def traced(self_s, op_s):
        return {"layers": {"transform.build_bank.self_s": self_s}, "op_steps": [[op_s]]}

    results = [traced(1.0, 2.0), {"op_steps": [[1.5]]}, traced(3.0, 2.4),
               {"op_steps": [[1.7]]}, traced(2.0, 2.2)]
    out = run.per_layer("cold-start", results)
    assert out["transform.build_bank.self_s"]["value"] == 2.0
    assert out["trace.overhead_s"]["value"] == pytest.approx(2.2 - 1.6)
    assert out["npyio.load_array.calls"]["value"] == 0.0


def test_fastest_sums_each_steps_minimum():
    results = [{"op_steps": [[1.0, 5.0], [2.0, 3.0]]}, {"op_steps": [[1.5, 4.0]]}]
    assert run.fastest(results) == 4.0
    assert run.op_totals(results) == [6.0, 5.0, 5.5]


def test_percentile_needs_ten_samples_beyond_it():
    assert run.timing([1.0] * 19, "s")["percentile"] is None
    upper = run.timing([float(v) for v in range(20)], "s")["percentile"]
    assert upper["p"] == 50.0
    assert run.timing([float(v) for v in range(100)], "s")["percentile"]["p"] == 90.0
