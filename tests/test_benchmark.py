import dataclasses

from diffconv import benchmark
from diffconv.benchmark import BenchmarkConfig, run_benchmark


def test_seed_is_derived_once_per_cell_and_only_for_distribution(monkeypatch):
    calls = []
    derive = benchmark.derive_seed

    def counting(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(benchmark, "derive_seed", counting)
    config = BenchmarkConfig(family="chebyshev", orders=(1, 2), height=12, width=12,
                             size=3, filter_count=3, seed=5)
    full = run_benchmark(config)
    assert sorted(calls) == [(5, order, j) for order in (1, 2) for j in range(3)]
    calls.clear()
    subset = run_benchmark(dataclasses.replace(config, methods=("diff", "zero")))
    assert calls == []
    assert subset == [row for row in full if row[2] in ("diff", "zero")]
