import dataclasses

from diffconv import benchmark
from diffconv.benchmark import (
    BenchmarkConfig,
    apply_method,
    derive_seed,
    rows_to_csv,
    run_benchmark,
)
from diffconv.fields import FieldSpec, RandomKernelSpec, generate, oracle_convolution, random_kernels
from diffconv.metrics import l1_error, mse
from diffconv.stencils import half_width


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


def full_per_cell_rows(config):
    # The definition: every method's full apply_method output against the
    # full oracle, cell by cell.
    m = half_width(config.size)
    kernels = random_kernels(
        RandomKernelSpec(size=config.size, count=config.filter_count, seed=config.seed)
    )
    rows = []
    for order in config.orders:
        fld = generate(FieldSpec(family=config.family, height=config.height,
                                 width=config.width, order=order, margin=m))
        cells = {}
        for j, ker in enumerate(kernels):
            truth = oracle_convolution(fld, ker)
            seed = derive_seed(config.seed, order, j)
            for method in config.methods:
                out = apply_method(method, fld.core, ker, seed=seed)
                cells[method, j] = (config.family, order, method, j,
                                    l1_error(out, truth), mse(out, truth))
        rows.extend(cells[method, j]
                    for method in config.methods for j in range(config.filter_count))
    return rows


def test_rows_equal_full_per_cell_definition():
    base = BenchmarkConfig(family="chebyshev", orders=(1, 4), height=23, width=31,
                           size=3, filter_count=3, seed=17)
    configs = [
        *(dataclasses.replace(base, size=k, family=family)
          for k in (3, 5, 7, 9) for family in ("chebyshev", "spherical")),
        dataclasses.replace(base, size=5, height=5, width=5),
        dataclasses.replace(base, size=9, height=9, width=9, family="spherical"),
        dataclasses.replace(base, size=7, methods=("partial", "distribution", "diff")),
        dataclasses.replace(base, methods=("partial", "diff", "zero", "partial", "diff")),
    ]
    for config in configs:
        expected = full_per_cell_rows(config)
        rows = run_benchmark(config)
        assert rows == expected, config
        assert rows_to_csv(rows) == rows_to_csv(expected), config
