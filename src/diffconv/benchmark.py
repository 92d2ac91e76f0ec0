"""Method-comparison benchmark on analytic fields.

For each function order, every method filters the same field with the same
random kernels, and errors are taken against the extended-sampling ground
truth. Per-kernel random streams are keyed by (seed, order, kernel index), so
results are identical no matter how the work is scheduled.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import PaddingScheme, conv2d_padded, partial_conv2d
from .engine import conv2d_diff
from .fields import FieldSpec, RandomKernelSpec, generate, oracle_convolution, random_kernels
from .metrics import l1_error, mse
from .stencils import half_width

METHODS = (
    "diff",
    "zero",
    "reflect",
    "replicate",
    "circular",
    "extrapolate",
    "distribution",
    "partial",
)

CSV_HEADER = "family,order,method,kernel_index,eps1,eps2"


@dataclass(frozen=True)
class BenchmarkConfig:
    family: str
    orders: tuple[int, ...]
    height: int
    width: int
    size: int
    filter_count: int
    seed: int
    methods: tuple[str, ...] = METHODS

    def __post_init__(self):
        half_width(self.size)
        if self.family not in ("chebyshev", "spherical"):
            raise ValueError(
                f"benchmark family must be 'chebyshev' or 'spherical', got {self.family!r}"
            )
        if not self.orders or any(n < 1 for n in self.orders):
            raise ValueError(f"orders must be a non-empty list of integers >= 1, got {self.orders}")
        if self.filter_count < 1:
            raise ValueError(f"filter count must be >= 1, got {self.filter_count}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad or not self.methods:
            raise ValueError(f"unknown methods {bad}; expected a subset of {METHODS}")
        if self.height < self.size or self.width < self.size:
            raise ValueError(
                f"field {self.height}x{self.width} is smaller than the kernel size {self.size}"
            )


def derive_seed(seed: int, order: int, index: int) -> int:
    """Stable 64-bit sub-seed for one (order, kernel) cell of the benchmark."""
    return int(np.random.SeedSequence([seed, order, index]).generate_state(1, np.uint64)[0])


def apply_method(method: str, field, kernel, bank=None, seed: int = 0) -> np.ndarray:
    """Run one boundary-handling method on a field; output keeps the field shape.

    ``bank`` only has its size checked by ``diff``; ``seed`` is only consumed
    by ``distribution``.
    """
    if method == "diff":
        return conv2d_diff(field, kernel, bank=bank)
    if method == "partial":
        return partial_conv2d(field, kernel)
    if method in METHODS:
        return conv2d_padded(field, kernel, PaddingScheme(method, seed))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def run_benchmark(config: BenchmarkConfig, threads: int = 1) -> list[tuple]:
    """Rows of (family, order, method, kernel_index, eps1, eps2).

    Row order is fixed: orders outermost, then methods, then kernel index.
    ``threads`` only parallelizes across kernels; it never changes the output.
    """
    m = half_width(config.size)
    kernels = random_kernels(
        RandomKernelSpec(size=config.size, count=config.filter_count, seed=config.seed)
    )
    rows: list[tuple] = []
    for order in config.orders:
        fld = generate(
            FieldSpec(
                family=config.family,
                height=config.height,
                width=config.width,
                order=order,
                margin=m,
            )
        )
        core = fld.core

        def one_kernel(j: int, order: int = order, fld=fld, core=core) -> dict[str, tuple]:
            ker = kernels[j]
            truth = oracle_convolution(fld, ker)
            # Only distribution padding consumes the seed.
            seed = derive_seed(config.seed, order, j) if "distribution" in config.methods else 0
            out = {}
            for method in config.methods:
                result = apply_method(method, core, ker, seed=seed)
                out[method] = (
                    config.family,
                    order,
                    method,
                    j,
                    l1_error(result, truth),
                    mse(result, truth),
                )
            return out

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                per_kernel = list(pool.map(one_kernel, range(config.filter_count)))
        else:
            per_kernel = [one_kernel(j) for j in range(config.filter_count)]
        for method in config.methods:
            for j in range(config.filter_count):
                rows.append(per_kernel[j][method])
    return rows


def rows_to_csv(rows) -> str:
    """RFC-4180-style CSV with '\\n' line endings and 17-significant-digit floats."""
    lines = [CSV_HEADER]
    for family, order, method, index, eps1, eps2 in rows:
        lines.append(
            f"{family},{order},{method},{index},{format(eps1, '.17g')},{format(eps2, '.17g')}"
        )
    return "\n".join(lines) + "\n"
