"""The three benchmark workloads: seeded inputs, the traced replica of the
compare path, and the checks every output must pass.

Inputs depend only on the workload seed. The program receives the generated
fields and kernels (for `compare-k3`, the seeded configuration from
which ``run_benchmark`` draws them).
"""

from __future__ import annotations

import gzip
from pathlib import Path

import numpy as np

from diffconv import (
    BenchmarkConfig,
    FieldSpec,
    PaddingScheme,
    RandomKernelSpec,
    build_bank,
    conv2d_diff,
    conv2d_valid,
    derive_seed,
    generate,
    half_width,
    l1_error,
    mse,
    oracle_convolution,
    pad,
    partial_conv2d,
    random_kernels,
)

WORKLOADS = ("compare-k3", "filter-1024", "cold-start")

# compare-k3 is `diffconv compare` at its defaults: kernel size 3, 100 filters.
COMPARE_SIZE_FILTERS = {"compare-k3": (3, 100)}
REFERENCE_SEED = 0  # the `diffconv compare` default
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_HEADER = "family,order,method,kernel_index,eps1,eps2,scale"
# Reference errors may move by this share of the output's scale (and of its
# square for eps2): reordered float sums pass, a wrong boundary value fails.
REFERENCE_RTOL = 1e-9

FILTER_SIDE = 1024
FILTER_ORDER = 10
FILTER_SIZES = (3, 7)

COLD_SIDE = 64
# K = 9 is left out: its first call alone takes 9-14 s, so a run holds only
# two or three fresh processes and their fastest varied by a quarter.
COLD_SIZES = (3, 5, 7)
# conv2d_diff reproduces per-axis degree-(K-1) polynomials up to rounding,
# which the boundary gain lifts to far below this share of the output's
# scale (about 1e-8 at K = 9); a wrong boundary kernel gives errors of order
# one.
POLY_REL_ERR_MAX = 1e-6


def compare_config(workload: str, seed: int) -> BenchmarkConfig:
    size, filters = COMPARE_SIZE_FILTERS[workload]
    return BenchmarkConfig(
        family="chebyshev",
        orders=tuple(range(1, 11)),
        height=128,
        width=128,
        size=size,
        filter_count=filters,
        seed=seed,
    )


def filter_inputs(seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The 1024^2 chebyshev order-10 image and one seeded kernel per size."""
    image = generate(
        FieldSpec(family="chebyshev", height=FILTER_SIDE, width=FILTER_SIDE, order=FILTER_ORDER)
    ).data
    kernels = [random_kernels(RandomKernelSpec(size=k, count=1, seed=seed))[0]
               for k in FILTER_SIZES]
    return image, kernels


def cold_inputs(seed: int) -> list[tuple[int, object, np.ndarray]]:
    """(K, margined polynomial field of per-axis degree K-1, kernel) per size."""
    cases = []
    for k in COLD_SIZES:
        coeffs = np.random.default_rng([seed, k]).uniform(-1.0, 1.0, size=(k, k))
        fld = generate(FieldSpec(family="polynomial", height=COLD_SIDE, width=COLD_SIDE,
                                 coeffs=coeffs, margin=half_width(k)))
        kernel = random_kernels(RandomKernelSpec(size=k, count=1, seed=seed))[0]
        cases.append((k, fld, kernel))
    return cases


def traced_apply(tr, method: str, field, kernel, bank, seed: int):
    """``benchmark.apply_method`` with its calls into the engine and the
    baselines made, and traced, here. The arithmetic is unchanged."""
    with tr.span("benchmark.apply_method"):
        if method == "diff":
            if bank is None:
                bank = tr.call("transform.build_bank", build_bank, kernel)
            return tr.call("engine.conv2d_diff", conv2d_diff, field, kernel, bank=bank)
        if method == "partial":
            return tr.call("baselines.partial_conv2d", partial_conv2d, field, kernel)
        k = kernel.shape[0]
        padded = tr.call("baselines.pad", pad, field, k, PaddingScheme(method, seed))
        flops = 2.0 * k * k * field.shape[0] * field.shape[1]
        return tr.call("engine.conv2d_valid", conv2d_valid, padded, kernel, work=flops)


def replica_run_benchmark(tr, config: BenchmarkConfig, audit=None) -> list[tuple]:
    """``run_benchmark(config)`` rebuilt from the public functions it calls, in
    its order, with a span around each call. ``audit(order, j, outputs)``
    sees the oracle and method outputs of every (order, kernel) cell."""
    with tr.span("benchmark.run_benchmark"):
        m = half_width(config.size)
        kernels = tr.call("fields.random_kernels", random_kernels,
                          RandomKernelSpec(size=config.size, count=config.filter_count,
                                           seed=config.seed))
        banks = [tr.call("transform.build_bank", build_bank, ker)
                 if "diff" in config.methods else None for ker in kernels]
        rows: list[tuple] = []
        for order in config.orders:
            fld = tr.call("fields.generate", generate,
                          FieldSpec(family=config.family, height=config.height,
                                    width=config.width, order=order, margin=m))
            core = fld.core
            per_kernel = []
            for j, ker in enumerate(kernels):
                truth = tr.call("fields.oracle_convolution", oracle_convolution, fld, ker)
                out = {}
                results = []
                for method in config.methods:
                    seed = tr.call("benchmark.derive_seed", derive_seed, config.seed, order, j)
                    result = traced_apply(tr, method, core, ker, banks[j], seed)
                    results.append(result)
                    out[method] = (
                        config.family,
                        order,
                        method,
                        j,
                        tr.call("metrics.l1_error", l1_error, result, truth),
                        tr.call("metrics.mse", mse, result, truth),
                    )
                if audit is not None:
                    audit(order, j, [truth, *results])
                per_kernel.append(out)
            rows.extend(per_kernel[j][method]
                        for method in config.methods for j in range(config.filter_count))
    return rows


def same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise bitwise equality of two float64 arrays."""
    return a.view(np.uint64) == b.view(np.uint64)


class Agreement:
    """Pixels on which all outputs of one cell agree bitwise.

    Every method (and the oracle, where there is one) must agree on the
    interior (criterion 6). ``useful_share`` is the share of convolved pixels
    on which they do not agree: the work a frame-only evaluation would keep.
    Outputs are fed one at a time, so a cell never holds more than two arrays.
    """

    def __init__(self):
        self.pixels = 0
        self.disagreeing = 0
        self.problems: list[str] = []
        self._first = None
        self._same = None

    def include(self, out: np.ndarray) -> None:
        if self._first is None:
            self._first = out
            self._same = np.ones(out.shape, dtype=bool)
        else:
            self._same &= same_bits(out, self._first)

    def close_cell(self, margin: int) -> None:
        same = self._same
        h, w = same.shape
        if not same[margin:h - margin, margin:w - margin].all():
            self.problems.append("outputs disagree on interior pixels")
        self.pixels += same.size
        self.disagreeing += int(same.size - np.count_nonzero(same))
        self._first = self._same = None

    @property
    def useful_share(self) -> float:
        return self.disagreeing / self.pixels


def output_problems(out, shape) -> list[str]:
    if not isinstance(out, np.ndarray) or out.shape != shape:
        return [f"expected an array of shape {shape}, got {getattr(out, 'shape', type(out))}"]
    if not np.isfinite(out).all():
        return ["output has non-finite values"]
    return []


def interior_problems(out: np.ndarray, valid: np.ndarray, margin: int) -> list[str]:
    """Criterion 6: the interior equals conv2d_valid of the input bitwise."""
    h, w = out.shape
    if not same_bits(out[margin:h - margin, margin:w - margin], valid).all():
        return ["interior differs from conv2d_valid"]
    return []


def row_problems(rows, config: BenchmarkConfig) -> list[str]:
    """Seed-independent checks on benchmark rows."""
    keys = [(config.family, order, method, j)
            for order in config.orders for method in config.methods
            for j in range(config.filter_count)]
    if [tuple(row[:4]) for row in rows] != keys:
        return ["rows do not follow the (order, method, kernel) enumeration"]
    eps = np.array([row[4:6] for row in rows], dtype=np.float64)
    if not np.isfinite(eps).all() or (eps < 0).any():
        return ["eps1/eps2 must be finite and non-negative"]
    # mean(d^2) >= mean(|d|)^2 for every row.
    if (eps[:, 1] < eps[:, 0] ** 2 * (1.0 - 1e-9)).any():
        return ["eps2 is below eps1 squared"]
    return []


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv.gz"


def write_reference(workload: str, rows, scales: dict) -> None:
    """Store rows with the output scale max|oracle| of their (order, kernel) cell."""
    lines = [REFERENCE_HEADER]
    for family, order, method, j, eps1, eps2 in rows:
        lines.append(f"{family},{order},{method},{j},{eps1!r},{eps2!r},{scales[order, j]!r}")
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)


def load_reference(workload: str) -> list[tuple]:
    with gzip.open(reference_path(workload), "rt", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if lines[0] != REFERENCE_HEADER:
        raise ValueError(f"unexpected reference header {lines[0]!r}")
    out = []
    for line in lines[1:]:
        family, order, method, j, eps1, eps2, scale = line.split(",")
        out.append((family, int(order), method, int(j), float(eps1), float(eps2), float(scale)))
    return out


def reference_problems(rows, reference) -> list[str]:
    """Key columns equal; eps1 and eps2 within REFERENCE_RTOL of the scale."""
    if [tuple(r[:4]) for r in rows] != [r[:4] for r in reference]:
        return ["key columns differ from the reference"]
    got = np.array([r[4:6] for r in rows], dtype=np.float64)
    ref = np.array([r[4:6] for r in reference], dtype=np.float64)
    scale = np.array([r[6] for r in reference], dtype=np.float64)
    bad = ((np.abs(got[:, 0] - ref[:, 0]) > REFERENCE_RTOL * scale)
           | (np.abs(got[:, 1] - ref[:, 1]) > REFERENCE_RTOL * scale ** 2))
    if bad.any():
        return [f"{int(bad.sum())} rows differ from the reference beyond the tolerance"]
    return []


def diff_eps1(rows) -> float:
    """Mean eps1 over the rows of the ``diff`` method."""
    return float(np.mean([row[4] for row in rows if row[2] == "diff"]))

