"""Method-comparison benchmark on analytic fields.

For each function order, every method filters the same field with the same
random kernels, and errors are taken against the extended-sampling ground
truth. Per-kernel random streams are keyed by (seed, order, kernel index), so
results are identical no matter how the work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import (
    _distribution_stats,
    _draw_distribution,
    _margin,
    _partial_scale,
    _size_keeping,
)
from .engine import _accumulate, _check_finite, as_field, conv2d_diff
from .fields import FieldSpec, RandomKernelSpec, generate, random_kernels
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
    if method in METHODS:
        return _size_keeping(method, field, kernel, seed)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _bands(a: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The top and bottom edge bands of ``a``, ``width`` wide, stacked as
    (2, width, W), and its left and right ones stacked as (2, H, width)."""
    return np.stack([a[:width], a[-width:]]), np.stack([a[:, :width], a[:, -width:]])


def _flat(tb: np.ndarray, lr: np.ndarray) -> np.ndarray:
    """Band stacks as from :func:`_bands`, with any leading axes, joined into
    one vector per leading index: top, bottom, left, right."""
    lead = tb.shape[:-3]
    return np.concatenate([tb.reshape(lead + (-1,)), lr.reshape(lead + (-1,))], axis=-1)


def run_benchmark(config: BenchmarkConfig) -> list[tuple]:
    """Rows of (family, order, method, kernel_index, eps1, eps2).

    Row order is fixed: orders outermost, then methods, then kernel index.

    Only the m-wide output frame is evaluated. Off it, every method and the
    oracle run the same valid convolution over the field's own pixels, so
    the error there is exactly 0. On it, each output is the valid
    convolution of the 3m-wide edge bands of the padded field, the same
    arithmetic per pixel as the full convolution. ``l1_error`` and ``mse``
    sum the errors left to right in row-major order, where a zero adds
    nothing; eps1 and eps2 are the running sums over the frame pixels alone,
    each once and in row-major order, divided by H*W, so they are bitwise
    ``l1_error`` and ``mse`` of each method's ``apply_method`` output
    against ``oracle_convolution``.
    """
    k, h, w = config.size, config.height, config.width
    m = half_width(k)
    # One slot per distinct method; slot 0 is the oracle.
    slot = {method: s for s, method in enumerate(dict.fromkeys(config.methods), start=1)}
    kernels = random_kernels(RandomKernelSpec(size=k, count=config.filter_count, seed=config.seed))
    scale = _flat(*_bands(_partial_scale(h, w, k), m))
    # Where in a frame vector each frame pixel first appears, in row-major
    # order of the pixels (the bands overlap at the corners).
    _, frame = np.unique(_flat(*_bands(np.arange(h * w).reshape(h, w), m)), return_index=True)
    in_tb = np.empty((len(slot) + 1, 2, 3 * m, w + 2 * m))
    # Column-major, so that the accumulation runs along the H + 2m axis.
    in_lr = np.empty((len(slot) + 1, 2, 3 * m, h + 2 * m)).swapaxes(-1, -2)
    rows: list[tuple] = []
    for order in config.orders:
        fld = generate(FieldSpec(family=config.family, height=h, width=w, order=order, margin=m))
        core = fld.core
        in_tb[0], in_lr[0] = _bands(as_field(fld.data), 3 * m)
        with np.errstate(over="ignore", invalid="ignore"):
            for method, s in slot.items():
                padded = _margin(method, core, k)
                in_tb[s], in_lr[s] = _bands(padded, 3 * m)
                if method == "distribution":  # redrawn per kernel below
                    dist, dist_stats = padded, _distribution_stats(core, k)
        eps = []
        for j, ker in enumerate(kernels):
            with np.errstate(over="ignore", invalid="ignore"):
                if "distribution" in slot:
                    _draw_distribution(dist, m, dist_stats, derive_seed(config.seed, order, j))
                    in_tb[slot["distribution"]], in_lr[slot["distribution"]] = _bands(dist, 3 * m)
                out = _flat(_accumulate(in_tb, ker), _accumulate(in_lr, ker))
                if "partial" in slot:
                    out[slot["partial"]] *= scale
            if not np.isfinite(out).all():
                for method, s in [*slot.items(), ("oracle", 0)]:
                    _check_finite(out[s], method, k)
            out = out[:, frame]
            d = out[1:] - out[0]
            eps.append([float(v) / (h * w)
                        for err in (np.abs(d), d * d)
                        for v in np.add.accumulate(err, axis=-1)[:, -1]])
        n = len(slot)
        for method in config.methods:
            s = slot[method] - 1
            for j in range(config.filter_count):
                rows.append((config.family, order, method, j, eps[j][s], eps[j][n + s]))
    return rows


def rows_to_csv(rows) -> str:
    """RFC-4180-style CSV with '\\n' line endings and 17-significant-digit floats."""
    lines = [CSV_HEADER]
    for family, order, method, index, eps1, eps2 in rows:
        lines.append(
            f"{family},{order},{method},{index},{format(eps1, '.17g')},{format(eps2, '.17g')}"
        )
    return "\n".join(lines) + "\n"
