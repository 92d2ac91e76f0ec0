"""Method-comparison benchmark on analytic fields.

For each function order, every method of :data:`diffconv.engine.METHODS`
filters the same field with the same random kernels, through the engine's
margin table, and errors are taken against the extended-sampling ground
truth. Per-kernel random streams are keyed by (seed, order, kernel index), so
results are identical no matter how the work is scheduled.

Both error metrics are the left-to-right running sum of the per-pixel errors
in row-major order (``np.add.accumulate``'s order) over the pixel count;
:func:`error_means` takes both, lane by lane, from one copy of a chunk's
differences. A zero error adds nothing to that sum, so summing only the
non-zero pixels, in the same order, gives the same bits. ``partial`` is zero
padding with each cut window reweighted, so its frame is computed as
``zero``'s frame times its factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    METHODS,
    _TILE_BYTES,
    _band_strips,
    _check_finite,
    _distribution_stats,
    _draw_distribution,
    _is_seed,
    _margin,
    _rescale_frame,
)
from .fields import (
    FieldSpec,
    RandomKernelSpec,
    _cell_entropy,
    _generate_state,
    _streams,
    generate,
    random_kernels,
)
from .stencils import half_width

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
        if not _is_seed(self.seed):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.methods:
            raise ValueError(f"methods must name at least one of {METHODS}")
        if bad := [m for m in self.methods if m not in METHODS]:
            raise ValueError(f"unknown methods {bad}; expected a subset of {METHODS}")
        if self.height < self.size or self.width < self.size:
            raise ValueError(
                f"field {self.height}x{self.width} is smaller than the kernel size {self.size}"
            )


def derive_seed(seed: int, order: int, index: int) -> int:
    """Stable 64-bit sub-seed for one (order, kernel) cell of the benchmark."""
    return int(np.random.SeedSequence([seed, order, index]).generate_state(1, np.uint64)[0])


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError(f"error metrics need at least one pixel, got shape {a.shape}")
    return a, b


def error_means(d: np.ndarray, count: int) -> np.ndarray:
    """The means over ``count`` of |d| and of d², stacked: the left-to-right
    running sums of each along ``d``'s last axis; leading axes are a batch.

    Both are taken from one C-contiguous copy of ``d`` with its last axis
    down the rows: a lane per batch entry, and a zero guard lane when there
    is only one. numpy adds in order down an axis that is not the fast one,
    and pairwise along the fast one, so ``np.add.reduce(..., axis=0)`` over
    the copy sums each lane left to right."""
    pixel_major = d.reshape(-1, d.shape[-1]).T
    n, used = pixel_major.shape
    lanes = np.empty((n, max(used, 2)))
    lanes[:, :used], lanes[:, used:] = pixel_major, 0.0
    power = np.abs(lanes)
    sums = np.empty((2, lanes.shape[1]))
    np.add.reduce(power, axis=0, out=sums[0])
    np.multiply(lanes, lanes, out=power)
    np.add.reduce(power, axis=0, out=sums[1])
    return sums[:, :used].reshape(2, *d.shape[:-1]) / count


def l1_error(a, b) -> float:
    """Mean absolute difference over all pixels, summed in row-major order."""
    a, b = _check_pair(a, b)
    return float(np.add.accumulate(np.abs(a - b).reshape(-1))[-1] / a.size)


def mse(a, b) -> float:
    """Mean squared difference over all pixels, summed in row-major order."""
    a, b = _check_pair(a, b)
    d = (a - b).reshape(-1)
    return float(np.add.accumulate(d * d)[-1] / a.size)


def run_benchmark(config: BenchmarkConfig) -> list[tuple]:
    """Rows of (family, order, method, kernel_index, eps1, eps2).

    Row order is fixed: orders outermost, then methods, then kernel index.

    Only the m-wide output frame is evaluated: off it, every method and the
    oracle run the same valid convolution over the field's own pixels, so
    the error there is exactly 0. On it, each output is the valid
    convolution of the 3m-wide edge bands of the padded field, the same
    arithmetic per pixel as the full convolution. There is one slot for the
    oracle and one per distinct margin: ``partial`` reads ``zero``'s when
    both run, and keeps a zero-margin slot of its own otherwise. Every
    slot's bands are laid out as ``filter`` lays out one field's
    (``engine._band_strips``): top and bottom side by side in one
    C-contiguous strip, left and right, transposed, in another. Each strip's
    accumulation is prepared once and run per kernel on the strip as each
    order and ``distribution`` draw rewrote it. Kernel j's draw is
    ``default_rng(derive_seed(seed, order, j))``'s stream: each order derives
    its seeds in one bulk pass and sets their streams on one shared
    Generator (``fields._generate_state`` and ``_streams``), with the same
    bits. Slices of each strip's output, one block per band, are copied
    into views of every slot's row-major frame, made once per call.
    ``partial``'s frame is its slot's times the factor, written to a row of
    its own when ``zero``'s must stay unscaled.
    Per chunk of kernels (``_TILE_BYTES`` of frame values, or one kernel's),
    eps1 and eps2 are the ``error_means`` over H*W of the frame pixels'
    errors in row-major order, a lane per (kernel, method), so they are
    bitwise ``l1_error`` and ``mse`` of each method's ``apply_method`` output
    against ``oracle_convolution``.
    """
    k, h, w = config.size, config.height, config.width
    m = half_width(k)
    # One strip slot per distinct margin; slot 0 is the oracle. partial is
    # zero padding with its frame rescaled, so it reads zero's margin.
    margin_of = {method: "zero" if method == "partial" else method for method in config.methods}
    slot = {margin: s for s, margin in enumerate(dict.fromkeys(margin_of.values()), start=1)}
    slots = len(slot) + 1
    # A chunk row per distinct method: its margin's slot, but partial's own
    # after the slots when zero's frame must also stay as it is.
    row = {method: slot[margin] for method, margin in margin_of.items()}
    if "partial" in row and "zero" in row:
        row["partial"] = slots
    kernels = random_kernels(RandomKernelSpec(size=k, count=config.filter_count, seed=config.seed))
    frame = np.ones((h, w), dtype=bool)
    frame[m:h - m, m:w - m] = False
    scale = np.ones((h, w))
    _rescale_frame(scale, k)  # partial's factor per pixel
    scale = scale[frame]
    put, (run_tb, run_lr), ends, sides_out = _band_strips(h, w, k, slots)
    per_chunk = max(1, _TILE_BYTES // (8 * (len(row) + 1) * scale.size))
    chunk = np.empty((min(per_chunk, len(kernels)), len(row) + 1, scale.size))
    # Views of each kernel's row-major frames in the band outputs' layout: the top and
    # bottom rows as (m, slots, W), the middle rows' left and right ends as (m, slots, 2, H - 2m).
    strip_rows = chunk[:, :slots]
    top, bottom = (strip_rows[..., a:a + m * w].reshape(-1, slots, m, w).swapaxes(1, 2)
                   for a in (0, scale.size - m * w))
    sides = strip_rows[..., m * w:-m * w].reshape(-1, slots, h - 2 * m, 2, m).transpose(0, 4, 1, 3, 2)
    # Each kernel's three copies, from views made once per call.
    ends_top, ends_bottom = ends[:, :, 0], ends[:, :, 1]
    copies = list(zip(top, bottom, sides))
    rows: list[tuple] = []
    for order in config.orders:
        fld = generate(FieldSpec(family=config.family, height=h, width=w, order=order, margin=m))
        put(0, fld.data[m:-m], fld.data)
        with np.errstate(over="ignore", invalid="ignore"):
            for margin, s in slot.items():
                if margin == "distribution":  # its statistics once, a margin per kernel below
                    dist = _margin("zero", fld.core, k)
                    dist_rows = dist[m:-m]
                    dist_stats = _distribution_stats(dist_rows, dist, k)
                    # Each kernel's stream is default_rng(derive_seed(seed, order, j)):
                    # the derived seeds' low and high words are its entropy.
                    seeds = _generate_state(_cell_entropy((config.seed, order), len(kernels)), 2)
                    streams = _streams(seeds)
                else:
                    padded = _margin(margin, fld.core, k)
                    put(s, padded[m:-m], padded)
        eps = np.empty((2, len(kernels), len(row)))
        for j0 in range(0, len(kernels), len(chunk)):
            out = chunk[:len(kernels) - j0]
            with np.errstate(over="ignore", invalid="ignore"):
                for j, ker in enumerate(kernels[j0:j0 + len(out)], start=j0):
                    if "distribution" in slot:
                        _draw_distribution(dist_rows, dist, m, dist_stats, next(streams))
                        put(slot["distribution"], dist_rows, dist)
                    run_tb(ker)
                    run_lr(ker)
                    t, b, lr = copies[j - j0]
                    t[...], b[...], lr[...] = ends_top, ends_bottom, sides_out
                if "partial" in row:
                    np.multiply(out[:, slot["zero"]], scale, out=out[:, row["partial"]])
            if not np.isfinite(out).all():
                bad = out[np.isfinite(out).all(axis=(1, 2)).argmin()]
                for method, r in [*row.items(), ("oracle", 0)]:
                    _check_finite(bad[r], method, k)
            eps[:, j0:j0 + len(out)] = error_means(out[:, 1:] - out[:, :1], h * w)
        for method in config.methods:
            errors = enumerate(zip(*eps[..., row[method] - 1].tolist()))
            rows.extend((config.family, order, method, j, e1, e2) for j, (e1, e2) in errors)
    return rows


def rows_to_csv(rows) -> str:
    """RFC-4180-style CSV with '\\n' line endings and 17-significant-digit floats."""
    return "".join([CSV_HEADER + "\n", *("%s,%s,%s,%s,%.17g,%.17g\n" % row for row in rows)])
