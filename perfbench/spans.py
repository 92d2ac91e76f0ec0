"""In-memory span recorder for the traced runs, and the per-layer summary.

Spans are placed by the benchmark around its own calls into diffconv's public
functions; nothing inside the package is instrumented. A span is
``[name, start, end, parent, op, work]``: ``parent`` is the index of the
enclosing span (-1 at top level), ``op`` the index of the timed operation it
belongs to, and ``work`` a count recorded at the call (flops for valid
convolution, bytes for file I/O).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# Every layer span the benchmark records, named <module>.<function>.
LAYERS = (
    "stencils.invert_center_matrix",
    "transform.build_bank",
    "engine.conv2d_valid",
    "engine.conv2d_diff",
    "baselines.pad",
    "baselines.partial_conv2d",
    "fields.generate",
    "fields.random_kernels",
    "fields.oracle_convolution",
    "metrics.l1_error",
    "metrics.mse",
    "benchmark.derive_seed",
    "benchmark.apply_method",
    "benchmark.run_benchmark",
    "benchmark.rows_to_csv",
    "npyio.load_array",
    "npyio.save_array",
)

# Per-layer metrics derived from span work counts or measured beside the
# spans: name -> (unit, better).
DERIVED = {
    "engine.conv2d_valid.gflop_per_s": ("GFLOP/s", "higher"),
    "engine.conv2d_diff.frame_s": ("s", "lower"),
    "npyio.load_array.mb_per_s": ("MB/s", "higher"),
    "npyio.save_array.mb_per_s": ("MB/s", "higher"),
    "benchmark.useful_pixel_share": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in emission order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = ("count", "lower")
        units[f"{layer}.self_s"] = ("s", "lower")
        units[f"{layer}.share"] = ("ratio", "lower")
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[float] = []  # wall time per operation
        self._op = -1
        self._open: list[int] = []

    def new_op(self) -> int:
        self.ops.append(0.0)
        return len(self.ops) - 1

    @contextmanager
    def op(self, index: int | None = None):
        """Time a new operation, or one more stretch of operation ``index``;
        spans opened inside belong to it. Checks between the stretches of an
        operation stay out of its wall time."""
        self._op = self.new_op() if index is None else index
        start = perf_counter()
        try:
            yield
        finally:
            self.ops[self._op] += perf_counter() - start

    @contextmanager
    def span(self, name: str, work: float = 0.0):
        rec = self._open_span(name, work)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, work: float = 0.0, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        rec = self._open_span(name, work)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def _open_span(self, name: str, work: float) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, 0.0, 0.0, parent, self._op, work]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def write(self, path) -> None:
        """Write the spans as JSON lines, one operation record per op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, wall in enumerate(self.ops):
                fh.write(json.dumps({"op": i, "wall": wall}) + "\n")
            for name, start, end, parent, op, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "work": work}) + "\n")


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, self time and share, plus work rates and the time
    inside operations that no span covers.

    ``calls`` and ``self_s`` are medians over operations of the per-operation
    values; ``share`` is a layer's self time over the operations' wall time.
    """
    n_ops = len(tracer.ops)
    if n_ops == 0:
        raise ValueError("no traced operation was recorded")
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, op, work in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = {layer: [0] * n_ops for layer in LAYERS}
    self_s = {layer: [0.0] * n_ops for layer in LAYERS}
    work = {layer: 0.0 for layer in LAYERS}
    covered = [0.0] * n_ops
    for i, (name, start, end, parent, op, amount) in enumerate(tracer.spans):
        calls[name][op] += 1
        self_s[name][op] += end - start - child_time[i]
        work[name] += amount
        if parent < 0:
            covered[op] += end - start
    walls = tracer.ops
    total_wall = sum(walls)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = statistics.median(calls[layer])
        out[f"{layer}.self_s"] = statistics.median(self_s[layer])
        out[f"{layer}.share"] = sum(self_s[layer]) / total_wall

    def rate(layer: str, scale: float) -> float:
        busy = sum(self_s[layer])
        return work[layer] / busy / scale if busy > 0 else 0.0

    out["engine.conv2d_valid.gflop_per_s"] = rate("engine.conv2d_valid", 1e9)
    out["npyio.load_array.mb_per_s"] = rate("npyio.load_array", 1e6)
    out["npyio.save_array.mb_per_s"] = rate("npyio.save_array", 1e6)
    out["trace.unattributed_s"] = statistics.median(w - c for w, c in zip(walls, covered))
    return out
