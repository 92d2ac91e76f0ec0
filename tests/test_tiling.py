"""Row-tiled accumulation against the untiled references, with its tiles
split over one or more threads, prepared runs that re-read their source, the
windows that wrap at the row pitch, the full-size arrays each size-keeping
call allocates, and output bits that do not depend on the input's memory
order."""

import itertools
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from conftest import (
    NP_PAD_MODES,
    partial_scale,
    reference_accumulate,
    reference_pad_extrapolate,
)

from diffconv import engine
from diffconv.benchmark import BenchmarkConfig, run_benchmark
from diffconv.engine import (
    METHODS,
    PaddingScheme,
    _accumulate,
    _band_strips,
    _margin,
    _prepare,
    apply_method,
    conv2d_diff,
    conv2d_valid,
    pad,
    partial_conv2d,
)
from diffconv.stencils import half_width


def reference_method(method: str, field: np.ndarray, kernel: np.ndarray, seed: int) -> np.ndarray:
    """``apply_method`` through the untiled accumulation, the stacked
    extrapolation padding, ``np.pad`` for the copied margins and partial's
    full-size scale map. Only ``distribution`` takes its margin from ``pad``."""
    k = kernel.shape[0]
    m = half_width(k)
    if method == "partial":
        h, w = field.shape
        return reference_accumulate(np.pad(field, m), kernel) * partial_scale(h, w, k)
    if method == "diff":
        padded = reference_pad_extrapolate(field, k, k - 1)
    elif method == "extrapolate":
        padded = reference_pad_extrapolate(field, k, m)
    elif method in NP_PAD_MODES:
        padded = np.pad(field, m, mode=NP_PAD_MODES[method])
    else:
        padded = pad(field, k, PaddingScheme(method, seed))
    return reference_accumulate(padded, kernel)


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def field_and_kernel(shape, k, seed):
    rng = np.random.default_rng(seed)
    field = rng.standard_normal(shape)
    field[0] = 0.0  # exact zeros meet negative weights: signed-zero products
    return field, rng.uniform(-1.0, 1.0, size=(k, k))


# Worker counts for the bitwise tests: one (no thread), two, and three,
# which exceeds the tile count of the smallest fields.
WORKERS = (1, 2, 3)


@pytest.mark.parametrize("tile_rows", [1, 2])
@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_every_method_matches_untiled_reference(monkeypatch, k, tile_rows):
    # Exactly K x K and K x W fields: the bottom margin is extrapolated from
    # every row, so a wrong reverse slice shows there first. K is odd, so
    # two-row tiles leave a one-row remainder tile.
    m = half_width(k)
    shapes = [(k, k), (k, 2 * k + 3), (2 * k + 4, k), (2 * k + 5, 3 * k + 2)]
    for workers, shape in itertools.product(WORKERS, shapes):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        field, kernel = field_and_kernel(shape, k, seed=10 * k + shape[1])
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_rows * 8 * shape[1])
        for method, degree in (("extrapolate", m), ("diff", k - 1)):
            assert_bitwise_equal(_margin(method, field, k),
                                 reference_pad_extrapolate(field, k, degree))
        for method in METHODS:
            assert_bitwise_equal(apply_method(method, field, kernel, seed=k),
                                 reference_method(method, field, kernel, seed=k))
        # conv2d_valid's output is narrower than diff's, so its tiles split
        # the rows elsewhere; the interiors must still agree bitwise.
        valid = conv2d_valid(field, kernel)
        assert_bitwise_equal(valid, reference_accumulate(field, kernel))
        assert_bitwise_equal(conv2d_diff(field, kernel)[m:-m, m:-m], valid)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_padded_and_unpadded_paths_match_reference(monkeypatch, k):
    # One tile, or fewer than 8, takes the padded copy; one- and two-row
    # tiles put every field of at least 8 or 16 rows on the path without one
    # (interior from the field, frame from band strips). Thin fields have an
    # empty interior (2 x 40, 40 x 2, and 8 x 40 at K = 9) or a one-row or
    # one-column one (K x 3K, 3K x K); a field is tried only with the methods
    # that accept it. A column-major input's interior runs on its transposed
    # view, a row-strided one's on a copy.
    shapes = [(2, 40), (8, 40), (40, 2), (k, 3 * k), (3 * k, k), (2 * k + 5, 3 * k + 2)]
    one_tile = engine._TILE_BYTES
    unpadded = engine._accumulate_unpadded
    shapes_unpadded = set()

    def spy(method, field, kernel, seed):
        shapes_unpadded.add(field.shape)
        return unpadded(method, field, kernel, seed)

    monkeypatch.setattr(engine, "_accumulate_unpadded", spy)
    for shape, workers in itertools.product(shapes, (1, 2)):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        field, kernel = field_and_kernel(shape, k, seed=k * shape[0] + shape[1])
        h, w = shape
        larger = np.zeros((h + 3, w + 5))
        larger[1:h + 1, 2:w + 2] = field
        layouts = (field, np.asfortranarray(field), larger[1:h + 1, 2:w + 2])
        for method in METHODS:
            try:
                engine._check_inputs(field, k, method)
            except ValueError:
                continue
            want = reference_method(method, field, kernel, seed=k)
            for tile_bytes, stored in itertools.product((one_tile, 8 * w, 16 * w), layouts):
                monkeypatch.setattr(engine, "_TILE_BYTES", tile_bytes)
                assert_bitwise_equal(apply_method(method, stored, kernel, seed=k), want)
    assert shapes_unpadded == {shape for shape in shapes if shape[0] >= 8}


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_band_stacks_match_untiled_reference(monkeypatch, k):
    # run_benchmark stores its top and bottom bands as one C-contiguous
    # (3m, slots*2*(W + 2m)) strip, every slot's two bands end to end along
    # the long axis; its outputs across the seams between bands are dropped.
    m = half_width(k)
    rng = np.random.default_rng(k)
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    strip = rng.standard_normal((3 * m, 3 * 2 * (17 + 2 * m)))
    want = reference_accumulate(strip, kernel)
    got = _accumulate(strip, kernel)  # one tile
    assert_bitwise_equal(got, want)
    assert got.flags.c_contiguous
    row_bytes = 8 * want.shape[1]
    for tile_bytes in (1, 2 * row_bytes, 2 * row_bytes + 8):
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_bytes)
        assert_bitwise_equal(_accumulate(strip, kernel), want)
    # The prepared strips accumulate in place from tap views held since they
    # were made, and are run again and again: after each put of new bands
    # and each new kernel, every slot's frame must be its padded field's, so
    # a view left on stale bands, or a run that keeps anything of the last
    # one, fails. Each slot's top margin row is zero (signed-zero products),
    # and one kernel has exact-zero weights. The two strips' outputs differ
    # in width by less than half, so both get one-row, then two-row tiles.
    h, w, slots = 17, 19, 3
    widest = 8 * slots * 2 * (max(h, w) + 2 * m)
    for workers, tile_bytes in itertools.product(WORKERS, (1, 2 * widest)):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_bytes)
        put, runs, ends, sides = _band_strips(h, w, k, slots)
        t, u = ends.shape[0], sides.shape[0]
        for turn in range(3):
            padded = [field_and_kernel((h + 2 * m, w + 2 * m), k, seed=10 * turn + s)[0]
                      for s in range(slots)]
            for s, field in enumerate(padded):
                put(s, field[m:-m], field)
            kernel = rng.uniform(-1.0, 1.0, size=(k, k))
            if turn == 1:
                kernel[::2] = 0.0
            for run in runs:
                run(kernel)
            for s, field in enumerate(padded):
                want = reference_accumulate(field, kernel)
                assert_bitwise_equal(ends[:, s, 0], want[:t])
                assert_bitwise_equal(ends[:, s, 1], want[h - t:])
                assert_bitwise_equal(sides[:, s, 0], want[m:h - m, :u].T)
                assert_bitwise_equal(sides[:, s, 1], want[m:h - m, w - u:].T)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_column_major_band_stacks_match_untiled_reference(monkeypatch, k):
    # run_benchmark stores its left and right bands as one transposed strip:
    # the (slots*2*(H + 2m), 3m) view of a C-ordered (3m, slots*2*(H + 2m))
    # array, every slot's two bands end to end along the long axis, whose
    # outputs across the seams between bands are dropped. The output keeps
    # the input's layout, and each tile holds whole output columns.
    m = half_width(k)
    rng = np.random.default_rng(100 + k)
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    strip = np.empty((3 * m, 3 * 2 * (15 + 2 * m))).T
    strip[...] = rng.standard_normal(strip.shape)
    strip[:15, 0] = 0.0  # signed-zero products, as in field_and_kernel
    want = reference_accumulate(np.ascontiguousarray(strip), kernel)
    got = _accumulate(strip, kernel)  # one tile
    assert_bitwise_equal(got, want)
    assert got.strides[0] < got.strides[1]
    column_bytes = 8 * want.shape[0]
    for workers in WORKERS:
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        for tile_columns in (1, 2):
            monkeypatch.setattr(engine, "_TILE_BYTES", tile_columns * column_bytes)
            assert_bitwise_equal(_accumulate(strip, kernel), want)
    # A C-contiguous input still gives a C-contiguous output.
    assert _accumulate(np.ascontiguousarray(strip), kernel).flags.c_contiguous


@pytest.mark.parametrize("k", [3, 9])
def test_prepared_runs_read_what_the_source_holds(monkeypatch, k):
    # A prepared run reads its source through tap views held since it was
    # prepared, so each run must see what the source then holds, whether it
    # sums in place in the output _prepare allocates or fills one the caller
    # supplies (contiguous, so through scratch and a copy), and whether the
    # source is row-major or column-major (taps along axis 0). Two-row tiles
    # over one, two and three workers. A positive field with an all -0.0
    # kernel makes every product -0.0: each sum must start from +0.0, as the
    # untiled loop does.
    shape = (2 * k + 5, 3 * k + 2)
    ny, nx = shape[0] - k + 1, shape[1] - k + 1
    field, kernel = field_and_kernel(shape, k, seed=k)
    for workers, order in itertools.product(WORKERS, "CF"):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        monkeypatch.setattr(engine, "_TILE_BYTES", 2 * 8 * (nx if order == "C" else ny))
        source = np.empty(shape, order=order)
        held, run_held = _prepare(source, k)
        supplied = np.empty((ny, nx), order=order)
        run_supplied = _prepare(source, k, supplied)[1]
        for values, weights in ((field, kernel), (np.abs(field) + 0.5, np.full((k, k), -0.0))):
            source[...] = values
            want = reference_accumulate(values, weights)
            for run, out in ((run_held, held), (run_supplied, supplied)):
                run(weights)
                assert_bitwise_equal(out, want)


def test_workers_share_no_scratch(monkeypatch):
    # More workers than CPUs, short tiles and a short switch interval, so
    # the blocks interleave; a product or accumulator plane shared between
    # two of them corrupts the output. Ten-row tiles, accumulated through
    # scratch into _accumulate's output and in place in the one a prepared
    # run allocates.
    field, kernel = field_and_kernel((130, 402), 3, seed=1)
    want = reference_accumulate(field, kernel)
    workers = engine._cpu_count() + 2
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    monkeypatch.setattr(engine, "_TILE_BYTES", 10 * 8 * 400)
    held, run = _prepare(field, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert_bitwise_equal(_accumulate(field, kernel), want)
            held.fill(np.nan)
            run(kernel)
            assert_bitwise_equal(held, want)
    finally:
        sys.setswitchinterval(interval)


def test_worker_overflow_is_reported_by_the_caller(monkeypatch):
    # Ten four-row tiles in two blocks, output rows 0-19 and 20-39. The 1e307
    # pixel sits in field row 27, away from every margin, so only the second
    # block, run by a worker thread, overflows: in the product, before it
    # reaches the output. Without its own error state the worker would warn,
    # and the warning, raised in the thread, would leave its output rows unwritten.
    field = np.zeros((40, 40))
    field[27, 20] = 1e307
    monkeypatch.setattr(engine, "_TILE_BYTES", 4 * 8 * 40)
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"diff output is not finite for K=9: .*3\.002e\+08"):
            conv2d_diff(field, np.full((9, 9), 100.0))


@pytest.mark.parametrize("failing_start", [5, 0])
def test_a_block_exception_is_raised_by_the_caller(monkeypatch, failing_start):
    # Ten one-row tiles in two blocks: block 0 (rows 0-4) runs in the calling
    # thread, block 1 (rows 5-9) in a worker. Whichever block raises, the
    # call raises that exception once every worker has been joined, both
    # where the tiles are copied into the caller's output (conv2d_valid) and
    # where a prepared run accumulates them in the output it allocated.
    class BlockFailed(Exception):
        pass

    accumulate_rows = engine._accumulate_rows
    caller = threading.current_thread()

    def failing_rows(tiles, weights):
        start = 0 if threading.current_thread() is caller else 5  # the block's first row
        if start == failing_start:
            raise BlockFailed(start)
        accumulate_rows(tiles, weights)

    field, kernel = field_and_kernel((12, 12), 3, seed=0)
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "_TILE_BYTES", 8 * 10)
    monkeypatch.setattr(engine, "_accumulate_rows", failing_rows)
    threads = threading.active_count()
    for call in (partial(conv2d_valid, field, kernel), partial(_prepare(field, 3)[1], kernel)):
        with pytest.raises(BlockFailed) as raised:
            call()
        assert raised.value.args == (failing_start,)
        assert threading.active_count() == threads


def test_one_tile_starts_no_thread(monkeypatch):
    # compare's band strips at its defaults and a 64^2 field each fit one
    # tile, so they run in the calling thread whatever the CPU count.
    def no_thread(*args, **kwargs):
        raise AssertionError("the accumulation started a thread")

    monkeypatch.setattr(engine, "Thread", no_thread)
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    run_benchmark(BenchmarkConfig(family="chebyshev", orders=tuple(range(1, 11)), height=128,
                                  width=128, size=3, filter_count=100, seed=0))
    field, kernel = field_and_kernel((64, 64), 7, seed=0)
    conv2d_diff(field, kernel)
    monkeypatch.setattr(engine, "_TILE_BYTES", 8 * 64)  # 64 one-row tiles
    with pytest.raises(AssertionError, match="started a thread"):
        conv2d_diff(field, kernel)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_partial_frame_rescale_matches_full_scale_map(k):
    # Fields narrower than 2m + 1 have no full-count row or column, and the
    # top and bottom (left and right) frame parts meet or would overlap.
    m = half_width(k)
    for shape in [(1, 1), (1, 2 * k), (2, 5), (k - 1, k + 2), (2 * m, 2 * m + 1),
                  (2 * m + 1, 2 * m + 2), (20, 13)]:
        field, kernel = field_and_kernel(shape, k, seed=k + shape[0] * shape[1])
        assert_bitwise_equal(partial_conv2d(field, kernel),
                             reference_method("partial", field, kernel, seed=0))


@pytest.mark.parametrize("function,full_size_arrays", [
    (conv2d_valid, 1),  # the output
    (conv2d_diff, 1),  # the output; the interior is accumulated from the field
    (partial_conv2d, 1),  # the same
])
def test_full_size_arrays_per_call(monkeypatch, function, full_size_arrays):
    # Traced peak of one call at 512^2, K = 3 (8 tiles, the fewest that make
    # no padded copy), with one and with two workers. Besides the full-size
    # arrays there is the call's scratch, a few margin-sized arrays and the
    # tiles' views. The 510 x 510 output (or interior), at the field's pitch
    # of 512, is split into the 64-row tiles of _row_tiles. Each worker
    # accumulates its tiles through a product plane and an accumulator plane
    # (every output here is supplied to _prepare, so none sums in place),
    # each as many pitch-wide rows as the longest tile, and each tile holds
    # its K^2 taps as 1-D views of the source, allowed 128 B a view (numpy
    # 2.4.6 traces 122 B). The peak sits 7.7-26 KB under the bound. An
    # untiled accumulation adds one full-size product temporary per call, a
    # padded copy, a stacked padding or a full-size scale map another, and
    # the bound is below one more field.
    field = np.random.default_rng(0).standard_normal((512, 512))
    kernel = np.full((3, 3), 1.0 / 9.0)
    padded_bytes = 514 * 514 * 8
    tiles = engine._row_tiles(510, 510)
    planes_bytes = 2 * 8 * 512 * -(-510 // tiles)  # one worker's
    views_bytes = tiles * kernel.size * 128
    bound = {workers: full_size_arrays * padded_bytes + views_bytes + workers * planes_bytes
             for workers in (1, 2)}
    assert bound[2] < (full_size_arrays + 1) * field.nbytes
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            function(field, kernel)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert full_size_arrays * field.nbytes <= peak
        assert peak <= bound[workers]


@pytest.mark.parametrize("k", [3, 5])
def test_wrapped_windows_never_reach_the_output(monkeypatch, k):
    # A tile is accumulated at the source's row pitch, so its last K-1
    # columns per row hold windows that wrap into the next row. Each 1e308
    # pair, at the end of one row and the start of the next, lies in one
    # wrapped window, whose sum overflows, but in no valid one: the output
    # is finite, and the overflow raises nothing and warns nothing.
    field, _ = field_and_kernel((4 * k, 3 * k), k, seed=k)
    for row in (2, k + 4):
        field[row, -1] = field[row + 1, 0] = 1e308
    kernel = np.ones((k, k))
    want = reference_accumulate(field, kernel)
    assert np.all(np.isfinite(want))
    for workers, tile_rows in itertools.product((1, 2), (1, 2)):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_rows * 8 * want.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_bitwise_equal(conv2d_valid(field, kernel), want)


def outcome(method: str, field, kernel) -> bytes | str:
    # ``method`` is one of METHODS or "conv2d_valid".
    try:
        if method == "conv2d_valid":
            return conv2d_valid(field, kernel).tobytes()
        return apply_method(method, field, kernel, seed=7).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_output_bits_do_not_depend_on_memory_order(k):
    # The same field stored row-major, column-major and as a row-strided view
    # inside a larger array gives the same output bits, or the same error,
    # for every method, which reads only its own row-major padded copy, and
    # for conv2d_valid, which copies a strided field once.
    for shape in [(3, 4), (6, 3), (k, k), (k + 3, k), (2, 30), (2 * k + 5, 3 * k + 2)]:
        field, kernel = field_and_kernel(shape, k, seed=k * shape[0] + shape[1])
        h, w = shape
        larger = np.zeros((h + 3, w + 5))
        larger[1:h + 1, 2:w + 2] = field
        layouts = (np.asfortranarray(field), larger[1:h + 1, 2:w + 2])
        for method in (*METHODS, "conv2d_valid"):
            want = outcome(method, field, kernel)
            for stored in layouts:
                assert outcome(method, stored, kernel) == want, (method, shape, stored.strides)
