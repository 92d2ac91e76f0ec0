"""Row-tiled accumulation against the untiled references, and the full-size
arrays each size-keeping call allocates."""

import tracemalloc

import numpy as np
import pytest
from conftest import reference_accumulate, reference_pad_extrapolate

from diffconv import engine
from diffconv.baselines import PaddingScheme, _partial_scale, pad, partial_conv2d
from diffconv.benchmark import METHODS, apply_method
from diffconv.engine import _accumulate, _pad_extrapolate, conv2d_diff, conv2d_valid
from diffconv.stencils import half_width


def reference_method(method: str, field: np.ndarray, kernel: np.ndarray, seed: int) -> np.ndarray:
    """``apply_method`` through the untiled accumulation, the stacked
    extrapolation padding and partial's full-size scale map."""
    k = kernel.shape[0]
    m = half_width(k)
    if method == "partial":
        h, w = field.shape
        return reference_accumulate(np.pad(field, m), kernel) * _partial_scale(h, w, k)
    if method == "diff":
        padded = reference_pad_extrapolate(field, k, k - 1)
    elif method == "extrapolate":
        padded = reference_pad_extrapolate(field, k, m)
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


@pytest.mark.parametrize("tile_rows", [1, 2])
@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_every_method_matches_untiled_reference(monkeypatch, k, tile_rows):
    # Exactly K x K and K x W fields: the bottom margin is extrapolated from
    # every row, so a wrong reverse slice shows there first. K is odd, so
    # two-row tiles leave a one-row remainder tile.
    m = half_width(k)
    for shape in [(k, k), (k, 2 * k + 3), (2 * k + 4, k), (2 * k + 5, 3 * k + 2)]:
        field, kernel = field_and_kernel(shape, k, seed=10 * k + shape[1])
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_rows * 8 * shape[1])
        for degree in (m, k - 1):
            assert_bitwise_equal(_pad_extrapolate(field, k, degree),
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
def test_band_stacks_match_untiled_reference(monkeypatch, k):
    # The stacks run_benchmark accumulates: per slot, the top and bottom
    # bands as (2, 3m, W + 2m) and the left and right ones as (2, H + 2m, 3m).
    m = half_width(k)
    rng = np.random.default_rng(k)
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    stacks = [rng.standard_normal((3, 2, 3 * m, 17 + 2 * m)),
              rng.standard_normal((3, 2, 15 + 2 * m, 3 * m))]
    for stack in stacks:
        want = reference_accumulate(stack, kernel)
        assert_bitwise_equal(_accumulate(stack, kernel), want)  # one tile
        batch_row_bytes = 8 * want.shape[-1] * 6
        for tile_bytes in (1, 2 * batch_row_bytes, 2 * batch_row_bytes + 8):
            monkeypatch.setattr(engine, "_TILE_BYTES", tile_bytes)
            assert_bitwise_equal(_accumulate(stack, kernel), want)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_column_major_band_stacks_match_untiled_reference(monkeypatch, k):
    # run_benchmark stores its left and right bands column-major: a
    # (..., H + 2m, 3m) view of a C-ordered (..., 3m, H + 2m) array. The
    # output keeps that layout, and each tile holds whole output columns.
    m = half_width(k)
    rng = np.random.default_rng(100 + k)
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    stack = np.empty((3, 2, 3 * m, 15 + 2 * m)).swapaxes(-1, -2)
    stack[...] = rng.standard_normal(stack.shape)
    stack[0, 0, :, 0] = 0.0  # signed-zero products, as in field_and_kernel
    want = reference_accumulate(np.ascontiguousarray(stack), kernel)
    got = _accumulate(stack, kernel)  # one tile
    assert_bitwise_equal(got, want)
    assert got.strides[-2] < got.strides[-1]
    batch_column_bytes = 8 * want.shape[-2] * 6
    for tile_columns in (1, 2):
        monkeypatch.setattr(engine, "_TILE_BYTES", tile_columns * batch_column_bytes)
        assert_bitwise_equal(_accumulate(stack, kernel), want)
    # A C-contiguous input still gives a C-contiguous output.
    assert _accumulate(np.ascontiguousarray(stack), kernel).flags.c_contiguous


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
    (conv2d_diff, 2),  # the padded field and the output
    (partial_conv2d, 2),  # the zero-padded field and the output
])
def test_full_size_arrays_per_call(function, full_size_arrays):
    # Traced peak of one call at 512^2, K = 3, in units of the field's size.
    # Besides the full-size arrays there is one scratch tile, a few
    # margin-sized arrays and the 64 KiB buffer numpy's multiply allocates
    # for a strided view. An untiled accumulation adds one full-size product
    # temporary per call, a stacked padding or a full-size scale map another.
    field = np.random.default_rng(0).standard_normal((512, 512))
    kernel = np.full((3, 3), 1.0 / 9.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        function(field, kernel)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert round(peak / field.nbytes) == full_size_arrays
    padded_bytes = 514 * 514 * 8
    assert peak <= full_size_arrays * padded_bytes + engine._TILE_BYTES + 128 * 1024
