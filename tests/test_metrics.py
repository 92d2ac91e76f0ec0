import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffconv.metrics import interior_frame_split, l1_error, mse


def test_identical_fields_have_zero_error():
    a = np.random.default_rng(1).uniform(-1.0, 1.0, size=(5, 7))
    assert l1_error(a, a) == 0.0
    assert mse(a, a) == 0.0


def test_l1_small_example():
    assert l1_error(np.array([[0.0, 2.0]]), np.array([[1.0, 1.0]])) == 1.0


def test_metrics_match_loop_reference():
    rng = np.random.default_rng(2)
    a = rng.uniform(-3.0, 3.0, size=(9, 11))
    b = rng.uniform(-3.0, 3.0, size=(9, 11))
    ref_l1 = sum(abs(a[y, x] - b[y, x]) for y in range(9) for x in range(11)) / (9 * 11)
    ref_mse = sum((a[y, x] - b[y, x]) ** 2 for y in range(9) for x in range(11)) / (9 * 11)
    assert abs(l1_error(a, b) - ref_l1) <= 1e-13
    assert abs(mse(a, b) - ref_mse) <= 1e-13


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        l1_error(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_symmetry_and_scaling():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, size=(6, 6))
    b = rng.uniform(-1.0, 1.0, size=(6, 6))
    assert l1_error(a, b) == l1_error(b, a)
    assert mse(a, b) == mse(b, a)
    c = -2.5
    assert l1_error(c * a, c * b) == pytest.approx(abs(c) * l1_error(a, b), rel=1e-13)
    assert mse(c * a, c * b) == pytest.approx(c * c * mse(a, b), rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(4, 4))
    b = a.copy()
    b[2, 1] += 0.5
    assert l1_error(a, b) > 0.0
    assert mse(a, b) > 0.0


def test_split_uniform_map():
    interior, frame = interior_frame_split(np.full((20, 30), 0.25), 4)
    assert interior == 0.25
    assert frame == 0.25


def test_split_block_geometry_192():
    err = np.zeros((192, 192))
    err[8:-8, 8:-8] = 2.0
    err[err == 0.0] = 5.0
    interior, frame = interior_frame_split(err, 8)
    assert interior == 2.0
    assert frame == 5.0
    inner_count = 176 * 176
    frame_count = 192 * 192 - inner_count
    # weighted means recombine to the global mean only with these counts
    total = interior * inner_count + frame * frame_count
    assert total == pytest.approx(float(np.sum(err)))


def test_split_counts_partition_pixels():
    rng = np.random.default_rng(4)
    err = rng.uniform(0.0, 1.0, size=(15, 11))
    interior, frame = interior_frame_split(err, 3)
    inner_count = (15 - 6) * (11 - 6)
    frame_count = 15 * 11 - inner_count
    recombined = (interior * inner_count + frame * frame_count) / (15 * 11)
    assert recombined == pytest.approx(float(np.mean(err)), rel=1e-12)


def test_split_rejects_thin_maps():
    with pytest.raises(ValueError):
        interior_frame_split(np.zeros((8, 20)), 4)
    with pytest.raises(ValueError):
        interior_frame_split(np.zeros((20, 20)), 0)
