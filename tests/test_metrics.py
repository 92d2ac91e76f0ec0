import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffconv.benchmark import error_means, l1_error, mse


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


def test_metrics_are_the_row_major_running_sum():
    # The definition: a left-to-right sum over row-major pixels, divided by
    # the pixel count; equal bitwise, not to a tolerance.
    rng = np.random.default_rng(4)
    a = rng.uniform(-3.0, 3.0, size=(9, 11)) * 10.0 ** rng.integers(-8, 8, size=(9, 11))
    b = rng.uniform(-3.0, 3.0, size=(9, 11))
    l1 = sq = 0.0
    for y in range(9):
        for x in range(11):
            d = float(a[y, x]) - float(b[y, x])
            l1 += abs(d)
            sq += d * d
    assert l1_error(a, b) == l1 / 99
    assert mse(a, b) == sq / 99
    # Any input layout is summed in the same row-major pixel order.
    assert l1_error(np.asfortranarray(a), b) == l1 / 99
    assert mse(a, np.asfortranarray(b)) == sq / 99


@pytest.mark.parametrize("metric", [l1_error, mse])
@pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
def test_empty_inputs_raise(metric, shape):
    with pytest.raises(ValueError, match=r"at least one pixel"):
        metric(np.zeros(shape), np.zeros(shape))


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



def assert_left_to_right_sum(d, count):
    # The definition: np.add.accumulate's last entry along the last axis,
    # whose order of additions is fixed, over ``count``, of |d| and of d²;
    # bitwise.
    want = np.stack([np.add.accumulate(err, axis=-1)[..., -1] / count
                     for err in (np.abs(d), d * d)])
    got = error_means(d, count)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def signed_magnitudes(rng, shape):
    # Signed values from 1e-6 to 1e6 in magnitude, so every rounding differs
    # with the order of the additions.
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)


@pytest.mark.parametrize("lanes", range(1, 10))
def test_running_mean_sums_in_order_at_every_lane_count(lanes):
    # numpy sums pairwise along a contiguous axis, so a single lane is where
    # an in-order sum is easiest to lose.
    rng = np.random.default_rng(lanes)
    for length in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 5000):
        assert_left_to_right_sum(signed_magnitudes(rng, (lanes, length)), 99)
        assert_left_to_right_sum(np.abs(signed_magnitudes(rng, (lanes, length))), length)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(), (1,), (2,), (1, 1), (3,), (1, 4), (5,), (2, 3), (7,), (2, 4), (3, 3), (9,)]),
       st.integers(1, 5000), st.integers(0, 2**32 - 1))
def test_running_mean_sums_in_order_for_any_batch(batch, length, seed):
    # Batch shapes of 1 to 9 lanes, and the 1-D sum of l1_error and mse.
    rng = np.random.default_rng(seed)
    assert_left_to_right_sum(signed_magnitudes(rng, (*batch, length)), length)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_metrics_sum_in_order_at_any_size(height, width, seed):
    # One lane of height * width pixels, up to 4,900.
    rng = np.random.default_rng(seed)
    a, b = (signed_magnitudes(rng, (height, width)) for _ in range(2))
    d = (a - b).reshape(-1)
    l1 = np.add.accumulate(np.abs(d))[-1] / d.size
    sq = np.add.accumulate(d * d)[-1] / d.size
    assert (l1_error(a, b), mse(a, b)) == (l1, sq)
