import numpy as np
import pytest

from diffconv.baselines import SCHEME_TAGS, PaddingScheme, pad, partial_conv2d
from diffconv.benchmark import apply_method
from diffconv.engine import conv2d_diff, conv2d_valid
from diffconv.fields import FieldSpec, generate
from diffconv.stencils import half_width


def test_scheme_validation():
    with pytest.raises(ValueError):
        PaddingScheme("mirror")
    assert PaddingScheme("zero").seed == 0


def test_extrapolate_linear_row():
    field = np.array([[1.0, 2.0, 3.0]] * 3)
    out = pad(field, 3, "extrapolate")
    assert out.shape == (5, 5)
    assert np.array_equal(out[2], np.array([0.0, 1.0, 2.0, 3.0, 4.0]))


def test_replicate_single_pixel():
    out = pad(np.array([[5.0]]), 3, "replicate")
    assert np.array_equal(out, np.full((3, 3), 5.0))


def test_reflect_excludes_edge():
    field = np.array([[1.0, 2.0, 3.0]] * 3)
    out = pad(field, 3, "reflect")
    assert np.array_equal(out[2], np.array([2.0, 1.0, 2.0, 3.0, 2.0]))


def test_zero_and_circular_rows():
    field = np.array([[1.0, 2.0, 3.0]] * 3)
    assert np.array_equal(pad(field, 3, "zero")[2], np.array([0.0, 1.0, 2.0, 3.0, 0.0]))
    assert np.array_equal(pad(field, 3, "circular")[2], np.array([3.0, 1.0, 2.0, 3.0, 1.0]))


@pytest.mark.parametrize("tag", SCHEME_TAGS)
@pytest.mark.parametrize("k", [3, 5, 7])
def test_pad_shape_and_central_block(tag, k):
    rng = np.random.default_rng(k)
    field = rng.uniform(-1.0, 1.0, size=(k + 4, k + 1))
    m = (k - 1) // 2
    out = pad(field, k, PaddingScheme(tag, seed=5))
    assert out.shape == (field.shape[0] + 2 * m, field.shape[1] + 2 * m)
    assert np.array_equal(out[m:-m, m:-m], field)


def test_pad_preconditions():
    small = np.ones((2, 2))
    for tag in ("reflect", "extrapolate", "distribution"):
        with pytest.raises(ValueError):
            pad(small, 3, tag)
    # zero/replicate/circular accept any non-empty field
    for tag in ("zero", "replicate", "circular"):
        assert pad(small, 3, tag).shape == (4, 4)


@pytest.mark.parametrize("tag", ["extrapolate", "distribution"])
def test_pad_overflow_is_an_error_naming_the_scheme(tag):
    # A finite field whose extrapolated margin, or whose edge-band mean,
    # overflows float64.
    with pytest.raises(ValueError, match=rf"^{tag} output is not finite for K=9:"):
        pad(np.full((12, 12), 1e308), 9, tag)


def test_padded_conv_zero_box_blur_counts():
    out = apply_method("zero", np.ones((4, 4)), np.ones((3, 3)))
    expected = np.array([
        [4.0, 6.0, 6.0, 4.0],
        [6.0, 9.0, 9.0, 6.0],
        [6.0, 9.0, 9.0, 6.0],
        [4.0, 6.0, 6.0, 4.0],
    ])
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_padded_interior_bitwise_matches_valid(tag):
    rng = np.random.default_rng(17)
    field = rng.uniform(-1.0, 1.0, size=(9, 8))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    out = apply_method(tag, field, kernel, seed=3)
    assert out.shape == field.shape
    assert np.array_equal(out[1:-1, 1:-1], conv2d_valid(field, kernel))


def test_padded_differs_from_diff_only_on_boundary_band():
    rng = np.random.default_rng(18)
    field = rng.uniform(-1.0, 1.0, size=(10, 10))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    zero_out = apply_method("zero", field, kernel)
    diff_out = conv2d_diff(field, kernel)
    assert np.array_equal(zero_out[1:-1, 1:-1], diff_out[1:-1, 1:-1])
    assert not np.array_equal(zero_out[0], diff_out[0])


def test_circular_constant_field():
    kernel = np.random.default_rng(19).uniform(-1.0, 1.0, size=(3, 3))
    c = 2.5
    out = apply_method("circular", np.full((5, 6), c), kernel)
    assert np.max(np.abs(out - c * kernel.sum())) <= 1e-12


@pytest.mark.parametrize("k", [3, 5, 7])
def test_extrapolation_exact_for_low_degree_polynomials(k):
    # degree-d per-axis polynomial: padding must reproduce the analytic
    # extension sampled by the field generator
    d = m = half_width(k)
    rng = np.random.default_rng(23 + k)
    coeffs = rng.uniform(-1.0, 1.0, size=(d + 1, d + 1))
    fld = generate(FieldSpec(family="polynomial", height=12, width=11, coeffs=coeffs, margin=m))
    padded = pad(fld.core, k, "extrapolate")
    scale = np.max(np.abs(fld.data))
    assert np.max(np.abs(padded - fld.data)) <= 1e-9 * scale


def test_distribution_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(29)
    field = rng.uniform(0.0, 1.0, size=(8, 8))
    a = pad(field, 5, PaddingScheme("distribution", seed=42))
    b = pad(field, 5, PaddingScheme("distribution", seed=42))
    c = pad(field, 5, PaddingScheme("distribution", seed=43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_distribution_stream_is_pcg64_in_fixed_order(k):
    # pin the documented generator: PCG64(seed), standard_normal draws in the
    # order left, right, top, bottom, from edge bands (K + 1) / 2 thick
    field = np.random.default_rng(31).uniform(0.0, 1.0, size=(k + 3, k + 4))
    m, t = (k - 1) // 2, (k + 1) // 2
    h, w = field.shape
    got = pad(field, k, PaddingScheme("distribution", seed=9))
    rng = np.random.default_rng(9)
    bands = {
        "left": field[:, :t],
        "right": field[:, -t:],
        "top": field[:t, :],
        "bottom": field[-t:, :],
    }
    stats = {name: (np.mean(b), np.std(b, ddof=1)) for name, b in bands.items()}
    left = stats["left"][0] + stats["left"][1] * rng.standard_normal((h, m))
    right = stats["right"][0] + stats["right"][1] * rng.standard_normal((h, m))
    top = stats["top"][0] + stats["top"][1] * rng.standard_normal((m, w + 2 * m))
    bottom = stats["bottom"][0] + stats["bottom"][1] * rng.standard_normal((m, w + 2 * m))
    assert np.array_equal(got[m:-m, :m], left)
    assert np.array_equal(got[m:-m, -m:], right)
    assert np.array_equal(got[:m, :], top)
    assert np.array_equal(got[-m:, :], bottom)


def test_distribution_corners_use_row_band_statistics():
    # top rows constant 7, bottom rows constant -7: the top/bottom bands have
    # zero variance, so the corner fill is exactly those constants
    field = np.zeros((9, 9))
    field[:4, :] = 7.0
    field[-4:, :] = -7.0
    out = pad(field, 7, PaddingScheme("distribution", seed=1))
    m = 3
    assert np.all(out[:m, :] == 7.0)
    assert np.all(out[-m:, :] == -7.0)


def test_partial_ones_box_blur_is_nine_everywhere():
    out = partial_conv2d(np.ones((4, 4)), np.ones((3, 3)))
    assert np.max(np.abs(out - 9.0)) == 0.0


def test_partial_interior_equals_zero_padded_exactly():
    rng = np.random.default_rng(37)
    field = rng.uniform(-1.0, 1.0, size=(9, 9))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    part = partial_conv2d(field, kernel)
    zero = apply_method("zero", field, kernel)
    assert np.array_equal(part[1:-1, 1:-1], zero[1:-1, 1:-1])


def test_partial_masked_corner_stays_zero():
    kernel = np.zeros((3, 3))
    kernel[0, 0] = 1.0
    out = partial_conv2d(np.ones((3, 3)), kernel)
    assert out[0, 0] == 0.0


def test_partial_rescales_by_window_counts(loop_conv):
    rng = np.random.default_rng(41)
    field = rng.uniform(-1.0, 1.0, size=(6, 5))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    ref_zero = loop_conv(np.pad(field, 1), kernel)
    h, w = field.shape
    expected = np.empty((h, w))
    for y in range(h):
        for x in range(w):
            count = 0
            for i in range(3):
                for j in range(3):
                    if 0 <= y - 1 + i < h and 0 <= x - 1 + j < w:
                        count += 1
            expected[y, x] = ref_zero[y, x] * 9.0 / count
    assert np.max(np.abs(partial_conv2d(field, kernel) - expected)) <= 1e-12


def test_partial_reports_overflow_of_its_frame_rescale():
    # The zero-padded convolution is finite; the corner factor K^2 / (m + 1)^2
    # = 9 / 4 lifts it past the float64 range.
    kernel = np.zeros((3, 3))
    kernel[1, 1] = 1.0
    field = np.full((6, 6), 1e308)
    assert np.isfinite(apply_method("zero", field, kernel)).all()
    with pytest.raises(ValueError, match="partial output is not finite for K=3"):
        partial_conv2d(field, kernel)
