from fractions import Fraction

import numpy as np
import pytest
from conftest import identity_kernel

from diffconv.engine import METHODS, apply_method, conv2d_diff, conv2d_valid
from diffconv.fields import FieldSpec, generate, oracle_convolution
from diffconv.stencils import build_bank

EPS = np.finfo(float).eps


def nearest_window_loop(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Reference for conv2d_diff, one pixel at a time: the bank kernel for the
    pixel's position inside its nearest complete window, product-summed with
    that window."""
    h, w = field.shape
    k = kernel.shape[0]
    m = (k - 1) // 2
    bank = build_bank(kernel)
    out = np.empty((h, w))
    for y in range(h):
        for x in range(w):
            cy = min(max(y, m), h - 1 - m)
            cx = min(max(x, m), w - 1 - m)
            window = field[cy - m:cy + m + 1, cx - m:cx + m + 1]
            out[y, x] = np.sum(bank[(y - cy + m) * k + x - cx + m] * window)
    return out


def window_value(bank, window: np.ndarray, r: int, s: int) -> float:
    return float(np.sum(bank[r * window.shape[0] + s] * window))


def test_valid_ones_counting():
    out = conv2d_valid(np.ones((3, 3)), np.ones((3, 3)))
    assert out.shape == (1, 1)
    assert out[0, 0] == 9.0


def test_valid_central_difference_of_linear_row():
    field = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    kernel = 0.5 * np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(conv2d_valid(field, kernel), np.array([[1.0]]))


@pytest.mark.parametrize("shape,k", [((8, 8), 3), ((9, 12), 3), ((7, 7), 5), ((10, 8), 7)])
def test_valid_matches_loop_reference(loop_conv, shape, k):
    rng = np.random.default_rng(hash(shape) % 2**32)
    field = rng.uniform(-1.0, 1.0, size=shape)
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    got = conv2d_valid(field, kernel)
    ref = loop_conv(field, kernel)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_valid_rejects_undersized_field():
    with pytest.raises(ValueError):
        conv2d_valid(np.ones((2, 5)), np.ones((3, 3)))


def test_valid_overflow_is_an_error_naming_the_operation():
    # Finite input whose products sum past the float64 range.
    with pytest.raises(ValueError, match=r"^conv2d_valid output is not finite for K=3:"):
        conv2d_valid(np.full((12, 12), 1e308), np.ones((3, 3)))


# The nearest-complete-window rule at hand-picked pixels: which window serves
# a pixel, and at which in-window position.
def test_window_assignment_corner():
    rng = np.random.default_rng(30)
    field = rng.uniform(-1.0, 1.0, size=(4, 4))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    out = conv2d_diff(field, kernel)
    bank = build_bank(kernel)
    expected = window_value(bank, field[0:3, 0:3], 0, 0)
    assert abs(out[0, 0] - expected) <= 8 * EPS * np.max(np.abs(out))
    expected = window_value(bank, field[1:4, 1:4], 2, 2)
    assert abs(out[3, 3] - expected) <= 8 * EPS * np.max(np.abs(out))


def test_window_assignment_interior_is_center():
    rng = np.random.default_rng(31)
    field = rng.uniform(-1.0, 1.0, size=(6, 8))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    out = conv2d_diff(field, kernel)
    bank = build_bank(kernel)
    for y in range(1, 5):
        for x in range(1, 7):
            expected = window_value(bank, field[y - 1:y + 2, x - 1:x + 2], 1, 1)
            assert abs(out[y, x] - expected) <= 8 * EPS * np.max(np.abs(out))


def test_window_assignment_single_window():
    rng = np.random.default_rng(32)
    field = rng.uniform(-1.0, 1.0, size=(5, 5))
    kernel = rng.uniform(-1.0, 1.0, size=(5, 5))
    out = conv2d_diff(field, kernel)
    bank = build_bank(kernel)
    for y in range(5):
        for x in range(5):
            expected = window_value(bank, field, y, x)
            assert abs(out[y, x] - expected) <= 8 * EPS * np.max(np.abs(out))


def test_window_assignment_errors():
    with pytest.raises(ValueError, match="at least one complete window"):
        conv2d_diff(np.ones((2, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="at least one complete window"):
        conv2d_diff(np.ones((9, 4)), np.ones((5, 5)))


@pytest.mark.parametrize("k", [3, 5, 7])
def test_identity_kernel_fixpoint(k):
    rng = np.random.default_rng(40 + k)
    field = rng.uniform(-5.0, 5.0, size=(k + 5, k + 9))
    out = conv2d_diff(field, identity_kernel(k))
    assert out.shape == field.shape
    assert np.max(np.abs(out - field)) <= 1e-12


@pytest.mark.parametrize("k", [3, 5])
def test_constant_field_gives_kernel_sum(k):
    rng = np.random.default_rng(50 + k)
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    c = -3.7
    field = np.full((k + 4, k + 2), c)
    out = conv2d_diff(field, kernel)
    tol = 1e-10 * abs(c) * np.sum(np.abs(kernel))
    assert np.max(np.abs(out - c * kernel.sum())) <= tol


@pytest.mark.parametrize("k,rel_tol", [(3, 1e-9), (5, 1e-9), (7, 1e-6)])
def test_polynomial_fields_are_exact(k, rel_tol):
    # fields with per-axis degree <= k-1 are inside the window interpolant
    # space, so the boundary treatment reproduces the analytic continuation
    rng = np.random.default_rng(60 + k)
    m = (k - 1) // 2
    coeffs = rng.uniform(-1.0, 1.0, size=(k, k))
    fld = generate(FieldSpec(family="polynomial", height=20, width=20, coeffs=coeffs, margin=m))
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    truth = oracle_convolution(fld, kernel)
    got = conv2d_diff(fld.core, kernel)
    scale = np.max(np.abs(truth))
    assert np.max(np.abs(got - truth)) <= rel_tol * scale


@pytest.mark.parametrize("k", [3, 5, 7])
def test_interior_agrees_bitwise_with_valid(k):
    rng = np.random.default_rng(70 + k)
    field = rng.uniform(-1.0, 1.0, size=(k + 6, k + 3))
    kernel = rng.uniform(-1.0, 1.0, size=(k, k))
    m = (k - 1) // 2
    h, w = field.shape
    interior = conv2d_diff(field, kernel)[m:h - m, m:w - m]
    assert np.array_equal(interior, conv2d_valid(field, kernel))


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_padding_identity_matches_nearest_window_loop(k):
    # conv2d_diff pads by degree-(K-1) extrapolation and runs a valid
    # convolution; in exact arithmetic that is the bank kernel of each
    # pixel's in-window position applied to its nearest complete window.
    rng = np.random.default_rng(90 + k)
    m = (k - 1) // 2
    for shape in [(k, k), (k + 1, k + 6), (2 * k + 3, k + 2)]:
        field = rng.uniform(-1.0, 1.0, size=shape)
        kernel = rng.uniform(-1.0, 1.0, size=(k, k))
        got = conv2d_diff(field, kernel)
        h, w = shape
        assert np.array_equal(got[m:h - m, m:w - m], conv2d_valid(field, kernel))
        ref = nearest_window_loop(field, kernel)
        assert np.max(np.abs(got - ref)) <= 8 * EPS * np.max(np.abs(got))


def exact_polynomial_at(values, x: int) -> Fraction:
    """Exact value at ``x`` of the polynomial through (i, values[i])."""
    total = Fraction(0)
    for i, v in enumerate(values):
        num = den = 1
        for j in range(len(values)):
            if j != i:
                num *= x - j
                den *= i - j
        total += v * Fraction(num, den)
    return total


def exact_diff(field: np.ndarray, kernel: np.ndarray) -> list[list[Fraction]]:
    """conv2d_diff in rationals: extend each row, then each column, by the
    degree-(K-1) polynomial through its nearest K values, then correlate."""
    k = kernel.shape[0]
    m = (k - 1) // 2

    def extend(seq):
        head, tail = seq[:k], seq[::-1][:k]
        return ([exact_polynomial_at(head, -t) for t in range(m, 0, -1)] + seq
                + [exact_polynomial_at(tail, -t) for t in range(1, m + 1)])

    rows = [extend([Fraction(v) for v in row]) for row in field.tolist()]
    padded = list(zip(*[extend(list(col)) for col in zip(*rows)]))
    w = [[Fraction(v) for v in row] for row in kernel.tolist()]
    h, wd = field.shape
    return [[sum(w[i][j] * padded[y + i][x + j] for i in range(k) for j in range(k))
             for x in range(wd)] for y in range(h)]


# Worst error in eps of the output's scale max|exact| that the transformed-
# kernel bank gave on these fields before conv2d_diff became extrapolation
# padding; the padding path must stay within twice it.
BANK_PATH_WORST_EPS = {3: 1.191, 5: 1.698, 7: 5.184, 9: 2.820}


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_float_error_against_exact_reference(k):
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng([k, seed])
        field = rng.uniform(-1.0, 1.0, size=(14, 14))
        kernel = rng.uniform(-1.0, 1.0, size=(k, k))
        exact = exact_diff(field, kernel)
        got = conv2d_diff(field, kernel).tolist()
        scale = max(abs(v) for row in exact for v in row)
        err = max(abs(Fraction(g) - e) for grow, erow in zip(got, exact)
                  for g, e in zip(grow, erow))
        worst = max(worst, float(err / scale) / EPS)
    assert worst <= 2.0 * BANK_PATH_WORST_EPS[k]


def test_overflow_is_an_error_naming_the_gain():
    # The K = 9 corner gain (max |t_r|)^2 = 17325^2 lifts 1e301 past the
    # float64 range; at K = 3 (gain 9) the same field stays finite.
    field = np.full((18, 18), 1e301)
    field[::2, ::2] = -1e301
    assert np.all(np.isfinite(conv2d_diff(field[:9, :9], np.ones((3, 3)))))
    with pytest.raises(ValueError, match=r"K=9.*3\.002e\+08"):
        conv2d_diff(field, np.ones((9, 9)))


def test_output_shape_matches_input():
    kernel = np.ones((3, 3))
    for shape in [(3, 3), (3, 8), (8, 3), (17, 5)]:
        field = np.zeros(shape)
        assert conv2d_diff(field, kernel).shape == shape


def test_linearity_in_field():
    rng = np.random.default_rng(11)
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    f1 = rng.uniform(-1.0, 1.0, size=(9, 7))
    f2 = rng.uniform(-1.0, 1.0, size=(9, 7))
    a, b = 1.7, -0.4
    lhs = conv2d_diff(a * f1 + b * f2, kernel)
    rhs = a * conv2d_diff(f1, kernel) + b * conv2d_diff(f2, kernel)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


@pytest.mark.parametrize("k", [3, 5])
def test_rot180_equivariance_for_symmetric_kernel(k):
    rng = np.random.default_rng(80 + k)
    raw = rng.uniform(-1.0, 1.0, size=(k, k))
    kernel = raw + raw[::-1, ::-1]
    field = rng.uniform(-1.0, 1.0, size=(k + 5, k + 2))
    lhs = conv2d_diff(field[::-1, ::-1].copy(), kernel)
    rhs = conv2d_diff(field, kernel)[::-1, ::-1]
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_determinism_repeat_runs():
    rng = np.random.default_rng(13)
    field = rng.uniform(-1.0, 1.0, size=(12, 9))
    kernel = rng.uniform(-1.0, 1.0, size=(5, 5))
    assert np.array_equal(conv2d_diff(field, kernel), conv2d_diff(field, kernel))


def test_prebuilt_bank_matches_and_validates():
    rng = np.random.default_rng(14)
    field = rng.uniform(-1.0, 1.0, size=(8, 8))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    bank = build_bank(kernel)
    assert np.array_equal(conv2d_diff(field, kernel, bank=bank), conv2d_diff(field, kernel))
    with pytest.raises(ValueError):
        conv2d_diff(field, rng.uniform(-1, 1, (5, 5)), bank=bank)


@pytest.mark.parametrize("method", [*METHODS, "conv2d_valid"])
@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_field_is_rejected_naming_the_method(method, shape):
    with pytest.raises(ValueError, match=rf"^{method} got a field of shape {shape[0]}x{shape[1]};"):
        if method == "conv2d_valid":
            conv2d_valid(np.ones(shape), np.ones((3, 3)))
        else:
            apply_method(method, np.ones(shape), np.ones((3, 3)))


def test_diff_rejects_undersized_field():
    with pytest.raises(ValueError):
        conv2d_diff(np.ones((4, 2)), np.ones((3, 3)))


@pytest.mark.parametrize("field,message", [
    (np.ones(5), r"^field must be a 2D array, got shape \(5,\)$"),
    (np.ones((2, 3, 3)), r"^field must be a 2D array, got shape \(2, 3, 3\)$"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), r"^field entries must be finite$"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), r"^field entries must be finite$"),
])
def test_field_that_is_not_2d_or_not_finite_is_rejected(field, message):
    with pytest.raises(ValueError, match=message):
        conv2d_valid(field, np.ones((3, 3)))
    with pytest.raises(ValueError, match=message):
        apply_method("zero", field, np.ones((3, 3)))


def test_unknown_method_is_rejected_naming_the_methods():
    with pytest.raises(ValueError, match=r"^unknown method 'mirror'; expected one of \('diff',"):
        apply_method("mirror", np.ones((5, 5)), np.ones((3, 3)))
