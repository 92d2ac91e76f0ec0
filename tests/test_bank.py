import json
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import derivative_stencil, identity_kernel, mat_identity, mat_mul
from hypothesis import given, settings
from hypothesis import strategies as st

from diffconv.cli import main
from diffconv.npyio import save_array
from diffconv.stencils import (
    as_kernel,
    build_bank,
    half_width,
    invert_center_matrix,
    kernel_from_operator,
    mat_to_floats,
    shift_matrix,
    stencil_matrix,
)

LAPLACE_3 = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])

BOX_BLUR_CORNER = np.array([[16.0, -8.0, 4.0], [-8.0, 4.0, -2.0], [4.0, -2.0, 1.0]])


def operator_coeffs(kernel: np.ndarray) -> np.ndarray:
    """Operator coefficients of ``kernel``: the exact center inverse, in
    float64, applied to the vectorized kernel."""
    k = kernel.shape[0]
    return mat_to_floats(invert_center_matrix(k)) @ kernel.reshape(k * k)


def sympy_operator_solve(kernel: np.ndarray):
    """Independent oracle: assemble the center system symbolically and solve it."""
    sympy = pytest.importorskip("sympy")
    k = kernel.shape[0]
    m = (k - 1) // 2
    x = sympy.symbols("x")
    basis = [
        sympy.expand(sympy.prod([(x - j) / sympy.Integer(i - j) for j in range(k) if j != i]))
        for i in range(k)
    ]
    deriv_at_center = [
        [sympy.diff(basis[i], x, order).subs(x, m) for i in range(k)] for order in range(k)
    ]
    rows = []
    for i in range(k):
        for j in range(k):
            rows.append([
                deriv_at_center[oy][i] * deriv_at_center[ox][j]
                for oy in range(k)
                for ox in range(k)
            ])
    matrix = sympy.Matrix(rows)
    rhs = sympy.Matrix([sympy.Rational(v) for v in kernel.reshape(k * k)])
    return matrix.solve(rhs)


def test_operator_coeffs_of_stencil_is_unit_vector():
    omega = mat_to_floats(derivative_stencil(3, 0, 2, 1, 1))
    alpha = operator_coeffs(omega)
    expected = np.zeros(9)
    expected[2] = 1.0
    assert np.allclose(alpha, expected, atol=1e-14)


def test_operator_coeffs_laplace_matches_exact_solve():
    alpha = operator_coeffs(LAPLACE_3)
    oracle = np.array([float(v) for v in sympy_operator_solve(LAPLACE_3)])
    assert np.allclose(alpha, oracle, atol=1e-13)
    expected = np.zeros(9)
    expected[2 * 3 + 0] = 1.0
    expected[0 * 3 + 2] = 1.0
    assert np.allclose(alpha, expected, atol=1e-13)


def test_operator_coeffs_ones_matches_exact_solve():
    ones = np.ones((3, 3))
    alpha = operator_coeffs(ones)
    oracle = np.array([float(v) for v in sympy_operator_solve(ones)])
    assert np.allclose(alpha, oracle, atol=1e-13)
    assert alpha[0] == pytest.approx(9.0, abs=1e-13)


def test_kernel_from_operator_unit_is_identity_kernel():
    alpha = np.zeros(9)
    alpha[0] = 1.0
    assert np.array_equal(kernel_from_operator(alpha), identity_kernel(3))


@pytest.mark.parametrize("coeffs,message", [
    (np.ones((3, 3)), r"coefficients must be a 1D vector, got shape \(3, 3\)"),
    (np.ones(8), "coefficient vector length 8 is not a square"),
    (np.array([1.0] * 8 + [np.nan]), "coefficients must be finite"),
], ids=["not-1d", "not-square", "not-finite"])
def test_kernel_from_operator_rejects_bad_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        kernel_from_operator(coeffs)


def test_kernel_from_operator_laplace():
    # oracle: exact sum of the two second-derivative stencils at the center
    oracle = (
        mat_to_floats(derivative_stencil(3, 2, 0, 1, 1))
        + mat_to_floats(derivative_stencil(3, 0, 2, 1, 1))
    )
    alpha = np.zeros(9)
    alpha[2 * 3 + 0] = 1.0
    alpha[0 * 3 + 2] = 1.0
    got = kernel_from_operator(alpha)
    assert np.array_equal(got, oracle)
    assert np.array_equal(got, LAPLACE_3)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_round_trip_kernel(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(10):
        omega = rng.uniform(-1.0, 1.0, size=(k, k))
        back = kernel_from_operator(operator_coeffs(omega))
        assert np.max(np.abs(back.reshape(-1) - omega.reshape(-1))) <= 1e-12


@pytest.mark.parametrize("k", [3, 5, 7])
def test_round_trip_coefficients(k):
    rng = np.random.default_rng(200 + k)
    for _ in range(10):
        alpha = rng.uniform(-1.0, 1.0, size=k * k)
        back = operator_coeffs(kernel_from_operator(alpha))
        assert np.max(np.abs(back - alpha)) <= 1e-12


def test_transform_box_blur_corner():
    assert np.array_equal(build_bank(np.ones((3, 3)))[0], BOX_BLUR_CORNER)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_transform_center_is_noop(k):
    rng = np.random.default_rng(300 + k)
    omega = rng.uniform(-1.0, 1.0, size=(k, k))
    m = half_width(k)
    assert np.array_equal(build_bank(omega)[m * k + m], omega)


def test_transform_identity_kernel_gives_indicators():
    # K = 3 is covered by test_bank_of_identity_kernel_is_indicators.
    for k in (5, 7):
        bank = build_bank(identity_kernel(k))
        for r in range(k):
            for s in range(k):
                expected = np.zeros((k, k))
                expected[r, s] = 1.0
                assert np.array_equal(bank[r * k + s], expected)


def test_transform_rejects_bad_position():
    with pytest.raises(ValueError):
        shift_matrix(3, 3)
    with pytest.raises(ValueError):
        shift_matrix(3, -1)


def test_as_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        as_kernel(np.ones((3, 4)))
    with pytest.raises(ValueError):
        as_kernel(np.ones((4, 4)))
    with pytest.raises(ValueError):
        as_kernel(np.array([[np.nan] * 3] * 3))


def kron(a, b):
    """Exact Kronecker product of two square Fraction matrices."""
    n = len(b)
    return tuple(
        tuple(a[i][p] * b[j][q] for p in range(len(a)) for q in range(n))
        for i in range(len(a))
        for j in range(n)
    )


@pytest.mark.parametrize("k", [3, 5])
def test_exact_center_transform_is_identity(k):
    m = half_width(k)
    assert shift_matrix(k, m) == mat_identity(k)
    assert kron(shift_matrix(k, m), shift_matrix(k, m)) == mat_identity(k * k)


@pytest.mark.parametrize("k", [3, 5])
def test_exact_transform_columns_sum_to_one(k):
    # kernel-sum preservation: every column of every t_r sums to one (the
    # Lagrange basis is a partition of unity), so every kron(t_r, t_s) does
    for r in range(k):
        t = shift_matrix(k, r)
        for col in range(k):
            assert sum(t[row][col] for row in range(k)) == 1


@pytest.mark.parametrize("k", [3, 5])
def test_exact_transforms_have_integer_entries(k):
    # the shift matrices are integer, so the float factors are exact
    for r in range(k):
        for row in shift_matrix(k, r):
            for value in row:
                assert value.denominator == 1


def positions(k: int, full: bool):
    if full:
        return [(r, s) for r in range(k) for s in range(k)]
    m = half_width(k)
    last = k - 1
    return [(0, 0), (0, last), (last, 0), (last, last), (0, m), (m, 0), (last, m), (m, last)]


@pytest.mark.parametrize("k,full", [(3, True), (5, True), (7, True), (9, False)])
def test_transform_is_kron_of_shift_matrices(k, full):
    # T(r, s) = D(r, s) D(center)^-1, the paper's transform, equals
    # kron(t_r, t_s) exactly; the float bank's columns (transforms of unit
    # kernels) equal it bit for bit. K = 9 checks corners and edge midpoints,
    # a full sweep costs about 15 s of Fraction products.
    inverse = invert_center_matrix(k)
    units = np.eye(k * k).reshape(k * k, k, k)
    banks = np.stack([build_bank(unit) for unit in units])  # [col, pos, i, j]
    for r, s in positions(k, full):
        separable = kron(shift_matrix(k, r), shift_matrix(k, s))
        assert mat_mul(stencil_matrix(k, r, s), inverse) == separable
        floats = np.array([[float(v) for v in row] for row in separable])
        assert np.array_equal(banks[:, r * k + s].reshape(k * k, k * k).T, floats)


@pytest.mark.parametrize("k,bound", [(5, 1e-11), (7, 1e-8)])
def test_bank_kernel_sum_drift_tracks_transform_magnitude(k, bound):
    # float matvec rounding grows with the transform entry magnitudes
    # (hundreds for K=5, ~7e5 for K=7); these bounds have ~10x headroom
    rng = np.random.default_rng(500 + k)
    worst = 0.0
    for _ in range(50):
        omega = rng.uniform(-1.0, 1.0, size=(k, k))
        sums = build_bank(omega).sum(axis=(1, 2))
        worst = max(worst, float(np.max(np.abs(sums - omega.sum()))))
    assert worst <= bound


def test_bank_structure_and_center_entry():
    omega = np.ones((3, 3))
    bank = build_bank(omega)
    assert bank.shape == (9, 3, 3)
    assert not bank.flags.writeable
    assert np.array_equal(bank[0], BOX_BLUR_CORNER)
    assert np.array_equal(bank[1 * 3 + 1], omega)


def test_bank_of_identity_kernel_is_indicators():
    bank = build_bank(identity_kernel(3))
    for r in range(3):
        for s in range(3):
            expected = np.zeros((3, 3))
            expected[r, s] = 1.0
            assert np.array_equal(bank[r * 3 + s], expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bank_preserves_kernel_sum(seed):
    rng = np.random.default_rng(seed)
    omega = rng.uniform(-1.0, 1.0, size=(3, 3))
    bank = build_bank(omega)
    sums = bank.sum(axis=(1, 2))
    assert np.max(np.abs(sums - omega.sum())) <= 1e-10


@pytest.mark.parametrize("k", [3, 5])
def test_transform_linearity(k):
    rng = np.random.default_rng(400 + k)
    a, b = 0.7, -1.3
    om1 = rng.uniform(-1.0, 1.0, size=(k, k))
    om2 = rng.uniform(-1.0, 1.0, size=(k, k))
    lhs = build_bank(a * om1 + b * om2)
    rhs = a * build_bank(om1) + b * build_bank(om2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_bank_json_round_trip(tmp_path):
    # ``dump-bank`` writes the bank of a kernel as JSON: its size, the kernel
    # as loaded, and every entry keyed by its in-window position "r,s".
    rng = np.random.default_rng(7)
    for k in (3, 9):
        omega = rng.uniform(-1.0, 1.0, size=(k, k))
        path = tmp_path / f"k{k}.npy"
        save_array(path, omega)
        result = CliRunner().invoke(main, ["dump-bank", "--kernel", str(path)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        bank = build_bank(omega)
        assert payload["size"] == k
        assert payload["base"] == omega.tolist()
        assert payload["kernels"] == {
            f"{r},{s}": bank[r * k + s].tolist() for r in range(k) for s in range(k)
        }
