import json
from fractions import Fraction

import numpy as np
import pytest
from conftest import derivative_stencil, mat_identity, mat_mul

from diffconv.stencils import (
    SUPPORTED_SIZES,
    center_condition_number,
    derivative_matrix,
    half_width,
    invert_center_matrix,
    kron,
    mat_to_floats,
    matrix_payload,
    shift_matrix,
    stencil_matrix,
    taylor_matrix,
)

F = Fraction


def frac_matrix(rows):
    return tuple(tuple(F(v) for v in row) for row in rows)


# Worked 3x3 tables, frozen as exact rationals.
CENTER_STENCILS_K3 = {
    (0, 0): frac_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
    (0, 1): frac_matrix([[0, 0, 0], [F(-1, 2), 0, F(1, 2)], [0, 0, 0]]),
    (0, 2): frac_matrix([[0, 0, 0], [1, -2, 1], [0, 0, 0]]),
    (1, 1): frac_matrix([[F(1, 4), 0, F(-1, 4)], [0, 0, 0], [F(-1, 4), 0, F(1, 4)]]),
    (1, 2): frac_matrix([[F(-1, 2), 1, F(-1, 2)], [0, 0, 0], [F(1, 2), -1, F(1, 2)]]),
    (2, 2): frac_matrix([[1, -2, 1], [-2, 4, -2], [1, -2, 1]]),
}

MATRIX_K3_CENTER = frac_matrix([
    [0, 0, 0, 0, F(1, 4), F(-1, 2), 0, F(-1, 2), 1],
    [0, 0, 0, F(-1, 2), 0, 1, 1, 0, -2],
    [0, 0, 0, 0, F(-1, 4), F(-1, 2), 0, F(1, 2), 1],
    [0, F(-1, 2), 1, 0, 0, 0, 0, 1, -2],
    [1, 0, -2, 0, 0, 0, -2, 0, 4],
    [0, F(1, 2), 1, 0, 0, 0, 0, -1, -2],
    [0, 0, 0, 0, F(-1, 4), F(1, 2), 0, F(-1, 2), 1],
    [0, 0, 0, F(1, 2), 0, -1, 1, 0, -2],
    [0, 0, 0, 0, F(1, 4), F(1, 2), 0, F(1, 2), 1],
])

MATRIX_K3_CORNER = frac_matrix([
    [1, F(-3, 2), 1, F(-3, 2), F(9, 4), F(-3, 2), 1, F(-3, 2), 1],
    [0, 2, -2, 0, -3, 3, 0, 2, -2],
    [0, F(-1, 2), 1, 0, F(3, 4), F(-3, 2), 0, F(-1, 2), 1],
    [0, 0, 0, 2, -3, 2, -2, 3, -2],
    [0, 0, 0, 0, 4, -4, 0, -4, 4],
    [0, 0, 0, 0, -1, 2, 0, 1, -2],
    [0, 0, 0, F(-1, 2), F(3, 4), F(-1, 2), 1, F(-3, 2), 1],
    [0, 0, 0, 0, -1, 1, 0, 2, -2],
    [0, 0, 0, 0, F(1, 4), F(-1, 2), 0, F(-1, 2), 1],
])


def test_half_width_accepts_supported_sizes():
    assert [half_width(k) for k in SUPPORTED_SIZES] == [1, 2, 3, 4]


@pytest.mark.parametrize("bad", [2, 4, 11, 1, 0, -3, 3.0, "3", True])
def test_half_width_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        half_width(bad)


def test_known_derivative_values():
    # derivative_matrix(k, at)[node][order] = l_node^(order)(at)
    assert derivative_matrix(3, 0)[0][0] == 1
    assert derivative_matrix(3, 0)[0][1] == F(-3, 2)
    assert derivative_matrix(3, 1)[1][2] == -2


@pytest.mark.parametrize("k", SUPPORTED_SIZES)
def test_interpolation_property(k):
    for at in range(k):
        d = derivative_matrix(k, at)
        for node in range(k):
            assert d[node][0] == int(node == at)


@pytest.mark.parametrize("k", SUPPORTED_SIZES)
def test_partition_of_unity_derivatives(k):
    # sum_i l_i(x) == 1 identically, so every derivative of the sum vanishes.
    tables = [derivative_matrix(k, at) for at in range(k)]
    for order in range(k):
        for d in tables:
            total = sum(d[node][order] for node in range(k))
            assert total == (1 if order == 0 else 0)


def test_out_of_range_arguments():
    for args, message in [((3, 3), "^at must be in 0..2"), ((3, -1), "^at must be in 0..2"),
                          ((4, 0), "^kernel size must be one of")]:
        with pytest.raises(ValueError, match=message):
            derivative_matrix(*args)
    with pytest.raises(ValueError, match="^x must be in 0..2, got 5"):
        stencil_matrix(3, 0, 5)
    with pytest.raises(ValueError, match="^y must be in 0..2, got 3"):
        stencil_matrix(3, 3, 0)
    with pytest.raises(ValueError, match="^x must be an integer"):
        stencil_matrix(3, 0, 1.5)


def test_cached_factor_still_validates_equal_keys():
    # True == 1 and 3.0 == 3 compare equal to valid arguments; both are rejected.
    derivative_matrix(3, 1)
    with pytest.raises(ValueError, match="^at must be an integer"):
        derivative_matrix(3, True)
    with pytest.raises(ValueError, match="^kernel size must be an integer"):
        derivative_matrix(3.0, 1)


@pytest.mark.parametrize("k", SUPPORTED_SIZES)
def test_one_axis_factor_identities(k):
    # D_r B = t_r for every r, hence D_m B = t_m = I: the K x K identities
    # whose Kronecker squares are D(r, s) D(center)^-1 = kron(t_r, t_s).
    m = half_width(k)
    b = taylor_matrix(k)
    for r in range(k):
        assert mat_mul(derivative_matrix(k, r), b) == shift_matrix(k, r)
    assert mat_mul(derivative_matrix(k, m), b) == mat_identity(k)
    assert mat_mul(b, derivative_matrix(k, m)) == mat_identity(k)


def test_kron_index_order():
    a = ((F(1), F(2)), (F(3), F(4)))
    b = ((F(0), F(5), F(1)),)
    assert kron(a, b) == (
        (0, 5, 1, 0, 10, 2),
        (0, 15, 3, 0, 20, 4),
    )
    assert kron(b, a) == (
        (0, 0, 5, 10, 1, 2),
        (0, 0, 15, 20, 3, 4),
    )


def test_center_stencils_k3_frozen():
    for (oy, ox), expected in CENTER_STENCILS_K3.items():
        assert derivative_stencil(3, oy, ox, 1, 1) == expected
    # remaining three are transposes of listed ones
    for oy, ox in [(1, 0), (2, 0), (2, 1)]:
        got = derivative_stencil(3, oy, ox, 1, 1)
        expected = CENTER_STENCILS_K3[(ox, oy)]
        assert got == tuple(zip(*expected))


@pytest.mark.parametrize("k", [3, 5])
def test_zeroth_order_stencil_is_indicator(k):
    for y in range(k):
        for x in range(k):
            entries = derivative_stencil(k, 0, 0, y, x)
            for i in range(k):
                for j in range(k):
                    assert entries[i][j] == int(i == y and j == x)


@pytest.mark.parametrize("k", [3, 5])
def test_transpose_symmetry(k):
    for oy in range(k):
        for ox in range(k):
            for y in range(k):
                for x in range(k):
                    a = derivative_stencil(k, oy, ox, y, x)
                    b = derivative_stencil(k, ox, oy, x, y)
                    assert a == tuple(zip(*b))


@pytest.mark.parametrize("k,y,x", [(3, 1, 1), (3, 0, 0), (5, 2, 2), (5, 0, 4)])
def test_matrix_columns_are_vectorized_stencils(k, y, x):
    mat = stencil_matrix(k, y, x)
    for oy in range(k):
        for ox in range(k):
            stencil = derivative_stencil(k, oy, ox, y, x)
            col = oy * k + ox
            for i in range(k):
                for j in range(k):
                    assert mat[i * k + j][col] == stencil[i][j]


def test_matrix_k3_frozen_tables():
    assert stencil_matrix(3, 1, 1) == MATRIX_K3_CENTER
    assert stencil_matrix(3, 0, 0) == MATRIX_K3_CORNER


@pytest.mark.parametrize("k", [3, 5, 7])
def test_all_ones_row_selects_first_column(k):
    # exact summation of every column, at every window position
    for y in range(k):
        for x in range(k):
            mat = stencil_matrix(k, y, x)
            for col in range(k * k):
                total = sum(mat[row][col] for row in range(k * k))
                assert total == (1 if col == 0 else 0)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_center_inverse_is_exact(k):
    m = half_width(k)
    center = stencil_matrix(k, m, m)
    inverse = invert_center_matrix(k)
    assert mat_mul(center, inverse) == mat_identity(k * k)
    assert mat_mul(inverse, center) == mat_identity(k * k)


def test_center_inverse_ones_vector_k3():
    # exact solve oracle via sympy, independent of the Taylor-matrix inverse
    sympy = pytest.importorskip("sympy")
    center = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                           for row in stencil_matrix(3, 1, 1)])
    alpha_oracle = center.solve(sympy.ones(9, 1))
    inverse = invert_center_matrix(3)
    ones = [F(1)] * 9
    alpha = [sum(row[j] * ones[j] for j in range(9)) for row in inverse]
    assert alpha[0] == 9
    for ours, ref in zip(alpha, alpha_oracle):
        assert F(ours) == F(int(sympy.fraction(ref)[0]), int(sympy.fraction(ref)[1]))


def test_condition_number_grows_with_size():
    conds = [center_condition_number(k) for k in (3, 5, 7)]
    assert conds[0] == pytest.approx(100.0)
    assert conds[0] < conds[1] < conds[2]


@pytest.mark.parametrize("k", [3, 5, 7])
def test_condition_number_equals_full_matrix_norms(k):
    # ||kron(A, B)||_1 = ||A||_1 ||B||_1, so the factor form is exact.
    def norm1(mat):
        return max(sum(abs(v) for v in col) for col in zip(*mat))

    m = half_width(k)
    full = norm1(stencil_matrix(k, m, m)) * norm1(invert_center_matrix(k))
    assert center_condition_number(k) == float(full)


def test_json_payload_modes():
    stencil = derivative_stencil(3, 0, 1, 1, 1)
    exact = matrix_payload(stencil, exact=True)
    assert exact[1] == ["-1/2", "0/1", "1/2"]
    lossy = matrix_payload(stencil, exact=False)
    assert lossy[1] == [-0.5, 0.0, 0.5]
    text = json.dumps(exact)
    parsed = json.loads(text)
    restored = [[F(v) for v in row] for row in parsed]
    assert tuple(tuple(row) for row in restored) == stencil
    assert matrix_payload(((F(-3, 2), F(4)),), exact=True) == [["-3/2", "4/1"]]


def test_to_floats_matches_exact_values():
    stencil = derivative_stencil(3, 2, 2, 1, 1)
    assert np.array_equal(
        mat_to_floats(stencil),
        np.array([[1.0, -2.0, 1.0], [-2.0, 4.0, -2.0], [1.0, -2.0, 1.0]]),
    )
