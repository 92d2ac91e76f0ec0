import json
import threading
from fractions import Fraction

import numpy as np
import pytest

from diffconv.stencils import (
    SUPPORTED_SIZES,
    center_condition_number,
    derivative_stencil,
    fraction_to_string,
    half_width,
    invert_center_matrix,
    lagrange_derivative,
    mat_identity,
    mat_mul,
    matrix_payload,
    stencil_matrix,
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
    assert lagrange_derivative(3, 0, 0, 0) == 1
    assert lagrange_derivative(3, 0, 1, 0) == F(-3, 2)
    assert lagrange_derivative(3, 1, 2, 1) == -2


@pytest.mark.parametrize("k", SUPPORTED_SIZES)
def test_interpolation_property(k):
    for node in range(k):
        for at in range(k):
            assert lagrange_derivative(k, node, 0, at) == int(node == at)


@pytest.mark.parametrize("k", SUPPORTED_SIZES)
def test_partition_of_unity_derivatives(k):
    # sum_i l_i(x) == 1 identically, so every derivative of the sum vanishes.
    for order in range(k):
        for at in range(k):
            total = sum(lagrange_derivative(k, node, order, at) for node in range(k))
            assert total == (1 if order == 0 else 0)


def test_out_of_range_arguments():
    for args in [(3, 3, 0, 0), (3, 0, -1, 0), (3, 0, 0, 3), (3, -1, 0, 0)]:
        with pytest.raises(ValueError):
            lagrange_derivative(*args)
    with pytest.raises(ValueError):
        derivative_stencil(3, 0, 0, 0, 5)
    with pytest.raises(ValueError):
        stencil_matrix(3, 3, 0)


def test_center_stencils_k3_frozen():
    for (oy, ox), expected in CENTER_STENCILS_K3.items():
        assert derivative_stencil(3, oy, ox, 1, 1).entries == expected
    # remaining three are transposes of listed ones
    for oy, ox in [(1, 0), (2, 0), (2, 1)]:
        got = derivative_stencil(3, oy, ox, 1, 1).entries
        expected = CENTER_STENCILS_K3[(ox, oy)]
        assert got == tuple(zip(*expected))


@pytest.mark.parametrize("k", [3, 5])
def test_zeroth_order_stencil_is_indicator(k):
    for y in range(k):
        for x in range(k):
            entries = derivative_stencil(k, 0, 0, y, x).entries
            for i in range(k):
                for j in range(k):
                    assert entries[i][j] == int(i == y and j == x)


@pytest.mark.parametrize("k", [3, 5])
def test_transpose_symmetry(k):
    for oy in range(k):
        for ox in range(k):
            for y in range(k):
                for x in range(k):
                    a = derivative_stencil(k, oy, ox, y, x).entries
                    b = derivative_stencil(k, ox, oy, x, y).entries
                    assert a == tuple(zip(*b))


@pytest.mark.parametrize("k,y,x", [(3, 1, 1), (3, 0, 0), (5, 2, 2), (5, 0, 4)])
def test_matrix_columns_are_vectorized_stencils(k, y, x):
    mat = stencil_matrix(k, y, x).entries
    for oy in range(k):
        for ox in range(k):
            stencil = derivative_stencil(k, oy, ox, y, x).entries
            col = oy * k + ox
            for i in range(k):
                for j in range(k):
                    assert mat[i * k + j][col] == stencil[i][j]


def test_matrix_k3_frozen_tables():
    assert stencil_matrix(3, 1, 1).entries == MATRIX_K3_CENTER
    assert stencil_matrix(3, 0, 0).entries == MATRIX_K3_CORNER


@pytest.mark.parametrize("k", [3, 5, 7])
def test_all_ones_row_selects_first_column(k):
    # exact summation of every column, at every window position
    for y in range(k):
        for x in range(k):
            mat = stencil_matrix(k, y, x).entries
            for col in range(k * k):
                total = sum(mat[row][col] for row in range(k * k))
                assert total == (1 if col == 0 else 0)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_center_inverse_is_exact(k):
    m = half_width(k)
    center = stencil_matrix(k, m, m).entries
    inverse = invert_center_matrix(k)
    assert mat_mul(center, inverse) == mat_identity(k * k)
    assert mat_mul(inverse, center) == mat_identity(k * k)


def test_center_inverse_ones_vector_k3():
    # exact solve oracle via sympy, independent of the Taylor-matrix inverse
    sympy = pytest.importorskip("sympy")
    center = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                           for row in stencil_matrix(3, 1, 1).entries])
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


def test_warm_cache_and_thread_safety():
    results = []

    def worker():
        results.append(invert_center_matrix(5))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_json_payload_modes():
    stencil = derivative_stencil(3, 0, 1, 1, 1)
    exact = matrix_payload(stencil.entries, exact=True)
    assert exact[1] == ["-1/2", "0/1", "1/2"]
    lossy = matrix_payload(stencil.entries, exact=False)
    assert lossy[1] == [-0.5, 0.0, 0.5]
    text = json.dumps(exact)
    parsed = json.loads(text)
    restored = [[F(v) for v in row] for row in parsed]
    assert tuple(tuple(row) for row in restored) == stencil.entries
    assert fraction_to_string(F(-3, 2)) == "-3/2"


def test_to_floats_matches_exact_values():
    stencil = derivative_stencil(3, 2, 2, 1, 1)
    assert np.array_equal(
        stencil.to_floats(),
        np.array([[1.0, -2.0, 1.0], [-2.0, 4.0, -2.0], [1.0, -2.0, 1.0]]),
    )
