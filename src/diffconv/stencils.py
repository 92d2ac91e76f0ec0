"""Exact derivative stencils for Lagrange interpolation on a uniform pixel grid.

Everything here is computed with `fractions.Fraction`, so the stencil tables,
the assembled stencil matrices and the center-matrix inverse are exact for any
supported kernel size. Floating point enters only through the ``to_floats``
conversions used by callers.

A derivative stencil is the K x K array of weights that, product-summed with a
K x K window of pixel values, yields a mixed derivative of the window's
interpolating polynomial at one in-window pixel. Stencil matrices collect the
K^2 vectorized stencils of one pixel as columns; the inverse of the matrix at
the window center is what turns a convolution kernel into operator
coefficients. Both factor per axis: the center matrix and its inverse are
Kronecker products of K x K factors, and so is every position's kernel
transform, through the Lagrange shift matrices of ``shift_matrix``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

import numpy as np

SUPPORTED_SIZES = (3, 5, 7, 9)

FractionMatrix = tuple[tuple[Fraction, ...], ...]

# Reentrant so cached builders may call each other while holding it; cache
# fills happen entirely under the lock, giving at-most-once computation on
# concurrent first access.
_CACHE_LOCK = threading.RLock()
_TABLES: dict[int, tuple[tuple[tuple[Fraction, ...], ...], ...]] = {}
_CENTER_INVERSES: dict[int, FractionMatrix] = {}


def half_width(k: int) -> int:
    """Validate kernel size ``k`` and return the window half-width (k - 1) // 2."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"kernel size must be an integer, got {k!r}")
    if k not in SUPPORTED_SIZES:
        raise ValueError(f"kernel size must be one of {SUPPORTED_SIZES}, got {k}")
    return (int(k) - 1) // 2


def _basis_numerator(k: int, node: int) -> list[int]:
    # Integer coefficients (ascending powers) of prod_{j != node} (x - j).
    coeffs = [1]
    for j in range(k):
        if j == node:
            continue
        shifted = [0] + coeffs
        scaled = [-j * a for a in coeffs] + [0]
        coeffs = [s + t for s, t in zip(shifted, scaled)]
    return coeffs


def _poly_derivative(coeffs: list[int]) -> list[int]:
    return [e * a for e, a in enumerate(coeffs)][1:]


def _horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _derivative_table(k: int):
    """table[order][node][at] = value of the order-th derivative of basis
    polynomial ``node`` evaluated at grid point ``at``, exact."""
    with _CACHE_LOCK:
        cached = _TABLES.get(k)
        if cached is not None:
            return cached
        table = []
        per_node = []
        for node in range(k):
            den = 1
            for j in range(k):
                if j != node:
                    den *= node - j
            per_node.append((den, _basis_numerator(k, node)))
        for order in range(k):
            rows = []
            for node in range(k):
                den, coeffs = per_node[node]
                rows.append(tuple(Fraction(_horner(coeffs, at), den) for at in range(k)))
                per_node[node] = (den, _poly_derivative(coeffs))
            table.append(tuple(rows))
        result = tuple(table)
        _TABLES[k] = result
        return result


def _check_index(name: str, value: int, k: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value <= k - 1:
        raise ValueError(f"{name} must be in 0..{k - 1}, got {value}")
    return int(value)


def lagrange_derivative(k: int, node: int, order: int, at: int) -> Fraction:
    """Exact value of the ``order``-th derivative of the ``node``-th Lagrange
    basis polynomial (unit-spaced nodes 0..k-1) evaluated at grid point ``at``.

    Computed by expanding the basis numerator to integer coefficients and
    differentiating formally, so the result is an exact rational.
    """
    half_width(k)
    node = _check_index("node", node, k)
    order = _check_index("order", order, k)
    at = _check_index("at", at, k)
    return _derivative_table(k)[order][node][at]


def lagrange_values(n: int, at: int) -> tuple[Fraction, ...]:
    """Exact values l_0(at), ..., l_{n-1}(at) of the Lagrange basis on the
    unit-spaced nodes 0..n-1, at any integer point ``at`` (inside the nodes
    or beyond them, where they are extrapolation weights)."""
    values = []
    for node in range(n):
        num = den = 1
        for j in range(n):
            if j != node:
                num *= at - j
                den *= node - j
        values.append(Fraction(num, den))
    return tuple(values)


def shift_matrix(k: int, r: int) -> FractionMatrix:
    """Exact K x K Lagrange shift matrix t_r[i][a] = l_i(a + r - m).

    Applying kernel row ``a`` at in-window row ``r`` reads the window
    interpolant at a + r - m; column ``a`` holds the weights that evaluate it
    from the window's K samples (Fornberg's one-sided finite-difference
    weights of order zero). The entries are integers, t_m is the identity,
    and the transform of a kernel W to in-window position (r, s) is
    t_r W t_s^T, i.e. kron(t_r, t_s) acting on the vectorized kernel.
    """
    m = half_width(k)
    r = _check_index("r", r, k)
    columns = [lagrange_values(k, a + r - m) for a in range(k)]
    return tuple(zip(*columns))


@dataclass(frozen=True)
class DerivativeStencil:
    """K x K weights extracting one mixed interpolant derivative at pixel (y, x).

    ``entries[i][j]`` is the weight of window pixel (i, j); derivative order is
    ``order_y`` along rows and ``order_x`` along columns.
    """

    size: int
    order_y: int
    order_x: int
    y: int
    x: int
    entries: FractionMatrix

    def to_floats(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries], dtype=np.float64)


def derivative_stencil(k: int, order_y: int, order_x: int, y: int, x: int) -> DerivativeStencil:
    """Build the exact stencil for derivative order (order_y, order_x) at (y, x)."""
    half_width(k)
    order_y = _check_index("order_y", order_y, k)
    order_x = _check_index("order_x", order_x, k)
    y = _check_index("y", y, k)
    x = _check_index("x", x, k)
    table = _derivative_table(k)
    row_vals = table[order_y]
    col_vals = table[order_x]
    entries = tuple(
        tuple(row_vals[i][y] * col_vals[j][x] for j in range(k)) for i in range(k)
    )
    return DerivativeStencil(k, order_y, order_x, y, x, entries)


@dataclass(frozen=True)
class StencilMatrix:
    """K^2 x K^2 matrix whose column order_y*K+order_x is the row-major
    vectorization of the corresponding derivative stencil at pixel (y, x)."""

    size: int
    y: int
    x: int
    entries: FractionMatrix

    def to_floats(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries], dtype=np.float64)


def stencil_matrix(k: int, y: int, x: int) -> StencilMatrix:
    """Assemble all K^2 derivative stencils at (y, x) into one matrix.

    Row index is i*K+j (window pixel), column index is order_y*K+order_x.
    """
    half_width(k)
    y = _check_index("y", y, k)
    x = _check_index("x", x, k)
    table = _derivative_table(k)
    at_y = [[table[order][node][y] for node in range(k)] for order in range(k)]
    at_x = [[table[order][node][x] for node in range(k)] for order in range(k)]
    rows = []
    for i in range(k):
        for j in range(k):
            rows.append(
                tuple(at_y[oy][i] * at_x[ox][j] for oy in range(k) for ox in range(k))
            )
    return StencilMatrix(k, y, x, tuple(rows))


def mat_identity(n: int) -> FractionMatrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: FractionMatrix, b: FractionMatrix) -> FractionMatrix:
    """Exact matrix product. Scales both factors to integer matrices first so
    the inner loops run on machine/big integers instead of Fractions."""
    da = lcm(*[v.denominator for row in a for v in row])
    db = lcm(*[v.denominator for row in b for v in row])
    ai = [[int(v * da) for v in row] for row in a]
    bi = [[int(v * db) for v in row] for row in b]
    bt = list(zip(*bi))
    d = da * db
    return tuple(
        tuple(Fraction(sum(x * y for x, y in zip(row, col)), d) for col in bt) for row in ai
    )


def mat_to_floats(entries: FractionMatrix) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in entries], dtype=np.float64)


def invert_center_matrix(k: int) -> FractionMatrix:
    """Exact inverse of the stencil matrix at the window center.

    The center matrix is kron(D, D) with D[i, o] = l_i^(o)(m), and D is
    inverted by the Taylor matrix B[o, i] = (i - m)^o / o!: interpolation
    reproduces (x - m)^o / o!, whose o'-th derivative at m is delta(o, o').
    The inverse is therefore kron(B, B), with rows order_y*K+order_x and
    columns i*K+j, and needs no elimination.
    """
    m = half_width(k)
    with _CACHE_LOCK:
        cached = _CENTER_INVERSES.get(k)
        if cached is None:
            taylor = [[Fraction((i - m) ** o, factorial(o)) for i in range(k)] for o in range(k)]
            cached = tuple(
                tuple(taylor[oy][i] * taylor[ox][j] for i in range(k) for j in range(k))
                for oy in range(k)
                for ox in range(k)
            )
            _CENTER_INVERSES[k] = cached
        return cached


def center_condition_number(k: int) -> float:
    """1-norm condition number of the center stencil matrix, from exact data.

    Reported for diagnostics: it grows rapidly with kernel size, which bounds
    how much float accuracy survives the kernel transforms.
    """
    m = half_width(k)
    center = stencil_matrix(k, m, m).entries
    inverse = invert_center_matrix(k)

    def norm1(mat: FractionMatrix) -> Fraction:
        return max(sum(abs(v) for v in col) for col in zip(*mat))

    return float(norm1(center) * norm1(inverse))


def fraction_to_string(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def matrix_payload(entries: FractionMatrix, exact: bool):
    """Nested-list JSON payload: exact "num/den" strings or lossy doubles."""
    if exact:
        return [[fraction_to_string(v) for v in row] for row in entries]
    return [[float(v) for v in row] for row in entries]
