"""Lagrange interpolation on a uniform pixel grid: exact derivative stencils
and the floated kernel transforms built from them.

The tables are computed with `fractions.Fraction`, so each is exact for any
supported kernel size. Floating point enters only through :func:`mat_to_floats`.

A derivative stencil is the K x K array of weights that, product-summed with a
K x K window of pixel values, yields a mixed derivative of the window's
interpolating polynomial at one in-window pixel. Every object here is built
from K x K one-axis factors: the derivative matrix D_at[i][o] = l_i^(o)(at),
the Taylor matrix B = D_m^-1 and the Lagrange shift matrix t_r. The stencil
matrix at (y, x) is kron(D_y, D_x), the center inverse is kron(B, B), and the
transform of a kernel to in-window position (r, s) is kron(t_r, t_s).

A convolution kernel is equivalent to a linear differential operator acting on
the window interpolant at the window center. Re-evaluating that operator at
another in-window position (r, s) gives a transformed kernel that acts on the
nearest complete window instead: t_r W t_s^T for the K x K kernel W. A
kernel's bank of all K^2 variants is a plain read-only array; ``diffconv
dump-bank`` writes it as JSON.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

SUPPORTED_SIZES = (3, 5, 7, 9)

FractionMatrix = tuple[tuple[Fraction, ...], ...]


def half_width(k: int) -> int:
    """Validate kernel size ``k`` and return the window half-width (k - 1) // 2."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"kernel size must be an integer, got {k!r}")
    if k not in SUPPORTED_SIZES:
        raise ValueError(f"kernel size must be one of {SUPPORTED_SIZES}, got {k}")
    return (int(k) - 1) // 2


def _check_index(name: str, value: int, k: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value <= k - 1:
        raise ValueError(f"{name} must be in 0..{k - 1}, got {value}")
    return int(value)


def derivative_matrix(k: int, at: int) -> FractionMatrix:
    """Exact K x K derivative matrix D[i][o] = l_i^(o)(at): the ``o``-th
    derivative of the ``i``-th Lagrange basis polynomial (unit-spaced nodes
    0..k-1) at grid point ``at``.

    Each basis polynomial is expanded exactly in powers of (x - at); its o-th
    derivative at ``at`` is o! times the o-th coefficient.
    """
    half_width(k)
    at = _check_index("at", at, k)
    rows = []
    for node in range(k):
        coeffs = [Fraction(1)]
        for j in range(k):
            if j != node:
                # Multiply by (x - j) / (node - j) = ((x - at) + (at - j)) / (node - j).
                coeffs = [(c * (at - j) + lower) / (node - j)
                          for c, lower in zip(coeffs + [0], [0] + coeffs)]
        rows.append(tuple(factorial(o) * c for o, c in enumerate(coeffs)))
    return tuple(rows)


def taylor_matrix(k: int) -> FractionMatrix:
    """Exact K x K Taylor matrix B[o][i] = (i - m)^o / o!, the inverse of
    ``derivative_matrix(k, m)``: interpolation reproduces (x - m)^o / o!,
    whose o'-th derivative at m is delta(o, o')."""
    m = half_width(k)
    return tuple(
        tuple(Fraction((i - m) ** o, factorial(o)) for i in range(k)) for o in range(k)
    )


def kron(a: FractionMatrix, b: FractionMatrix) -> FractionMatrix:
    """Exact Kronecker product: entry (i*len(b)+j, p*len(b[0])+q) is a[i][p]*b[j][q]."""
    return tuple(
        tuple(a_ip * b_jq for a_ip in a_row for b_jq in b_row)
        for a_row in a
        for b_row in b
    )


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
    t_r = D_r B, and the transform of a kernel W to in-window position (r, s)
    is t_r W t_s^T, i.e. kron(t_r, t_s) acting on the vectorized kernel.
    """
    m = half_width(k)
    r = _check_index("r", r, k)
    columns = [lagrange_values(k, a + r - m) for a in range(k)]
    return tuple(zip(*columns))


def stencil_matrix(k: int, y: int, x: int) -> FractionMatrix:
    """All K^2 derivative stencils at (y, x) as one K^2 x K^2 matrix,
    kron(D_y, D_x): row i*K+j is the window pixel, column order_y*K+order_x
    is the row-major vectorization of that order's stencil."""
    half_width(k)
    y = _check_index("y", y, k)
    x = _check_index("x", x, k)
    return kron(derivative_matrix(k, y), derivative_matrix(k, x))


def mat_to_floats(entries: FractionMatrix) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in entries], dtype=np.float64)


def invert_center_matrix(k: int) -> FractionMatrix:
    """Exact inverse of the stencil matrix at the window center.

    The center matrix is kron(D_m, D_m) and D_m is inverted by the Taylor
    matrix, so the inverse is kron(B, B), with rows order_y*K+order_x and
    columns i*K+j, and needs no elimination.
    """
    b = taylor_matrix(k)
    return kron(b, b)


def center_condition_number(k: int) -> float:
    """1-norm condition number of the center stencil matrix, from exact data.

    The 1-norm of a Kronecker product is the product of its factors' 1-norms,
    so this is (||D_m||_1 ||B||_1)^2. Reported for diagnostics: it grows
    rapidly with kernel size, which bounds how much float accuracy survives
    the kernel transforms.
    """
    m = half_width(k)

    def norm1(mat: FractionMatrix) -> Fraction:
        return max(sum(abs(v) for v in col) for col in zip(*mat))

    return float((norm1(derivative_matrix(k, m)) * norm1(taylor_matrix(k))) ** 2)


def matrix_payload(entries: FractionMatrix, exact: bool):
    """Nested-list JSON payload: exact "num/den" strings or lossy doubles."""
    if exact:
        return [[f"{v.numerator}/{v.denominator}" for v in row] for row in entries]
    return [[float(v) for v in row] for row in entries]


def as_kernel(kernel) -> np.ndarray:
    """Validate and return a kernel as a float64 K x K array (K odd, supported)."""
    arr = np.asarray(kernel, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"kernel must be a square 2D array, got shape {arr.shape}")
    half_width(arr.shape[0])
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel entries must be finite")
    return arr


def _shift_factors(k: int) -> np.ndarray:
    """The K shift matrices t_0..t_{K-1} as float64, shape (K, K, K). Their
    entries are integers, so the floats are exact."""
    half_width(k)
    return np.stack([mat_to_floats(shift_matrix(k, r)) for r in range(k)])


def kernel_from_operator(coeffs) -> np.ndarray:
    """Kernel whose window action equals the given operator coefficients."""
    alpha = np.asarray(coeffs, dtype=np.float64)
    if alpha.ndim != 1:
        raise ValueError(f"coefficients must be a 1D vector, got shape {alpha.shape}")
    k = int(round(np.sqrt(alpha.size)))
    if k * k != alpha.size:
        raise ValueError(f"coefficient vector length {alpha.size} is not a square")
    m = half_width(k)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("coefficients must be finite")
    return (mat_to_floats(stencil_matrix(k, m, m)) @ alpha).reshape(k, k)


def build_bank(kernel) -> np.ndarray:
    """All K^2 transformed variants of one kernel, as a read-only (K^2, K, K)
    array.

    Entry r*K+s is t_r W t_s^T, the kernel to apply over a complete window
    when the target pixel sits at in-window position (r, s); the center
    entry is the original kernel verbatim.
    """
    arr = as_kernel(kernel)
    k = arr.shape[0]
    m = half_width(k)
    factors = _shift_factors(k)
    # kernels[r, s] = (t_r @ W) @ t_s.T, broadcast over r and s.
    kernels = np.matmul((factors @ arr)[:, None], factors.transpose(0, 2, 1)[None])
    kernels = kernels.reshape(k * k, k, k)
    kernels[m * k + m] = arr
    kernels.setflags(write=False)
    return kernels
