from fractions import Fraction
from functools import cache
from math import lcm

import numpy as np
import pytest

from diffconv.engine import _extrapolation_weights
from diffconv.stencils import half_width, stencil_matrix


# The margins that copy field cells (and zero's), as numpy's own padding
# modes: the reference the engine's margin table is checked against.
NP_PAD_MODES = {"zero": "constant", "reflect": "reflect", "replicate": "edge", "circular": "wrap"}


def brute_force_valid(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Reference valid convolution: explicit quadruple loop, no flip."""
    h, w = field.shape
    k = kernel.shape[0]
    out = np.zeros((h - k + 1, w - k + 1))
    for y in range(h - k + 1):
        for x in range(w - k + 1):
            acc = 0.0
            for i in range(k):
                for j in range(k):
                    acc += kernel[i, j] * field[y + i, x + j]
            out[y, x] = acc
    return out


@pytest.fixture
def loop_conv():
    return brute_force_valid


def identity_kernel(k: int) -> np.ndarray:
    """The K x K kernel with a single 1 at the center."""
    kernel = np.zeros((k, k), dtype=np.float64)
    kernel[k // 2, k // 2] = 1.0
    return kernel


# One exact stencil matrix per (k, y, x): the tests slice many stencils from it.
_stencil_matrix = cache(stencil_matrix)


def derivative_stencil(k: int, order_y: int, order_x: int, y: int, x: int):
    """Reference K x K stencil for derivative order (order_y, order_x) at
    pixel (y, x): column order_y*K+order_x of ``stencil_matrix(k, y, x)``,
    cut into K rows."""
    col = order_y * k + order_x
    column = [row[col] for row in _stencil_matrix(k, y, x)]
    return tuple(tuple(column[i * k:(i + 1) * k]) for i in range(k))


def mat_identity(n: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    """Exact reference product of two Fraction matrices. Scales both factors
    to integer matrices first so the inner loops run on integers."""
    da = lcm(*[v.denominator for row in a for v in row])
    db = lcm(*[v.denominator for row in b for v in row])
    ai = [[int(v * da) for v in row] for row in a]
    bi = [[int(v * db) for v in row] for row in b]
    bt = list(zip(*bi))
    d = da * db
    return tuple(
        tuple(Fraction(sum(x * y for x, y in zip(row, col)), d) for col in bt) for row in ai
    )


def reference_accumulate(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Reference for ``engine._accumulate``: the untiled valid product-sum,
    one full-size product per (i, j), added in (i, j) order to a zero array."""
    k = kernel.shape[0]
    ny, nx = field.shape[0] - k + 1, field.shape[1] - k + 1
    out = np.zeros((ny, nx), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            out += kernel[i, j] * field[i:i + ny, j:j + nx]
    return out


def reference_pad_extrapolate(field: np.ndarray, k: int, degree: int) -> np.ndarray:
    """Reference for the margin ``engine._margin`` extrapolates for ``diff``
    (degree K-1) and ``extrapolate`` (degree m): left and right margins
    joined by ``hstack``, then top and bottom by ``vstack``."""
    weights = _extrapolation_weights(degree, half_width(k))
    left = (field[:, :degree + 1] @ weights)[:, ::-1]
    right = field[:, ::-1][:, :degree + 1] @ weights
    widened = np.hstack([left, field, right])
    top = (weights.T @ widened[:degree + 1, :])[::-1, :]
    bottom = weights.T @ widened[::-1, :][:degree + 1, :]
    return np.vstack([top, widened, bottom])


def partial_scale(h: int, w: int, k: int) -> np.ndarray:
    """Reference for partial convolution's rescale: K^2 / (in-image pixels
    per K x K window) for each pixel of an h x w output, as one full map."""
    m = half_width(k)
    counts = [np.minimum(np.arange(n) + m, n - 1) - np.maximum(np.arange(n) - m, 0) + 1
              for n in (h, w)]
    return (k * k) / np.outer(*counts)
