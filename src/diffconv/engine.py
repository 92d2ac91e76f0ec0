"""Size-keeping 2D convolution without padding.

Interior pixels get the ordinary valid convolution. Every near-boundary pixel
is served by its nearest complete window: its value is the kernel's action
at the pixel's position inside that window, which is the transformed kernel
t_r W t_s^T applied to the window. Reading the window's interpolant at a
shifted position is the same as extrapolating the field by the polynomial of
degree K-1 through the nearest K pixels, so the whole output is computed as
a valid convolution of the field extended that way. Only the image's own
pixels determine the result.

All products use cross-correlation orientation (no kernel flip), and every
output pixel is accumulated in the same fixed kernel-index order, so results
are bitwise reproducible and the interior agrees bitwise with
:func:`conv2d_valid`.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .stencils import half_width, lagrange_values
from .transform import KernelBank, as_kernel


def as_field(field) -> np.ndarray:
    """Validate and return a field as a 2D float64 array with finite entries."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"field must be a 2D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field entries must be finite")
    return arr


def _check_sizes(field: np.ndarray, k: int) -> None:
    h, w = field.shape
    if h < k or w < k:
        raise ValueError(
            f"field of shape {h}x{w} is smaller than the {k}x{k} kernel; "
            f"need at least one complete window"
        )


def _accumulate(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # Valid product-sum accumulated in fixed (i, j) order, so the per-pixel
    # arithmetic path is identical wherever the same window appears.
    k = kernel.shape[0]
    ny, nx = field.shape[0] - k + 1, field.shape[1] - k + 1
    out = np.zeros((ny, nx), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            out += kernel[i, j] * field[i:i + ny, j:j + nx]
    return out


def conv2d_valid(field, kernel) -> np.ndarray:
    """Valid cross-correlation: output shape (H-K+1, W-K+1)."""
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    _check_sizes(arr, k)
    return _accumulate(arr, ker)


@cache
def _extrapolation_weights(degree: int, margin: int) -> np.ndarray:
    # weights[j, t-1] is the Lagrange basis l_j evaluated at -t for nodes
    # 0..degree, so a margin value t cells beyond the edge is the degree-d
    # polynomial through the nearest degree+1 pixels. Exact, then floated.
    weights = np.array(
        [[float(v) for v in lagrange_values(degree + 1, -t)] for t in range(1, margin + 1)]
    ).T.copy()
    weights.setflags(write=False)
    return weights


def _pad_extrapolate(field: np.ndarray, k: int, degree: int) -> np.ndarray:
    """Surround ``field`` with a half-width margin extrapolated by the
    degree-``degree`` polynomial through the nearest degree+1 pixels, rows
    first, then columns (so corners are the tensor-product extrapolation)."""
    weights = _extrapolation_weights(degree, half_width(k))
    left = (field[:, :degree + 1] @ weights)[:, ::-1]
    right = field[:, ::-1][:, :degree + 1] @ weights
    widened = np.hstack([left, field, right])
    top = (weights.T @ widened[:degree + 1, :])[::-1, :]
    bottom = weights.T @ widened[::-1, :][:degree + 1, :]
    return np.vstack([top, widened, bottom])


def conv2d_diff(field, kernel, bank: KernelBank | None = None) -> np.ndarray:
    """Size-keeping convolution via transformed boundary kernels.

    Computed as the valid convolution of the field extended by degree-(K-1)
    extrapolation, which equals applying the bank kernel for each boundary
    pixel's in-window position to its nearest complete window. Interior
    output equals :func:`conv2d_valid` bitwise. ``bank`` is accepted for
    compatibility and only checked against the kernel size.

    Raises ``ValueError`` when the output is not finite: the extrapolation
    multiplies field values by up to (max |t_r|)^2 at the corners (9, 2025,
    7.1e5 and 3.0e8 for K = 3, 5, 7, 9), which can overflow.
    """
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    _check_sizes(arr, k)
    if bank is not None and bank.size != k:
        raise ValueError(f"bank is for size {bank.size}, kernel has size {k}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _accumulate(_pad_extrapolate(arr, k, k - 1), ker)
    if not np.all(np.isfinite(out)):
        gain = float(np.max(np.abs(_extrapolation_weights(k - 1, half_width(k))))) ** 2
        raise ValueError(
            f"conv2d_diff output is not finite for K={k}: boundary extrapolation "
            f"scales field values by up to the corner gain ||t||_inf^2 = {gain:.4g}; "
            f"rescale the field"
        )
    return out
