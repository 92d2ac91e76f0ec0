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

import math
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


# Rows per tile are chosen so that one output tile, leading batch axes
# included, is about this many bytes: the tile, its scratch product and the
# input rows they read then stay in cache across the K^2 passes.
_TILE_BYTES = 256 * 1024


def _accumulate(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # Valid product-sum over the last two axes (leading axes are a batch),
    # accumulated in fixed (i, j) order, so the per-pixel arithmetic path is
    # identical wherever the same window appears. Row tiles change only which
    # pixels are in flight at once, not any pixel's sequence of operations:
    # each starts from 0.0 and adds the rounded products in (i, j) order.
    # When the last two axes are stored column-major, the work runs on their
    # transposed view, so every pass reads and writes along the contiguous
    # axis, and the output is returned with the input's layout.
    k = kernel.shape[0]
    flip = abs(field.strides[-1]) > abs(field.strides[-2])
    src = field.swapaxes(-1, -2) if flip else field
    lead = src.shape[:-2]
    ny, nx = src.shape[-2] - k + 1, src.shape[-1] - k + 1
    out = np.zeros(lead + (ny, nx), dtype=np.float64)
    rows = max(1, _TILE_BYTES // (8 * nx * math.prod(lead)))
    scratch = np.empty(lead + (min(rows, ny), nx), dtype=np.float64)
    # Per tap in (i, j) order: its row and column offset in ``src``, and its weight.
    taps = [((j, i) if flip else (i, j), kernel[i, j]) for i in range(k) for j in range(k)]
    for y0 in range(0, ny, rows):
        y1 = min(y0 + rows, ny)
        tile = out[..., y0:y1, :]
        tmp = scratch[..., :y1 - y0, :]
        for (a, b), weight in taps:
            np.multiply(src[..., y0 + a:y1 + a, b:b + nx], weight, tmp)
            tile += tmp
    return out.swapaxes(-1, -2) if flip else out


def conv2d_valid(field, kernel) -> np.ndarray:
    """Valid cross-correlation: output shape (H-K+1, W-K+1).

    Raises ``ValueError`` naming the operation and K when the output is not
    finite (a finite field can overflow).
    """
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    _check_sizes(arr, k)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _accumulate(arr, ker)
    _check_finite(out, "conv2d_valid", k)
    return out


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
    m = half_width(k)
    weights = _extrapolation_weights(degree, m)
    h, w = field.shape
    padded = np.empty((h + 2 * m, w + 2 * m), dtype=np.float64)
    padded[m:m + h, m:m + w] = field
    padded[m:m + h, :m] = (field[:, :degree + 1] @ weights)[:, ::-1]
    padded[m:m + h, m + w:] = field[:, ::-1][:, :degree + 1] @ weights
    padded[:m] = (weights.T @ padded[m:m + degree + 1])[::-1]
    # The degree+1 rows nearest the bottom edge, bottom row first.
    padded[m + h:] = weights.T @ padded[m + h - 1 - degree:m + h][::-1]
    return padded


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
    _check_finite(out, "diff", k)
    return out


def _check_finite(out: np.ndarray, method: str, k: int) -> None:
    """Raise ``ValueError`` naming ``method`` and K unless every entry of its
    output ``out`` is finite; for the extrapolating methods, name the corner
    gain too."""
    if np.all(np.isfinite(out)):
        return
    cause = "rescale the field"
    if method in ("diff", "extrapolate"):
        degree = k - 1 if method == "diff" else half_width(k)
        gain = float(np.max(np.abs(_extrapolation_weights(degree, half_width(k))))) ** 2
        cause = (f"boundary extrapolation scales field values by up to the corner gain "
                 f"||t||_inf^2 = {gain:.4g}; {cause}")
    raise ValueError(f"{method} output is not finite for K={k}: {cause}")
