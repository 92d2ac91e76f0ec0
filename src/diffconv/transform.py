"""Kernel transforms for boundary positions.

A convolution kernel is equivalent to a linear differential operator acting on
the window interpolant at the window center. Re-evaluating that operator at
another in-window position (r, s) gives a transformed kernel that acts on the
nearest complete window instead. The transform is separable: it is
t_r W t_s^T for the K x K kernel W, where t_r is the integer Lagrange shift
matrix of :func:`diffconv.stencils.shift_matrix`. Only the K shift matrices
are kept, as float64, per kernel size. A kernel's bank of all K^2 variants is
a plain read-only array; ``diffconv dump-bank`` writes it as JSON.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .stencils import half_width, mat_to_floats, shift_matrix, stencil_matrix


def as_kernel(kernel) -> np.ndarray:
    """Validate and return a kernel as a float64 K x K array (K odd, supported)."""
    arr = np.asarray(kernel, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"kernel must be a square 2D array, got shape {arr.shape}")
    half_width(arr.shape[0])
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel entries must be finite")
    return arr


@cache
def _shift_factors(k: int) -> np.ndarray:
    """The K shift matrices t_0..t_{K-1} as float64, shape (K, K, K). Their
    entries are integers, so the floats are exact."""
    half_width(k)
    factors = np.stack([mat_to_floats(shift_matrix(k, r)) for r in range(k)])
    factors.setflags(write=False)
    return factors


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
