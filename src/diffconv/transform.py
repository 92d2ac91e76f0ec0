"""Kernel transforms for boundary positions.

A convolution kernel is equivalent to a linear differential operator acting on
the window interpolant at the window center. Re-evaluating that operator at
another in-window position (r, s) gives a transformed kernel that acts on the
nearest complete window instead. The transform is separable: it is
t_r W t_s^T for the K x K kernel W, where t_r is the integer Lagrange shift
matrix of :func:`diffconv.stencils.shift_matrix`. Only the K shift matrices
are kept, as float64, per kernel size.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from .stencils import (
    half_width,
    invert_center_matrix,
    mat_to_floats,
    shift_matrix,
    stencil_matrix,
)

# Cache fills run under the lock (at-most-once on concurrent first access);
# the lock may be held while calling into the stencils module, never the
# other way around.
_LOCK = threading.RLock()
_SHIFT_FACTORS: dict[int, np.ndarray] = {}
_FLOAT_CENTER: dict[int, np.ndarray] = {}
_FLOAT_CENTER_INV: dict[int, np.ndarray] = {}


def as_kernel(kernel) -> np.ndarray:
    """Validate and return a kernel as a float64 K x K array (K odd, supported)."""
    arr = np.asarray(kernel, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"kernel must be a square 2D array, got shape {arr.shape}")
    half_width(arr.shape[0])
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel entries must be finite")
    return arr


def identity_kernel(k: int) -> np.ndarray:
    m = half_width(k)
    kernel = np.zeros((k, k), dtype=np.float64)
    kernel[m, m] = 1.0
    return kernel


def _shift_factors(k: int) -> np.ndarray:
    """The K shift matrices t_0..t_{K-1} as float64, shape (K, K, K). Their
    entries are integers, so the floats are exact."""
    half_width(k)
    with _LOCK:
        cached = _SHIFT_FACTORS.get(k)
        if cached is None:
            cached = np.stack([mat_to_floats(shift_matrix(k, r)) for r in range(k)])
            cached.setflags(write=False)
            _SHIFT_FACTORS[k] = cached
        return cached


def _float_center(k: int) -> np.ndarray:
    m = half_width(k)
    with _LOCK:
        cached = _FLOAT_CENTER.get(k)
        if cached is None:
            cached = stencil_matrix(k, m, m).to_floats()
            cached.setflags(write=False)
            _FLOAT_CENTER[k] = cached
        return cached


def _float_center_inverse(k: int) -> np.ndarray:
    half_width(k)
    with _LOCK:
        cached = _FLOAT_CENTER_INV.get(k)
        if cached is None:
            cached = mat_to_floats(invert_center_matrix(k))
            cached.setflags(write=False)
            _FLOAT_CENTER_INV[k] = cached
        return cached


def operator_coeffs(kernel) -> np.ndarray:
    """Coefficients of the differential operator equivalent to ``kernel``.

    Index order_y*K+order_x weights the (order_y, order_x) mixed derivative.
    The linear system is solved with the exact center inverse, evaluated in
    float64.
    """
    arr = as_kernel(kernel)
    k = arr.shape[0]
    return _float_center_inverse(k) @ arr.reshape(k * k)


def kernel_from_operator(coeffs) -> np.ndarray:
    """Kernel whose window action equals the given operator coefficients."""
    alpha = np.asarray(coeffs, dtype=np.float64)
    if alpha.ndim != 1:
        raise ValueError(f"coefficients must be a 1D vector, got shape {alpha.shape}")
    k = int(round(np.sqrt(alpha.size)))
    if k * k != alpha.size:
        raise ValueError(f"coefficient vector length {alpha.size} is not a square")
    half_width(k)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("coefficients must be finite")
    return (_float_center(k) @ alpha).reshape(k, k)


@dataclass(frozen=True)
class KernelBank:
    """All K^2 transformed variants of one kernel, indexed by (r, s).

    ``kernels[r*size+s]`` is the kernel to apply over a complete window when
    the target pixel sits at in-window position (r, s); the center entry is
    the original kernel.
    """

    size: int
    base: np.ndarray
    kernels: np.ndarray

    def kernel_at(self, r: int, s: int) -> np.ndarray:
        if not (0 <= r < self.size and 0 <= s < self.size):
            raise ValueError(
                f"position must be in 0..{self.size - 1} per axis, got ({r}, {s})"
            )
        return self.kernels[r * self.size + s]

    def to_json(self) -> str:
        payload = {
            "size": self.size,
            "base": self.base.tolist(),
            "kernels": {
                f"{r},{s}": self.kernels[r * self.size + s].tolist()
                for r in range(self.size)
                for s in range(self.size)
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "KernelBank":
        payload = json.loads(text)
        k = payload["size"]
        half_width(k)
        base = np.asarray(payload["base"], dtype=np.float64)
        kernels = np.empty((k * k, k, k), dtype=np.float64)
        for r in range(k):
            for s in range(k):
                entry = payload["kernels"].get(f"{r},{s}")
                if entry is None:
                    raise ValueError(f"bank JSON is missing position {r},{s}")
                kernels[r * k + s] = np.asarray(entry, dtype=np.float64)
        bank = cls(size=k, base=base, kernels=kernels)
        bank.base.setflags(write=False)
        bank.kernels.setflags(write=False)
        return bank


def build_bank(kernel) -> KernelBank:
    """Build the full transformed-kernel bank for one kernel.

    Entry (r, s) is t_r W t_s^T; the center entry is the original kernel
    verbatim.
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
    base = arr.copy()
    base.setflags(write=False)
    return KernelBank(size=k, base=base, kernels=kernels)
