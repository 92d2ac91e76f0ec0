"""Error metrics for method comparison."""

from __future__ import annotations

import numpy as np


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def l1_error(a, b) -> float:
    """Mean absolute difference over all pixels."""
    a, b = _check_pair(a, b)
    return float(np.mean(np.abs(a - b)))


def mse(a, b) -> float:
    """Mean squared difference over all pixels."""
    a, b = _check_pair(a, b)
    d = a - b
    return float(np.mean(d * d))


def interior_frame_split(error_map, frame_width: int) -> tuple[float, float]:
    """Split a per-pixel error map into interior and frame means.

    The interior is the central (H-2f) x (W-2f) block; the frame is the
    remaining band of width ``frame_width``.
    """
    arr = np.asarray(error_map, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"error map must be 2D, got shape {arr.shape}")
    f = int(frame_width)
    if f < 1:
        raise ValueError(f"frame width must be >= 1, got {frame_width}")
    h, w = arr.shape
    if h <= 2 * f or w <= 2 * f:
        raise ValueError(
            f"map of shape {h}x{w} is too thin for a frame of width {f}; "
            f"both dimensions must exceed {2 * f}"
        )
    inner = arr[f:h - f, f:w - f]
    inner_sum = float(np.sum(inner))
    total_sum = float(np.sum(arr))
    inner_count = inner.size
    frame_count = arr.size - inner_count
    return inner_sum / inner_count, (total_sum - inner_sum) / frame_count
