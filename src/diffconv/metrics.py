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

