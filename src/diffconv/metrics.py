"""Error metrics for method comparison.

Both metrics are one explicit sum: the left-to-right running sum of the
per-pixel errors in row-major order (``np.add.accumulate``, whose order is
fixed), divided by the pixel count. A pixel with zero error adds nothing to
that sum, so a caller that knows where the errors are non-zero can sum only
those pixels, in the same order, and get the same bits.
"""

from __future__ import annotations

import numpy as np


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError(f"error metrics need at least one pixel, got shape {a.shape}")
    return a, b


def _row_major_mean(err: np.ndarray) -> float:
    return float(np.add.accumulate(err.reshape(-1))[-1] / err.size)


def l1_error(a, b) -> float:
    """Mean absolute difference over all pixels, summed in row-major order."""
    a, b = _check_pair(a, b)
    return _row_major_mean(np.abs(a - b))


def mse(a, b) -> float:
    """Mean squared difference over all pixels, summed in row-major order."""
    a, b = _check_pair(a, b)
    d = a - b
    return _row_major_mean(d * d)
