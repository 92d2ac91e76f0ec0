"""Boundary-handling baselines: padding schemes and partial convolution.

Six padding schemes fill a margin of half-width cells around the field before
a valid convolution; partial convolution instead rescales a zero-padded result
by the inverse fraction of in-image pixels per window. All of them agree
bitwise with :func:`diffconv.engine.conv2d_valid` on interior pixels because
they share its accumulation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _pad_extrapolate, as_field, conv2d_valid
from .stencils import half_width
from .transform import as_kernel

SCHEME_TAGS = ("zero", "reflect", "replicate", "circular", "extrapolate", "distribution")

_NEEDS_FULL_WINDOW = ("reflect", "extrapolate", "distribution")


@dataclass(frozen=True)
class PaddingScheme:
    """Padding selection. ``seed`` is only consumed by ``distribution``."""

    tag: str
    seed: int = 0

    def __post_init__(self):
        if self.tag not in SCHEME_TAGS:
            raise ValueError(f"unknown padding scheme {self.tag!r}; expected one of {SCHEME_TAGS}")


def _as_scheme(scheme) -> PaddingScheme:
    if isinstance(scheme, PaddingScheme):
        return scheme
    return PaddingScheme(str(scheme))


def extrapolation_degree(k: int) -> int:
    """Polynomial degree used by extrapolation padding: 1, 2, 3, 4 for K = 3, 5, 7, 9."""
    return half_width(k)


def band_thickness(k: int) -> int:
    """Edge-band thickness used by distribution padding: (K + 1) / 2."""
    half_width(k)
    return (k + 1) // 2


def _distribution_stats(field: np.ndarray, k: int) -> tuple[tuple[float, float], ...]:
    """(mean, sample std with ddof=1) of the left, right, top and bottom edge
    bands of thickness (K + 1) / 2: the parameters of distribution padding."""
    thickness = band_thickness(k)
    h, w = field.shape
    bands = (field[:, :thickness], field[:, w - thickness:],
             field[:thickness, :], field[h - thickness:, :])
    return tuple((float(np.mean(band)), float(np.std(band, ddof=1))) for band in bands)


def _draw_distribution(padded: np.ndarray, m: int, stats, seed: int) -> None:
    # Overwrite the margin of ``padded`` with i.i.d. normal draws per edge.
    # Stream: PCG64 via numpy.random.default_rng(seed), standard_normal draws
    # in fixed order left, right, top, bottom, so margins depend only on
    # (seed, shape, k).
    (mu_l, sd_l), (mu_r, sd_r), (mu_t, sd_t), (mu_b, sd_b) = stats
    h, w = padded.shape[0] - 2 * m, padded.shape[1]
    rng = np.random.default_rng(seed)
    padded[m:m + h, :m] = mu_l + sd_l * rng.standard_normal((h, m))
    padded[m:m + h, w - m:] = mu_r + sd_r * rng.standard_normal((h, m))
    padded[:m] = mu_t + sd_t * rng.standard_normal((m, w))
    padded[m + h:] = mu_b + sd_b * rng.standard_normal((m, w))


def _pad_distribution(field: np.ndarray, k: int, seed: int) -> np.ndarray:
    m = half_width(k)
    padded = np.pad(field, m)
    _draw_distribution(padded, m, _distribution_stats(field, k), seed)
    return padded


def pad(field, k: int, scheme) -> np.ndarray:
    """Surround ``field`` with a margin of half-width cells filled per ``scheme``.

    Output shape is (H+2M) x (W+2M) with the input verbatim in the center.
    Row (left/right) margins are filled before column (top/bottom) margins for
    the schemes that extend the field in passes, so corners come from the
    column pass.
    """
    arr = as_field(field)
    m = half_width(k)
    chosen = _as_scheme(scheme)
    h, w = arr.shape
    if chosen.tag in _NEEDS_FULL_WINDOW:
        if h < k or w < k:
            raise ValueError(
                f"{chosen.tag} padding reads an interior band; field of shape "
                f"{h}x{w} must be at least {k}x{k}"
            )
    elif h < 1 or w < 1:
        raise ValueError("field must be non-empty")
    if chosen.tag == "zero":
        return np.pad(arr, m, mode="constant")
    if chosen.tag == "reflect":
        return np.pad(arr, m, mode="reflect")
    if chosen.tag == "replicate":
        return np.pad(arr, m, mode="edge")
    if chosen.tag == "circular":
        return np.pad(arr, m, mode="wrap")
    if chosen.tag == "extrapolate":
        return _pad_extrapolate(arr, k, extrapolation_degree(k))
    return _pad_distribution(arr, k, chosen.seed)


def conv2d_padded(field, kernel, scheme) -> np.ndarray:
    """Size-keeping convolution by padding then valid convolution."""
    ker = as_kernel(kernel)
    return conv2d_valid(pad(field, ker.shape[0], scheme), ker)


def partial_conv2d(field, kernel) -> np.ndarray:
    """Zero-padded convolution rescaled by K^2 / (in-image pixels per window).

    Interior windows have a full pixel count, so their factor is exactly 1.0
    and interior output equals the zero-padded convolution exactly; only the
    m-wide frame is rescaled, in place.
    """
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    m = half_width(k)
    h, w = arr.shape
    if h < 1 or w < 1:
        raise ValueError("field must be non-empty")
    out = conv2d_valid(np.pad(arr, m, mode="constant"), ker)
    rows, cols = _window_counts(h, k), _window_counts(w, k)
    # Rows [top, bottom) and columns [left, right) have full window counts.
    top, left = min(m, h), min(m, w)
    bottom, right = max(h - m, top), max(w - m, left)
    for ys, xs in ((slice(0, top), slice(0, w)), (slice(bottom, h), slice(0, w)),
                   (slice(top, bottom), slice(0, left)), (slice(top, bottom), slice(right, w))):
        out[ys, xs] *= (k * k) / np.outer(rows[ys], cols[xs])
    return out


def _window_counts(n: int, k: int) -> np.ndarray:
    """In-image pixels per K-wide window centred on each of n positions."""
    m = half_width(k)
    idx = np.arange(n)
    return np.minimum(idx + m, n - 1) - np.maximum(idx - m, 0) + 1


def _partial_scale(h: int, w: int, k: int) -> np.ndarray:
    """K^2 / (in-image pixels per window) for each pixel of an h x w output."""
    return (k * k) / np.outer(_window_counts(h, k), _window_counts(w, k))
