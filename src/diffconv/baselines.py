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


def _pad_distribution(field: np.ndarray, k: int, seed: int) -> np.ndarray:
    # Margins are i.i.d. normal with mean/std estimated per edge band of the
    # original field (sample std, ddof=1). Stream: PCG64 via
    # numpy.random.default_rng(seed), standard_normal draws in fixed order
    # left, right, top, bottom, so margins depend only on (seed, shape, k).
    m = half_width(k)
    thickness = band_thickness(k)
    h, w = field.shape
    rng = np.random.default_rng(seed)

    def stats(band: np.ndarray) -> tuple[float, float]:
        return float(np.mean(band)), float(np.std(band, ddof=1))

    mu_l, sd_l = stats(field[:, :thickness])
    mu_r, sd_r = stats(field[:, w - thickness:])
    mu_t, sd_t = stats(field[:thickness, :])
    mu_b, sd_b = stats(field[h - thickness:, :])
    left = mu_l + sd_l * rng.standard_normal((h, m))
    right = mu_r + sd_r * rng.standard_normal((h, m))
    widened = np.hstack([left, field, right])
    top = mu_t + sd_t * rng.standard_normal((m, w + 2 * m))
    bottom = mu_b + sd_b * rng.standard_normal((m, w + 2 * m))
    return np.vstack([top, widened, bottom])


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

    Interior windows have a full pixel count, so interior output equals the
    zero-padded convolution exactly.
    """
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    m = half_width(k)
    h, w = arr.shape
    if h < 1 or w < 1:
        raise ValueError("field must be non-empty")
    padded = conv2d_valid(np.pad(arr, m, mode="constant"), ker)
    ys = np.arange(h)
    xs = np.arange(w)
    row_counts = np.minimum(ys + m, h - 1) - np.maximum(ys - m, 0) + 1
    col_counts = np.minimum(xs + m, w - 1) - np.maximum(xs - m, 0) + 1
    counts = np.outer(row_counts, col_counts)
    return padded * ((k * k) / counts)
