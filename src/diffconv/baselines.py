"""Boundary-handling baselines: padding schemes and partial convolution.

Every size-keeping method, ``diff`` included, fills a margin of half-width
cells around the field and runs one valid accumulation over the result; the
methods differ only in the margin (:func:`_margin`), and partial convolution
then rescales its zero-padded frame by the inverse fraction of in-image
pixels per window. All of them agree bitwise with
:func:`diffconv.engine.conv2d_valid` on interior pixels because they share
its accumulation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _accumulate, _check_finite, _pad_extrapolate, as_field
from .stencils import half_width
from .transform import as_kernel

SCHEME_TAGS = ("zero", "reflect", "replicate", "circular", "extrapolate", "distribution")


@dataclass(frozen=True)
class PaddingScheme:
    """Padding selection. ``seed`` is only consumed by ``distribution``."""

    tag: str
    seed: int = 0

    def __post_init__(self):
        if self.tag not in SCHEME_TAGS:
            raise ValueError(f"unknown padding scheme {self.tag!r}; expected one of {SCHEME_TAGS}")


def _distribution_stats(field: np.ndarray, k: int) -> tuple[tuple[float, float], ...]:
    """(mean, sample std with ddof=1) of the left, right, top and bottom edge
    bands of thickness (K + 1) / 2: the parameters of distribution padding."""
    thickness = half_width(k) + 1
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


_NP_PAD_MODES = {"reflect": "reflect", "replicate": "edge", "circular": "wrap"}


def _margin(method: str, field: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """The validated ``field`` surrounded by the half-width margin that
    ``method`` (any of the eight, see ``benchmark.METHODS``) convolves.

    This is the one place that maps a method name to its margin. ``diff``
    and ``extrapolate`` extrapolate with degree K-1 and m; ``partial``
    and ``zero`` use zeros; ``distribution`` draws per edge from ``seed``.
    """
    m = half_width(k)
    h, w = field.shape
    # These read a K-wide band next to each edge; the others any pixel.
    need = k if method in ("diff", "extrapolate", "reflect", "distribution") else 1
    if h < need or w < need:
        raise ValueError(f"{method} needs a field of at least {need}x{need}, "
                         f"got shape {h}x{w}")
    if method in ("diff", "extrapolate"):
        return _pad_extrapolate(field, k, k - 1 if method == "diff" else m)
    if method in _NP_PAD_MODES:
        return np.pad(field, m, mode=_NP_PAD_MODES[method])
    padded = np.pad(field, m)
    if method == "distribution":
        _draw_distribution(padded, m, _distribution_stats(field, k), seed)
    return padded


def pad(field, k: int, scheme) -> np.ndarray:
    """Surround ``field`` with a margin of half-width cells filled per ``scheme``.

    Output shape is (H+2M) x (W+2M) with the input verbatim in the center.
    Row (left/right) margins are filled before column (top/bottom) margins for
    the schemes that extend the field in passes, so corners come from the
    column pass.
    """
    chosen = scheme if isinstance(scheme, PaddingScheme) else PaddingScheme(str(scheme))
    return _margin(chosen.tag, as_field(field), k, chosen.seed)


def _size_keeping(method: str, field, kernel, seed: int = 0) -> np.ndarray:
    """The validated size-keeping path of any method in the margin table:
    validate the field and kernel once, fill the margin, accumulate, rescale
    ``partial``'s frame, then check the output is finite. (``apply_method``
    sends ``diff`` to :func:`diffconv.engine.conv2d_diff`, which takes the
    same steps.)"""
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        out = _accumulate(_margin(method, arr, k, seed), ker)
        if method == "partial":
            _rescale_frame(out, k)
    _check_finite(out, method, k)
    return out


def partial_conv2d(field, kernel) -> np.ndarray:
    """Zero-padded convolution rescaled by K^2 / (in-image pixels per window).

    Interior windows have a full pixel count, so their factor is exactly 1.0
    and interior output equals the zero-padded convolution exactly; only the
    m-wide frame is rescaled, in place.
    """
    return _size_keeping("partial", field, kernel)


def _rescale_frame(out: np.ndarray, k: int) -> None:
    """Multiply the m-wide frame of ``out`` by :func:`_partial_scale` in place."""
    m = half_width(k)
    h, w = out.shape
    rows, cols = _window_counts(h, k), _window_counts(w, k)
    # Rows [top, bottom) and columns [left, right) have full window counts.
    top, left = min(m, h), min(m, w)
    bottom, right = max(h - m, top), max(w - m, left)
    for ys, xs in ((slice(0, top), slice(0, w)), (slice(bottom, h), slice(0, w)),
                   (slice(top, bottom), slice(0, left)), (slice(top, bottom), slice(right, w))):
        out[ys, xs] *= (k * k) / np.outer(rows[ys], cols[xs])


def _window_counts(n: int, k: int) -> np.ndarray:
    """In-image pixels per K-wide window centred on each of n positions."""
    m = half_width(k)
    idx = np.arange(n)
    return np.minimum(idx + m, n - 1) - np.maximum(idx - m, 0) + 1


def _partial_scale(h: int, w: int, k: int) -> np.ndarray:
    """K^2 / (in-image pixels per window) for each pixel of an h x w output."""
    return (k * k) / np.outer(_window_counts(h, k), _window_counts(w, k))
