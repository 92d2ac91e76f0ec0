"""Size-keeping 2D convolution without padding, and the boundary baselines.

Interior pixels get the ordinary valid convolution. Every near-boundary pixel
is served by its nearest complete window: its value is the kernel's action
at the pixel's position inside that window, which is the transformed kernel
t_r W t_s^T applied to the window. Reading the window's interpolant at a
shifted position is the same as extrapolating the field by the polynomial of
degree K-1 through the nearest K pixels, so the whole output is computed as
a valid convolution of the field extended that way. Only the image's own
pixels determine the result.

That makes ``diff`` one row of a per-axis margin table (:func:`_axis_margin`)
shared with the baselines: zero, reflect, replicate, circular, degree-m
extrapolation, distribution padding and partial convolution. Every method in
:data:`METHODS` fills a half-width margin (:func:`_margin`, one pass along
each axis of its own row-major padded copy) and runs the valid accumulation
over the padded field. An output of fewer than 8 row tiles is accumulated
over that copy. A larger one needs none: its interior is accumulated
straight from the field into the output, and its m-wide frame from the
padded field's edge bands (:func:`_margin_pieces`), laid out as two strips
(:func:`_band_strips`, which ``compare`` runs too). ``partial`` then
rescales each output whose window an edge cuts by the inverse fraction of
in-image pixels in that window. :func:`apply_method` is the one validated
path all of them take.

All products use cross-correlation orientation (no kernel flip), and every
output pixel is accumulated in the same fixed kernel-index order, so results
are bitwise reproducible and every method's interior agrees bitwise with
:func:`conv2d_valid`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from threading import Thread

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .stencils import as_kernel, half_width, lagrange_values

METHODS = (
    "diff",
    "zero",
    "reflect",
    "replicate",
    "circular",
    "extrapolate",
    "distribution",
    "partial",
)

# The padding schemes: every method but the two that are more than a margin.
SCHEME_TAGS = tuple(method for method in METHODS if method not in ("diff", "partial"))

@dataclass(frozen=True)
class PaddingScheme:
    """Padding selection. ``seed`` is only consumed by ``distribution``."""

    tag: str
    seed: int = 0

    def __post_init__(self):
        if self.tag not in SCHEME_TAGS:
            raise ValueError(f"unknown padding scheme {self.tag!r}; expected one of {SCHEME_TAGS}")


def as_field(field) -> np.ndarray:
    """Validate and return a field as a 2D float64 array with finite entries."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"field must be a 2D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field entries must be finite")
    return arr


def _is_seed(seed) -> bool:
    # The seeds every stream takes: an int or numpy integer, >= 0.
    return isinstance(seed, (int, np.integer)) and seed >= 0


def _check_inputs(field: np.ndarray, k: int, method: str, seed: int = 0) -> None:
    """Raise ``ValueError`` naming ``method`` unless ``field`` holds what it
    reads: one pixel for the methods whose margin any pixel can fill, one
    complete K x K window for the others, which read a K-wide band next to
    each edge, and for ``conv2d_valid``; and unless ``distribution``'s
    ``seed`` is a non-negative integer."""
    h, w = field.shape
    need = 1 if method in ("zero", "replicate", "circular", "partial") else k
    if h < need or w < need:
        what = "one pixel" if need == 1 else f"one complete window ({k}x{k})"
        raise ValueError(f"{method} got a field of shape {h}x{w}; it needs at least {what}")
    if method == "distribution" and not _is_seed(seed):
        raise ValueError(f"distribution seed must be a non-negative integer, got {seed}")


# Rows per tile are chosen so that one output tile is about this many bytes:
# the tile's accumulator, its scratch product and the input rows they read
# then stay in cache across the K^2 passes.
_TILE_BYTES = 256 * 1024


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _accumulate_rows(tiles, weights) -> None:
    # One block's prepared (taps, tile, product, rows, done) tiles, each run
    # as 2K^2 + 1 short calls. ``taps`` holds the tile's K^2 taps in (i, j)
    # order, the rows of its (K, K, n) view of the source, each one
    # contiguous 1-D run at its offset. Each tap's product is written into
    # ``product`` and added to ``tile``, which starts from 0.0. Each tile row
    # ends in K-1 windows that wrap into the next source row: where ``tile``
    # is the output's own memory they land in the columns beyond its view;
    # from scratch only the first nx columns, ``done``, are copied into
    # ``rows`` of the output.
    for taps, tile, product, rows, done in tiles:
        tile.fill(0.0)
        for tap, weight in zip(taps, weights):
            np.multiply(tap, weight, product)
            tile += product
        if rows is not None:
            rows[...] = done


def _accumulate_worker(errors: list, *args) -> None:
    # A new thread starts with numpy's default error state, not the caller's:
    # ignore overflow as every caller does (it checks the output), and hand
    # any exception to the caller, since a lost one would leave the block's
    # rows of the output unwritten.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _accumulate_rows(*args)
    except BaseException as exc:
        errors.append(exc)


def _column_major(field: np.ndarray) -> bool:
    # Whether the first axis of ``field`` is its contiguous one.
    return abs(field.strides[1]) > abs(field.strides[0])


def _row_tiles(ny: int, nx: int) -> int:
    """The row-tile count of an ny x nx valid output: one tile's accumulator
    is about ``_TILE_BYTES``."""
    return -(-ny // max(1, _TILE_BYTES // (8 * nx)))


def _prepare(field: np.ndarray, k: int, out: np.ndarray | None = None):
    # (out, run): the valid product-sum of ``field`` with any K x K kernel,
    # set up once; ``run(kernel)`` writes it into ``out``, in the input's
    # layout. Every output starts from 0.0 and adds the rounded products in
    # (i, j) order (_accumulate_rows), whatever the tiles, so a window's
    # arithmetic is the same wherever it appears. A column-major array runs
    # on its transposed view, so every pass runs along the contiguous axis.
    # The source is read in place as one row-major run, so each run sees
    # what it then holds; a strided input is copied here. The tiles are
    # split into n blocks, n the smaller of the tile count and the CPUs this
    # process may run on: the caller runs block 0 and a thread per block the
    # rest, each with its own scratch. A pixel is computed by one tile
    # alone, so the bits do not depend on n; one block starts no thread.
    #
    # Every tile's taps are the K^2 rows of one (K, K, n) strided view of
    # the source, made here, so no run slices anything. Each block's scratch
    # is a product plane and, unless the tile sums in place, an accumulator
    # plane, each as many pitch-wide rows as the longest tile, and all
    # blocks' planes are one allocation. A tile sums in place where _prepare
    # allocates the output, pitch-wide, and returns its first nx columns:
    # the K-1 windows per row that wrap into the next source row land in the
    # columns beyond the view, which no caller reads. Otherwise
    # (``_accumulate``'s contiguous output, or a field-sized output's
    # interior, whose K^2 passes over it measured 5-10 % slower at K = 7 and
    # 9 than over scratch) a tile is accumulated in its block's accumulator
    # plane and its first nx columns are copied into the output.
    flip = _column_major(field)
    src = field.T if flip else field
    flat, pitch = src.ravel(), src.shape[1]
    ny, nx = src.shape[0] - k + 1, pitch - k + 1
    direct = out is None
    if direct:
        out = np.empty(ny * pitch).reshape(ny, pitch)[:, :nx]
        out_run = as_strided(out, ((ny - 1) * pitch + nx,), (8,))
    elif flip:
        out = out.T
    tiles = _row_tiles(ny, nx)
    blocks = min(tiles, _cpu_count()) if tiles > 1 else 1
    # Tile t holds output rows bounds[t]:bounds[t + 1], and block b tiles
    # b * tiles // blocks onwards; the shortest tile has ny // tiles rows.
    bounds = [t * ny // tiles for t in range(tiles + 1)]
    most = -(-ny // tiles)
    scratch = np.empty((blocks, 1 if direct else 2, most * pitch))
    strides = (8, 8 * pitch, 8) if flip else (8 * pitch, 8, 8)
    work = [[] for _ in range(blocks)]
    for block, tiles_of_block in enumerate(work):
        for t in range(block * tiles // blocks, (block + 1) * tiles // blocks):
            y0, y1 = bounds[t], bounds[t + 1]
            n = (y1 - y0 - 1) * pitch + nx  # up to the tile's last output
            view = np.ndarray((k, k, n), buffer=flat, offset=8 * y0 * pitch, strides=strides)
            taps = [view[i, j] for i in range(k) for j in range(k)]
            if direct:
                tile, copy = out_run[y0 * pitch:y0 * pitch + n], (None, None)
            else:
                acc = scratch[block, 1].reshape(most, pitch)[:y1 - y0]
                tile, copy = acc.reshape(-1)[:n], (out[y0:y1], acc[:, :nx])
            tiles_of_block.append((taps, tile, scratch[block, 0, :n], *copy))

    def run(kernel: np.ndarray) -> None:
        weights = kernel.ravel().tolist()
        if blocks == 1:
            _accumulate_rows(work[0], weights)
            return
        errors = []
        threads = [Thread(target=_accumulate_worker, args=(errors, block, weights))
                   for block in work[1:]]
        for thread in threads:
            thread.start()
        try:
            _accumulate_rows(work[0], weights)
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]

    return (out.T if flip else out), run


def _accumulate(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    k = kernel.shape[0]
    h, w = field.shape
    out = np.empty((h - k + 1, w - k + 1), order="F" if _column_major(field) else "C")
    _prepare(field, k, out)[1](kernel)  # prepared, then run once
    return out


def conv2d_valid(field, kernel) -> np.ndarray:
    """Valid cross-correlation: output shape (H-K+1, W-K+1).

    Raises ``ValueError`` naming the operation and K when the output is not
    finite (a finite field can overflow).
    """
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    _check_inputs(arr, k, "conv2d_valid")
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


def _axis_margin(method: str, n: int, k: int):
    """(cells, weights) for the m margin cells beyond either end of an n-cell
    axis: the cells they read, nearest margin cell first and counted from that
    end, and ``None`` for a copy or the (cells, m) weights whose column t-1 is
    the cell t places out. ``None`` for zero, partial and distribution. The
    one place that maps a method to its margin cells and extrapolation degree."""
    m = half_width(k)
    if method in ("diff", "extrapolate"):
        degree = k - 1 if method == "diff" else m
        return slice(0, degree + 1), _extrapolation_weights(degree, m)
    t = np.arange(1, m + 1)
    if method == "replicate":
        return np.zeros(m, dtype=np.intp), None
    if method == "reflect":
        return t, None
    if method == "circular":
        return -t % n, None
    return None


def _edge_cells(n: int, k: int) -> np.ndarray:
    # The K cells at either end of an n-cell axis, in order; all n when they overlap.
    return np.concatenate((np.arange(min(k, n)), np.arange(max(k, n - k), n)))


def _distribution_stats(tall: np.ndarray, wide: np.ndarray, k: int) -> tuple[tuple[float, float], ...]:
    """(mean, sample std with ddof=1) of the field's left, right, top and
    bottom edge bands of thickness (K + 1) / 2, the parameters of distribution
    padding: the left and right ones read from ``tall``, the top and bottom
    ones from ``wide`` (:func:`_margin_pieces`, or a padded field's rows and
    the padded field)."""
    m = half_width(k)
    cols, rows = tall[:, m:-m], wide[m:-m, m:-m]
    bands = (cols[:, :m + 1], cols[:, -m - 1:], rows[:m + 1], rows[-m - 1:])
    return tuple((float(np.mean(band)), float(np.std(band, ddof=1))) for band in bands)


def _draw_distribution(tall: np.ndarray, wide: np.ndarray, m: int, stats, rng) -> None:
    # Overwrite the margin of ``tall`` and ``wide`` (as in _distribution_stats)
    # with i.i.d. normal draws per edge from the Generator ``rng``, set to
    # numpy.random.default_rng(seed)'s stream: one standard_normal call split
    # in fixed order left (H, m), right (H, m), top (m, W+2m), bottom
    # (m, W+2m), so margins depend only on (seed, shape, k).
    (mu_l, sd_l), (mu_r, sd_r), (mu_t, sd_t), (mu_b, sd_b) = stats
    h, w = tall.shape[0], wide.shape[1]
    z = rng.standard_normal(2 * m * (h + w))
    sides, ends = z[:2 * h * m].reshape(2, h, m), z[2 * h * m:].reshape(2, m, w)
    tall[:, :m] = mu_l + sd_l * sides[0]
    tall[:, -m:] = mu_r + sd_r * sides[1]
    wide[:m] = mu_t + sd_t * ends[0]
    wide[-m:] = mu_b + sd_b * ends[1]


def _fill_ends(method: str, lines: np.ndarray, k: int) -> None:
    # Fill the m cells beyond either end of each row of ``lines``, whose
    # in-image cells lie at [m, len - m), by the method's _axis_margin.
    m = half_width(k)
    n = lines.shape[1] - 2 * m
    margin = _axis_margin(method, n, k)
    if margin is None:
        return
    cells, weights = margin
    inside = lines[:, m:m + n]
    for end, near in ((inside, lines[:, m - 1::-1]), (inside[:, ::-1], lines[:, m + n:])):
        near[...] = end[:, cells] if weights is None else end[:, cells] @ weights


def _margin(method: str, field: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """``field`` surrounded by the half-width margin that ``method`` (any of
    :data:`METHODS`) convolves, for inputs the caller has validated.

    The margin starts at zero and is built from the function's own row-major
    copy alone, so its bits do not depend on how ``field`` is stored. The
    row pass applies :func:`_axis_margin` to either end of the field's rows,
    the column pass to either end of the columns across the whole width, so
    every corner is the rows-then-columns tensor product. ``distribution``
    draws per edge from ``seed`` instead."""
    m = half_width(k)
    h, w = field.shape
    padded = np.zeros((h + 2 * m, w + 2 * m))
    rows = padded[m:-m]
    rows[:, m:-m] = field
    if method == "distribution":
        _draw_distribution(rows, padded, m, _distribution_stats(rows, padded, k),
                           np.random.default_rng(seed))
    _fill_ends(method, rows, k)
    _fill_ends(method, padded.T, k)
    return padded


def _margin_pieces(method: str, field: np.ndarray, k: int, seed: int):
    """(tall, wide): the rows and columns of :func:`_margin`'s padded field
    that its m-wide frame reads, with the same bits. ``tall`` holds its H
    field rows at the field's edge columns (:func:`_edge_cells`) with their
    row margins, ``wide`` its W + 2m columns at the field's edge rows with
    the top and bottom margins. Both are gathered from ``field``, so the bits
    do not depend on how it is stored. The passes are :func:`_margin`'s, the
    column pass over ``wide`` once its edge rows have their row margins."""
    m = half_width(k)
    h, w = field.shape
    rows, cols = _edge_cells(h, k), _edge_cells(w, k)
    tall = np.zeros((h, cols.size + 2 * m))
    tall[:, m:-m] = field[:, cols]
    wide = np.zeros((rows.size + 2 * m, w + 2 * m))
    wide[m:-m, m:-m] = field[rows]
    if method == "distribution":
        _draw_distribution(tall, wide, m, _distribution_stats(tall, wide, k),
                           np.random.default_rng(seed))
    _fill_ends(method, tall, k)
    wide[m:-m, :m], wide[m:-m, -m:] = tall[rows, :m], tall[rows, -m:]
    _fill_ends(method, wide.T, k)
    return tall, wide


def _band_strips(h: int, w: int, k: int, slots: int = 1):
    """The m-wide output frames of ``slots`` padded h x w fields, from two
    strips whose passes all run along one long contiguous row: each slot's
    top and bottom edge bands (min(3m, h + 2m) rows) side by side in one
    C-contiguous strip, its left and right ones (min(3m, w + 2m) columns),
    transposed, in another, each strip ending in 2m zero columns. Each window
    is the padded convolution's own, so every frame pixel has its bits.

    Returns (put, runs, ends, sides): ``put(s, tall, wide)`` copies slot s's
    bands from :func:`_margin_pieces` or from a padded field's rows and the
    padded field; ``runs``, each called with the kernel, accumulate the two
    strips; ``ends`` views the top and bottom min(m, h) frame rows as (rows,
    slots, 2, w), ``sides`` the left and right min(m, w) frame columns
    between them, transposed, as (columns, slots, 2, rows). The side bands'
    margin rows stay zero: only the corner outputs, in ``ends``, read
    them. Each strip is run once per kernel or frame, so its output is the
    one :func:`_prepare` allocates and accumulates in place, from tap views
    of the strip held since it was prepared: ``ends`` and ``sides`` view
    that output, and each run reads what ``put`` last wrote."""
    m = half_width(k)
    bands = [min(3 * m, size + 2 * m) for size in (h, w)]
    strips = [np.zeros((band, slots * 2 * (size + 2 * m) + 2 * m))
              for band, size in zip(bands, (w, h))]
    tb, lr = (strip[:, :-2 * m].reshape(strip.shape[0], slots, 2, -1) for strip in strips)
    (tb_out, run_tb), (lr_out, run_lr) = _prepare(strips[0], k), _prepare(strips[1].T, k)
    ends = tb_out.reshape(-1, slots, 2, w + 2 * m)[..., :w]
    sides = lr_out.T.reshape(-1, slots, 2, h + 2 * m)[..., m:max(m, h - m)]
    rows, cols = bands

    def put(s: int, tall: np.ndarray, wide: np.ndarray) -> None:
        tb[:, s, 0], tb[:, s, 1] = wide[:rows], wide[-rows:]
        lr[:, s, 0, m:-m], lr[:, s, 1, m:-m] = tall[:, :cols].T, tall[:, -cols:].T

    return put, (run_tb, run_lr), ends, sides


def _accumulate_unpadded(method: str, field: np.ndarray, kernel: np.ndarray, seed: int) -> np.ndarray:
    """``apply_method``'s accumulation without a padded copy of ``field``:
    the interior straight from the field into the output, then the frame
    from the band strips of the field's margin pieces. Every output pixel
    has the window and the arithmetic of the padded convolution."""
    k = kernel.shape[0]
    m = half_width(k)
    h, w = field.shape
    out = np.empty((h, w))
    # The interior first, so its scratch is freed before the frame's pieces
    # and strips are made: the call holds one full-size array.
    if min(h, w) >= k:
        _prepare(field, k, out[m:-m, m:-m])[1](kernel)
    put, runs, ends, sides = _band_strips(h, w, k)
    put(0, *_margin_pieces(method, field, k, seed))
    for run in runs:
        run(kernel)
    t, u = ends.shape[0], sides.shape[0]
    out[:t], out[h - t:] = ends[:, 0, 0], ends[:, 0, 1]
    out[m:h - m, :u], out[m:h - m, w - u:] = sides[:, 0, 0].T, sides[:, 0, 1].T
    return out


def _rescale_frame(out: np.ndarray, k: int) -> None:
    """Multiply the frame of ``out`` in place by K^2 / (in-image pixels per
    window), partial convolution's factor; the interior's is 1. The frame is
    where an edge cuts the window: the rows whose window count is below K,
    and in the other rows the columns whose count is below K."""
    m = half_width(k)
    # In-image cells per K-wide window along each axis.
    rows, cols = (np.minimum(i, m) + np.minimum(i[::-1], m) + 1 for i in map(np.arange, out.shape))
    cut_rows, cut_cols = rows < k, cols < k
    out[cut_rows] *= (k * k) / np.outer(rows[cut_rows], cols)
    full = ~cut_rows
    out[np.ix_(full, cut_cols)] *= (k * k) / np.outer(rows[full], cols[cut_cols])


def _check_finite(out: np.ndarray, method: str, k: int) -> None:
    """Raise ``ValueError`` naming ``method`` and K unless every entry of its
    output ``out`` is finite; for the extrapolating methods, name the corner
    gain too."""
    if np.all(np.isfinite(out)):
        return
    cause = "rescale the field"
    _, weights = _axis_margin(method, 1, k) or (None, None)
    if weights is not None:
        cause = (f"boundary extrapolation scales field values by up to the corner gain "
                 f"||t||_inf^2 = {np.max(np.abs(weights)) ** 2:.4g}; {cause}")
    raise ValueError(f"{method} output is not finite for K={k}: {cause}")


def apply_method(method: str, field, kernel, bank=None, seed: int = 0) -> np.ndarray:
    """Run one boundary-handling method on a field; output keeps the field shape.

    The one validated path of every method: validate the field and kernel
    once, fill the margin, accumulate, rescale ``partial``'s frame, then
    check the output is finite. An output of fewer than 8 row tiles is
    accumulated over one padded copy of the field. A larger one is allocated
    alone: its interior is accumulated straight from the field into it, and
    its m-wide frame from band strips of the field's edge bands and their
    margin, with the same bits. ``bank`` is accepted for compatibility and
    only checked against the kernel size; ``seed`` is only consumed by
    ``distribution``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    arr = as_field(field)
    ker = as_kernel(kernel)
    k = ker.shape[0]
    if bank is not None and np.shape(bank) != (k * k, k, k):
        raise ValueError(f"bank of shape {np.shape(bank)} does not match the {k}x{k} kernel")
    _check_inputs(arr, k, method, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        # The frame's two strip runs cost 4K^2 ufunc calls at any size, the
        # padded copy grows with the field: without the copy, calls were
        # measured faster or level at every K from 8 row tiles (512^2) on,
        # and up to 1.7x slower at one or two tiles (README).
        if _row_tiles(*arr.shape) >= 8:
            out = _accumulate_unpadded(method, arr, ker, seed)
        else:
            out = _accumulate(_margin(method, arr, k, seed), ker)
        if method == "partial":
            _rescale_frame(out, k)
    _check_finite(out, method, k)
    return out


def conv2d_diff(field, kernel, bank=None) -> np.ndarray:
    """Size-keeping convolution via transformed boundary kernels.

    Computed as the valid convolution of the field extended by degree-(K-1)
    extrapolation, which equals applying the bank kernel for each boundary
    pixel's in-window position to its nearest complete window; an output of
    8 or more row tiles gets no padded copy, since only its frame reads the
    extension (see :func:`apply_method`). Interior output equals
    :func:`conv2d_valid` bitwise. ``bank`` (as from
    :func:`diffconv.stencils.build_bank`) is accepted for compatibility and
    only checked against the kernel size.

    Raises ``ValueError`` when the output is not finite: the extrapolation
    multiplies field values by up to (max |t_r|)^2 at the corners (9, 2025,
    7.1e5 and 3.0e8 for K = 3, 5, 7, 9), which can overflow.
    """
    return apply_method("diff", field, kernel, bank=bank)


def partial_conv2d(field, kernel) -> np.ndarray:
    """Zero-padded convolution rescaled by K^2 / (in-image pixels per window).

    Interior windows have a full pixel count, so their factor is exactly 1.0
    and interior output equals the zero-padded convolution exactly; only the
    m-wide frame is rescaled, in place.
    """
    return apply_method("partial", field, kernel)


def pad(field, k: int, scheme: PaddingScheme) -> np.ndarray:
    """Surround ``field`` with a margin of half-width cells filled per ``scheme``.

    Output shape is (H+2M) x (W+2M) with the input verbatim in the center.
    Every scheme fills the left and right margins of the field's rows before
    the top and bottom margins across the whole width, so corners come from
    the top and bottom pass (``distribution`` draws them there).

    Raises ``ValueError`` naming the scheme and K when the margin is not
    finite: extrapolation and the distribution's edge statistics can
    overflow on a finite field.
    """
    if not isinstance(scheme, PaddingScheme):
        raise ValueError(f"pad takes a PaddingScheme, got {scheme!r}")
    arr = as_field(field)
    _check_inputs(arr, k, scheme.tag, scheme.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        padded = _margin(scheme.tag, arr, k, scheme.seed)
    _check_finite(padded, scheme.tag, k)
    return padded
