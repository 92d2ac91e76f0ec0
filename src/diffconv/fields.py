"""Synthetic analytic fields, random test kernels, and the extended-sampling
ground truth for boundary-handling comparisons.

Fields are sampled with an optional analytic margin: the same coordinate map
is evaluated beyond the image edges, so a valid convolution over the extended
grid gives the result an ideal boundary method would produce. Generation is
elementwise throughout, which makes the central block of a margined field
bitwise identical to a margin-free generation of the same spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _is_seed, conv2d_valid
from .stencils import as_kernel, half_width

FAMILIES = ("chebyshev", "spherical", "polynomial")


def chebyshev_U(n: int, x):
    """Chebyshev polynomial of the second kind, by the three-term recurrence
    U_0 = 1, U_1 = 2x, U_{k+1} = 2x U_k - U_{k-1}. Accepts scalars or arrays."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    x = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def spherical_Y(l: int, m: int, theta, phi):
    """Real orthonormal spherical harmonic of degree ``l`` and order ``m``.

    Cosine convention: sqrt(2) * N_lm * P_l^m(cos theta) * cos(m phi) for
    m > 0 and N_l0 * P_l(cos theta) for m = 0, with orthonormalizing N_lm and
    no Condon-Shortley factor. N_lm P_l^m comes straight from the normalised
    three-term recurrence in degree of Holmes and Featherstone (J. Geodesy
    76, 2002): no factorial is formed, so nothing overflows.
    """
    if l < 0 or m < 0:
        raise ValueError(f"degree and order must be >= 0, got l={l}, m={m}")
    if m > l:
        raise ValueError(f"order {m} exceeds degree {l}")
    x = np.cos(np.asarray(theta, dtype=np.float64))
    sin_theta = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
    # N_mm P_m^m = sqrt((2m+1)/(4 pi) * prod_{i<=m} (2i-1)/(2i)) * sin^m(theta).
    ratio = math.prod((2 * i - 1) / (2 * i) for i in range(1, m + 1))
    prev, p = 0.0, math.sqrt((2 * m + 1) / (4.0 * math.pi) * ratio) * sin_theta**m
    for d in range(m + 1, l + 1):
        a = math.sqrt((4 * d * d - 1) / (d * d - m * m))
        b = math.sqrt(((d - 1) ** 2 - m * m) / (4 * (d - 1) ** 2 - 1))
        prev, p = p, a * (x * p - b * prev)
    if m > 0:
        p = math.sqrt(2.0) * p * np.cos(m * np.asarray(phi, dtype=np.float64))
    return p if p.ndim else float(p)


@dataclass(frozen=True)
class Field:
    """A sampled field plus an analytic margin of ``margin`` cells per side.

    ``data`` has shape (H+2m) x (W+2m); the outer band is ground truth for
    oracle use only and never feeds the methods under test.
    """

    data: np.ndarray
    margin: int

    @property
    def core(self) -> np.ndarray:
        m = self.margin
        return self.data[m:self.data.shape[0] - m, m:self.data.shape[1] - m]


@dataclass(frozen=True)
class FieldSpec:
    family: str
    height: int
    width: int
    order: int = 0
    coeffs: np.ndarray | None = None
    margin: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.height < 3 or self.width < 3:
            raise ValueError(f"field must be at least 3x3, got {self.height}x{self.width}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.family == "polynomial":
            if self.order:
                raise ValueError("polynomial family takes a coefficient table, not an order")
            if self.coeffs is None:
                raise ValueError("polynomial family requires a coefficient table")
            arr = np.asarray(self.coeffs, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError("polynomial coefficients must be a 2D table")
            if not np.all(np.isfinite(arr)):
                raise ValueError("polynomial coefficients must be finite")
            object.__setattr__(self, "coeffs", arr)
        elif self.coeffs is not None:
            raise ValueError(f"{self.family} family takes an order, not a coefficient table")
        elif self.order < 1:
            raise ValueError(
                f"{self.family} order must be >= 1 (order 0 is identically zero), got {self.order}"
            )


def generate(spec: FieldSpec) -> Field:
    """Sample the spec's analytic function on an (H+2m) x (W+2m) grid.

    The central H x W block covers the family domain (chebyshev: [-1,1]^2;
    spherical: colatitude [0, pi] by azimuth [0, 2pi); polynomial: integer
    pixel coordinates); the margin continues the same coordinate map beyond
    the edges. Raises ``ValueError`` if a sample does not fit in float64.
    """
    h, w, m, n = spec.height, spec.width, spec.margin, spec.order
    ys = np.arange(-m, h + m, dtype=np.float64)
    xs = np.arange(-m, w + m, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.family == "polynomial":
            coeffs = spec.coeffs
            data = np.zeros((ys.size, xs.size), dtype=np.float64)
            for a in range(coeffs.shape[0]):
                w_poly = np.zeros_like(xs)
                for b in range(coeffs.shape[1]):
                    w_poly += coeffs[a, b] * xs**b
                data += ys[:, None] ** a * w_poly[None, :]
        else:
            if spec.family == "chebyshev":
                u, v = -1.0 + 2.0 * ys / (h - 1), -1.0 + 2.0 * xs / (w - 1)
                along_y, along_x = chebyshev_U(n, u), chebyshev_U(n, v)
            else:
                u, v = math.pi * ys / (h - 1), 2.0 * math.pi * xs / w
                # Y_{2n}^n is separable in (theta, phi); the azimuthal factor of the
                # cosine convention is cos(n*phi), recovered by evaluating at phi=0.
                along_y, along_x = spherical_Y(2 * n, n, u, 0.0), np.cos(n * v)
            data = along_y[:, None] * along_x[None, :] * np.sin(n * (u[:, None] + v[None, :]))
    if not np.all(np.isfinite(data)):
        what = f"{spec.family} field" + ("" if spec.family == "polynomial" else f" of order {n}")
        raise ValueError(f"{what} on a {h}x{w} grid with margin {m} does not fit in float64")
    return Field(data=data, margin=m)


@dataclass(frozen=True)
class RandomKernelSpec:
    size: int
    count: int
    seed: int

    def __post_init__(self):
        half_width(self.size)
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not _is_seed(self.seed):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


# numpy's SeedSequence hash constants and PCG64 multiplier, fixed by its
# stream-compatibility policy (NEP 19).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = (2549297995355413924 << 64) + 4865540595714422341, (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    # init * mult**t mod 2**32 for t = 0..n, in Python ints: no scalar overflows.
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


def _cell_entropy(keys: tuple[int, ...], count: int) -> np.ndarray:
    """The (count, L) uint32 entropy that ``SeedSequence([*keys, j])``
    assembles for j < count: each key's little-endian 32-bit words (one
    zero word for 0), then j."""
    words = [int(key) >> s & 0xFFFFFFFF
             for key in keys for s in range(0, max(int(key).bit_length(), 1), 32)]
    entropy = np.empty((count, len(words) + 1), dtype=np.uint32)
    entropy[:, :-1] = words
    entropy[:, -1] = np.arange(count)
    return entropy


def _generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words, np.uint32)`` for every row
    of the (N, L) uint32 ``entropy``, as an (N, n_words) array; the uint64
    state is its word pairs, low word first. Rows shorter than the pool of
    4 words are padded with zeros, as SeedSequence pads them."""
    length = max(entropy.shape[1], 4)
    words = np.zeros((length, entropy.shape[0]), dtype=np.uint32)
    words[:entropy.shape[1]] = entropy.T
    a = _hash_constants(_INIT_A, _MULT_A, 4 * length)[:, None]

    def hashmix(value, t, n):  # hash calls t, ..., t + n - 1, a row of the result each
        value = (value ^ a[t:t + n]) * a[t + 1:t + n + 1]
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    pool = hashmix(words[:4], 0, 4)
    for src in range(4):  # src hashes into each other word, in word order
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for i, word in enumerate(words[4:]):
        pool = mix(pool, hashmix(word, 16 + 4 * i, 4))
    b = _hash_constants(_INIT_B, _MULT_B, n_words)[:, None]
    state = (pool[np.arange(n_words) % 4] ^ b[:-1]) * b[1:]
    return (state ^ state >> 16).T


def _streams(entropy: np.ndarray):
    """For each row of the (N, L) uint32 ``entropy``, in order, one shared
    Generator set to the stream of ``default_rng(SeedSequence(row))``: its
    PCG64 gets the state that seeding from the row's 4 uint64 words gives,
    inc = 2 * initseq + 1 and state = ((inc + initstate) * M + inc) mod 2**128."""
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for w in _generate_state(entropy, 8).tolist():
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = ((w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def random_kernels(spec: RandomKernelSpec) -> list[np.ndarray]:
    """Kernels with i.i.d. entries uniform on [-1, 1].

    Kernel ``j`` draws from ``default_rng([seed, j])``'s stream, so any
    subset can be generated independently and in any order. The streams are
    seeded in bulk (:func:`_streams`), with the same bits.
    """
    k = spec.size
    return [rng.uniform(-1.0, 1.0, size=(k, k))
            for rng in _streams(_cell_entropy((spec.seed,), spec.count))]


def oracle_convolution(field: Field, kernel) -> np.ndarray:
    """Ground-truth size-keeping convolution from the analytic margin.

    Runs the valid convolution over the margin-extended samples and crops the
    result to align with the central H x W block: the output an ideal method
    would produce if the true values outside the image were available.
    """
    ker = as_kernel(kernel)
    m_half = half_width(ker.shape[0])
    if field.margin < m_half:
        raise ValueError(
            f"oracle needs margin >= {m_half} for a {ker.shape[0]}x{ker.shape[0]} kernel, "
            f"got margin {field.margin}"
        )
    full = conv2d_valid(field.data, ker)
    off = field.margin - m_half
    return full[off:full.shape[0] - off, off:full.shape[1] - off]
