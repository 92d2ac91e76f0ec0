"""Acceptance suite: each numbered check runs at its stated tolerance and
prints one pass/fail line."""

import os
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.polynomial import Chebyshev

from diffconv.baselines import PaddingScheme, conv2d_padded, partial_conv2d
from diffconv.benchmark import METHODS, BenchmarkConfig, run_benchmark
from diffconv.cli import main as cli_main
from diffconv.engine import conv2d_diff, conv2d_valid
from diffconv.fields import (
    FieldSpec,
    RandomKernelSpec,
    generate,
    oracle_convolution,
    random_kernels,
)
from diffconv.npyio import load_array, save_array
from diffconv.stencils import (
    derivative_stencil,
    half_width,
    invert_center_matrix,
    mat_identity,
    mat_mul,
    mat_to_floats,
    stencil_matrix,
)
from diffconv.transform import build_bank, identity_kernel

F = Fraction

LAPLACE_3 = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}".rstrip(), flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _frozen(rows):
    return tuple(tuple(F(v) for v in row) for row in rows)


EXPECTED_CENTER_STENCILS = {
    (0, 0): _frozen([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
    (0, 1): _frozen([[0, 0, 0], [F(-1, 2), 0, F(1, 2)], [0, 0, 0]]),
    (0, 2): _frozen([[0, 0, 0], [1, -2, 1], [0, 0, 0]]),
    (1, 0): _frozen([[0, F(-1, 2), 0], [0, 0, 0], [0, F(1, 2), 0]]),
    (1, 1): _frozen([[F(1, 4), 0, F(-1, 4)], [0, 0, 0], [F(-1, 4), 0, F(1, 4)]]),
    (1, 2): _frozen([[F(-1, 2), 1, F(-1, 2)], [0, 0, 0], [F(1, 2), -1, F(1, 2)]]),
    (2, 0): _frozen([[0, 1, 0], [0, -2, 0], [0, 1, 0]]),
    (2, 1): _frozen([[F(-1, 2), 0, F(1, 2)], [1, 0, -1], [F(-1, 2), 0, F(1, 2)]]),
    (2, 2): _frozen([[1, -2, 1], [-2, 4, -2], [1, -2, 1]]),
}

EXPECTED_MATRIX_CENTER = _frozen([
    [0, 0, 0, 0, F(1, 4), F(-1, 2), 0, F(-1, 2), 1],
    [0, 0, 0, F(-1, 2), 0, 1, 1, 0, -2],
    [0, 0, 0, 0, F(-1, 4), F(-1, 2), 0, F(1, 2), 1],
    [0, F(-1, 2), 1, 0, 0, 0, 0, 1, -2],
    [1, 0, -2, 0, 0, 0, -2, 0, 4],
    [0, F(1, 2), 1, 0, 0, 0, 0, -1, -2],
    [0, 0, 0, 0, F(-1, 4), F(1, 2), 0, F(-1, 2), 1],
    [0, 0, 0, F(1, 2), 0, -1, 1, 0, -2],
    [0, 0, 0, 0, F(1, 4), F(1, 2), 0, F(1, 2), 1],
])

EXPECTED_MATRIX_CORNER = _frozen([
    [1, F(-3, 2), 1, F(-3, 2), F(9, 4), F(-3, 2), 1, F(-3, 2), 1],
    [0, 2, -2, 0, -3, 3, 0, 2, -2],
    [0, F(-1, 2), 1, 0, F(3, 4), F(-3, 2), 0, F(-1, 2), 1],
    [0, 0, 0, 2, -3, 2, -2, 3, -2],
    [0, 0, 0, 0, 4, -4, 0, -4, 4],
    [0, 0, 0, 0, -1, 2, 0, 1, -2],
    [0, 0, 0, F(-1, 2), F(3, 4), F(-1, 2), 1, F(-3, 2), 1],
    [0, 0, 0, 0, -1, 1, 0, 2, -2],
    [0, 0, 0, 0, F(1, 4), F(-1, 2), 0, F(-1, 2), 1],
])

EXPECTED_BOX_BLUR_CORNER = _frozen([[16, -8, 4], [-8, 4, -2], [4, -2, 1]])


def test_criterion_1_worked_example_tables():
    start = time.perf_counter()
    ok = True
    for (oy, ox), expected in EXPECTED_CENTER_STENCILS.items():
        ok = ok and derivative_stencil(3, oy, ox, 1, 1).entries == expected
    ok = ok and stencil_matrix(3, 1, 1).entries == EXPECTED_MATRIX_CENTER
    ok = ok and stencil_matrix(3, 0, 0).entries == EXPECTED_MATRIX_CORNER
    corner_transform = mat_mul(stencil_matrix(3, 0, 0).entries, invert_center_matrix(3))
    ones = [F(1)] * 9
    varpi = [sum(row[j] * ones[j] for j in range(9)) for row in corner_transform]
    expected_flat = [v for row in EXPECTED_BOX_BLUR_CORNER for v in row]
    ok = ok and varpi == expected_flat
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"exact stencil/matrix/transform tables ({elapsed:.2f}s)")


def test_criterion_2_exact_inversion():
    start = time.perf_counter()
    ok = True
    for k in (3, 5, 7, 9):
        m = half_width(k)
        center = stencil_matrix(k, m, m).entries
        inverse = invert_center_matrix(k)
        identity = mat_identity(k * k)
        ok = ok and mat_mul(inverse, center) == identity
        ok = ok and mat_mul(center, inverse) == identity
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(2, ok, f"exact inverse and identity transform for sizes 3,5,7,9 ({elapsed:.1f}s)")


def test_criterion_3_kernel_sum_preservation():
    # The transforms' column sums are exactly 1, so every transformed kernel
    # keeps the kernel sum in rationals. In float64 the bank is a
    # matrix-vector product followed by a sum, whose a-priori rounding bound
    # (Higham 2002, sections 3.1 and 4.2) is K^2 * u * S_p with
    # S_p = sum |T_p| |omega| + sum |varpi_p|. An absolute bound cannot be
    # met at K = 7: bank entries reach ~8e5, and one ulp of such an entry is
    # already 1.2e-10.
    unit_roundoff = np.finfo(float).eps / 2
    ok = True
    fractions = []
    for k in (3, 5, 7):
        inverse = invert_center_matrix(k)
        transforms = [
            mat_mul(stencil_matrix(k, r, s).entries, inverse)
            for r in range(k)
            for s in range(k)
        ]
        for t in transforms:
            for col in range(k * k):
                if sum(t[row][col] for row in range(k * k)) != 1:
                    ok = False
        abs_transforms = np.abs(np.stack([mat_to_floats(t) for t in transforms]))
        rng = np.random.default_rng(3000 + k)
        worst = 0.0
        for _ in range(100):
            omega = rng.uniform(-1.0, 1.0, size=(k, k))
            kernels = build_bank(omega).kernels
            drift = np.abs(kernels.sum(axis=(1, 2)) - omega.sum())
            scale = (abs_transforms @ np.abs(omega).reshape(k * k)).sum(axis=1)
            scale += np.abs(kernels).sum(axis=(1, 2))
            bound = k * k * unit_roundoff * scale
            worst = max(worst, float(np.max(drift / bound)))
        fractions.append(f"K={k}: {worst:.3f}")
        ok = ok and worst <= 1.0
    corner = (build_bank(np.ones((3, 3))).kernel_at(0, 0)).sum()
    ok = ok and corner == 9.0
    _report(
        3,
        ok,
        "exact column sums; worst float drift / (K^2 u S_p): " + ", ".join(fractions),
    )


def test_criterion_4_identity_fixpoint():
    ok = True
    worst = 0.0
    for k in (3, 5, 7):
        rng = np.random.default_rng(4000 + k)
        kernel = identity_kernel(k)
        for _ in range(50):
            h = int(rng.integers(k, k + 16))
            w = int(rng.integers(k, k + 16))
            field = rng.uniform(-10.0, 10.0, size=(h, w))
            err = float(np.max(np.abs(conv2d_diff(field, kernel) - field)))
            worst = max(worst, err)
    ok = worst <= 1e-12
    _report(4, ok, f"identity kernel max deviation {worst:.2e} over 150 fields")


def test_criterion_5_polynomial_exactness():
    start = time.perf_counter()
    ok = True
    details = []
    for k, tol in ((3, 1e-9), (5, 1e-9), (7, 1e-6)):
        m = half_width(k)
        rng = np.random.default_rng(5000 + k)
        worst = 0.0
        for _ in range(50):
            coeffs = rng.uniform(-1.0, 1.0, size=(k, k))
            fld = generate(
                FieldSpec(family="polynomial", height=32, width=32, coeffs=coeffs, margin=m)
            )
            kernel = rng.uniform(-1.0, 1.0, size=(k, k))
            truth = oracle_convolution(fld, kernel)
            got = conv2d_diff(fld.core, kernel)
            rel = float(np.max(np.abs(got - truth)) / np.max(np.abs(truth)))
            worst = max(worst, rel)
        details.append(f"K={k}: {worst:.2e} (tol {tol:.0e})")
        ok = ok and worst <= tol
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(5, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_6_interior_agreement():
    rng = np.random.default_rng(6000)
    ok = True
    for trial in range(20):
        k = (3, 5, 7)[trial % 3]
        m = half_width(k)
        h = int(rng.integers(k + 2, k + 20))
        w = int(rng.integers(k + 2, k + 20))
        field = rng.uniform(-1.0, 1.0, size=(h, w))
        kernel = rng.uniform(-1.0, 1.0, size=(k, k))
        valid = conv2d_valid(field, kernel)
        for method in METHODS:
            if method == "diff":
                out = conv2d_diff(field, kernel)
            elif method == "partial":
                out = partial_conv2d(field, kernel)
            else:
                out = conv2d_padded(field, kernel, PaddingScheme(method, seed=trial))
            if not np.array_equal(out[m:h - m, m:w - m], valid):
                ok = False
    _report(6, ok, "all methods bitwise equal to valid convolution on interior pixels")


def test_criterion_7_benchmark_ordering():
    start = time.perf_counter()
    config = BenchmarkConfig(
        family="chebyshev",
        orders=tuple(range(1, 11)),
        height=128,
        width=128,
        size=3,
        filter_count=100,
        seed=20240501,
        methods=METHODS,
    )
    rows = run_benchmark(config, threads=int(os.environ.get("DIFFCONV_THREADS", "1")))
    eps1: dict[int, dict[str, list[float]]] = {}
    for _family, order, method, _j, e1, _e2 in rows:
        eps1.setdefault(order, {}).setdefault(method, []).append(e1)
    ok_a = ok_b = ok_c = True
    for order in config.orders:
        med = {m: float(np.median(eps1[order][m])) for m in METHODS}
        if not all(med["diff"] < med[m] for m in METHODS if m != "diff"):
            ok_a = False
        wins = int(np.sum(np.array(eps1[order]["diff"]) < np.array(eps1[order]["extrapolate"])))
        if wins < 90:
            ok_b = False
        if order <= 5:
            crude = ("zero", "reflect", "replicate", "circular", "distribution", "partial")
            if not all(med[m] >= 10.0 * med["diff"] for m in crude):
                ok_c = False
    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and elapsed < 120.0
    _report(
        7,
        ok,
        f"median ordering {ok_a}, >=90/100 wins vs extrapolate {ok_b}, "
        f">=10x crude methods for n<=5 {ok_c} ({elapsed:.1f}s)",
    )


def _chebyshev_U_poly(n: int) -> Chebyshev:
    # Same three-term recurrence as diffconv.fields.chebyshev_U (started from
    # U_-1 = 0), on polynomial objects so that it can be differentiated.
    x = Chebyshev([0.0, 1.0])
    prev, cur = Chebyshev([0.0]), Chebyshev([1.0])
    for _ in range(n):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def _chebyshev_laplacian(order: int, height: int, width: int) -> np.ndarray:
    """Analytic Laplacian, in pixel units, of the chebyshev field
    U_n(u) U_n(v) sin(n (u + v)) on its H x W grid over [-1, 1]^2."""
    u_n = _chebyshev_U_poly(order)
    hy, hx = 2.0 / (height - 1), 2.0 / (width - 1)
    u = (-1.0 + hy * np.arange(height))[:, None]
    v = (-1.0 + hx * np.arange(width))[None, :]
    a, a1, a2 = u_n(u), u_n.deriv()(u), u_n.deriv(2)(u)
    b, b1, b2 = u_n(v), u_n.deriv()(v), u_n.deriv(2)(v)
    sin = np.sin(order * (u + v))
    cos = order * np.cos(order * (u + v))
    f_uu = a2 * b * sin + 2.0 * a1 * b * cos - order**2 * a * b * sin
    f_vv = a * b2 * sin + 2.0 * a * b1 * cos - order**2 * a * b * sin
    return hy * hy * f_uu + hx * hx * f_vv


def test_criterion_8_laplace_boundary_artefacts(tmp_path):
    # Reference: the analytic Laplacian h^2 (f_uu + f_vv), so interior pixels
    # carry the five-point stencil's own O(h^4) error. At K = 3 the boundary
    # kernels are exact for per-axis quadratics, so the transform method's
    # frame error is O(h^3) and must fall by at least 2^2.5 when the grid is
    # refined from 128^2 to 256^2; zero padding's frame error stays O(f) and
    # falls by less than 2.
    runner = CliRunner()
    kernel_path = tmp_path / "laplace.npy"
    result = runner.invoke(
        cli_main,
        ["make-kernel", "--size", "3", "--op", "20:1,02:1", "--output", str(kernel_path)],
    )
    kernel_ok = result.exit_code == 0 and np.array_equal(load_array(kernel_path), LAPLACE_3)

    def band_maxima(size):
        fld = generate(FieldSpec(family="chebyshev", height=size, width=size, order=10))
        truth = _chebyshev_laplacian(10, size, size)
        mask = np.ones_like(truth, dtype=bool)
        mask[1:-1, 1:-1] = False
        diff_err = np.abs(conv2d_diff(fld.core, LAPLACE_3) - truth)
        zero_err = np.abs(conv2d_padded(fld.core, LAPLACE_3, "zero") - truth)
        interior = float(np.max(zero_err[~mask]))
        return float(np.max(diff_err[mask])), float(np.max(zero_err[mask])), interior

    diff_coarse, zero_coarse, interior = band_maxima(128)
    diff_fine, zero_fine, _ = band_maxima(256)
    zero_ok = zero_coarse > 100.0 * interior
    diff_rate = diff_coarse / diff_fine
    zero_rate = zero_coarse / zero_fine
    diff_ok = diff_rate >= 2.0**2.5
    zero_stalls = zero_rate < 2.0
    ok = kernel_ok and zero_ok and diff_ok and zero_stalls
    _report(
        8,
        ok,
        f"kernel {kernel_ok}; 128^2 zero frame/interior {zero_coarse:.3g}/{interior:.3g} "
        f"({zero_ok}); frame error 128^2 -> 256^2: diff {diff_coarse:.3g} -> "
        f"{diff_fine:.3g}, /{diff_rate:.2f} >= 5.66 ({diff_ok}); zero {zero_coarse:.3g} -> "
        f"{zero_fine:.3g}, /{zero_rate:.2f} < 2 ({zero_stalls})",
    )


def test_laplace_boundary_spike_comparison():
    # Beside criterion 8's analytic reference, this compares against the
    # sampled ground truth (a valid convolution over the analytic margin).
    # There the interior is bitwise exact for every method, since interior
    # windows are complete and share the same arithmetic, so all error sits
    # in the frame; the transform method's frame error is at least 10x below
    # zero padding's and stays below the ground-truth signal scale.
    fld = generate(FieldSpec(family="chebyshev", height=128, width=128, order=10, margin=1))
    truth = oracle_convolution(fld, LAPLACE_3)
    mask = np.ones_like(truth, dtype=bool)
    mask[1:-1, 1:-1] = False
    diff_err = np.abs(conv2d_diff(fld.core, LAPLACE_3) - truth)
    zero_err = np.abs(conv2d_padded(fld.core, LAPLACE_3, "zero") - truth)
    assert float(np.max(diff_err[~mask])) == 0.0
    assert float(np.max(zero_err[~mask])) == 0.0
    diff_frame = float(np.max(diff_err[mask]))
    zero_frame = float(np.max(zero_err[mask]))
    assert zero_frame >= 10.0 * diff_frame
    assert diff_frame <= np.max(np.abs(truth))


def test_criterion_9_determinism_and_io(tmp_path, monkeypatch):
    runner = CliRunner()
    args = [
        "compare", "--family", "chebyshev", "--orders", "1:3", "--height", "24",
        "--width", "24", "--size", "3", "--filters", "6", "--seed", "99",
    ]
    monkeypatch.setenv("DIFFCONV_THREADS", "1")
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    monkeypatch.setenv("DIFFCONV_THREADS", "4")
    threaded = runner.invoke(cli_main, args)
    csv_ok = (
        first.exit_code == 0
        and first.output == second.output
        and first.output == threaded.output
    )
    rng = np.random.default_rng(9000)
    io_ok = True
    for i in range(20):
        arr = rng.uniform(-1e9, 1e9, size=(int(rng.integers(1, 30)), int(rng.integers(1, 30))))
        path = tmp_path / f"r{i}.npy"
        save_array(path, arr)
        if load_array(path).tobytes() != arr.tobytes():
            io_ok = False
    ok = csv_ok and io_ok
    _report(9, ok, f"CSV identical across runs/threads {csv_ok}; NPY round trips bitwise {io_ok}")
