import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffconv import benchmark, engine, fields
from diffconv.benchmark import (
    BenchmarkConfig,
    derive_seed,
    error_means,
    l1_error,
    mse,
    rows_to_csv,
    run_benchmark,
)
from diffconv.engine import METHODS, apply_method
from diffconv.fields import (
    Field,
    FieldSpec,
    RandomKernelSpec,
    generate,
    oracle_convolution,
    random_kernels,
)
from diffconv.stencils import half_width


def test_seed_is_derived_once_per_cell_and_only_for_distribution(monkeypatch):
    # Each order's cell seeds come from one bulk call on the entropy rows
    # (seed, order, j), and only when distribution runs.
    calls = []
    bulk = benchmark._generate_state

    def counting(entropy, n_words):
        calls.append((entropy.tolist(), n_words))
        return bulk(entropy, n_words)

    monkeypatch.setattr(benchmark, "_generate_state", counting)
    config = BenchmarkConfig(family="chebyshev", orders=(1, 2), height=12, width=12,
                             size=3, filter_count=3, seed=5)
    full = run_benchmark(config)
    assert [n_words for _, n_words in calls] == [2, 2]
    assert sorted(row for rows, _ in calls for row in rows) == [
        [5, order, j] for order in (1, 2) for j in range(3)
    ]
    calls.clear()
    subset = run_benchmark(dataclasses.replace(config, methods=("diff", "zero")))
    assert calls == []
    assert subset == [row for row in full if row[2] in ("diff", "zero")]


def full_per_cell_rows(config):
    # The definition: every method's full apply_method output against the
    # full oracle, cell by cell.
    m = half_width(config.size)
    kernels = random_kernels(
        RandomKernelSpec(size=config.size, count=config.filter_count, seed=config.seed)
    )
    rows = []
    for order in config.orders:
        fld = generate(FieldSpec(family=config.family, height=config.height,
                                 width=config.width, order=order, margin=m))
        cells = {}
        for j, ker in enumerate(kernels):
            truth = oracle_convolution(fld, ker)
            seed = derive_seed(config.seed, order, j)
            for method in config.methods:
                out = apply_method(method, fld.core, ker, seed=seed)
                cells[method, j] = (config.family, order, method, j,
                                    l1_error(out, truth), mse(out, truth))
        rows.extend(cells[method, j]
                    for method in config.methods for j in range(config.filter_count))
    return rows


def test_rows_equal_full_per_cell_definition():
    base = BenchmarkConfig(family="chebyshev", orders=(1, 4), height=23, width=31,
                           size=3, filter_count=3, seed=17)
    configs = [
        *(dataclasses.replace(base, size=k, family=family)
          for k in (3, 5, 7, 9) for family in ("chebyshev", "spherical")),
        dataclasses.replace(base, size=5, height=5, width=5),
        dataclasses.replace(base, size=9, height=9, width=9, family="spherical"),
        dataclasses.replace(base, size=7, methods=("partial", "distribution", "diff")),
        dataclasses.replace(base, methods=("partial", "diff", "zero", "partial", "diff")),
        # One middle row or column between the non-square bands.
        dataclasses.replace(base, size=7, height=7, width=40),
        dataclasses.replace(base, size=7, height=40, width=7),
        dataclasses.replace(base, size=9, height=9, width=12, family="spherical"),
        dataclasses.replace(base, methods=("diff",)),
    ]
    for config in configs:
        expected = full_per_cell_rows(config)
        rows = run_benchmark(config)
        assert rows == expected, config
        assert rows_to_csv(rows) == rows_to_csv(expected), config


def test_one_call_equals_its_one_order_calls():
    # The band strips and their prepared accumulations are kept for the whole
    # call and rewritten in place per order and per distribution draw, so a
    # call over several orders gives the rows of one call per order.
    base = BenchmarkConfig(family="spherical", orders=(1, 4, 7), height=23, width=31,
                           size=9, filter_count=3, seed=17)
    for config in (base, dataclasses.replace(base, size=3, family="chebyshev", height=31, width=9)):
        rows = run_benchmark(config)
        per_order = [row for order in config.orders
                     for row in run_benchmark(dataclasses.replace(config, orders=(order,)))]
        assert rows == per_order, config
        assert rows_to_csv(rows) == rows_to_csv(per_order), config


def frame_bytes(config):
    """Bytes of one kernel's frame values in ``run_benchmark``: one float per
    frame pixel for the oracle and each distinct method."""
    h, w, m = config.height, config.width, half_width(config.size)
    return 8 * (len(set(config.methods)) + 1) * (h * w - (h - 2 * m) * (w - 2 * m))


def chunks_of(monkeypatch, per_chunk, config):
    """Bound ``run_benchmark``'s chunks to ``per_chunk`` kernels, and record
    how many kernels each chunk's error sums take."""
    monkeypatch.setattr(benchmark, "_TILE_BYTES", per_chunk * frame_bytes(config))
    sizes = []

    def recording(d, count):
        sizes.append(len(d))
        return error_means(d, count)

    monkeypatch.setattr(benchmark, "error_means", recording)
    return sizes


@pytest.mark.parametrize("per_chunk", [1, 2])
def test_rows_equal_full_per_cell_definition_in_chunks(monkeypatch, per_chunk):
    # Five kernels: chunks of one, or of two with a remainder of one. The
    # non-square fields put the top/bottom and the left/right strips' seams
    # at different places.
    base = BenchmarkConfig(family="chebyshev", orders=(1, 4), height=23, width=31,
                           size=3, filter_count=5, seed=17)
    configs = [
        base,
        dataclasses.replace(base, size=9, family="spherical"),
        dataclasses.replace(base, height=9, width=31),
        dataclasses.replace(base, height=31, width=9, methods=("partial", "distribution", "diff")),
        # partial's frame from zero's slot, and from a slot of its own.
        dataclasses.replace(base, methods=("partial", "zero")),
        dataclasses.replace(base, size=5, methods=("partial",)),
        # One method: with one kernel per chunk, each sum has a single lane.
        dataclasses.replace(base, methods=("diff",)),
    ]
    for config in configs:
        sizes = chunks_of(monkeypatch, per_chunk, config)
        rows = run_benchmark(config)
        # One call per chunk sums both eps1 and eps2.
        chunks = [1] * 5 if per_chunk == 1 else [2, 2, 1]
        assert sizes == chunks * len(config.orders), config
        assert rows == full_per_cell_rows(config), config


@pytest.mark.parametrize("methods,slots", [
    (METHODS, 8),  # compare's defaults: the oracle and seven margins
    (tuple(m for m in METHODS if m != "zero"), 8),  # partial's zero margin is its own
    (("partial", "diff", "zero", "partial"), 3),
    (("partial",), 2),
])
def test_band_strips_hold_one_slot_per_margin(monkeypatch, methods, slots):
    # partial is zero padding with its frame rescaled, so it reads zero's
    # strip slot when zero runs too.
    band_strips = benchmark._band_strips
    seen = []

    def recording(h, w, k, count):
        seen.append(count)
        return band_strips(h, w, k, count)

    monkeypatch.setattr(benchmark, "_band_strips", recording)
    config = BenchmarkConfig(family="chebyshev", orders=(1, 2), height=12, width=12,
                             size=3, filter_count=2, seed=0, methods=methods)
    run_benchmark(config)
    assert seen == [slots]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [3, 5])
def test_every_method_reports_overflow(method, k):
    # Finite input whose output overflows float64.
    with pytest.raises(ValueError, match=rf"^{method} output is not finite for K={k}:"):
        apply_method(method, np.full((12, 12), 1e308), np.ones((k, k)), seed=1)


def huge_fields(core_value, margin_value):
    """A stand-in for ``generate``: ``core_value`` inside, ``margin_value`` in
    the analytic margin only the oracle reads."""
    def fake(spec):
        m = spec.margin
        data = np.full((spec.height + 2 * m, spec.width + 2 * m), margin_value)
        data[m:m + spec.height, m:m + spec.width] = core_value
        return Field(data=data, margin=m)
    return fake


def ones_kernels(spec):
    return [np.ones((spec.size, spec.size))] * spec.count


@pytest.mark.parametrize("method", [*METHODS, "oracle"])
def test_run_benchmark_reports_any_slots_overflow(monkeypatch, method):
    # Every entry is finite and near the float maximum; the oracle's case has
    # a zero core, so only the analytic margin overflows.
    big = np.finfo(np.float64).max / 2
    core = 0.0 if method == "oracle" else big
    monkeypatch.setattr(benchmark, "generate", huge_fields(core, big))
    monkeypatch.setattr(benchmark, "random_kernels", ones_kernels)
    methods = ("zero",) if method == "oracle" else (method,)
    config = BenchmarkConfig(family="chebyshev", orders=(1,), height=12, width=12,
                             size=3, filter_count=2, seed=0, methods=methods)
    with pytest.raises(ValueError, match=rf"^{method} output is not finite for K=3:"):
        run_benchmark(config)


@pytest.mark.parametrize("methods", [("partial", "zero"), ("zero", "partial")])
def test_run_benchmark_names_the_first_method_of_a_shared_slot(monkeypatch, methods):
    # zero's and partial's frames both overflow, from the one zero-margin
    # slot: methods are checked in the config's order, then the oracle.
    big = np.finfo(np.float64).max / 2
    monkeypatch.setattr(benchmark, "generate", huge_fields(big, big))
    monkeypatch.setattr(benchmark, "random_kernels", ones_kernels)
    config = BenchmarkConfig(family="chebyshev", orders=(1,), height=12, width=12,
                             size=3, filter_count=2, seed=0, methods=methods)
    with pytest.raises(ValueError, match=rf"^{methods[0]} output is not finite for K=3:"):
        run_benchmark(config)


# The message the per-kernel check raises for each slot at K = 3.
GAINS = {"diff": 9, "extrapolate": 4}
OVERFLOW_TEXT = {
    method: f"{method} output is not finite for K=3: " + (
        f"boundary extrapolation scales field values by up to the corner gain "
        f"||t||_inf^2 = {GAINS[method]}; " if method in GAINS else "") + "rescale the field"
    for method in [*METHODS, "oracle"]
}


@pytest.mark.parametrize("bad", [1, 2, 3])
@pytest.mark.parametrize("method", [*METHODS, "oracle"])
def test_run_benchmark_reports_an_overflow_inside_a_chunk(monkeypatch, method, bad):
    # Five kernels in chunks of two; only kernel ``bad`` overflows (each of
    # its products does), the others are zero. The values stay small enough
    # for finite edge statistics, so ``distribution``'s margin is finite too.
    value = np.finfo(np.float64).max / 100
    core = 0.0 if method == "oracle" else value
    monkeypatch.setattr(benchmark, "generate", huge_fields(core, value))
    monkeypatch.setattr(benchmark, "random_kernels", lambda spec: [
        np.full((spec.size, spec.size), 1e3 if j == bad else 0.0) for j in range(spec.count)])
    methods = ("zero",) if method == "oracle" else (method,)
    config = BenchmarkConfig(family="chebyshev", orders=(1,), height=12, width=12,
                             size=3, filter_count=5, seed=0, methods=methods)
    sizes = chunks_of(monkeypatch, 2, config)
    with pytest.raises(ValueError) as raised:
        run_benchmark(config)
    assert str(raised.value) == OVERFLOW_TEXT[method]
    assert sizes == [2] * (bad // 2)  # the chunks before the bad kernel's


@pytest.mark.parametrize("first", ["oracle", "zero"])
def test_run_benchmark_reports_the_first_bad_kernel_of_a_chunk(monkeypatch, first):
    # Kernels 2 and 3 share a chunk. A corner weight of 4 overflows only the
    # oracle, which reads the huge analytic margin; a huge kernel also
    # overflows ``zero``, whose slot is checked before the oracle's. The
    # error names the slot that fails first in the earlier kernel.
    big = np.finfo(np.float64).max / 2
    corner = np.zeros((3, 3))
    corner[0, 0] = 4.0
    huge = np.full((3, 3), big)
    kernels = {"oracle": corner, "zero": huge}
    other = "zero" if first == "oracle" else "oracle"
    bad = {2: kernels[first], 3: kernels[other]}
    monkeypatch.setattr(benchmark, "generate", huge_fields(1.0, big))
    monkeypatch.setattr(benchmark, "random_kernels", lambda spec: [
        bad.get(j, np.zeros((3, 3))) for j in range(spec.count)])
    config = BenchmarkConfig(family="chebyshev", orders=(1,), height=12, width=12,
                             size=3, filter_count=5, seed=0, methods=("zero",))
    chunks_of(monkeypatch, 2, config)
    with pytest.raises(ValueError) as raised:
        run_benchmark(config)
    assert str(raised.value) == OVERFLOW_TEXT[first]


def test_run_benchmark_runs_spherical_orders_past_the_factorial_range():
    # Y_114^57 and Y_400^200: (l + m)! no longer fits in a float from order 57.
    config = BenchmarkConfig(family="spherical", orders=(57, 200), height=16, width=16,
                             size=3, filter_count=2, seed=0)
    rows = run_benchmark(config)
    assert len(rows) == 2 * len(METHODS) * 2
    assert np.isfinite([row[4:] for row in rows]).all()


def test_run_benchmark_checks_slots_only_when_a_cell_is_not_finite(monkeypatch):
    calls = []
    monkeypatch.setattr(benchmark, "_check_finite", lambda *args: calls.append(args))
    run_benchmark(BenchmarkConfig(family="chebyshev", orders=(1, 2), height=12, width=12,
                                  size=3, filter_count=3, seed=5))
    assert calls == []


@pytest.mark.parametrize("method", [*METHODS, "oracle", "conv2d_diff", "partial_conv2d", "pad"])
def test_each_call_validates_its_field_once(monkeypatch, method):
    scanned = []

    def counting(field):
        scanned.append(np.shape(field))
        return as_field(field)

    as_field = engine.as_field
    for module in (engine, fields):
        monkeypatch.setattr(module, "as_field", counting, raising=False)
    fld = generate(FieldSpec(family="chebyshev", height=9, width=11, order=3, margin=1))
    kernel = random_kernels(RandomKernelSpec(size=3, count=1, seed=2))[0]
    if method == "oracle":
        oracle_convolution(fld, kernel)
        assert scanned == [(11, 13)]
        return
    if method == "pad":
        engine.pad(fld.core, 3, engine.PaddingScheme("reflect"))
    elif method in METHODS:
        apply_method(method, fld.core, kernel, seed=4)
    else:  # the public wrappers around apply_method
        getattr(engine, method)(fld.core, kernel)
    assert scanned == [(9, 11)]


@pytest.mark.parametrize("change,message", [
    ({"family": "polynomial"}, "benchmark family must be 'chebyshev' or 'spherical', got 'polynomial'"),
    ({"orders": ()}, r"orders must be a non-empty list of integers >= 1, got \(\)"),
    ({"orders": (0, 1, 2)}, r"orders must be a non-empty list of integers >= 1, got \(0, 1, 2\)"),
    ({"filter_count": 0}, "filter count must be >= 1, got 0"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"size": 4}, r"kernel size must be one of \(3, 5, 7, 9\), got 4"),
    ({"height": 2}, "field 2x8 is smaller than the kernel size 3"),
    ({"width": 6, "size": 7}, "field 8x6 is smaller than the kernel size 7"),
    ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({"seed": "3"}, "seed must be a non-negative integer, got '3'"),
])
def test_config_rejects_each_constraint_by_name(change, message):
    valid = dict(family="chebyshev", orders=(1,), height=8, width=8, size=3, filter_count=1, seed=0)
    BenchmarkConfig(**valid)
    with pytest.raises(ValueError, match=f"^{message}$"):
        BenchmarkConfig(**{**valid, **change})


def test_identical_fields_have_zero_error():
    a = np.random.default_rng(1).uniform(-1.0, 1.0, size=(5, 7))
    assert l1_error(a, a) == 0.0
    assert mse(a, a) == 0.0


def test_l1_small_example():
    assert l1_error(np.array([[0.0, 2.0]]), np.array([[1.0, 1.0]])) == 1.0


def test_metrics_match_loop_reference():
    rng = np.random.default_rng(2)
    a = rng.uniform(-3.0, 3.0, size=(9, 11))
    b = rng.uniform(-3.0, 3.0, size=(9, 11))
    ref_l1 = sum(abs(a[y, x] - b[y, x]) for y in range(9) for x in range(11)) / (9 * 11)
    ref_mse = sum((a[y, x] - b[y, x]) ** 2 for y in range(9) for x in range(11)) / (9 * 11)
    assert abs(l1_error(a, b) - ref_l1) <= 1e-13
    assert abs(mse(a, b) - ref_mse) <= 1e-13


def test_metrics_are_the_row_major_running_sum():
    # The definition: a left-to-right sum over row-major pixels, divided by
    # the pixel count; equal bitwise, not to a tolerance.
    rng = np.random.default_rng(4)
    a = rng.uniform(-3.0, 3.0, size=(9, 11)) * 10.0 ** rng.integers(-8, 8, size=(9, 11))
    b = rng.uniform(-3.0, 3.0, size=(9, 11))
    l1 = sq = 0.0
    for y in range(9):
        for x in range(11):
            d = float(a[y, x]) - float(b[y, x])
            l1 += abs(d)
            sq += d * d
    assert l1_error(a, b) == l1 / 99
    assert mse(a, b) == sq / 99
    # Any input layout is summed in the same row-major pixel order.
    assert l1_error(np.asfortranarray(a), b) == l1 / 99
    assert mse(a, np.asfortranarray(b)) == sq / 99
    strided = np.zeros((18, 11))[::2]
    strided[...] = a
    assert l1_error(strided, b) == l1 / 99
    assert mse(strided, b) == sq / 99


@pytest.mark.parametrize("metric", [l1_error, mse])
@pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
def test_empty_inputs_raise(metric, shape):
    with pytest.raises(ValueError, match=r"at least one pixel"):
        metric(np.zeros(shape), np.zeros(shape))


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        l1_error(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_symmetry_and_scaling():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, size=(6, 6))
    b = rng.uniform(-1.0, 1.0, size=(6, 6))
    assert l1_error(a, b) == l1_error(b, a)
    assert mse(a, b) == mse(b, a)
    c = -2.5
    assert l1_error(c * a, c * b) == pytest.approx(abs(c) * l1_error(a, b), rel=1e-13)
    assert mse(c * a, c * b) == pytest.approx(c * c * mse(a, b), rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(4, 4))
    b = a.copy()
    b[2, 1] += 0.5
    assert l1_error(a, b) > 0.0
    assert mse(a, b) > 0.0


def assert_left_to_right_sum(d, count):
    # The definition: np.add.accumulate's last entry along the last axis,
    # whose order of additions is fixed, over ``count``, of |d| and of d²;
    # bitwise.
    want = np.stack([np.add.accumulate(err, axis=-1)[..., -1] / count
                     for err in (np.abs(d), d * d)])
    got = error_means(d, count)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def signed_magnitudes(rng, shape):
    # Signed values from 1e-6 to 1e6 in magnitude, so every rounding differs
    # with the order of the additions.
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)


@pytest.mark.parametrize("lanes", range(1, 10))
def test_error_means_sums_in_order_at_every_lane_count(lanes):
    # numpy sums pairwise along a contiguous axis, so a single lane is where
    # an in-order sum is easiest to lose.
    rng = np.random.default_rng(lanes)
    for length in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 5000):
        assert_left_to_right_sum(signed_magnitudes(rng, (lanes, length)), 99)
        assert_left_to_right_sum(np.abs(signed_magnitudes(rng, (lanes, length))), length)


def test_numpy_adds_down_axis_0_in_order():
    # The numpy behaviour error_means relies on: np.add.reduce(x, axis=0)
    # over a C-contiguous (n, lanes) array adds each lane in order from row
    # 0. A 2^-53 added to 1.0 alone rounds away, so a lane of 1.0 and then
    # fifteen 2^-53 sums to 1.0 in order, but above 1.0 pairwise, where the
    # small values first meet each other; the reversed lane differs too.
    def in_order(values):
        total = values[0]
        for value in values[1:]:
            total += value
        return total

    def pairwise(values):
        half = len(values) // 2
        return values[0] if half == 0 else pairwise(values[:half]) + pairwise(values[half:])

    lane = [1.0] + [2.0 ** -53] * 15
    lanes = [lane, lane[::-1]]
    assert all(in_order(values) != pairwise(values) for values in lanes)
    sums = np.empty(2)
    np.add.reduce(np.array(lanes).T.copy(), axis=0, out=sums)
    assert sums.tolist() == [in_order(values) for values in lanes]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(), (1,), (2,), (1, 1), (3,), (1, 4), (5,), (2, 3), (7,), (2, 4), (3, 3), (9,)]),
       st.integers(1, 5000), st.integers(0, 2**32 - 1))
def test_error_means_sums_in_order_for_any_batch(batch, length, seed):
    # Batch shapes of 1 to 9 lanes. A lone lane, as in (), (1,) or (1, 1),
    # is the guard-lane case, which compare runs when a chunk has one lane
    # (--methods diff at 1032x1032).
    rng = np.random.default_rng(seed)
    assert_left_to_right_sum(signed_magnitudes(rng, (*batch, length)), length)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_metrics_sum_in_order_at_any_size(height, width, seed):
    # One running sum of height * width pixels, up to 4,900.
    rng = np.random.default_rng(seed)
    a, b = (signed_magnitudes(rng, (height, width)) for _ in range(2))
    d = (a - b).reshape(-1)
    l1 = np.add.accumulate(np.abs(d))[-1] / d.size
    sq = np.add.accumulate(d * d)[-1] / d.size
    assert (l1_error(a, b), mse(a, b)) == (l1, sq)
