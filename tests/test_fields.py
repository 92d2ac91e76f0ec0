import math

import numpy as np
import pytest
from conftest import identity_kernel
from hypothesis import given, settings
from hypothesis import strategies as st

from diffconv.benchmark import derive_seed
from diffconv.engine import conv2d_valid
from diffconv.fields import (
    Field,
    FieldSpec,
    RandomKernelSpec,
    _cell_entropy,
    _generate_state,
    _streams,
    chebyshev_U,
    generate,
    oracle_convolution,
    random_kernels,
    spherical_Y,
)


def test_chebyshev_small_orders():
    assert chebyshev_U(0, 0.37) == 1.0
    assert chebyshev_U(1, 0.5) == 1.0
    assert chebyshev_U(2, 0.5) == 0.0


def test_chebyshev_rejects_negative_order():
    with pytest.raises(ValueError):
        chebyshev_U(-1, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1.0, 1.0), st.integers(1, 50))
def test_chebyshev_recurrence_identity(x, n):
    lhs = chebyshev_U(n + 1, x) + chebyshev_U(n - 1, x)
    rhs = 2.0 * x * chebyshev_U(n, x)
    assert abs(lhs - rhs) <= 1e-10


def test_chebyshev_endpoint_values():
    # U_n(1) = n + 1, U_n(-1) = (-1)^n (n + 1)
    for n in range(12):
        assert chebyshev_U(n, 1.0) == pytest.approx(n + 1)
        assert chebyshev_U(n, -1.0) == pytest.approx((-1) ** n * (n + 1))


def test_spherical_known_values():
    assert spherical_Y(0, 0, 0.8, 1.9) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))
    assert spherical_Y(1, 0, 0.0, 2.2) == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)))
    assert spherical_Y(2, 1, math.pi / 2.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_spherical_rejects_order_above_degree():
    with pytest.raises(ValueError):
        spherical_Y(2, 3, 0.0, 0.0)


@pytest.mark.parametrize("l,m", [(-1, 0), (2, -1)])
def test_spherical_rejects_a_negative_degree_or_order(l, m):
    with pytest.raises(ValueError, match=rf"^degree and order must be >= 0, got l={l}, m={m}$"):
        spherical_Y(l, m, 0.0, 0.0)


def test_spherical_orthonormality_by_quadrature():
    # independent check of the normalization: integrate Y^2 over the sphere
    n_t, n_p = 400, 400
    theta = (np.arange(n_t) + 0.5) * math.pi / n_t
    phi = (np.arange(n_p) + 0.5) * 2.0 * math.pi / n_p
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    for l, m in [(2, 1), (4, 2), (3, 0)]:
        vals = spherical_Y(l, m, tt, pp)
        integral = np.sum(vals * vals * np.sin(tt)) * (math.pi / n_t) * (2.0 * math.pi / n_p)
        assert integral == pytest.approx(1.0, rel=1e-3)


def _spherical_reference(l, m, theta, phi):
    # The unnormalised upward recurrence and factorial normalisation, in 80
    # digits, where neither (2m-1)!! nor (l+m)! can overflow.
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 80
    out = []
    for t, f in zip(theta, phi):
        x = mp.cos(mp.mpf(float(t)))
        sin_theta = mp.sqrt(max(0, (1 - x) * (1 + x)))
        prev, p = 0, mp.fprod(2 * i - 1 for i in range(1, m + 1)) * sin_theta**m
        for d in range(m + 1, l + 1):
            prev, p = p, (x * (2 * d - 1) * p - (d + m - 1) * prev) / (d - m)
        norm = mp.sqrt((2 * l + 1) / (4 * mp.pi) * mp.factorial(l - m) / mp.factorial(l + m))
        out.append(float(norm * p * (mp.sqrt(2) * mp.cos(m * mp.mpf(float(f))) if m else 1)))
    return np.array(out)


# (2n, n) as generate samples it, across the old factorial range's end at n = 57;
# then an m = 0 and an l = m case.
@pytest.mark.parametrize("l,m", [(2, 1), (20, 10), (112, 56), (114, 57), (400, 200),
                                 (9, 0), (7, 7)])
def test_spherical_matches_an_80_digit_reference(l, m):
    # Colatitudes past both poles too, as a field's analytic margin samples them.
    theta = np.linspace(-0.3, math.pi + 0.3, 41)
    phi = np.linspace(0.0, 2.0 * math.pi, 41)
    want = _spherical_reference(l, m, theta, phi)
    got = spherical_Y(l, m, theta, phi)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_generate_chebyshev_center_is_zero():
    fld = generate(FieldSpec(family="chebyshev", height=3, width=3, order=1))
    assert fld.data[1, 1] == 0.0


def test_generate_polynomial_sum_of_coordinates():
    coeffs = np.array([[0.0, 1.0], [1.0, 0.0]])
    fld = generate(FieldSpec(family="polynomial", height=3, width=3, coeffs=coeffs))
    assert np.array_equal(fld.data, np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]))


def test_generate_margin_core_is_bitwise_stable():
    with_margin = generate(FieldSpec(family="chebyshev", height=64, width=64, order=4, margin=3))
    without = generate(FieldSpec(family="chebyshev", height=64, width=64, order=4))
    assert with_margin.data.shape == (70, 70)
    assert with_margin.core.shape == (64, 64)
    assert np.array_equal(with_margin.core, without.data)


def test_generate_spherical_margin_core_is_bitwise_stable():
    with_margin = generate(FieldSpec(family="spherical", height=32, width=48, order=3, margin=2))
    without = generate(FieldSpec(family="spherical", height=32, width=48, order=3))
    assert np.array_equal(with_margin.core, without.data)
    assert np.all(np.isfinite(with_margin.data))


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(family="chebyshev", height=3, width=3, order=0)
    with pytest.raises(ValueError):
        FieldSpec(family="chebyshev", height=2, width=3, order=1)
    with pytest.raises(ValueError):
        FieldSpec(family="chebyshev", height=3, width=3, order=1, margin=-1)
    with pytest.raises(ValueError):
        FieldSpec(family="polynomial", height=3, width=3)
    with pytest.raises(ValueError):
        FieldSpec(family="gaussian", height=3, width=3, order=1)


@pytest.mark.parametrize("coeffs", [np.ones(3), np.ones((2, 2, 2)), 1.0])
def test_field_spec_rejects_a_coefficient_table_that_is_not_2d(coeffs):
    with pytest.raises(ValueError, match="^polynomial coefficients must be a 2D table$"):
        FieldSpec(family="polynomial", height=3, width=3, coeffs=coeffs)


@pytest.mark.parametrize("family", ["chebyshev", "spherical"])
def test_field_spec_rejects_coefficients_for_an_ordered_family(family):
    with pytest.raises(ValueError, match=f"^{family} family takes an order, not a coefficient"):
        FieldSpec(family=family, height=4, width=4, order=2, coeffs=[[1.0]])


def test_field_spec_rejects_an_order_for_polynomial():
    with pytest.raises(ValueError, match="^polynomial family takes a coefficient table, not an"):
        FieldSpec(family="polynomial", height=4, width=4, order=7, coeffs=[[1.0]])


def test_generate_rejects_a_field_beyond_float64():
    # U_1400 at the margin's |x| = 1 + 2/15 overflows; the sampling warns nothing.
    spec = FieldSpec(family="chebyshev", height=16, width=16, order=1400, margin=1)
    with pytest.raises(ValueError, match=r"^chebyshev field of order 1400 on a 16x16 grid "
                                         r"with margin 1 does not fit in float64$"):
        generate(spec)
    big = FieldSpec(family="polynomial", height=4, width=4, coeffs=[[0.0, 1e308]], margin=1)
    with pytest.raises(ValueError, match=r"^polynomial field on a 4x4 grid with margin 1 does not"):
        generate(big)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_spec_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="^polynomial coefficients must be finite"):
        FieldSpec(family="polynomial", height=4, width=4, coeffs=[[bad, 0.0], [0.0, 1.0]])


def test_random_kernels_deterministic_and_bounded():
    spec = RandomKernelSpec(size=3, count=100, seed=77)
    a = random_kernels(spec)
    b = random_kernels(spec)
    assert len(a) == 100
    for ka, kb in zip(a, b):
        assert np.array_equal(ka, kb)
        assert np.all(ka >= -1.0) and np.all(ka <= 1.0)


def test_random_kernels_streams_keyed_by_index():
    # kernel j must not depend on how many kernels are generated
    few = random_kernels(RandomKernelSpec(size=3, count=3, seed=5))
    many = random_kernels(RandomKernelSpec(size=3, count=10, seed=5))
    for j in range(3):
        assert np.array_equal(few[j], many[j])


def test_random_kernels_mean_statistic():
    kernels = random_kernels(RandomKernelSpec(size=9, count=124, seed=11))
    entries = np.concatenate([k.reshape(-1) for k in kernels])
    assert entries.size >= 10_000
    assert abs(entries.mean()) <= 0.02


def test_random_kernel_spec_validation():
    with pytest.raises(ValueError):
        RandomKernelSpec(size=3, count=0, seed=0)
    with pytest.raises(ValueError):
        RandomKernelSpec(size=4, count=1, seed=0)
    with pytest.raises(ValueError):
        RandomKernelSpec(size=3, count=1, seed=-1)


@pytest.mark.parametrize("seed,shown", [(-1, "-1"), (1.5, "1.5"), ("3", "'3'")])
def test_random_kernel_spec_rejects_a_seed_that_is_not_a_non_negative_integer(seed, shown):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {shown}$"):
        RandomKernelSpec(size=3, count=1, seed=seed)


def test_random_kernels_take_a_numpy_integer_seed():
    spec = RandomKernelSpec(size=3, count=2, seed=np.uint64(2**64 - 1))
    expected = random_kernels(RandomKernelSpec(size=3, count=2, seed=2**64 - 1))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(random_kernels(spec), expected))


@pytest.mark.parametrize("count", [1, 100])
@pytest.mark.parametrize("order", [1, 2**32 + 1])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5])
def test_bulk_seeding_matches_numpy_bitwise(seed, order, count):
    # The bulk path against numpy's own objects, row by row: SeedSequence's
    # state for (seed, order, j), whose entropy runs past the pool of 4 words
    # at order 2**32 + 1; derive_seed; default_rng's stream of each derived
    # seed; and random_kernels' default_rng([seed, j]).
    entropy = _cell_entropy((seed, order), count)
    state, derived = _generate_state(entropy, 8), _generate_state(entropy, 2)
    for j in range(count):
        sequence = np.random.SeedSequence([seed, order, j])
        assert state[j].astype("<u4").view("<u8").tolist() == \
            sequence.generate_state(4, np.uint64).tolist()
        assert derived[j].astype("<u4").view("<u8").tolist() == [derive_seed(seed, order, j)]
    drawn = [rng.standard_normal(9).tobytes() for rng in _streams(derived)]
    assert drawn == [np.random.default_rng(derive_seed(seed, order, j)).standard_normal(9).tobytes()
                     for j in range(count)]
    kernels = random_kernels(RandomKernelSpec(size=3, count=count, seed=seed))
    assert [kernel.tobytes() for kernel in kernels] == [
        np.random.default_rng([seed, j]).uniform(-1.0, 1.0, size=(3, 3)).tobytes()
        for j in range(count)
    ]


def test_oracle_constant_field():
    kernel = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 3))
    fld = Field(data=np.full((10, 10), 4.0), margin=1)
    out = oracle_convolution(fld, kernel)
    assert out.shape == (8, 8)
    assert np.max(np.abs(out - 4.0 * kernel.sum())) <= 1e-12


def test_oracle_interior_matches_valid_of_core():
    rng = np.random.default_rng(9)
    fld = Field(data=rng.uniform(-1.0, 1.0, size=(12, 13)), margin=2)
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    out = oracle_convolution(fld, kernel)
    inner = conv2d_valid(fld.core, kernel)
    assert np.array_equal(out[1:-1, 1:-1], inner)


def test_oracle_identity_kernel_returns_core():
    coeffs = np.array([[0.0, 1.0], [1.0, 0.0]])
    fld = generate(FieldSpec(family="polynomial", height=6, width=7, coeffs=coeffs, margin=1))
    out = oracle_convolution(fld, identity_kernel(3))
    assert np.array_equal(out, fld.core)


def test_oracle_requires_margin():
    fld = Field(data=np.zeros((8, 8)), margin=1)
    with pytest.raises(ValueError):
        oracle_convolution(fld, np.ones((5, 5)))


def test_oracle_overflow_is_an_error():
    fld = Field(data=np.full((14, 14), 1e308), margin=1)
    with pytest.raises(ValueError, match=r"^conv2d_valid output is not finite for K=3:"):
        oracle_convolution(fld, np.ones((3, 3)))
