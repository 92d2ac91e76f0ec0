import math

import numpy as np
import pytest
from conftest import identity_kernel
from hypothesis import given, settings
from hypothesis import strategies as st

from diffconv.engine import conv2d_valid
from diffconv.fields import (
    Field,
    FieldSpec,
    RandomKernelSpec,
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
