"""Covariance kernels and Kac-Rice expected counts against closed forms."""

import math

import numpy as np
import pytest

from slzeros import (DomainError, covariance_X, expected_count_closed,
                     kac_rice_expected, r_n_closed)
from slzeros.weights import TWO_PI, builtin_weights, default_grid, omega_map


def _direct_sums(n, t):
    k = np.arange(1, n + 1, dtype=float)
    r = np.cos(np.multiply.outer(t, k)) @ np.ones(n) / n
    r1 = -np.sin(np.multiply.outer(t, k)) @ k / n
    r2 = -np.cos(np.multiply.outer(t, k)) @ (k * k) / n
    return r, r1, r2


# ----------------------------------------------------------------------
# the stationary kernel in closed form


def test_kernel_n1_is_cosine():
    t = np.linspace(-2.0, 9.0, 113)
    r, r1, r2 = r_n_closed(1, t)
    np.testing.assert_allclose(r, np.cos(t), atol=1e-13)
    np.testing.assert_allclose(r1, -np.sin(t), atol=1e-13)
    np.testing.assert_allclose(r2, -np.cos(t), atol=1e-13)


def test_kernel_pinned_point_values():
    r, r1, r2 = r_n_closed(2, math.pi)
    assert abs(r) < 1e-14              # (cos pi + cos 2pi)/2 = 0
    for n in (1, 2, 7, 50, 400):
        r0, r10, r20 = r_n_closed(n, 0.0)
        assert r0 == 1.0
        assert r10 == 0.0
        np.testing.assert_allclose(r20, -(n + 1) * (2 * n + 1) / 6.0,
                                   rtol=1e-15)


@pytest.mark.parametrize("n", [3, 100, 400])
def test_kernel_matches_direct_sums_across_taylor_cut(n):
    m = 2 * n + 1
    # both sides of the Taylor/quotient switch, plus extremes
    t = np.array([1e-9, 1e-7, 1e-6, 1e-4, 0.3 / m, 0.5 / m, 2.0 / m,
                  1e-2, 0.5, 1.0, math.pi - 0.1, math.pi])
    r, r1, r2 = r_n_closed(n, t)
    dr, dr1, dr2 = _direct_sums(n, t)
    scale2 = (n + 1) * (2 * n + 1) / 6.0
    np.testing.assert_allclose(r, dr, atol=1e-11)
    np.testing.assert_allclose(r1, dr1, atol=1e-9 * n)
    np.testing.assert_allclose(r2, dr2, atol=1e-9 * scale2)


def test_kernel_is_2pi_periodic():
    t = np.linspace(0.1, 3.0, 17)
    base = r_n_closed(9, t)
    shifted = r_n_closed(9, t + 6 * TWO_PI)
    for a, b in zip(base, shifted):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_kernel_scalar_and_array_forms():
    out = r_n_closed(4, 0.3)
    assert all(isinstance(v, float) for v in out)
    arr = r_n_closed(4, np.array([0.3, 0.4]))
    assert all(v.shape == (2,) for v in arr)
    np.testing.assert_allclose(arr[0][0], out[0], rtol=1e-15)


def test_kernel_rejects_bad_order():
    with pytest.raises(DomainError):
        r_n_closed(0, 0.1)
    with pytest.raises(DomainError):
        r_n_closed(2.5, 0.1)


# ----------------------------------------------------------------------
# covariance of the weighted comparison process


def test_covariance_X_unit_weight_is_stationary():
    unit = builtin_weights("unit")
    x = np.linspace(0.0, TWO_PI, 33)
    got = covariance_X(12, unit, x, np.zeros_like(x), default_grid())
    want = r_n_closed(12, 0.5 * x)[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_covariance_X_sine2_uses_cumulative_map():
    w = builtin_weights("sine2")
    got = covariance_X(8, w, math.pi, 0.0, default_grid())
    want = r_n_closed(8, 0.5 * (math.pi + 1.0))[0]
    np.testing.assert_allclose(got, want, atol=1e-10)
    # symmetric and 1 on the diagonal
    np.testing.assert_allclose(
        covariance_X(8, w, 0.0, math.pi, default_grid()), got, atol=1e-12)
    np.testing.assert_allclose(
        covariance_X(8, w, 1.3, 1.3, default_grid()), 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# Kac-Rice integration


def test_kac_rice_matches_closed_forms():
    for n in (1, 5, 50):
        want_x = expected_count_closed(n, "X_n")
        # mass normalization makes the expected count weight-independent
        for name in ("unit", "sine2", "expcos"):
            np.testing.assert_allclose(
                kac_rice_expected(n, "X_n", builtin_weights(name)), want_x,
                rtol=1e-14)
        np.testing.assert_allclose(kac_rice_expected(n, "T_n"),
                                   expected_count_closed(n, "T_n"), rtol=1e-14)


def test_kac_rice_pinned_small_orders():
    unit = builtin_weights("unit")
    np.testing.assert_allclose(kac_rice_expected(1, "X_n", unit), 1.0,
                               rtol=1e-10)
    np.testing.assert_allclose(kac_rice_expected(1, "T_n"), 2.0, rtol=1e-10)


@pytest.mark.parametrize("n, kind, weight, bits", [
    (1, "X_n", "unit", "0x1.0000000000000p+0"),
    (1, "X_n", "sine2", "0x1.0000000000000p+0"),
    (1, "X_n", "expcos", "0x1.ffffffffffffap-1"),
    (1, "T_n", None, "0x1.0000000000000p+1"),
    (50, "X_n", "unit", "0x1.d4cd7fbcc3d05p+4"),
    (50, "X_n", "sine2", "0x1.d4cd7fbcc3d05p+4"),
    (50, "X_n", "expcos", "0x1.d4cd7fbcc3d00p+4"),
    (50, "T_n", None, "0x1.d4cd7fbcc3d05p+5"),
    (400, "X_n", "unit", "0x1.cebf03bbaf9f1p+7"),
    (400, "X_n", "sine2", "0x1.cebf03bbaf9f1p+7"),
    (400, "X_n", "expcos", "0x1.cebf03bbaf9ecp+7"),
    (400, "T_n", None, "0x1.cebf03bbaf9f1p+8"),
])
def test_kac_rice_expected_pinned_bits(n, kind, weight, bits):
    # the expected_count column of kac_table.csv, to the last bit
    w = builtin_weights(weight) if weight is not None else None
    assert kac_rice_expected(n, kind, w).hex() == bits


def test_kac_rice_stationary_constant_is_kernel_curvature():
    # var T_n' = -r_n''(0), so the intensity is constant and
    # E N = 2*pi * sqrt(-r_n''(0)) / pi
    for n in (1, 10, 400):
        np.testing.assert_allclose(kac_rice_expected(n, "T_n"),
                                   2.0 * math.sqrt(-r_n_closed(n, 0.0)[2]),
                                   rtol=1e-13)


def test_kac_rice_refuses_kind_and_missing_weight():
    with pytest.raises(DomainError, match="no Kac-Rice intensity"):
        kac_rice_expected(10, "f_n", builtin_weights("unit"))
    with pytest.raises(DomainError, match="needs a weight"):
        kac_rice_expected(10, "X_n")


@pytest.mark.parametrize("n", [0, -2, 2.5, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda n: r_n_closed(n, 0.1),
    lambda n: kac_rice_expected(n, "T_n"),
    lambda n: kac_rice_expected(n, "X_n", builtin_weights("unit")),
    lambda n: expected_count_closed(n, "T_n"),
    lambda n: expected_count_closed(n, "X_n"),
], ids=["r_n_closed", "kac_T_n", "kac_X_n", "closed_T_n", "closed_X_n"])
def test_order_must_be_positive_integer(call, n):
    with pytest.raises(DomainError, match="order n must be a positive "
                                          "integer, got %r" % (n,)):
        call(n)


# ----------------------------------------------------------------------
# closed-form counts and the empirical estimator


def test_expected_count_closed_values():
    assert expected_count_closed(50, "X_n") == 29.300170647967224
    assert expected_count_closed(50, "X_n_raw") == expected_count_closed(50, "X_n")
    np.testing.assert_allclose(expected_count_closed(50, "T_n"),
                               2.0 * math.sqrt(51 * 101 / 6.0), rtol=1e-15)
    with pytest.raises(DomainError):
        expected_count_closed(50, "f_n")


def test_omega_cumulative_consistency_with_covariance():
    # the covariance depends on x only through the cumulative map
    w = builtin_weights("expcos")
    om = omega_map(w, default_grid())
    x, y = 2.0, 0.7
    t = 0.5 * (om.forward(x) - om.forward(y))
    np.testing.assert_allclose(covariance_X(5, w, x, y, default_grid()),
                               r_n_closed(5, t)[0], atol=1e-12)
