"""Covariance kernels and Kac-Rice expected counts against closed forms."""

import math

import numpy as np
import pytest

from slzeros import (DomainError, InvariantViolation, ProcessSecondOrder,
                     covariance_X, expected_count_closed, kac_rice_expected,
                     r_n_closed, second_order_exact, second_order_stationary)
from slzeros.weights import TWO_PI, builtin_weights, omega_map


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
    got = covariance_X(12, unit, x, np.zeros_like(x))
    want = r_n_closed(12, 0.5 * x)[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_covariance_X_sine2_uses_cumulative_map():
    w = builtin_weights("sine2")
    got = covariance_X(8, w, math.pi, 0.0)
    want = r_n_closed(8, 0.5 * (math.pi + 1.0))[0]
    np.testing.assert_allclose(got, want, atol=1e-10)
    # symmetric and 1 on the diagonal
    np.testing.assert_allclose(covariance_X(8, w, 0.0, math.pi), got,
                               atol=1e-12)
    np.testing.assert_allclose(covariance_X(8, w, 1.3, 1.3), 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# second-order data


def test_second_order_exact_fields():
    w = builtin_weights("sine2")
    so = second_order_exact(10, w)
    x = np.linspace(0.0, TWO_PI, 9)
    np.testing.assert_allclose(so.var0(x), 1.0)
    np.testing.assert_allclose(so.cov01(x), 0.0)
    om = np.asarray(w.eval(x), dtype=float)
    np.testing.assert_allclose(so.var1(x), om * om * 11 * 21 / 24.0,
                               rtol=1e-14)
    with pytest.raises(DomainError):
        second_order_exact(0, w)


def test_second_order_stationary_fields():
    so = second_order_stationary(10)
    x = np.linspace(0.0, TWO_PI, 9)
    np.testing.assert_allclose(so.var0(x), 1.0)
    np.testing.assert_allclose(so.var1(x), 11 * 21 / 6.0)
    np.testing.assert_allclose(so.cov01(x), 0.0)
    # consistency with the kernel: var1 = -r_n''(0)
    np.testing.assert_allclose(so.var1(0.0), -r_n_closed(10, 0.0)[2],
                               rtol=1e-15)


# ----------------------------------------------------------------------
# Kac-Rice integration


def test_kac_rice_matches_closed_forms():
    unit = builtin_weights("unit")
    sine2 = builtin_weights("sine2")
    for n in (1, 5, 50):
        want_x = expected_count_closed(n, "X_n")
        got_unit = kac_rice_expected(second_order_exact(n, unit),
                                     (0.0, TWO_PI))
        got_sine2 = kac_rice_expected(second_order_exact(n, sine2),
                                      (0.0, TWO_PI))
        np.testing.assert_allclose(got_unit, want_x, rtol=1e-8)
        # mass normalization makes the expected count weight-independent
        np.testing.assert_allclose(got_sine2, want_x, rtol=1e-8)
        want_t = expected_count_closed(n, "T_n")
        got_t = kac_rice_expected(second_order_stationary(n), (0.0, TWO_PI))
        np.testing.assert_allclose(got_t, want_t, rtol=1e-8)


def test_kac_rice_pinned_small_orders():
    unit = builtin_weights("unit")
    np.testing.assert_allclose(
        kac_rice_expected(second_order_exact(1, unit), (0.0, TWO_PI)), 1.0,
        rtol=1e-10)
    np.testing.assert_allclose(
        kac_rice_expected(second_order_stationary(1), (0.0, TWO_PI)), 2.0,
        rtol=1e-10)
    # half interval, constant intensity: half the count
    np.testing.assert_allclose(
        kac_rice_expected(second_order_stationary(1), (0.0, math.pi)), 1.0,
        rtol=1e-10)


def test_kac_rice_validates_interval_and_variances():
    so = second_order_stationary(3)
    assert kac_rice_expected(so, (1.0, 1.0)) == 0.0
    with pytest.raises(DomainError):
        kac_rice_expected(so, (2.0, 1.0))
    bad_var = ProcessSecondOrder(
        var0=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        var1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        cov01=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(DomainError):
        kac_rice_expected(bad_var, (0.0, 1.0))
    cs_violation = ProcessSecondOrder(
        var0=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        var1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        cov01=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(InvariantViolation):
        kac_rice_expected(cs_violation, (0.0, 1.0))


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
    om = omega_map(w)
    x, y = 2.0, 0.7
    t = 0.5 * (om.forward(x) - om.forward(y))
    np.testing.assert_allclose(covariance_X(5, w, x, y),
                               r_n_closed(5, t)[0], atol=1e-12)
