"""Weights, grids, the cumulative phase map and its inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slzeros import (DomainError, Grid, UsageError, WeightFunction,
                     builtin_weights, default_grid, normalize_weight,
                     weight_to_potential)
from slzeros.weights import TWO_PI, OmegaMap, omega_map

# ----------------------------------------------------------------------
# grids


def test_grid_uniform_basics():
    g = Grid.uniform(129)
    assert g.count == 129
    assert g.n_cells == 128
    np.testing.assert_allclose(g.h, TWO_PI / 128, rtol=1e-15)
    np.testing.assert_allclose(g.points[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(g.points[-1], TWO_PI, rtol=1e-15)


def test_grid_rejects_bad_input():
    with pytest.raises(DomainError):
        Grid(np.linspace(0.0, 3.0, 64))  # wrong span
    with pytest.raises(DomainError):
        Grid(np.concatenate([np.linspace(0.0, 3.0, 30),
                             np.linspace(3.1, TWO_PI, 34)]))  # nonuniform
    with pytest.raises(DomainError):
        Grid.uniform(8)  # too coarse


# ----------------------------------------------------------------------
# builtin weights and mass normalization


@pytest.mark.parametrize("name", ["unit", "sine2", "expcos"])
def test_builtin_weights_positive_with_mass_2pi(name):
    w = builtin_weights(name)
    x = np.linspace(0.0, TWO_PI, 1001)
    assert np.all(w.eval(x) > 0.0)
    total = OmegaMap(w).total
    np.testing.assert_allclose(total, TWO_PI, rtol=1e-10)


def test_builtin_weights_unknown_name():
    with pytest.raises(UsageError):
        builtin_weights("fourier")


@pytest.mark.parametrize("name", ["sine2", "expcos"])
def test_weight_derivatives_match_finite_differences(name):
    w = builtin_weights(name)
    x = np.linspace(0.1, TWO_PI - 0.1, 211)
    h = 1e-6
    d1_fd = (np.asarray(w.eval(x + h)) - np.asarray(w.eval(x - h))) / (2 * h)
    np.testing.assert_allclose(w.deriv1(x), d1_fd, atol=1e-8)
    d2_fd = (np.asarray(w.deriv1(x + h)) - np.asarray(w.deriv1(x - h))) / (2 * h)
    np.testing.assert_allclose(w.deriv2(x), d2_fd, atol=1e-8)


def test_normalize_weight_rescales_to_2pi():
    raw = WeightFunction(
        name="sine2x3",
        eval=lambda x: 3.0 * builtin_weights("sine2").eval(x),
        deriv1=lambda x: 3.0 * builtin_weights("sine2").deriv1(x),
        deriv2=lambda x: 3.0 * builtin_weights("sine2").deriv2(x))
    w = normalize_weight(raw)
    np.testing.assert_allclose(OmegaMap(w).total, TWO_PI, rtol=1e-12)
    # shape preserved: ratio to the raw weight is constant
    x = np.linspace(0.0, TWO_PI, 57)
    ratio = np.asarray(w.eval(x)) / np.asarray(raw.eval(x))
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_nonpositive_weight_rejected():
    bad = WeightFunction(
        name="dips",
        eval=lambda x: np.cos(np.asarray(x, dtype=float)),
        deriv1=lambda x: -np.sin(np.asarray(x, dtype=float)),
        deriv2=lambda x: -np.cos(np.asarray(x, dtype=float)))
    with pytest.raises(DomainError):
        normalize_weight(bad)
    with pytest.raises(DomainError):
        weight_to_potential(bad)


# ----------------------------------------------------------------------
# cumulative map


def test_omega_cumulative_sine2_at_pi():
    # integral_0^pi (2 + sin x)/2 dx = pi + 1
    om = omega_map(builtin_weights("sine2"))
    np.testing.assert_allclose(om.forward(math.pi), math.pi + 1.0, rtol=1e-12)
    np.testing.assert_allclose(om.forward(0.0), 0.0, atol=1e-14)
    np.testing.assert_allclose(om.forward(TWO_PI), TWO_PI, rtol=1e-12)


def test_omega_cumulative_unit_is_identity():
    w = builtin_weights("unit")
    x = np.linspace(0.0, TWO_PI, 97)
    np.testing.assert_allclose(omega_map(w).forward(x), x, atol=1e-13)


def test_omega_forward_strictly_increasing():
    w = builtin_weights("expcos")
    x = np.linspace(0.0, TWO_PI, 513)
    y = omega_map(w).forward(x)
    assert np.all(np.diff(y) > 0.0)


def test_omega_inverse_round_trip():
    om = omega_map(builtin_weights("sine2"))
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, TWO_PI, 200)
    np.testing.assert_allclose(om.inverse(om.forward(x)), x, atol=1e-11)


def test_omega_map_rejects_out_of_range():
    w = builtin_weights("sine2")
    m = omega_map(w)
    with pytest.raises(DomainError):
        m.forward(-0.5)
    with pytest.raises(DomainError):
        m.forward(TWO_PI + 0.5)
    with pytest.raises(DomainError):
        m.inverse(TWO_PI + 0.5)
    # NaN fails the range tests too, rather than reaching the cell index
    with pytest.raises(DomainError):
        m.forward(math.nan)
    with pytest.raises(DomainError):
        m.inverse(np.array([1.0, math.nan]))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=TWO_PI))
def test_omega_inverse_is_right_inverse(y):
    om = omega_map(builtin_weights("sine2"))
    x = om.inverse(y)
    assert 0.0 <= x <= TWO_PI
    assert abs(om.forward(x) - y) < 1e-10


# ----------------------------------------------------------------------
# potentials


def test_potential_unit_weight_vanishes():
    q = weight_to_potential(builtin_weights("unit"))
    x = np.linspace(0.0, TWO_PI, 101)
    np.testing.assert_allclose(q.eval(x), 0.0, atol=1e-15)


def test_potential_sine2_closed_values():
    # omega = (2 + sin x)/2: at x=0, omega=1, omega'=1/2, omega''=0
    #   q(0) = 0 - (3/4)(1/4) = -3/16
    # at x=pi/2, omega=3/2, omega'=0, omega''=-1/2
    #   q(pi/2) = (-1/2) / (2 (3/2)^3) = -2/27
    q = weight_to_potential(builtin_weights("sine2"))
    np.testing.assert_allclose(q.eval(0.0), -3.0 / 16.0, rtol=1e-13)
    np.testing.assert_allclose(q.eval(math.pi / 2.0), -2.0 / 27.0, rtol=1e-13)


def test_default_grid_is_shared():
    assert default_grid() is default_grid()
    assert default_grid().count == 8192
