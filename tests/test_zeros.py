"""Zero counters: pinned counts, refinement, stability, exact Hermite
counts, change of variables."""

import logging
import math

import numpy as np
import pytest

from slzeros import (DomainError, NumericError, build_process,
                     count_hermite_zeros, count_zeros,
                     count_zeros_changed_variable, default_grid,
                     sample_coefficients, standardize_count)
from slzeros.ensembles import hermite_rows
from slzeros.weights import TWO_PI, builtin_weights


def test_count_cosine_pinned():
    k = 5
    res = count_zeros(lambda x: np.cos(k * np.asarray(x, dtype=float)),
                      n_hint=k)
    assert res.count == 2 * k
    assert res.stable
    want = (0.5 + np.arange(2 * k)) * math.pi / k
    np.testing.assert_allclose(np.sort(res.locations), want, atol=1e-10)
    # refined locations are actual roots
    assert np.max(np.abs(np.cos(k * res.locations))) < 1e-10
    assert res.grid_factor >= 16
    assert res.near_tangencies == ()
    assert res.scale > 0.9


def test_count_subinterval():
    res = count_zeros(np.cos, interval=(0.0, math.pi), n_hint=1)
    assert res.count == 1
    np.testing.assert_allclose(res.locations, [math.pi / 2.0], atol=1e-10)


def test_node_zero_triggers_shift():
    # cos has zeros exactly on the default 16-cell scan nodes
    res = count_zeros(np.cos, n_hint=1)
    assert res.count == 2
    assert res.stable
    np.testing.assert_allclose(np.sort(res.locations),
                               [0.5 * math.pi, 1.5 * math.pi], atol=1e-10)


def test_endpoint_zero_is_refused():
    # a process vanishing at the interval ends defeats the node shift
    with pytest.raises(NumericError):
        count_zeros(lambda x: np.sin(2.0 * np.asarray(x, dtype=float)),
                    n_hint=2)


def test_unstable_count_is_flagged():
    # 74 zeros scanned with 1 cell and 3 doublings: counts 0, 2, 4, 8
    # never repeat, so the result must carry stable=False
    res = count_zeros(lambda x: np.cos(37.0 * np.asarray(x, dtype=float)),
                      n_hint=1, scan_constant=1, max_doublings=3)
    assert not res.stable
    assert res.count != 74


def test_zero_doublings_never_stabilizes():
    res = count_zeros(np.cos, n_hint=1, max_doublings=0)
    assert not res.stable
    assert res.count == 2


def test_near_tangency_reported_not_counted():
    # strictly positive with a 1e-10 dip at x = pi (a scan node)
    res = count_zeros(lambda x: (np.asarray(x, dtype=float) - math.pi) ** 2
                      + 1e-10, n_hint=1)
    assert res.count == 0
    assert res.locations.size == 0
    assert len(res.near_tangencies) >= 1
    assert any(abs(t - math.pi) < 1e-6 for t in res.near_tangencies)


def test_dip_audit_recovers_pair_between_nodes():
    # two zeros strictly inside one scan cell at both grid sizes the
    # doubling rule visits: the sign scan alone sees nothing there, so
    # the dip audit must recover the pair
    h = TWO_PI / 16
    center = math.pi + 0.3 * h
    half_gap = 0.05 * h

    def dip(x):
        x = np.asarray(x, dtype=float)
        return (x - center) ** 2 - half_gap ** 2

    res = count_zeros(dip, n_hint=1)
    assert res.count == 2
    assert res.stable
    np.testing.assert_allclose(
        res.locations, [center - half_gap, center + half_gap], atol=1e-9)
    assert res.near_tangencies == ()


def test_dip_audit_reports_unresolved_flat_dip():
    # a flat quartic valley between nodes: the fitted parabola
    # undershoots and predicts a crossing, the dense rescan finds none,
    # so the dip is reported as a near-tangency and never counted
    h = TWO_PI / 16
    center = math.pi + 0.3 * h
    floor = 1e-4 * h ** 4

    def quartic(x):
        x = np.asarray(x, dtype=float)
        return (x - center) ** 4 + floor

    res = count_zeros(quartic, n_hint=1)
    assert res.count == 0
    assert res.stable
    assert len(res.near_tangencies) == 1
    assert abs(res.near_tangencies[0] - center) < h


def test_count_zeros_validation():
    with pytest.raises(DomainError):
        count_zeros(np.cos, interval=(2.0, 1.0))
    with pytest.raises(DomainError):
        count_zeros(np.cos, interval=(0.0, math.inf))
    with pytest.raises(DomainError):
        count_zeros(np.cos, n_hint=0)
    with pytest.raises(DomainError):
        count_zeros(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(DomainError):
        count_zeros(lambda x: np.full_like(np.asarray(x, dtype=float),
                                           math.nan))


def test_empty_interval():
    res = count_zeros(np.cos, interval=(1.0, 1.0))
    assert res.count == 0
    assert res.stable


def test_standardize_count():
    assert standardize_count(32.0, 29.5, 100) == (32.0 - 29.5) / 10.0
    assert standardize_count(10, 10.0, 7) == 0.0
    with pytest.raises(DomainError):
        standardize_count(3, 2.0, 0)


# ----------------------------------------------------------------------
# exact counts of cubic Hermite interpolants


def _cubic_cell(p, dp):
    """Values and slopes at both ends of the one-cell grid [0, 1] of the
    cubic p: its Hermite interpolant is p itself."""
    return np.array([[p(0.0), p(1.0)]]), np.array([[dp(0.0), dp(1.0)]])


def _variations(vals, ders):
    """Sign variations of the one cell's Bernstein control points."""
    b = [vals[0, 0], vals[0, 0] + ders[0, 0] / 3.0,
         vals[0, 1] - ders[0, 1] / 3.0, vals[0, 1]]
    return int(np.count_nonzero(np.diff(np.sign(b)) != 0))


@pytest.mark.parametrize("kind", ["f_n", "X_n", "T_n", "perturbed"])
def test_hermite_counts_agree_with_callable_counter(kind, sine2_basis):
    grid = default_grid()
    x = grid.points
    n = 50
    procs = [build_process(kind, n, sample_coefficients(2024, n, rid),
                           weight=builtin_weights("sine2"),
                           basis_pair=sine2_basis)
             for rid in range(6)]
    vals = np.stack([p.value(x) for p in procs])
    ders = np.stack([p.deriv(x) for p in procs])
    counts, certified = count_hermite_zeros(vals, ders, grid.h)
    assert certified.all()
    for i in range(len(procs)):
        def hermite(pts, i=i):
            return hermite_rows(vals[i:i + 1], ders[i:i + 1], grid.h,
                                np.atleast_1d(pts))[0][0]
        res = count_zeros(hermite, n_hint=n)
        assert res.stable
        assert counts[i] == res.count


def test_hermite_close_roots_resolved_by_subdivision():
    # two roots 0.01 apart inside one cell: 2 variations, then halving
    vals, ders = _cubic_cell(lambda s: (s - 0.40) * (s - 0.41) * (s + 1.0),
                             lambda s: 3 * s * s + 0.38 * s - 0.646)
    assert _variations(vals, ders) == 2
    counts, certified = count_hermite_zeros(vals, ders, 1.0)
    assert counts.tolist() == [2] and certified.all()
    # the same valley lifted clear of zero: 2 variations, no root
    vals, ders = _cubic_cell(lambda s: (s - 0.4) ** 2 + 1e-6,
                             lambda s: 2.0 * (s - 0.4))
    assert _variations(vals, ders) == 2
    counts, certified = count_hermite_zeros(vals, ders, 1.0)
    assert counts.tolist() == [0] and certified.all()


def test_hermite_three_variation_cell():
    vals, ders = _cubic_cell(lambda s: (s - 0.2) * (s - 0.5) * (s - 0.8),
                             lambda s: 3 * s * s - 3.0 * s + 0.66)
    assert _variations(vals, ders) == 3
    counts, certified = count_hermite_zeros(vals, ders, 1.0)
    assert counts.tolist() == [3] and certified.all()


def test_hermite_zero_on_a_node():
    # a crossing exactly at the middle node counts once; a touch does not
    h = 0.5
    counts, certified = count_hermite_zeros(
        [[1.0, 0.0, -1.0], [1.0, 0.0, 1.0]],
        [[-2.0, -2.0, -2.0], [-4.0, 0.0, 4.0]], h)
    assert counts.tolist() == [1, 0] and certified.all()
    # a zero at an end of the interval is not counted
    counts, _ = count_hermite_zeros([[0.0, 1.0, -1.0]], [[2.0, 0.0, -2.0]], h)
    assert counts.tolist() == [1]
    # control points (2, -1, -1, 4): one zero inside the left half and a
    # crossing exactly at the midpoint where the cell is halved
    vals, ders = np.array([[2.0, 4.0]]), np.array([[-9.0, 15.0]])
    assert _variations(vals, ders) == 2
    counts, certified = count_hermite_zeros(vals, ders, 1.0)
    assert counts.tolist() == [2] and certified.all()


def test_hermite_double_root_is_unresolved(caplog):
    # (s - 0.3)**2 touches zero: every halving around 0.3 keeps two
    # variations, so the depth limit leaves it unresolved, counted 0
    c = 0.3
    vals, ders = _cubic_cell(lambda s: (s - c) ** 2, lambda s: 2.0 * (s - c))
    with caplog.at_level(logging.WARNING, logger="slzeros.zeros"):
        counts, certified = count_hermite_zeros(
            np.vstack([vals, -vals]), np.vstack([ders, -ders]), 1.0,
            label="T_n at n=1, replicate", row_ids=[7, 8])
    assert counts.tolist() == [0, 0]
    assert not certified.any()
    warned = [r.getMessage() for r in caplog.records
              if "zero count did not stabilize" in r.getMessage()]
    assert len(warned) == 2
    assert "T_n at n=1, replicate 7" in warned[0]


def test_hermite_validation():
    with pytest.raises(DomainError):
        count_hermite_zeros([[1.0, 2.0]], [[1.0]], 0.1)
    with pytest.raises(DomainError):
        count_hermite_zeros([[1.0, math.nan]], [[1.0, 1.0]], 0.1)
    with pytest.raises(DomainError):
        count_hermite_zeros([[1.0, -1.0]], [[1.0, 1.0]], 0.0)


# ----------------------------------------------------------------------
# change of variables


def test_changed_variable_counts_agree():
    w = builtin_weights("sine2")
    rng = np.random.default_rng(414)
    for rid in range(20):
        draw = sample_coefficients(99, 30, rid)
        proc = build_process("X_n_raw", 30, draw, weight=w)
        T = float(rng.uniform(0.5, TWO_PI))
        res_raw, res_pull = count_zeros_changed_variable(proc, T)
        assert res_raw.count == res_pull.count


def test_changed_variable_validation():
    w = builtin_weights("sine2")
    draw = sample_coefficients(99, 10, 0)
    wrong = build_process("T_n", 10, draw)
    with pytest.raises(DomainError):
        count_zeros_changed_variable(wrong, 1.0)
    proc = build_process("X_n_raw", 10, draw, weight=w)
    with pytest.raises(DomainError):
        count_zeros_changed_variable(proc, -0.5)
    with pytest.raises(DomainError):
        count_zeros_changed_variable(proc, TWO_PI + 1.0)
