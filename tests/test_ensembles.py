"""Coefficient draws, perturbation bounds, process construction and algebra."""

import math

import numpy as np
import pytest

from slzeros import (BoundaryCondition, DomainError, PerturbationFamily,
                     PreconditionError, build_process, default_perturbation,
                     eigen_solve, eval_epsilon, eval_epsilon_sup,
                     sample_coefficients, verify_perturbation)
from slzeros.ensembles import hermite_rows
from slzeros.weights import TWO_PI, Grid, builtin_weights, omega_cumulative

SEED = 777


# ----------------------------------------------------------------------
# coefficient draws


def test_sample_coefficients_reproducible():
    d1 = sample_coefficients(SEED, 12, 3)
    d2 = sample_coefficients(SEED, 12, 3)
    np.testing.assert_array_equal(d1.a, d2.a)
    np.testing.assert_array_equal(d1.b, d2.b)
    assert d1.seed == d2.seed
    assert d1.same_draw(d2)


def test_sample_coefficients_streams_and_replicates_differ():
    d = sample_coefficients(SEED, 12, 3)
    assert d.a.shape == (12,)
    assert not np.allclose(d.a, d.b)          # stream separation
    other = sample_coefficients(SEED, 12, 4)
    assert not np.allclose(d.a, other.a)      # replicate separation
    assert d.seed != other.seed
    assert not d.same_draw(other)
    bigger = sample_coefficients(SEED, 13, 3)
    assert not np.allclose(d.a, bigger.a[:12])  # n is part of the key


def test_sample_coefficients_is_standard_normal():
    pooled = np.concatenate([
        np.concatenate([d.a, d.b])
        for d in (sample_coefficients(SEED, 100, rid) for rid in range(40))])
    assert pooled.size == 8000
    assert abs(float(np.mean(pooled))) < 0.05
    assert abs(float(np.var(pooled)) - 1.0) < 0.06


def test_sample_coefficients_validation():
    with pytest.raises(PreconditionError):
        sample_coefficients(SEED, 0, 1)
    with pytest.raises(PreconditionError):
        sample_coefficients(SEED, 2.5, 1)
    with pytest.raises(PreconditionError):
        sample_coefficients(-1, 5, 1)
    with pytest.raises(PreconditionError):
        sample_coefficients(SEED, 5, -1)


# ----------------------------------------------------------------------
# perturbation families


def test_default_perturbation_satisfies_bounds():
    # 510 is the largest n the storage grid resolves for the perturbed kind
    verify_perturbation(default_perturbation(), 510)


def test_perturbation_violation_is_named():
    too_big = PerturbationFamily(
        name="loud",
        eps=lambda k, x: np.broadcast_to(0.9 / k, np.broadcast_shapes(
            np.shape(k), np.shape(x))).copy(),
        eta=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        deps=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        deta=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        c0=0.5, c1=1.0)
    with pytest.raises(PreconditionError, match=r"violates its bound.*exceeds"):
        verify_perturbation(too_big, 10)


def test_perturbation_derivative_bound_checked():
    steep = PerturbationFamily(
        name="steep",
        eps=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        eta=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        deps=lambda k, x: np.broadcast_to(2.0, np.broadcast_shapes(
            np.shape(k), np.shape(x))).copy(),
        deta=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        c0=0.5, c1=1.0)
    with pytest.raises(PreconditionError, match=r"\|eps_k'\|"):
        verify_perturbation(steep, 3)


# ----------------------------------------------------------------------
# Hermite interpolation


def test_hermite_rows_exact_at_nodes_and_for_cubics():
    grid = Grid.uniform(33)
    p = grid.points
    f = np.vstack([p ** 3 - 2.0 * p ** 2 + p, np.ones_like(p)])
    df = np.vstack([3.0 * p ** 2 - 4.0 * p + 1.0, np.zeros_like(p)])
    # node exactness (up to the x/h roundoff of the cell locator)
    vals, _ = hermite_rows(f, df, grid.h, p)
    np.testing.assert_allclose(vals, f, rtol=0.0, atol=1e-12)
    # a cubic is reproduced exactly anywhere, with its derivative
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, TWO_PI, 64)
    vals, ders = hermite_rows(f, df, grid.h, x, want_deriv=True)
    np.testing.assert_allclose(vals[0], x ** 3 - 2.0 * x ** 2 + x,
                               rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(ders[0], 3.0 * x ** 2 - 4.0 * x + 1.0,
                               rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(vals[1], 1.0, rtol=1e-14)
    np.testing.assert_allclose(ders[1], 0.0, atol=1e-14)


# ----------------------------------------------------------------------
# process construction preconditions


def test_build_process_rejects_bad_requests(sine2_weight, unit_basis):
    draw = sample_coefficients(SEED, 20, 0)
    with pytest.raises(DomainError):
        build_process("Z_n", 20, draw)
    with pytest.raises(PreconditionError):
        build_process("T_n", 21, draw)
    with pytest.raises(PreconditionError):
        build_process("f_n", 20, draw)  # no basis
    with pytest.raises(PreconditionError):
        build_process("X_n", 20, draw)  # no weight
    bc_c, bc_d = unit_basis
    with pytest.raises(PreconditionError):
        build_process("f_n", 20, draw, basis_pair=(bc_d, bc_c))  # misordered
    big_draw = sample_coefficients(SEED, 200, 0)
    with pytest.raises(PreconditionError):
        build_process("f_n", 200, big_draw, basis_pair=unit_basis)  # too small


def test_build_process_rejects_mismatched_grids(unit_weight, unit_basis):
    small = eigen_solve(unit_weight, BoundaryCondition.D, 3,
                        grid=Grid.uniform(1025))
    draw = sample_coefficients(SEED, 3, 0)
    with pytest.raises(PreconditionError):
        build_process("f_n", 3, draw, basis_pair=(unit_basis[0], small))


def test_perturbed_build_verifies_family():
    draw = sample_coefficients(SEED, 5, 0)
    bad = PerturbationFamily(
        name="bad",
        eps=lambda k, x: np.broadcast_to(10.0, np.broadcast_shapes(
            np.shape(k), np.shape(x))).copy(),
        eta=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        deps=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        deta=lambda k, x: np.zeros(np.broadcast_shapes(np.shape(k), np.shape(x))),
        c0=0.5, c1=1.0)
    with pytest.raises(PreconditionError):
        build_process("perturbed", 5, draw, perturbation=bad)


# ----------------------------------------------------------------------
# process values: closed-form cross-checks


def test_trig_processes_match_direct_sums():
    n = 9
    draw = sample_coefficients(SEED, n, 2)
    x = np.linspace(0.3, 6.0, 23)
    k = np.arange(1, n + 1, dtype=float)
    ph = x[:, None] * k
    want_t = (np.cos(ph) @ draw.a + np.sin(ph) @ draw.b) / math.sqrt(n)
    want_c = (np.cos(ph) @ draw.a) / math.sqrt(n)
    t_proc = build_process("T_n", n, draw)
    c_proc = build_process("C_n", n, draw)
    np.testing.assert_allclose(t_proc.value(x), want_t, atol=1e-12)
    np.testing.assert_allclose(c_proc.value(x), want_c, atol=1e-12)
    want_dt = (np.cos(ph) @ (draw.b * k) - np.sin(ph) @ (draw.a * k)) / math.sqrt(n)
    np.testing.assert_allclose(t_proc.deriv(x), want_dt,
                               atol=1e-11)


def test_perturbed_process_is_trig_plus_perturbation():
    n = 7
    draw = sample_coefficients(SEED, n, 1)
    fam = default_perturbation()
    pert = build_process("perturbed", n, draw, perturbation=fam)
    plain = build_process("T_n", n, draw)
    x = np.linspace(0.1, 6.1, 17)
    k = np.arange(1, n + 1, dtype=float)[None, :]
    extra = (fam.eps(k, x[:, None]) @ draw.a
             + fam.eta(k, x[:, None]) @ draw.b) / math.sqrt(n)
    np.testing.assert_allclose(pert.value(x),
                               plain.value(x) + extra, atol=1e-12)


def test_X_process_agrees_with_stationary_pullback(sine2_weight):
    n = 15
    draw = sample_coefficients(SEED, n, 4)
    x = np.linspace(0.0, TWO_PI, 29)
    y = omega_cumulative(sine2_weight, x)
    xn = build_process("X_n", n, draw, weight=sine2_weight)
    pull = xn.stationary_pullback()
    np.testing.assert_allclose(xn.value(x), pull.value(y), atol=1e-12)
    raw = build_process("X_n_raw", n, draw, weight=sine2_weight)
    om = np.asarray(sine2_weight.eval(x), dtype=float)
    np.testing.assert_allclose(raw.value(x), pull.value(y) / np.sqrt(om),
                               atol=1e-12)
    np.testing.assert_allclose(raw.omega(x), y, atol=1e-12)


def test_stationary_pullback_only_for_X_kinds():
    draw = sample_coefficients(SEED, 5, 0)
    t_proc = build_process("T_n", 5, draw)
    with pytest.raises(DomainError):
        t_proc.stationary_pullback()


def test_f_process_is_weighted_eigen_sum(sine2_basis):
    n = 25
    draw = sample_coefficients(SEED, n, 6)
    f_proc = build_process("f_n", n, draw, basis_pair=sine2_basis)
    F_proc = build_process("F_n", n, draw, basis_pair=sine2_basis)
    x = np.linspace(0.2, 6.0, 31)
    om = np.asarray(f_proc.weight.eval(x), dtype=float)
    np.testing.assert_allclose(f_proc.value(x),
                               np.sqrt(om) * F_proc.value(x), atol=1e-12)
    om1 = np.asarray(f_proc.weight.deriv1(x), dtype=float)
    want = (0.5 * om1 / np.sqrt(om) * F_proc.value(x)
            + np.sqrt(om) * F_proc.deriv(x))
    np.testing.assert_allclose(f_proc.deriv(x), want, atol=1e-10)


@pytest.mark.parametrize("kind", ["T_n", "C_n", "perturbed", "X_n", "X_n_raw",
                                  "F_n", "f_n"])
def test_derivatives_match_finite_differences(kind, sine2_weight, sine2_basis):
    n = 12
    draw = sample_coefficients(SEED, n, 8)
    proc = build_process(kind, n, draw, weight=sine2_weight,
                         basis_pair=sine2_basis)
    # probe at cell midpoints so the eigen kinds' piecewise-cubic
    # interpolant is smooth across the finite-difference step
    h_cell = proc.grid.h
    x = (np.arange(40, 8000, 640) + 0.5) * h_cell
    fd = 1e-7
    want = (proc.value(x + fd) - proc.value(x - fd)) / (2.0 * fd)
    np.testing.assert_allclose(proc.deriv(x), want, atol=5e-5)


def test_value_scalar_and_vector_agree(sine2_weight):
    draw = sample_coefficients(SEED, 6, 0)
    proc = build_process("X_n", 6, draw, weight=sine2_weight)
    out = proc.value(1.5)
    assert isinstance(out, float)
    np.testing.assert_allclose(proc.value(np.array([1.5]))[0], out, rtol=1e-15)


# ----------------------------------------------------------------------
# the coupling residual


def test_epsilon_vanishes_for_unit_weight(unit_weight, unit_basis):
    n = 40
    draw = sample_coefficients(SEED, n, 11)
    f_proc = build_process("f_n", n, draw, basis_pair=unit_basis)
    x_proc = build_process("X_n", n, draw, weight=unit_weight)
    assert eval_epsilon_sup(f_proc, x_proc) < 1e-8
    x = np.linspace(0.0, TWO_PI, 101)
    np.testing.assert_allclose(eval_epsilon(f_proc, x_proc, x), 0.0,
                               atol=1e-8)


def test_epsilon_requires_shared_draw(unit_weight, unit_basis):
    n = 10
    f_proc = build_process("f_n", n, sample_coefficients(SEED, n, 0),
                           basis_pair=unit_basis)
    x_proc = build_process("X_n", n, sample_coefficients(SEED, n, 1),
                           weight=unit_weight)
    with pytest.raises(PreconditionError):
        eval_epsilon(f_proc, x_proc, 1.0)
    with pytest.raises(PreconditionError):
        eval_epsilon(x_proc, x_proc, 1.0)  # wrong kinds too


def test_unit_variance_of_processes(sine2_weight):
    # var Z(x) = 1 for the stationary polynomial and the weighted
    # comparison process alike; loose Monte Carlo sanity check
    n, m, x = 10, 2000, 1.234
    vals_t = np.empty(m)
    vals_x = np.empty(m)
    for rid in range(m):
        draw = sample_coefficients(SEED + 1, n, rid)
        vals_t[rid] = build_process("T_n", n, draw).value(x)
        vals_x[rid] = build_process("X_n", n, draw,
                                    weight=sine2_weight).value(x)
    assert abs(float(np.var(vals_t, ddof=1)) - 1.0) < 0.15
    assert abs(float(np.var(vals_x, ddof=1)) - 1.0) < 0.15
