"""Eigen solver: pinned unit-weight spectra, invariants, cross-checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from slzeros import (BoundaryCondition, Eigenpair, NumericError,
                     PreconditionError, asymptotic_deviation, eigen_solve,
                     normalize_eigenfunction, ode_residual,
                     orthogonality_defect, weight_to_potential)
from slzeros import eigen, ensembles
from slzeros.eigen import _brent, _chain_reduce, _chain_scan, _Propagator
from slzeros.weights import (TWO_PI, Grid, WeightFunction, builtin_weights,
                             default_grid, make_expcos, omega_map)

C = BoundaryCondition.C
D = BoundaryCondition.D


def _sign_changes(values):
    v = values[1:-1]
    v = v[v != 0.0]
    return int(np.count_nonzero(v[:-1] * v[1:] < 0.0))


# ----------------------------------------------------------------------
# unit weight: everything is known in closed form


def test_unit_eigenvalues_are_quarter_squares(unit_basis):
    bc_c, bc_d = unit_basis
    k = np.arange(1, bc_d.k_max + 1)
    np.testing.assert_allclose(bc_d.eigenvalues, 0.25 * k ** 2,
                               rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(bc_c.eigenvalues, 0.25 * k ** 2,
                               rtol=0.0, atol=1e-8)


def test_unit_eigenfunctions_are_trigonometric(unit_basis):
    bc_c, bc_d = unit_basis
    x = bc_d.grid.points
    for k in (1, 2, 7, 40):
        np.testing.assert_allclose(bc_d.funcs[k - 1], np.sin(0.5 * k * x),
                                   atol=1e-9)
        np.testing.assert_allclose(bc_c.funcs[k - 1], np.cos(0.5 * k * x),
                                   atol=1e-9)
        np.testing.assert_allclose(bc_d.dfuncs[k - 1],
                                   0.5 * k * np.cos(0.5 * k * x), atol=1e-7)
        np.testing.assert_allclose(bc_c.dfuncs[k - 1],
                                   -0.5 * k * np.sin(0.5 * k * x), atol=1e-7)


def test_unit_asymptotic_deviation_is_tiny(unit_basis):
    for basis in unit_basis:
        ks, d, d1 = asymptotic_deviation(basis)
        assert d.shape == (basis.k_max,)
        assert np.max(d) < 1e-8
        assert np.max(d1) < 1e-6


# ----------------------------------------------------------------------
# Prufer phase oracle: an adaptive Runge-Kutta integration of the phase
# ODE, independent of the transfer-matrix engine


def prufer_phase(q, lam, bc, rtol=1e-10):
    """Terminal Prufer phase theta(2*pi; lambda) for the phase ODE

        theta' = cos^2 theta + (lambda - q) sin^2 theta,

    theta(0) = 0 for D and pi/2 for C.  Strictly increasing in lambda.
    To cross-check eigen_solve for a non-unit weight, pass the
    phase-frame potential of normal_form_potential: that is the
    equation the solver integrates."""
    theta0 = 0.0 if bc is D else 0.5 * math.pi

    def rhs(x, th):
        s = math.sin(th[0])
        c = math.cos(th[0])
        return (c * c + (lam - float(q(x))) * s * s,)

    sol = solve_ivp(rhs, (0.0, TWO_PI), (theta0,), method="RK45",
                    rtol=rtol, atol=1e-12)
    assert sol.success, sol.message
    return float(sol.y[0, -1])


def normal_form_potential(weight, grid):
    """Q(y) = q(Omega^{-1}(y)), the potential of weight_to_potential in
    the phase variable y = Omega(x): psi'' = -lambda omega^2 psi becomes
    g'' = (Q - lambda) g for g = sqrt(omega) psi."""
    q = weight_to_potential(weight)
    omap = omega_map(weight, grid)
    return lambda y: np.asarray(q(omap.inverse(y)), dtype=float)


def test_normal_form_potential_is_composition():
    # Q(Omega(x)) == q(x): the phase-frame potential is q dragged
    # through the inverse phase map
    w = builtin_weights("sine2")
    Q = normal_form_potential(w, default_grid())
    x = np.linspace(0.0, TWO_PI, 41)
    np.testing.assert_allclose(Q(omega_map(w, default_grid()).forward(x)),
                               weight_to_potential(w)(x), atol=1e-10)


def test_normal_form_potential_unit_weight():
    Q = normal_form_potential(builtin_weights("unit"), default_grid())
    y = np.linspace(0.0, TWO_PI, 33)
    np.testing.assert_allclose(Q(y), 0.0, atol=1e-14)


def test_prufer_phase_pinned_unit_values():
    q0 = weight_to_potential(builtin_weights("unit"))
    # first eigenvalue of the pinned-ends family: terminal phase pi
    assert abs(prufer_phase(q0, 0.25, D) - math.pi) < 1e-7
    # second one: 2*pi
    assert abs(prufer_phase(q0, 1.0, D) - 2.0 * math.pi) < 1e-7
    # below the spectrum the phase falls short: theta' = cos^2 theta
    # integrates to arctan(2*pi)
    assert abs(prufer_phase(q0, 0.0, D) - math.atan(TWO_PI)) < 1e-7
    # free-slope family, first indexed eigenvalue
    assert abs(prufer_phase(q0, 0.25, C) - 1.5 * math.pi) < 1e-7


def test_prufer_phase_increases_with_lambda():
    q0 = weight_to_potential(builtin_weights("unit"))
    phases = [prufer_phase(q0, lam, D) for lam in (0.1, 0.25, 0.7, 1.0)]
    assert all(a < b for a, b in zip(phases, phases[1:]))


@pytest.mark.parametrize("bc", [C, D])
@pytest.mark.parametrize("k", [1, 5])
def test_prufer_cross_checks_transfer_matrix_solver(sine2_basis_200, bc, k):
    basis = sine2_basis_200[0] if bc is C else sine2_basis_200[1]
    lam = basis.eigenvalues[k - 1]
    Q = normal_form_potential(basis.weight, basis.grid)
    target = k * math.pi + (0.5 * math.pi if bc is C else 0.0)
    assert abs(prufer_phase(Q, lam, bc) - target) < 1e-6


# ----------------------------------------------------------------------
# structural invariants on a non-trivial weight


def test_oscillation_counts(sine2_basis):
    bc_c, bc_d = sine2_basis
    for k in (1, 2, 3, 10, 33):
        assert _sign_changes(bc_d.funcs[k - 1]) == k - 1
        assert _sign_changes(bc_c.funcs[k - 1]) == k


def test_eigenvalues_strictly_increasing(sine2_basis):
    for basis in sine2_basis:
        assert np.all(np.diff(basis.eigenvalues) > 0.0)


def test_normalization_weighted_norm_is_pi(sine2_basis):
    for basis in sine2_basis:
        om = np.asarray(basis.weight.eval(basis.grid.points), dtype=float)
        for k in (1, 10, 50, 200, 400):
            val = np.trapezoid(basis.funcs[k - 1] ** 2 * om,
                               basis.grid.points)
            np.testing.assert_allclose(val, math.pi, atol=1e-7)


def test_normalization_idempotent_and_signed(sine2_basis):
    bc_c, bc_d = sine2_basis
    pair = bc_c.pairs[4]
    again = normalize_eigenfunction(pair, bc_c.weight, bc_c.grid, C)
    np.testing.assert_allclose(again.func, pair.func, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(again.dfunc, pair.dfunc, rtol=0.0, atol=1e-10)
    for k in (1, 2, 9):
        assert bc_c.funcs[k - 1][0] > 0.0
        assert bc_d.dfuncs[k - 1][0] > 0.0


def test_boundary_conditions_hold(sine2_basis):
    bc_c, bc_d = sine2_basis
    x_ends = np.array([0.0, TWO_PI])
    om = np.asarray(bc_c.weight.eval(x_ends), dtype=float)
    omp = np.asarray(bc_c.weight.deriv1(x_ends), dtype=float)
    for k in (1, 7, 100, 400):
        psi_d = bc_d.funcs[k - 1]
        scale_d = np.max(np.abs(psi_d))
        assert abs(psi_d[0]) <= 1e-8 * scale_d
        assert abs(psi_d[-1]) <= 1e-8 * scale_d
        # free family: zero slope of sqrt(omega) * psi at both ends
        psi = bc_c.funcs[k - 1]
        dpsi = bc_c.dfuncs[k - 1]
        for j, i in ((0, 0), (1, -1)):
            slope = (0.5 * omp[j] / np.sqrt(om[j])) * psi[i] \
                + np.sqrt(om[j]) * dpsi[i]
            assert abs(slope) <= 1e-8 * (k * np.max(np.abs(psi)))


def test_ode_residual_small(sine2_basis, unit_basis):
    for pair_bases, ks in ((sine2_basis, (1, 50, 200, 400)),
                           (unit_basis, (1, 50, 100))):
        for basis in pair_bases:
            for k in ks:
                res = ode_residual(basis.pairs[k - 1], basis.weight,
                                   basis.grid)
                assert res <= 1e-6, (basis.bc, k, res)


def test_orthogonality_defect_small(sine2_basis):
    bc_c, bc_d = sine2_basis
    assert orthogonality_defect(bc_d) <= 1e-8
    assert orthogonality_defect(bc_c) <= 1e-6
    assert orthogonality_defect(bc_c, j_max=50) <= orthogonality_defect(bc_c) + 1e-15


def test_asymptotic_deviation_sine2_order_one(sine2_basis):
    for basis in sine2_basis:
        ks, d, d1 = asymptotic_deviation(basis)
        assert np.max(ks * d) < 5.0
        assert np.max(d1) < 2.0
        # deviations decay: the tail is much smaller than the head
        assert np.median(d[200:]) < np.median(d[:20])


def test_asymptotic_deviation_peak_is_one_block(sine2_basis):
    # one block of m unit vectors at a time: combine's out buffer of 4m
    # rows (values, slopes and the stacked products), the block's cos/sin
    # rows of m/2 coefficients, and then either the next block's rows as
    # they are built or the two m/2-row temporaries of the differences;
    # a few rows' slack covers per-point vectors.  Measured: 393 rows at
    # k_max = 400, where holding X_n_raw's whole table peaked at 1,317
    m = ensembles._UNIT_BLOCK
    for basis in sine2_basis:
        row = basis.grid.count * 8
        omega_map(basis.weight, basis.grid)  # the cached phase map
        tracemalloc.start()
        try:
            asymptotic_deviation(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 6 * m * row <= peak <= (6 * m + 12) * row


# ----------------------------------------------------------------------
# validation and determinism


def test_eigen_solve_validates_input():
    unit = builtin_weights("unit")
    with pytest.raises(PreconditionError):
        eigen_solve(unit, D, 0)
    with pytest.raises(PreconditionError):
        eigen_solve(unit, D, 2.5)
    with pytest.raises(PreconditionError):
        eigen_solve(unit, "D", 3)
    unscaled = WeightFunction(
        name="sine2x2",
        eval=lambda x: 2.0 * builtin_weights("sine2").eval(x),
        deriv1=lambda x: 2.0 * builtin_weights("sine2").deriv1(x),
        deriv2=lambda x: 2.0 * builtin_weights("sine2").deriv2(x))
    with pytest.raises(PreconditionError):
        eigen_solve(unscaled, D, 3)


def test_eigen_solve_refuses_unresolved_k_max():
    # sine2 peaks at 1.5: k = 683 leaves 2*8191/(683*1.5) < 16 points
    # per wavelength; refused before any eigenvalue is solved
    with pytest.raises(PreconditionError,
                       match="k_max=683 leaves .* k_max must be at most 682"):
        eigen_solve(builtin_weights("sine2"), D, 683)


def test_eigen_solve_prefix_stable():
    w = builtin_weights("sine2")
    g = Grid(2049)
    small = eigen_solve(w, D, 5, grid=g)
    large = eigen_solve(w, D, 9, grid=g)
    np.testing.assert_array_equal(large.eigenvalues[:5], small.eigenvalues)
    np.testing.assert_array_equal(large.funcs[:5], small.funcs)


# ----------------------------------------------------------------------
# the residual evaluations the scan skips or reuses change no bit


def _oracle_chain(lam, qbar, h):
    """Per-cell transfer matrices with both branches always evaluated."""
    z = (lam - qbar) * h * h
    rt = np.sqrt(np.abs(z))
    pos = z >= 0.0
    a = np.where(pos, np.cos(rt), np.cosh(rt))
    small = rt <= 1e-12
    rts = np.where(small, 1.0, rt)
    s = np.where(pos, np.sinc(rt / np.pi),
                 np.where(small, 1.0, np.sinh(rts) / rts))
    return a, h * s, -(z / h) * s, a


def _copying_scan(a, b, c, d):
    """The Hillis-Steele prefix products on four copies, with fresh
    temporaries per level: the oracle of the two-buffer scan's bits."""
    a, b, c, d = a.copy(), b.copy(), c.copy(), d.copy()
    shift = 1
    while shift < a.size:
        a2, b2, c2, d2 = a[shift:], b[shift:], c[shift:], d[shift:]
        a1, b1, c1, d1 = a[:-shift], b[:-shift], c[:-shift], d[:-shift]
        na = a2 * a1 + b2 * c1
        nb = a2 * b1 + b2 * d1
        nc = c2 * a1 + d2 * c1
        nd = c2 * b1 + d2 * d1
        a[shift:], b[shift:], c[shift:], d[shift:] = na, nb, nc, nd
        shift *= 2
    return a, b, c, d


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 8192])
def test_chain_scan_bit_equal_to_copying_scan(n):
    rng = np.random.default_rng(n)
    a, b, c, d = rng.normal(size=(4, n))
    for chain in ((a, b, c, d), (a, b, c, a)):  # a chain shares a and d
        kept = [x.copy() for x in chain]
        got = _chain_scan(*chain)
        for x, y in zip(got, _copying_scan(*chain)):
            assert np.array_equal(x, y)
        for x, y in zip(chain, kept):
            assert np.array_equal(x, y)  # the inputs are only read


def _oracle_solve(weight, bc, k_max, grid):
    """(eigenvalues, funcs, dfuncs) from a scan that evaluates the
    residual at every node upward from just above the previous root and
    lets brentq evaluate its bracket ends again."""
    prop = _Propagator(weight, grid)

    def residual(lam):
        _, tb, tc, _ = _chain_reduce(*_oracle_chain(lam, prop.qbar, prop.hy))
        return tb if bc is D else tc

    q_shift = float(np.sum(prop.qbar * prop.hy) / TWO_PI)
    lam_prev = prop.q_min - 1.0
    lambdas = []
    for j in range(1 if bc is D else 0, k_max + 1):
        guess = 0.25 * j * j + q_shift
        step = max(0.25 * (2 * j + 1), 0.5) / 4.0
        lo = lam_prev + max(1e-7, 1e-7 * abs(lam_prev))
        flo = residual(lo)
        if flo == 0.0:
            lo += 1e-7 * max(1.0, abs(lo))
            flo = residual(lo)
        x_hi = max(lo + step, guess - 2.0 * step)
        lam = None
        for _ in range(200):
            f_hi = residual(x_hi)
            if f_hi == 0.0:
                lam = x_hi
                break
            if flo * f_hi < 0.0:
                lam = brentq(residual, lo, x_hi, xtol=1e-13, rtol=1e-15,
                             maxiter=200)
                break
            lo, flo = x_hi, f_hi
            x_hi = lo + step
        assert lam is not None, (bc, j)
        lambdas.append(lam)
        lam_prev = lam
    lambdas = lambdas[-k_max:]

    x = grid.points
    om = np.asarray(weight.eval(x), dtype=float)
    rtw = np.sqrt(om)
    pull_d = np.asarray(weight.deriv1(x), dtype=float) / (2.0 * om * rtw)
    funcs, dfuncs = [], []
    for k, lam in enumerate(lambdas, start=1):
        pa, pb, pc, pd = _chain_scan(*_oracle_chain(lam, prop.qbar, prop.hy))
        if bc is D:
            g, dg = np.concatenate(([0.0], pb)), np.concatenate(([1.0], pd))
        else:
            g, dg = np.concatenate(([1.0], pa)), np.concatenate(([0.0], pc))
        pair = normalize_eigenfunction(
            Eigenpair(index=k, eigenvalue=float(lam), func=g / rtw,
                      dfunc=rtw * dg - pull_d * g), weight, grid, bc)
        funcs.append(pair.func)
        dfuncs.append(pair.dfunc)
    return np.array(lambdas), np.array(funcs), np.array(dfuncs)


@pytest.mark.parametrize("bc", [C, D])
@pytest.mark.parametrize("name", ["sine2", "expcos", "unit"])
def test_eigen_solve_bit_equal_to_full_scan_oracle(name, bc):
    w = builtin_weights(name)
    g = Grid(2049)
    basis = eigen_solve(w, bc, 40, grid=g)
    lambdas, funcs, dfuncs = _oracle_solve(w, bc, 40, g)
    np.testing.assert_array_equal(basis.eigenvalues, lambdas)
    np.testing.assert_array_equal(basis.funcs, funcs)
    np.testing.assert_array_equal(basis.dfuncs, dfuncs)


@pytest.mark.parametrize("bc", [C, D])
def test_eigen_solve_evaluates_the_weight_a_fixed_number_of_times(bc):
    # omega on the grid is evaluated once per solve and shared by every
    # pair's normalization, so the count does not grow with k_max (a
    # first solve builds the weight's cached Omega map)
    base = builtin_weights("sine2")
    calls = []

    def counted_eval(x):
        calls.append(np.size(x))
        return base.eval(x)

    w = WeightFunction(base.name, counted_eval, base.deriv1, base.deriv2)
    g = Grid(1025)
    eigen_solve(w, bc, 1, grid=g)
    counts = []
    for k_max in (5, 20):
        del calls[:]
        basis = eigen_solve(w, bc, k_max, grid=g)
        counts.append(len(calls))
        np.testing.assert_array_equal(basis.funcs,
                                      eigen_solve(base, bc, k_max, grid=g).funcs)
    assert counts[0] == counts[1]


# ----------------------------------------------------------------------
# close eigenvalue pairs: expcos(a) has a potential well at each end of
# [0, 2*pi], so for a >= 1.4 its low eigenvalues come in pairs closer
# than the scan's step, which the residual's sign cannot see


@pytest.fixture(scope="module")
def expcos2_bases():
    w = make_expcos(2.0)
    return {bc: eigen_solve(w, bc, 20) for bc in (C, D)}


@pytest.mark.parametrize("bc", [C, D])
def test_close_pairs_match_prufer_phase(expcos2_bases, bc):
    # the lowest pair, k = 2, 3 for C and 1, 2 for D, lies closer than
    # the scan's step at its upper ordinal; its members and the nearest
    # eigenvalues are those of the independent Prufer phase integration
    basis = expcos2_bases[bc]
    lam = basis.eigenvalues
    k = 3 if bc is C else 2
    assert lam[k - 1] - lam[k - 2] < 0.25 * (2 * k + 1) / 4.0
    Q = normal_form_potential(basis.weight, basis.grid)
    for k in (1, 2, 3, 4):
        target = k * math.pi + (0.5 * math.pi if bc is C else 0.0)
        assert abs(prufer_phase(Q, lam[k - 1], bc) - target) < 1e-6, k


@pytest.mark.parametrize("bc", [C, D])
def test_close_pairs_oscillation_counts(expcos2_bases, bc):
    basis = expcos2_bases[bc]
    assert np.all(np.diff(basis.eigenvalues) > 0.0)
    for k in range(1, basis.k_max + 1):
        assert _sign_changes(basis.funcs[k - 1]) == (k if bc is C else k - 1)


def test_doublet_closer_than_scan_step_matches_fine_scan():
    # expcos(3.8)'s first two D eigenvalues lie 0.10 apart, where the
    # scan steps by 0.3125 at ordinal 2: a scan of the residual in steps
    # of 0.0047 finds every root up to the sixth eigenvalue, and they
    # are the solver's
    w = make_expcos(3.8)
    lam = eigen_solve(w, D, 6).eigenvalues
    assert lam[1] - lam[0] < 0.25 * (2 * 2 + 1) / 4.0 / 3.0
    prop = _Propagator(w, default_grid())

    def residual(z):
        return prop.residual(z, D, {})

    nodes = np.arange(0.0, lam[-1] + 0.05, 0.1875 / 40)
    values = [residual(z) for z in nodes]
    roots = [brentq(residual, a, b, xtol=1e-13, rtol=1e-15)
             for a, b, fa, fb in zip(nodes, nodes[1:], values, values[1:])
             if fa * fb < 0.0]
    np.testing.assert_allclose(lam, roots, rtol=1e-12)


def test_overflowing_weight_refused_by_name():
    # expcos(4)'s wells are deep enough that the shot solution overflows
    # below the lowest eigenvalue: refused, with no warning and no NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bc in (C, D):
            with pytest.raises(PreconditionError,
                               match="weight 'expcos' is too strong .* "
                                     "overflow"):
                eigen_solve(make_expcos(4.0), bc, 20)


def test_eigen_solve_residual_evaluations(monkeypatch):
    # sine2 at k=400 makes 5.183 residual evaluations per eigenvalue in
    # both families, and recover builds no transfer chain of its own
    residuals, chains = [], []
    residual, transfer_chain = _Propagator.residual, eigen._transfer_chain

    def counted_residual(self, lam, bc, kept):
        residuals.append(lam)
        return residual(self, lam, bc, kept)

    def counted_chain(lam, qbar, h):
        chains.append(lam)
        return transfer_chain(lam, qbar, h)

    monkeypatch.setattr(_Propagator, "residual", counted_residual)
    monkeypatch.setattr(eigen, "_transfer_chain", counted_chain)
    for bc in (C, D):
        residuals.clear()
        chains.clear()
        eigen_solve(builtin_weights("sine2"), bc, 400)
        assert len(residuals) / 400 <= 5.25, (bc, len(residuals))
        assert len(chains) / 400 <= 5.3, (bc, len(chains))
        assert chains == residuals


def test_transfer_chain_non_oscillating_limit():
    # a cell a rounding away from qbar neither oscillates nor grows: its
    # sin(rt)/rt or sinh(rt)/rt factor is 1 on either side of qbar
    q = np.array([1e-3])
    h = np.array([1e-3])
    for lam in (np.nextafter(1e-3, 0.0), np.nextafter(1e-3, 1.0)):
        a, b, c, d = eigen._transfer_chain(lam, q, h)
        z = (lam - q[0]) * h[0] * h[0]
        assert a[0] == d[0] == 1.0
        assert b[0] == h[0]
        assert c[0] == -(z / h[0])


# ----------------------------------------------------------------------
# Brent's method: the same points and bits as scipy's brentq


def _brent_trace(f, a, b, fa, fb, maxiter=200):
    calls = []

    def traced(x):
        calls.append(x)
        return f(x)

    root = _brent(traced, a, b, fa, fb, 1e-13, 1e-15, maxiter)
    return root, calls


def _check_against_brentq(f, a, b):
    calls = []

    def traced(x):
        calls.append(x)
        return f(x)

    want = brentq(traced, a, b, xtol=1e-13, rtol=1e-15, maxiter=200)
    assert calls[:2] == [a, b]
    root, got = _brent_trace(f, a, b, f(a), f(b))
    assert root.hex() == want.hex()
    assert [x.hex() for x in got] == [x.hex() for x in calls[2:]]


_coef = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(c=st.lists(_coef, min_size=3, max_size=3), a=_coef, width=st.floats(
    1e-6, 20.0), t=st.floats(2.0 ** -20, 1.0 - 2.0 ** -20))
def test_brent_matches_brentq_on_cubics(c, a, width, t):
    # f = p + c0 changes sign on [a, b] exactly when -c0 lies between
    # p(a) and p(b), so -c0 is drawn there.  f(x) rounds p(x) as p does
    # and then adds c0, a sum whose sign is exact, so only a -c0 that
    # rounds onto p(a) or p(b) leaves a zero end
    def p(x):
        return ((c[2] * x + c[1]) * x + c[0]) * x

    b = a + width
    lo, hi = sorted((p(a), p(b)))
    c0 = -min(max(lo + t * (hi - lo), lo), hi)

    def f(x):
        return p(x) + c0

    assume(f(a) != 0.0 and f(b) != 0.0)
    assert (f(a) < 0.0) != (f(b) < 0.0)
    _check_against_brentq(f, a, b)


@settings(max_examples=150, deadline=None)
# residuals of 1e-119 underflow the extrapolation's denominator to 0
@example(amp=[1.320473738164886e-119], phase=[1.0, 0.0, 0.0, 0.0, 0.0],
         a=0.0, width=4.0)
@given(amp=st.lists(_coef, min_size=1, max_size=5),
       phase=st.lists(_coef, min_size=5, max_size=5), a=_coef,
       width=st.floats(1e-6, 20.0))
def test_brent_matches_brentq_on_trig_sums(amp, phase, a, width):
    def f(x):
        return sum(w * math.sin((k + 1) * x + p)
                   for k, (w, p) in enumerate(zip(amp, phase)))

    b = a + width
    assume(b > a and (f(a) < 0.0) != (f(b) < 0.0) and f(a) * f(b) != 0.0)
    _check_against_brentq(f, a, b)


def test_brent_zero_at_either_end():
    def f(x):
        return x * (x - 1.0)

    assert _brent_trace(f, 0.0, 0.5, 0.0, -0.25) == (0.0, [])
    assert _brent_trace(f, 0.5, 1.0, -0.25, 0.0) == (1.0, [])
    assert brentq(f, 0.0, 0.5) == 0.0 and brentq(f, 0.5, 1.0) == 1.0


def test_brent_refuses_bracket_without_sign_change():
    with pytest.raises(PreconditionError, match="one sign"):
        _brent(math.cos, 0.0, 1.0, 1.0, math.cos(1.0), 1e-13, 1e-15, 200)


def test_brent_non_convergence_raises():
    # three steps cannot shrink [0, 3] around sqrt(2) below 1e-13
    def f(x):
        return x * x - 2.0

    with pytest.raises(NumericError, match="did not converge in 3 steps"):
        _brent(f, 0.0, 3.0, -2.0, 7.0, 1e-13, 1e-15, 3)


def test_eigenvalues_respect_sturm_bound(sine2_basis, sine2_weight):
    # the premise of the scan's skip: lambda_k >= k^2/4 + min qbar
    q_min = np.min(_Propagator(sine2_weight, sine2_basis[0].grid).qbar)
    for basis in sine2_basis:
        k = np.arange(1, basis.k_max + 1)
        assert np.all(basis.eigenvalues >= 0.25 * k ** 2 + q_min)


def test_basis_rows_alias_pairs(sine2_basis):
    bc_c, _ = sine2_basis
    assert bc_c.k_max == 400
    for k in (1, 400):
        assert bc_c.pairs[k - 1].index == k
        np.testing.assert_array_equal(bc_c.funcs[k - 1], bc_c.pairs[k - 1].func)
