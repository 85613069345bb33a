"""Eigenvalues and eigenfunctions of the weighted string equation

    psi'' = -lambda omega^2 psi   on [0, 2*pi].

Substituting the phase variable y = Omega(x) = integral_0^x omega and
g(y) = sqrt(omega(x)) psi(x) turns this into the potential form

    g'' = (Q - lambda) g,    Q(y) = q(Omega^{-1}(y)),

where q = omega''/(2 omega^3) - (3/4) omega'^2/omega^4 is the potential
attached to the weight.  The solver works entirely in the phase frame:
it propagates (g, g') across the image cells [Omega(x_j), Omega(x_{j+1})]
with the exact transfer matrix of a piecewise-constant approximation of
Q (midpoint value per cell), root-finds the boundary residual in lambda
inside asymptotic brackets (scanning upward from the previous root so no
eigenvalue can be skipped, and evaluating no scan node below the Sturm
comparison bound j^2/4 + min Q but the last), and then pulls the samples
back to the x grid:

    psi  = omega^{-1/2} g(Omega(x)),
    psi' = omega^{1/2} g'(Omega(x)) - (omega'/(2 omega^{3/2})) g(Omega(x)).

Because the phase cells are the images of the x cells, the recovered
samples land exactly on the storage grid and no interpolation is needed.
The approximation error is O(h^2) uniformly in lambda — a few 1e-8 for
the builtin weights at the default grid — and vanishes for the unit
weight, where the transfer matrices are exact.  Every accepted
eigenfunction is verified against the Sturm oscillation count (exact
integer equality).

Boundary conditions are imposed in the phase frame: family D pins
g(0) = g(2*pi) = 0 (equivalently psi itself vanishes at the ends) and
family C pins g'(0) = g'(2*pi) = 0 (zero slope of sqrt(omega) psi).
Both families are indexed k = 1, 2, ... so that sqrt(lambda_k) ~ k/2;
the C family's ground state (no interior zeros) sits below k = 1 and is
discarded.

`prufer_phase` integrates the classic phase ODE for the potential form
with an adaptive Runge-Kutta method; fed the composed potential Q (see
`normal_form_potential`) it is the independent cross-check for the
transfer-matrix engine.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DomainError, InvariantViolation, NumericError, PreconditionError
from .weights import (TWO_PI, Grid, check_resolution, default_grid, omega_map,
                      weight_to_potential)


class BoundaryCondition(Enum):
    C = "C"  # zero phase-frame slope at both ends: (sqrt(omega) psi)' = 0
    D = "D"  # psi(0) = psi(2*pi) = 0


@dataclass(frozen=True)
class Eigenpair:
    index: int
    eigenvalue: float
    func: np.ndarray   # psi_k at the grid points
    dfunc: np.ndarray  # psi_k' at the grid points


@dataclass(frozen=True)
class EigenBasis:
    bc: BoundaryCondition
    pairs: tuple
    weight: object
    grid: Grid
    funcs: np.ndarray    # (k_max, npts), row k-1 = psi_k samples
    dfuncs: np.ndarray   # (k_max, npts)

    @property
    def eigenvalues(self):
        return np.array([p.eigenvalue for p in self.pairs])

    @property
    def k_max(self):
        return len(self.pairs)


def prufer_phase(q, lam, bc, rtol=1e-10):
    """Terminal Prufer phase theta(2*pi; lambda) for the phase ODE

        theta' = cos^2 theta + (lambda - q) sin^2 theta,

    theta(0) = 0 for D and pi/2 for C.  Strictly increasing in lambda.

    `q` is the potential of the equation being checked; to cross-check
    `eigen_solve` for a non-unit weight, pass the composed potential
    from `normal_form_potential`, since that is the equation the solver
    integrates in the phase variable.
    """
    lam = float(lam)
    theta0 = 0.0 if bc is BoundaryCondition.D else 0.5 * math.pi

    def rhs(x, th):
        s = math.sin(th[0])
        c = math.cos(th[0])
        return (c * c + (lam - float(q.eval(x))) * s * s,)

    sol = solve_ivp(rhs, (0.0, TWO_PI), (theta0,), method="RK45",
                    rtol=rtol, atol=1e-12)
    if not sol.success:
        raise NumericError("Prufer phase integration failed at lambda=%r: %s"
                           % (lam, sol.message))
    return float(sol.y[0, -1])


def _transfer_chain(lam, qbar, h):
    """Per-cell transfer matrices for g'' = (qbar - lam) g as four
    component arrays (a, b, c, d) meaning [[a, b], [c, d]]; `h` is the
    array of cell widths."""
    z = (lam - qbar) * h * h
    rt = np.sqrt(np.abs(z))
    pos = z >= 0.0
    if pos.all():
        # every cell oscillates: the cosh/sinh branch would be discarded
        a = np.cos(rt)
        s = np.sinc(rt / np.pi)
    else:
        a = np.where(pos, np.cos(rt), np.cosh(rt))
        # sin(rt)/rt resp. sinh(rt)/rt, both -> 1 as rt -> 0
        rts = np.where(rt > 1e-12, rt, 1.0)
        s = np.where(pos, np.sinc(rt / np.pi), np.sinh(rts) / rts)
    b = h * s
    c = -(z / h) * s
    # both diagonal entries equal a; the chain ops never mutate inputs
    return a, b, c, a


def _chain_reduce(a, b, c, d):
    """Ordered product M_{N-1} @ ... @ M_0 by pairwise reduction."""
    while a.size > 1:
        even = (a.size // 2) * 2
        a1, b1, c1, d1 = a[0:even:2], b[0:even:2], c[0:even:2], d[0:even:2]
        a2, b2, c2, d2 = a[1:even:2], b[1:even:2], c[1:even:2], d[1:even:2]
        na = a2 * a1 + b2 * c1
        nb = a2 * b1 + b2 * d1
        nc = c2 * a1 + d2 * c1
        nd = c2 * b1 + d2 * d1
        if a.size % 2:
            na = np.append(na, a[-1])
            nb = np.append(nb, b[-1])
            nc = np.append(nc, c[-1])
            nd = np.append(nd, d[-1])
        a, b, c, d = na, nb, nc, nd
    return float(a[0]), float(b[0]), float(c[0]), float(d[0])


def _chain_scan(a, b, c, d):
    """Inclusive prefix products P_i = M_i @ ... @ M_0 (Hillis-Steele)."""
    a = a.copy()
    b = b.copy()
    c = c.copy()
    d = d.copy()
    n = a.size
    shift = 1
    while shift < n:
        a2, b2, c2, d2 = a[shift:], b[shift:], c[shift:], d[shift:]
        a1, b1, c1, d1 = a[:-shift], b[:-shift], c[:-shift], d[:-shift]
        na = a2 * a1 + b2 * c1
        nb = a2 * b1 + b2 * d1
        nc = c2 * a1 + d2 * c1
        nd = c2 * b1 + d2 * d1
        a[shift:], b[shift:], c[shift:], d[shift:] = na, nb, nc, nd
        shift *= 2
    return a, b, c, d


class _Propagator:
    """Boundary residual and eigenfunction recovery for one (weight, grid).

    Cells live in the phase variable: node j sits at Omega(x_j), so the
    recovered (g, g') samples align with the x grid after pullback.
    """

    def __init__(self, weight, grid):
        self.grid = grid
        omap = omega_map(weight, grid)
        if abs(omap.total - TWO_PI) > 1e-8:
            raise PreconditionError(
                "weight %r must have total mass 2*pi (got %r); apply "
                "normalize_weight first" % (weight.name, omap.total))
        self.ynodes = omap.table
        self.hy = np.diff(omap.table)
        q = weight_to_potential(weight)
        ymid = 0.5 * (self.ynodes[:-1] + self.ynodes[1:])
        self.qbar = np.asarray(q.eval(omap.inverse(ymid)), dtype=float)
        ends = np.asarray(q.eval(np.array([0.0, TWO_PI])), dtype=float)
        self.q_min = float(min(np.min(self.qbar), np.min(ends)))

    def residual(self, lam, bc):
        a, b, c, d = _transfer_chain(lam, self.qbar, self.hy)
        ta, tb, tc, td = _chain_reduce(a, b, c, d)
        # D shoots from (0, 1) and needs g(end) = 0: entry b.
        # C shoots from (1, 0) and needs g'(end) = 0: entry c.
        return tb if bc is BoundaryCondition.D else tc

    def recover(self, lam, bc):
        """Node samples (g, g') for the shot solution at lambda."""
        a, b, c, d = _transfer_chain(lam, self.qbar, self.hy)
        pa, pb, pc, pd = _chain_scan(a, b, c, d)
        if bc is BoundaryCondition.D:
            v0, dv0 = 0.0, 1.0
            g = pb * dv0
            dg = pd * dv0
        else:
            v0, dv0 = 1.0, 0.0
            g = pa * v0
            dg = pc * v0
        g = np.concatenate(([v0], g))
        dg = np.concatenate(([dv0], dg))
        return g, dg


def _interior_sign_changes(values):
    v = values[1:-1]
    v = v[v != 0.0]
    if v.size < 2:
        return 0
    return int(np.count_nonzero(v[:-1] * v[1:] < 0.0))


def _weighted_norm(psi, dpsi, weight, grid):
    """integral psi^2 omega dx by trapezoid with the h^2 Euler-Maclaurin
    end correction; spectrally accurate for these near-periodic
    integrands, and the correction handles the non-periodic ends."""
    x = grid.points
    om = np.asarray(weight.eval(x), dtype=float)
    f = psi * psi * om
    h = grid.h
    total = h * (np.sum(f) - 0.5 * (f[0] + f[-1]))
    omp = np.asarray(weight.deriv1(np.array([x[0], x[-1]])), dtype=float)
    fp0 = 2.0 * psi[0] * dpsi[0] * om[0] + psi[0] ** 2 * omp[0]
    fp1 = 2.0 * psi[-1] * dpsi[-1] * om[-1] + psi[-1] ** 2 * omp[1]
    return total - h * h / 12.0 * (fp1 - fp0)


def normalize_eigenfunction(pair, weight, grid=None, bc=None):
    """Scale so integral psi^2 omega dx = pi and fix the sign so the
    leading asymptotic coefficient is +1 (psi(0) > 0 for family C,
    psi'(0) > 0 for family D)."""
    grid = grid if grid is not None else default_grid()
    norm = _weighted_norm(pair.func, pair.dfunc, weight, grid)
    scale_ref = float(np.max(np.abs(pair.func)))
    if not (norm > 1e-28 * max(scale_ref, 1.0) ** 2):
        raise InvariantViolation("cannot normalize eigenfunction with zero norm "
                                 "(index %d, norm %r)" % (pair.index, norm))
    s = math.sqrt(math.pi / norm)
    if bc is None:
        # a D-family eigenfunction vanishes at 0; a C-family one does not
        bc = (BoundaryCondition.D
              if abs(pair.func[0]) < 1e-6 * scale_ref else BoundaryCondition.C)
    lead = pair.dfunc[0] if bc is BoundaryCondition.D else pair.func[0]
    if lead < 0.0:
        s = -s
    return Eigenpair(index=pair.index, eigenvalue=pair.eigenvalue,
                     func=pair.func * s, dfunc=pair.dfunc * s)


def eigen_solve(weight, bc, k_max, grid=None):
    """First k_max eigenpairs of psi'' = -lambda omega^2 psi for the
    given weight, ordered, normalized to integral psi^2 omega dx = pi.

    Scans lambda upward from just above the previous root, brackets each
    root of the boundary residual, refines it to
    |dlambda| <= 1e-10*max(1,lambda), and verifies the Sturm oscillation
    count of every eigenfunction.  A k_max that the grid cannot resolve
    is refused (check_resolution).

    Two shortcuts leave every bracket, and so every bit, as the full scan
    has it.  Sturm comparison with the constant potential min Q gives
    lambda_j >= j^2/4 + min Q for the piecewise-constant Q the solver
    integrates, so no scan node below that bound is evaluated but the
    last, which stands in for the scan's start.  And brentq gets the
    residuals at the bracket ends from the scan instead of evaluating
    them again.
    """
    if k_max < 1 or int(k_max) != k_max:
        raise PreconditionError("k_max must be a positive integer, got %r" % (k_max,))
    k_max = int(k_max)
    if not isinstance(bc, BoundaryCondition):
        raise PreconditionError("bc must be a BoundaryCondition, got %r" % (bc,))
    grid = grid if grid is not None else default_grid()
    check_resolution(grid, "k_max", k_max, weight=weight)
    prop = _Propagator(weight, grid)
    q_shift = float(np.sum(prop.qbar * prop.hy) / TWO_PI)

    x = grid.points
    om = np.asarray(weight.eval(x), dtype=float)
    omp = np.asarray(weight.deriv1(x), dtype=float)
    rtw = np.sqrt(om)
    pull_d = omp / (2.0 * om * rtw)

    npts = grid.count
    funcs = np.empty((k_max, npts))
    dfuncs = np.empty((k_max, npts))
    lambdas = np.empty(k_max)

    # ordinal j counts residual roots from the bottom of the spectrum:
    # D-family roots are j = 1, 2, ... (index k = j); the C family has
    # an extra ground root at j = 0 that is found and discarded.
    j_first = 1 if bc is BoundaryCondition.D else 0
    lam_prev = prop.q_min - 1.0
    stored = 0
    for j in range(j_first, k_max + 1):
        guess = 0.25 * j * j + q_shift
        gap = max(0.25 * (2 * j + 1), 0.5)
        # lambda_j >= j^2/4 + q_min (Sturm comparison).  A constant Q
        # attains it, and that close to a root rounding sets the residual's
        # sign, so keep the relative slack that lo keeps above lambda_{j-1}
        bound = 0.25 * j * j + prop.q_min
        bound -= 1e-7 * max(1.0, abs(bound))
        lo = lam_prev + max(1e-7, 1e-7 * abs(lam_prev))
        step = gap / 4.0
        node = max(lo + step, guess - 2.0 * step)
        if node < bound:
            # the nodes below the bound share flo's sign: evaluate the last
            while node + step < bound:
                node += step
            lo = node
        flo = prop.residual(lo, bc)
        if flo == 0.0:
            lo += 1e-7 * max(1.0, abs(lo))
            flo = prop.residual(lo, bc)
        x_hi = max(lo + step, guess - 2.0 * step)
        root_lo, root_hi = None, None
        for _ in range(200):
            f_hi = prop.residual(x_hi, bc)
            if f_hi == 0.0:
                # scan node landed exactly on the root (q constant cases)
                root_lo, root_hi = x_hi, x_hi
                break
            if flo * f_hi < 0.0:
                root_lo, root_hi = lo, x_hi
                known = {root_lo: flo, root_hi: f_hi}
                break
            lo, flo = x_hi, f_hi
            x_hi = lo + step
        if root_lo is None:
            raise NumericError(
                "no residual sign change found for ordinal %d (%s family) "
                "above lambda=%r" % (j, bc.value, lam_prev))
        if root_lo == root_hi:
            lam = root_lo
        else:
            # brentq's bracket termination beats 1e-10*max(1, lambda); it
            # opens with the two bracket ends, whose residuals the scan has
            lam = brentq(
                lambda z: known[z] if z in known else prop.residual(z, bc),
                root_lo, root_hi, xtol=1e-13, rtol=1e-15, maxiter=200)

        g, dg = prop.recover(lam, bc)
        zeros = _interior_sign_changes(g)
        expected = j - 1 if bc is BoundaryCondition.D else j
        if zeros != expected:
            raise NumericError(
                "oscillation mismatch at ordinal %d (%s family): lambda=%r has "
                "%d interior zeros, expected %d (bracket [%r, %r])"
                % (j, bc.value, lam, zeros, expected, root_lo, root_hi))
        lam_prev = lam

        if bc is BoundaryCondition.C and j == 0:
            continue  # ground state below the k >= 1 indexing
        k = j
        psi = g / rtw
        dpsi = rtw * dg - pull_d * g
        pair = Eigenpair(index=k, eigenvalue=float(lam), func=psi, dfunc=dpsi)
        pair = normalize_eigenfunction(pair, weight, grid, bc)
        funcs[stored] = pair.func
        dfuncs[stored] = pair.dfunc
        lambdas[stored] = lam
        stored += 1

    pairs = tuple(
        Eigenpair(index=k + 1, eigenvalue=float(lambdas[k]),
                  func=funcs[k], dfunc=dfuncs[k])
        for k in range(k_max))
    return EigenBasis(bc=bc, pairs=pairs, weight=weight, grid=grid,
                      funcs=funcs, dfuncs=dfuncs)


def asymptotic_eigenfunction(weight, k, bc, x, grid=None):
    """Leading asymptotic form: omega^{-1/2} cos((k/2) Omega(x)) for
    family C and omega^{-1/2} sin((k/2) Omega(x)) for family D."""
    if k < 1:
        raise DomainError("index k must be >= 1, got %r" % (k,))
    om = omega_map(weight, grid)
    phase = 0.5 * k * om.forward(x)
    amp = 1.0 / np.sqrt(np.asarray(weight.eval(x), dtype=float))
    return amp * (np.cos(phase) if bc is BoundaryCondition.C else np.sin(phase))


def _asymptotic_on_grid(k, bc, omega_vals, omega_cum, omega_d1):
    phase = 0.5 * k * omega_cum
    trig = np.cos(phase) if bc is BoundaryCondition.C else np.sin(phase)
    dtrig = -np.sin(phase) if bc is BoundaryCondition.C else np.cos(phase)
    amp = omega_vals ** -0.5
    val = amp * trig
    dval = (-0.5 * omega_d1 * omega_vals ** -1.5) * trig \
        + amp * dtrig * (0.5 * k * omega_vals)
    return val, dval


def asymptotic_deviation(basis):
    """Sup-norm deviations from the asymptotic forms, per index:
    d_k = sup |psi_k - asym_k| and d1_k = sup |psi_k' - asym_k'|.

    Returns (k, d, d1) arrays.
    """
    grid = basis.grid
    w = basis.weight
    om = omega_map(w, grid)
    x = grid.points
    omega_vals = np.asarray(w.eval(x), dtype=float)
    omega_d1 = np.asarray(w.deriv1(x), dtype=float)
    omega_cum = om.forward(x)
    ks = np.arange(1, basis.k_max + 1)
    d = np.empty(basis.k_max)
    d1 = np.empty(basis.k_max)
    for i, pair in enumerate(basis.pairs):
        val, dval = _asymptotic_on_grid(pair.index, basis.bc,
                                        omega_vals, omega_cum, omega_d1)
        d[i] = np.max(np.abs(pair.func - val))
        d1[i] = np.max(np.abs(pair.dfunc - dval))
    return ks, d, d1


def ode_residual(pair, weight, grid):
    """Sup of the 6th-order finite-difference residual of the governing
    equation psi'' + lambda omega^2 psi = 0 over interior nodes,
    relative to lambda * sup|omega^2 psi|.

    The stencil order matters: for the oscillatory high modes a 4th-order
    stencil's own truncation, (k h omega/2)^4 / 90, would dominate the
    solver error near k = 200 on the default grid."""
    f = pair.func
    h = grid.h
    i = slice(3, -3)
    d2 = (2.0 * (f[:-6] + f[6:]) - 27.0 * (f[1:-5] + f[5:-1])
          + 270.0 * (f[2:-4] + f[4:-2]) - 490.0 * f[3:-3]) / (180.0 * h * h)
    om2 = np.asarray(weight.eval(grid.points[i]), dtype=float) ** 2
    res = d2 + pair.eigenvalue * om2 * f[i]
    scale = max(abs(pair.eigenvalue), 1.0) * np.max(om2 * np.abs(f[i]))
    return float(np.max(np.abs(res)) / scale)


def orthogonality_defect(basis, j_max=None):
    """max over j != k of |integral psi_j psi_k omega^2 dx|.

    omega^2 dx is the measure in which the weighted string operator is
    self-adjoint, so distinct eigenfunctions of one family are exactly
    orthogonal there (for the unit weight this is plain Lebesgue
    measure).  Computed by trapezoid on the basis grid.
    """
    m = j_max if j_max is not None else basis.k_max
    F = basis.funcs[:m]
    om2 = np.asarray(basis.weight.eval(basis.grid.points), dtype=float) ** 2
    h = basis.grid.h
    # trapezoid weights: halve the end columns
    colw = om2 * h
    colw[0] *= 0.5
    colw[-1] *= 0.5
    G = (F * colw) @ F.T
    off = G - np.diag(np.diag(G))
    return float(np.max(np.abs(off)))
