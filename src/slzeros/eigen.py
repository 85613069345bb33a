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
inside asymptotic brackets (scanning upward from the previous root, and
evaluating no scan node below the Sturm comparison bound j^2/4 + min Q
but the last) with Brent's method, and then pulls the samples back to
the x grid, reusing the transfer chain that the root finder evaluated
at the root:

    psi  = omega^{-1/2} g(Omega(x)),
    psi' = omega^{1/2} g'(Omega(x)) - (omega'/(2 omega^{3/2})) g(Omega(x)).

Because the phase cells are the images of the x cells, the recovered
samples land exactly on the storage grid and no interpolation is needed.
The approximation error is O(h^2) uniformly in lambda — a few 1e-8 for
the builtin weights at the default grid — and vanishes for the unit
weight, where the transfer matrices are exact.  Every accepted
eigenfunction is verified against the Sturm oscillation count (exact
integer equality).  Where a scan step passes over a close pair of roots,
whose residual shows no net sign change, the root it finds has too many
zeros; the skipped root is then isolated by bisecting on the Sturm count
of the shot solution (_sturm_count) and refined by Brent inside its own
sign-change bracket.  A weight whose shot solution overflows the float
range is refused by name.

Boundary conditions are imposed in the phase frame: family D pins
g(0) = g(2*pi) = 0 (equivalently psi itself vanishes at the ends) and
family C pins g'(0) = g'(2*pi) = 0 (zero slope of sqrt(omega) psi).
Both families are indexed k = 1, 2, ... so that sqrt(lambda_k) ~ k/2;
the C family's ground state (no interior zeros) sits below k = 1 and is
discarded.

Brent's method is _brent, a line-for-line port of scipy's brentq loop:
the roots keep scipy's bits, and importing this module loads no scipy.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .ensembles import unit_blocks
from .errors import (InvariantViolation, NumericError, PreconditionError,
                     positive_integral)
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
    """One family's first k_max eigenpairs: entry k - 1 of eigenvalues
    and row k - 1 of funcs/dfuncs belong to index k."""
    bc: BoundaryCondition
    weight: object
    grid: Grid
    eigenvalues: np.ndarray  # (k_max,)
    funcs: np.ndarray    # (k_max, npts), row k-1 = psi_k samples
    dfuncs: np.ndarray   # (k_max, npts)

    @cached_property
    def pairs(self):
        """The eigenpairs, their samples views of the rows."""
        return tuple(Eigenpair(index=k + 1, eigenvalue=float(lam),
                               func=self.funcs[k], dfunc=self.dfuncs[k])
                     for k, lam in enumerate(self.eigenvalues))

    @property
    def k_max(self):
        return len(self.eigenvalues)


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
        small = rt <= 1e-12
        rts = np.where(small, 1.0, rt)
        s = np.where(pos, np.sinc(rt / np.pi),
                     np.where(small, 1.0, np.sinh(rts) / rts))
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
    """Inclusive prefix products P_i = M_i @ ... @ M_0 (Hillis-Steele).

    Each level reads one buffer and writes the other, with the products
    formed in place, so a scan allocates two buffers and one temporary
    whatever its depth; the inputs are only read."""
    n = a.size
    one, two = np.empty((2, 4, n))
    tmp = np.empty(n)
    src = (a, b, c, d)
    shift = 1
    while shift < n:
        dst = two if src is one else one
        t = tmp[:n - shift]
        a1, b1, c1, d1 = (x[:-shift] for x in src)
        a2, b2, c2, d2 = (x[shift:] for x in src)
        # entry i >= shift is M-block i times block i - shift, as
        # a2 * a1 + b2 * c1 and so on, in that order of rounding
        for out, head, (p, q, r, s) in zip(dst, src, (
                (a2, a1, b2, c1), (a2, b1, b2, d1),
                (c2, a1, d2, c1), (c2, b1, d2, d1))):
            out[:shift] = head[:shift]
            np.multiply(p, q, out=out[shift:])
            np.multiply(r, s, out=t)
            out[shift:] += t
        src = dst
        shift *= 2
    return tuple(src)


class _Propagator:
    """Boundary residual and eigenfunction recovery for one (weight, grid).

    Cells live in the phase variable: node j sits at Omega(x_j), so the
    recovered (g, g') samples align with the x grid after pullback.
    """

    def __init__(self, weight, grid):
        self.grid = grid
        self.weight_name = weight.name
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

    def residual(self, lam, bc, chains):
        """Boundary residual at lambda; its transfer chain is kept in
        chains[lam] for recover."""
        chain = chains[lam] = _transfer_chain(lam, self.qbar, self.hy)
        with np.errstate(over="ignore", invalid="ignore"):
            ta, tb, tc, td = _chain_reduce(*chain)
        # D shoots from (0, 1) and needs g(end) = 0: entry b.
        # C shoots from (1, 0) and needs g'(end) = 0: entry c.
        res = tb if bc is BoundaryCondition.D else tc
        if not math.isfinite(res):
            # a deep well below the scan's start grows the shot solution
            # past the float range, and no residual sign can be read
            raise PreconditionError(
                "weight %r is too strong for the solver: the transfer "
                "matrices overflow at lambda=%r (%s family)"
                % (self.weight_name, lam, bc.value))
        return res

    def recover(self, chain, bc):
        """Node samples (g, g') for the shot solution whose transfer
        chain residual() kept."""
        pa, pb, pc, pd = _chain_scan(*chain)
        # the start values are (0, 1) for D and (1, 0) for C, so the
        # solution is the chain's second or first column
        if bc is BoundaryCondition.D:
            return (np.concatenate(([0.0], pb)),
                    np.concatenate(([1.0], pd)))
        return np.concatenate(([1.0], pa)), np.concatenate(([0.0], pc))


def _brent(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method
    (Brent 1973, ch. 4), given fa = f(xa) and fb = f(xb).

    A line-for-line port of scipy's brentq.c loop: with the bracket
    residuals that brentq would evaluate first, it evaluates f at the
    same points in the same order and returns the same bits.  Stops
    when the bracket is below xtol + rtol*|x|.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise PreconditionError("f(%r) = %r and f(%r) = %r have one sign"
                                % (xa, fa, xb, fb))
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf  # C's quotient is inf or nan: bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NumericError("Brent's method did not converge in %d steps on [%r, %r]"
                       % (maxiter, xa, xb))


def _bracket(residual, lo, flo, x_hi, step):
    """Scan x_hi upward by step from lo to the first sign change of the
    residual: (root_lo, root_hi, f_lo, f_hi), with root_lo == root_hi
    when a node is an exact root, or None after 200 nodes.  flo is the
    residual at lo or any nonzero value of its sign."""
    for _ in range(200):
        f_hi = residual(x_hi)
        if f_hi == 0.0:
            # scan node landed exactly on the root (q constant cases)
            return x_hi, x_hi, f_hi, f_hi
        if flo * f_hi < 0.0:
            return lo, x_hi, flo, f_hi
        lo, flo = x_hi, f_hi
        x_hi = lo + step
    return None


def _interior_sign_changes(values):
    v = values[1:-1]
    v = v[v != 0.0]
    if v.size < 2:
        return 0
    return int(np.count_nonzero(v[:-1] * v[1:] < 0.0))


def _sturm_count(g, dg, bc):
    """How many eigenvalues of family bc lie below the lambda at which
    (g, g') was shot, for lambda not itself one.  With g = r sin(theta)
    and g' = r cos(theta), theta starts at 0 (D) or pi/2 (C), passes
    each multiple of pi upward where g changes sign, and the k-th
    eigenvalue sits where theta(2*pi) reaches k*pi (D) or
    (k - 1/2)*pi (C): so the count is g's sign changes after the start
    node, a zero in the last cell included, plus one for C when theta
    ends past pi/2 modulo pi, that is g*g' < 0 at the end."""
    sign = np.signbit(g[g != 0.0])
    count = int(np.count_nonzero(sign[:-1] != sign[1:]))
    if bc is BoundaryCondition.C and (g[-1] < 0.0) != (dg[-1] < 0.0):
        count += 1
    return count


def _isolate(sturm, a, b, below):
    """Bisect [a, b] on the Sturm count, where sturm(z) is (count,
    residual) at z, until exactly one eigenvalue, the one with `below`
    under it, lies in (a, b): (a, b, f(a), f(b)) then, or None when
    sturm(a) does not count `below`, sturm(b) counts no more, or 200
    bisections do not isolate it."""
    (n_a, f_a), (n_b, f_b) = sturm(a), sturm(b)
    if n_a != below or n_b <= below:
        return None
    for _ in range(200):
        if n_b == below + 1:
            return a, b, f_a, f_b
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return None
        n_mid, f_mid = sturm(mid)
        if n_mid <= below:
            a, f_a = mid, f_mid
        else:
            b, n_b, f_b = mid, n_mid, f_mid
    return None


def _weighted_norm(psi, dpsi, weight, grid, om):
    """integral psi^2 omega dx by trapezoid with the h^2 Euler-Maclaurin
    end correction; spectrally accurate for these near-periodic
    integrands, and the correction handles the non-periodic ends.  om
    is omega at the grid's points."""
    x = grid.points
    f = psi * psi * om
    h = grid.h
    total = h * (np.sum(f) - 0.5 * (f[0] + f[-1]))
    omp = np.asarray(weight.deriv1(np.array([x[0], x[-1]])), dtype=float)
    fp0 = 2.0 * psi[0] * dpsi[0] * om[0] + psi[0] ** 2 * omp[0]
    fp1 = 2.0 * psi[-1] * dpsi[-1] * om[-1] + psi[-1] ** 2 * omp[1]
    return total - h * h / 12.0 * (fp1 - fp0)


def normalize_eigenfunction(pair, weight, grid, bc):
    """Scale so integral psi^2 omega dx = pi on the grid and fix the
    sign so the leading asymptotic coefficient is +1 (psi(0) > 0 for
    family C, psi'(0) > 0 for family D)."""
    return _normalized(pair, weight, grid, bc,
                       np.asarray(weight.eval(grid.points), dtype=float))


def _normalized(pair, weight, grid, bc, om):
    """normalize_eigenfunction with omega at the grid's points, om,
    evaluated once by the caller."""
    norm = _weighted_norm(pair.func, pair.dfunc, weight, grid, om)
    scale_ref = float(np.max(np.abs(pair.func)))
    if not (norm > 1e-28 * max(scale_ref, 1.0) ** 2):
        raise InvariantViolation("cannot normalize eigenfunction with zero norm "
                                 "(index %d, norm %r)" % (pair.index, norm))
    s = math.sqrt(math.pi / norm)
    lead = pair.dfunc[0] if bc is BoundaryCondition.D else pair.func[0]
    if lead < 0.0:
        s = -s
    return Eigenpair(index=pair.index, eigenvalue=pair.eigenvalue,
                     func=pair.func * s, dfunc=pair.dfunc * s)


def check_k_max(k_max, weight, grid):
    """k_max as an int; refuses one that is not a positive integer or
    that the grid cannot resolve (check_resolution)."""
    k_max = positive_integral("k_max", k_max)
    check_resolution(grid, "k_max", k_max, weight=weight)
    return k_max


def eigen_solve(weight, bc, k_max, grid=None):
    """First k_max eigenpairs of psi'' = -lambda omega^2 psi for the
    given weight, ordered, normalized to integral psi^2 omega dx = pi.

    Scans lambda upward from just above the previous root, brackets each
    root of the boundary residual, refines it to
    |dlambda| <= 1e-10*max(1,lambda), and verifies the Sturm oscillation
    count of every eigenfunction.  A k_max that the grid cannot resolve
    is refused (check_resolution).

    The refinement is _brent, a port of scipy's brentq loop that
    returns its bits.  Four shortcuts leave every bracket, and so every
    bit, as the full scan has it; together they cost about 5.2 transfer
    chains per eigenvalue for sine2 at k_max = 400.  Sturm comparison
    with the constant potential min Q gives lambda_j >= j^2/4 + min Q
    for the piecewise-constant Q the solver integrates, so no scan node
    below that bound is evaluated but the last, which stands in for the
    scan's start.  When that start and the last bracket's upper end both
    lie below the bound, no root lies between them, so the residual at
    the start has the sign of the one at that end: it is evaluated only
    if the first scan interval is the bracket (and if it is then exactly
    0, the ordinal is scanned again in full).  Brent gets the residuals
    at the bracket ends from the scan.  And every residual's transfer
    chain is kept for the ordinal, so the eigenfunction is recovered
    from the chain at the returned lambda, which the scan or Brent
    evaluated, instead of a new one.

    When the scan steps over a close pair of roots to a higher one, as
    for make_expcos(a) with a >= 1.4, whose wells at both ends pair the
    low eigenvalues, that root's eigenfunction has too many zeros: the
    ordinal's root is then isolated by bisection on the Sturm count
    between the scan's start and that root, and Brent refines it inside
    the bracket so found.  This runs only where the count is wrong, so
    it moves no other eigenvalue's bits.  A weight whose residual
    overflows (make_expcos(a) with a >= 4) is refused by name.
    """
    if not isinstance(bc, BoundaryCondition):
        raise PreconditionError("bc must be a BoundaryCondition, got %r" % (bc,))
    grid = grid if grid is not None else default_grid()
    k_max = check_k_max(k_max, weight, grid)
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
    # the last bracket's upper end and its residual (0.0: nothing to carry)
    hi_prev, f_hi_prev = lam_prev, 0.0
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
        chains = {}  # this ordinal's transfer chains, keyed by lambda

        def residual(z):
            return prop.residual(z, bc, chains)

        x_hi = max(lo + step, guess - 2.0 * step)
        found = None
        if f_hi_prev != 0.0 and max(hi_prev, lo) < bound:
            # no root lies between the last bracket's top and lo, so flo
            # has f_hi_prev's sign; its value is needed only when
            # [lo, x_hi] is the bracket
            found = _bracket(residual, lo, f_hi_prev, x_hi, step)
            if found is not None and found[0] == lo:
                flo = residual(lo)
                if flo != 0.0 and (flo < 0.0) == (f_hi_prev < 0.0):
                    found = (lo, found[1], flo, found[3])
                else:
                    found = None  # scan again, as below
        if found is None:
            flo = residual(lo)
            if flo == 0.0:
                lo += 1e-7 * max(1.0, abs(lo))
                flo = residual(lo)
                x_hi = max(lo + step, guess - 2.0 * step)
            found = _bracket(residual, lo, flo, x_hi, step)
        if found is None:
            raise NumericError(
                "no residual sign change found for ordinal %d (%s family) "
                "above lambda=%r" % (j, bc.value, lam_prev))
        root_lo, root_hi, flo, f_hi = found
        if root_lo == root_hi:
            lam = root_lo
        else:
            # Brent's bracket termination beats 1e-10*max(1, lambda); it
            # opens with the two bracket ends, whose residuals the scan has
            lam = _brent(residual, root_lo, root_hi, flo, f_hi,
                         1e-13, 1e-15, 200)
        hi_prev, f_hi_prev = root_hi, f_hi

        # every point Brent returns is one it or the scan evaluated
        g, dg = prop.recover(chains[lam], bc)
        zeros = _interior_sign_changes(g)
        expected = j - 1 if bc is BoundaryCondition.D else j
        if zeros > expected:
            # the scan stepped over a close pair of roots, whose residual
            # shows no net sign change, to a higher root: isolate this
            # ordinal's root by Sturm count between lo and that root
            def sturm(z):
                f = residual(z)
                return _sturm_count(*prop.recover(chains[z], bc), bc), f

            found = _isolate(sturm, lo, lam, expected)
            if found is not None:
                root_lo, root_hi, flo, f_hi = found
                lam = _brent(residual, root_lo, root_hi, flo, f_hi,
                             1e-13, 1e-15, 200)
                hi_prev, f_hi_prev = root_hi, f_hi
                g, dg = prop.recover(chains[lam], bc)
                zeros = _interior_sign_changes(g)
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
        pair = _normalized(pair, weight, grid, bc, om)
        funcs[stored] = pair.func
        dfuncs[stored] = pair.dfunc
        lambdas[stored] = lam
        stored += 1

    return EigenBasis(bc, weight, grid, lambdas, funcs, dfuncs)


def asymptotic_deviation(basis):
    """Sup-norm deviations from the asymptotic forms, per index:
    d_k = sup |psi_k - asym_k| and d1_k = sup |psi_k' - asym_k'|, asym_k
    being X_n_raw's a_k row, omega^{-1/2} cos(k Omega/2), for family C
    and its b_k row, omega^{-1/2} sin(k Omega/2), for D, read block by
    block on the basis grid (unit_blocks), so no more than one block's
    rows are held at once.

    Returns (k, d, d1) arrays.
    """
    own = 0 if basis.bc is BoundaryCondition.C else 1  # a_k, b_k rows
    d, d1 = np.empty((2, basis.k_max))
    for lo, hi, val, dval in unit_blocks(
            "X_n_raw", basis.k_max, weight=basis.weight, grid=basis.grid):
        k = slice(lo // 2, hi // 2)
        d[k] = np.max(np.abs(basis.funcs[k] - val[own::2]), axis=1)
        d1[k] = np.max(np.abs(basis.dfuncs[k] - dval[own::2]), axis=1)
    return np.arange(1, basis.k_max + 1), d, d1


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
