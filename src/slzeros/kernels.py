"""Covariance kernels and expected zero counts.

The half-frequency comparison process is stationary after the change
of variables, and its covariance is the normalized Dirichlet-type sum

    r_n(t) = (1/n) * sum_{k=1..n} cos(k t).

This module evaluates r_n and its first two derivatives in closed
form (with a Taylor branch near t = 0 where the sin(t/2) denominators
cancel), packages the exact second-order data (variances of a process
and its derivative) for the comparison processes, and integrates the
Kac-Rice first-moment intensity to get expected zero counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .weights import TWO_PI, omega_map

# Switch to the Taylor branch while m*|t|/2 < _TAYLOR_MU.  The closed-form
# quotients cancel *relative to m*u*, so a fixed cut in t would leave the
# small-n second derivative with ~eps/(m*u)^2 relative error just above it;
# scaling the cut with 1/m keeps both branches below ~1e-13 everywhere.
_TAYLOR_MU = 0.2


def _power_sums(n):
    # S_p = sum_{k=1..n} k^p for p = 2, 4, 6, 8 (exact in float for n <= 1e4)
    s2 = n * (n + 1) * (2 * n + 1) / 6.0
    s4 = n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) / 30.0
    s6 = n * (n + 1) * (2 * n + 1) * (3 * n ** 4 + 6 * n ** 3 - 3 * n + 1) / 42.0
    s8 = n * (n + 1) * (2 * n + 1) * (
        5 * n ** 6 + 15 * n ** 5 + 5 * n ** 4 - 15 * n ** 3
        - n * n + 9 * n - 3) / 90.0
    return s2, s4, s6, s8


def r_n_closed(n, t):
    """(r_n(t), r_n'(t), r_n''(t)) in closed form, scalar or array.

    Writes sum cos(kt) = (sin(m u)/sin(u) - 1)/2 with u = t/2 and
    m = 2n+1; derivatives are the quotient-rule expressions.  Near the
    removable singularity (m |t|/2 below 0.2) a degree-8 Taylor
    expansion in t replaces the quotients.
    """
    if n < 1 or int(n) != n:
        raise DomainError("kernel order must be a positive integer, got %r" % (n,))
    n = int(n)
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = np.atleast_1d(ts).copy()
    # reduce mod 2*pi into [-pi, pi]; r_n and derivatives are 2*pi-periodic
    ts -= TWO_PI * np.round(ts / TWO_PI)

    m = 2 * n + 1
    small = np.abs(ts) * (0.5 * m) < _TAYLOR_MU
    u = np.where(small, 0.25, 0.5 * ts)  # dummy value where the Taylor branch wins
    su, cu = np.sin(u), np.cos(u)
    smu, cmu = np.sin(m * u), np.cos(m * u)

    g = smu / su
    num1 = m * cmu * su - smu * cu
    g1 = num1 / su ** 2
    g2 = ((1.0 - m * m) * smu * su ** 2 - 2.0 * cu * num1) / su ** 3

    r = (g - 1.0) / (2.0 * n)
    r1 = g1 / (4.0 * n)
    r2 = g2 / (8.0 * n)

    if np.any(small):
        s2, s4, s6, s8 = _power_sums(n)
        tt = ts[small]
        t2 = tt * tt
        r[small] = (1.0 - s2 * t2 / (2 * n) + s4 * t2 * t2 / (24 * n)
                    - s6 * t2 ** 3 / (720 * n) + s8 * t2 ** 4 / (40320 * n))
        r1[small] = tt * (-s2 / n + s4 * t2 / (6 * n)
                          - s6 * t2 * t2 / (120 * n) + s8 * t2 ** 3 / (5040 * n))
        r2[small] = (-s2 / n + s4 * t2 / (2 * n)
                     - s6 * t2 * t2 / (24 * n) + s8 * t2 ** 3 / (720 * n))

    if scalar:
        return float(r[0]), float(r1[0]), float(r2[0])
    return r, r1, r2


def covariance_X(n, weight, x, y, grid=None):
    """Covariance of the weighted comparison process at (x, y):
    r_n((Omega(x) - Omega(y))/2)."""
    om = omega_map(weight, grid)
    return r_n_closed(n, 0.5 * (om.forward(x) - om.forward(y)))[0]


@dataclass(frozen=True)
class ProcessSecondOrder:
    """Pointwise second-order data of a differentiable process:
    var0(x) = var Z(x), var1(x) = var Z'(x), cov01(x) = cov(Z, Z')."""

    var0: object
    var1: object
    cov01: object


def second_order_exact(n, weight, grid=None):
    """Exact second-order data of the weighted comparison process.

    var0 = 1, cov01 = 0, var1(x) = omega(x)^2 (n+1)(2n+1)/24 — the
    half-frequency analogue of -r_n''(0) scaled by (Omega'/2)^2.
    """
    if n < 1:
        raise DomainError("n must be >= 1, got %r" % (n,))
    c = (n + 1) * (2 * n + 1) / 24.0

    def var1(x, w=weight, c=c):
        om = np.asarray(w.eval(x), dtype=float)
        return om * om * c

    return ProcessSecondOrder(
        var0=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        var1=var1,
        cov01=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def second_order_stationary(n):
    """Exact second-order data of the full-frequency stationary
    polynomial: var0 = 1, cov01 = 0, var1 = (n+1)(2n+1)/6 = -r_n''(0)."""
    c = (n + 1) * (2 * n + 1) / 6.0
    return ProcessSecondOrder(
        var0=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        var1=lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c),
        cov01=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def kac_rice_expected(so, interval):
    """Expected zero count on the interval by the first-moment formula:

        E N = (1/pi) * integral sqrt(var0*var1 - cov01^2) / var0.

    Adaptive quadrature, relative error <= 1e-8.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (b >= a):
        raise DomainError("empty interval (%r, %r)" % (a, b))
    if b == a:
        return 0.0

    probe = np.linspace(a, b, 65)
    v0p = np.asarray(so.var0(probe), dtype=float)
    if np.any(v0p <= 0.0):
        bad = probe[np.argmin(v0p)]
        raise DomainError("var0 <= 0 at x=%.6f; Kac-Rice intensity undefined" % bad)
    v1p = np.asarray(so.var1(probe), dtype=float)
    cp = np.asarray(so.cov01(probe), dtype=float)
    slack = cp * cp - v0p * v1p
    if np.any(slack > 1e-9 * np.maximum(v0p * v1p, 1e-300) + 1e-12):
        i = int(np.argmax(slack))
        raise InvariantViolation(
            "Cauchy-Schwarz violated at x=%.6f: cov01^2=%r > var0*var1=%r"
            % (probe[i], cp[i] ** 2, v0p[i] * v1p[i]))

    def intensity(x):
        v0 = float(so.var0(x))
        if v0 <= 0.0:
            raise DomainError("var0 <= 0 at x=%r inside Kac-Rice integral" % (x,))
        v1 = float(so.var1(x))
        c = float(so.cov01(x))
        disc = max(v0 * v1 - c * c, 0.0)
        return math.sqrt(disc) / (v0 * math.pi)

    from scipy.integrate import quad  # here: importing scipy takes 0.5 s

    val, err = quad(intensity, a, b, epsabs=1e-12, epsrel=1e-8, limit=200)
    return float(val)


def expected_count_closed(n, kind):
    """Closed-form expected zero counts on [0, 2*pi]: half-frequency
    comparison process (weight-independent) and full-frequency
    stationary polynomial."""
    if kind in ("X_n", "X_n_raw"):
        return 2.0 * math.sqrt((n + 1) * (2 * n + 1) / 24.0)
    if kind == "T_n":
        return 2.0 * math.sqrt((n + 1) * (2 * n + 1) / 6.0)
    raise DomainError("no closed-form expected count for kind %r" % (kind,))
