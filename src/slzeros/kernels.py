"""Covariance kernels and expected zero counts.

The half-frequency comparison process is stationary after the change
of variables, and its covariance is the normalized Dirichlet-type sum

    r_n(t) = (1/n) * sum_{k=1..n} cos(k t).

This module evaluates r_n and its first two derivatives in closed
form (with a Taylor branch near t = 0 where the sin(t/2) denominators
cancel), and gives the expected zero counts on [0, 2*pi] of the
half-frequency process X_n and the stationary polynomial T_n twice:
by numpy's Gauss-Legendre quadrature of the Kac-Rice first-moment
intensity, and in closed form.  Every function here refuses an order n
that is not a positive integer.
"""

import math

import numpy as np

from .errors import DomainError, is_integral
from .weights import TWO_PI, omega_map

# Switch to the Taylor branch while m*|t|/2 < _TAYLOR_MU.  The closed-form
# quotients cancel *relative to m*u*, so a fixed cut in t would leave the
# small-n second derivative with ~eps/(m*u)^2 relative error just above it;
# scaling the cut with 1/m keeps both branches below ~1e-13 everywhere.
_TAYLOR_MU = 0.2


def _check_order(n):
    """n as an int, or DomainError unless it is a positive integer."""
    if not is_integral(n) or n < 1:
        raise DomainError("order n must be a positive integer, got %r" % (n,))
    return int(n)


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
    n = _check_order(n)
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


def covariance_X(n, weight, x, y, grid):
    """Covariance of the weighted comparison process at (x, y):
    r_n((Omega(x) - Omega(y))/2), with Omega tabulated on the grid."""
    om = omega_map(weight, grid)
    return r_n_closed(n, 0.5 * (om.forward(x) - om.forward(y)))[0]


def kac_rice_expected(n, kind, weight=None):
    """Expected zero count on [0, 2*pi] by the Kac-Rice first-moment
    formula, E N = (1/pi) * integral sqrt(var Z'(x)) dx for a process of
    unit variance whose value and slope are uncorrelated:

    - X_n (half frequencies, any weight): var X_n'(x) =
      omega(x)^2 (n+1)(2n+1)/24, the analogue of -r_n''(0) scaled by
      (Omega'/2)^2; the weight is required;
    - T_n (full frequencies): var T_n' = (n+1)(2n+1)/6 = -r_n''(0).

    The intensity is sqrt(c) * omega(x) / pi, with omega = 1 for T_n,
    and the integral of omega over [0, 2*pi] is pi * sum w_i omega(x_i)
    with 64-node Gauss-Legendre nodes x_i and weights w_i;
    expected_count_closed gives the same counts in closed form.
    """
    n = _check_order(n)
    if kind == "X_n":
        if weight is None:
            raise DomainError("kac_rice_expected(kind='X_n') needs a weight")
        omega, c = weight.eval, (n + 1) * (2 * n + 1) / 24.0
    elif kind == "T_n":
        omega, c = np.ones_like, (n + 1) * (2 * n + 1) / 6.0
    else:
        raise DomainError("no Kac-Rice intensity for kind %r" % (kind,))
    nodes, w = np.polynomial.legendre.leggauss(64)
    # (1/pi) * sqrt(c) * (pi * sum w_i omega(x_i)): the pi's cancel
    return math.sqrt(c) * float(w @ omega(math.pi * (1.0 + nodes)))


def expected_count_closed(n, kind):
    """Closed-form expected zero counts on [0, 2*pi]: half-frequency
    comparison process (weight-independent) and full-frequency
    stationary polynomial."""
    n = _check_order(n)
    if kind in ("X_n", "X_n_raw"):
        return 2.0 * math.sqrt((n + 1) * (2 * n + 1) / 24.0)
    if kind == "T_n":
        return 2.0 * math.sqrt((n + 1) * (2 * n + 1) / 6.0)
    raise DomainError("no closed-form expected count for kind %r" % (kind,))
