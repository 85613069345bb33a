"""Independent zero count of a piecewise cubic Hermite interpolant.

Every cell [x_i, x_i + h] of the storage grid carries the cubic

    p(s) = c0 + c1 s + c2 s^2 + c3 s^3,   s = (x - x_i)/h in [0, 1],

fixed by the grid values and slopes at its two ends.  The roots of p'
split the cell into at most three pieces on which p is monotone, so a
piece holds a root exactly when p changes sign across it.  The count of
the whole interpolant is therefore the number of sign changes along the
sequence of its values at the grid nodes and at the interior critical
points: the number of its zeros of odd multiplicity, which is what a
sign-change counter approximates.  Nothing here calls the program.
"""

import numpy as np


def hermite_coefficients(vals, ders, h):
    """Power-basis coefficients (c0, c1, c2, c3) of every cell, each of
    shape (rows, cells), from grid values and slopes of shape
    (rows, cells + 1)."""
    v0, v1 = vals[..., :-1], vals[..., 1:]
    g0, g1 = h * ders[..., :-1], h * ders[..., 1:]
    return (v0, g0, 3.0 * (v1 - v0) - 2.0 * g0 - g1,
            2.0 * (v0 - v1) + g0 + g1)


def _critical_points(c1, c2, c3):
    """Both roots of p'(s) = c1 + 2 c2 s + 3 c3 s^2 as arrays, NaN where
    a root is not real or p' has fewer roots."""
    a, b, c = 3.0 * c3, 2.0 * c2, c1
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    root = np.sqrt(np.where(real, disc, 0.0))
    # q = -(b + sign(b) sqrt(disc))/2 avoids cancellation; roots q/a, c/q
    q = -0.5 * (b + np.where(b >= 0.0, root, -root))
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = np.where(a != 0.0, q / a, np.where(b != 0.0, -c / b, np.nan))
        s2 = np.where((a != 0.0) & (q != 0.0), c / q, np.nan)
    s1 = np.where(real, s1, np.nan)
    s2 = np.where(real, s2, np.nan)
    return np.minimum(s1, s2), np.maximum(s1, s2)


def count_sign_changes(seq):
    """Sign changes along each row of seq, skipping zeros and NaNs."""
    sg = np.sign(np.nan_to_num(seq, nan=0.0))
    rows, cols = sg.shape
    pos = np.where(sg != 0.0, np.arange(cols), -1)
    last = np.maximum.accumulate(pos, axis=1)
    prev = np.full_like(last, -1)
    prev[:, 1:] = last[:, :-1]
    has_prev = (sg != 0.0) & (prev >= 0)
    prev_sign = np.take_along_axis(sg, np.maximum(prev, 0), axis=1)
    return np.count_nonzero(has_prev & (prev_sign != sg), axis=1)


def count_hermite_zeros(vals, ders, h):
    """Zeros of odd multiplicity of each row's piecewise cubic Hermite
    interpolant on the uniform grid of spacing h.

    vals and ders have shape (rows, points); returns an int array of
    shape (rows,).
    """
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    ders = np.atleast_2d(np.asarray(ders, dtype=float))
    if vals.shape != ders.shape or vals.shape[1] < 2:
        raise ValueError("values and slopes need one equal shape (rows, points)")
    c0, c1, c2, c3 = hermite_coefficients(vals, ders, h)
    lo, hi = _critical_points(c1, c2, c3)
    rows, cells = c0.shape
    seq = np.full((rows, 3 * cells + 1), np.nan)
    seq[:, 0] = vals[:, 0]
    for j, s in enumerate((lo, hi)):
        inside = (s > 0.0) & (s < 1.0)
        t = np.where(inside, s, 0.0)
        p = ((c3 * t + c2) * t + c1) * t + c0
        seq[:, 1 + j::3] = np.where(inside, p, np.nan)
    seq[:, 3::3] = vals[:, 1:]
    return count_sign_changes(seq)


# ----------------------------------------------------------------------
# grid values and slopes of the process kinds, written from their
# definitions: rows of A and B are coefficient vectors already scaled by
# 1/sqrt(n), x is the storage grid

def sine2_weight(x):
    """omega = (2 + sin x)/2, its derivative, and its integral from 0."""
    return 0.5 * (2.0 + np.sin(x)), 0.5 * np.cos(x), x + 0.5 * (1.0 - np.cos(x))


def trig_samples(A, B, x, freq, phase, dphase):
    """sum_k a_k cos(freq_k phase) + b_k sin(freq_k phase) and its x-slope."""
    ph = freq[:, None] * phase[None, :]
    C, S = np.cos(ph), np.sin(ph)
    vals = A @ C + B @ S
    ders = ((B * freq) @ C - (A * freq) @ S) * dphase
    return vals, ders


def samples(kind, A, B, x, basis_pair=None):
    """(values, slopes) on the grid x for kind T_n, perturbed (default
    perturbation eps_k = sin((k+1)x)/(2k), eta_k = cos((k+1)x)/(2k)),
    X_n or f_n, both of the latter for the sine2 weight."""
    n = A.shape[1]
    k = np.arange(1, n + 1, dtype=float)
    if kind in ("T_n", "perturbed"):
        vals, ders = trig_samples(A, B, x, k, x, 1.0)
        if kind == "perturbed":
            ph = (k + 1.0)[:, None] * x[None, :]
            s, c = np.sin(ph), np.cos(ph)
            amp = (1.0 / (2.0 * k))[:, None]
            vals = vals + A @ (s * amp) + B @ (c * amp)
            ders = ders + A @ (c * amp * (k + 1.0)[:, None]) \
                - B @ (s * amp * (k + 1.0)[:, None])
        return vals, ders
    om, dom, cum = sine2_weight(x)
    if kind == "X_n":
        return trig_samples(A, B, x, 0.5 * k, cum, om)
    if kind == "f_n":
        bc_c, bc_d = basis_pair
        F = A @ bc_c.funcs[:n] + B @ bc_d.funcs[:n]
        dF = A @ bc_c.dfuncs[:n] + B @ bc_d.dfuncs[:n]
        rt = np.sqrt(om)
        return rt * F, 0.5 * dom / rt * F + rt * dF
    raise ValueError("no recount for kind %r" % (kind,))
