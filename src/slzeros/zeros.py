"""Zero counting for sampled oscillatory processes.

Two counters live here.

count_hermite_zeros counts exactly the zeros of piecewise cubic
Hermite interpolants given by their grid values and slopes, for a whole
batch of rows at once; the harness counts every replicate with it.  On
each grid cell the cubic is written in Bernstein form, and Descartes'
rule of signs in that basis settles the cell when its control polygon
has 0 or 1 sign variations (no zero, or exactly one).  The rare cells
with more are halved by de Casteljau subdivision until every piece is
settled (Lane & Riesenfeld 1981; Mourrain & Pavone 2009); a piece that
is still ambiguous at the depth limit is an unresolved tangency, which
the row's `certified` flag reports instead of counting it silently.

count_zeros counts the zeros of an arbitrary vectorized callable.  It
scans a uniform grid sized by an oversampling constant times the
expected frequency, refines every strict sign change by bisection, and
doubles the scan grid until two consecutive counts agree.  A zero pair
that falls strictly between two scan nodes leaves no sign change at any
grid the doubling rule happens to stop at, so the final grid also gets
a dip audit: every same-sign node triple with a local minimum of |P| is
fitted with the exact parabola through its three points, and when the
vertex lies inside the triple and undercuts half the center value the
two-cell window is rescanned densely.  Near-tangencies (a predicted or
tiny dip without a resolvable sign change) are logged and reported,
never silently counted; a zero landing exactly on a scan node triggers
a half-spacing grid perturbation and a recount.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation, NumericError
from .weights import TWO_PI

log = logging.getLogger(__name__)

DEFAULT_SCAN_CONSTANT = 16
_REFINE_WIDTH = 1e-12
_NODE_ZERO_REL = 1e-13
_TANGENCY_REL = 1e-9
_DIP_VERTEX_FRACTION = 0.5  # audit valleys whose fitted vertex undercuts this
_DIP_SUBCELLS = 512
# Halvings of a cell before an ambiguous piece counts as an unresolved
# tangency.  Around a double root the control points of a piece of width
# 2**-20 cells are about 1e-12 of the cell's scale: deeper, the rounding
# of the subdivision itself could decide their signs.
_SUBDIVISION_DEPTH = 20
_ROW_BLOCK = 8


@dataclass(frozen=True)
class ZeroCountResult:
    count: int
    locations: np.ndarray
    grid_factor: int       # scan points per unit of n_hint actually used
    stable: bool
    near_tangencies: tuple = ()
    scale: float = 0.0


def _scan_nodes(a, b, cells, shift):
    h = (b - a) / cells
    if not shift:
        return np.linspace(a, b, cells + 1)
    inner = a + (np.arange(cells) + 0.5) * h
    return np.concatenate(([a], inner, [b]))


def _refine(P, lo, hi, flo):
    """Vector bisection of bracketed sign changes to width 1e-12."""
    lo = lo.copy()
    hi = hi.copy()
    flo = flo.copy()
    for _ in range(64):
        w = hi - lo
        if not np.any(w > _REFINE_WIDTH):
            break
        mid = 0.5 * (lo + hi)
        fm = np.asarray(P(mid), dtype=float)
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    else:
        raise NumericError("bisection failed to reach width %g" % _REFINE_WIDTH)
    return 0.5 * (lo + hi)


def _count_on_grid(P, a, b, cells, shift=False):
    xs = _scan_nodes(a, b, cells, shift)
    vals = np.asarray(P(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = xs[int(np.argmin(np.isfinite(vals)))]
        raise DomainError("process evaluated to a non-finite value at x=%r" % (bad,))
    scale = float(np.max(np.abs(vals)))
    return xs, vals, scale


def _dip_audit(P, xs, vals, scale):
    """Hunt for zero pairs hiding strictly between scan nodes.

    Such a pair leaves a same-sign valley: a local minimum of |P| at an
    interior node whose neighbors share its sign.  The parabola through
    the three points (exact divided differences, so uneven end spacing
    is handled) predicts the dip bottom; when the vertex lies inside
    the triple and undercuts half the center value, the two-cell window
    is rescanned with _DIP_SUBCELLS cells and any crossings found are
    bisected.  A predicted crossing that the dense rescan cannot
    resolve is returned as a near-tangency note, never counted.

    Returns (extra_zero_locations, tangency_notes).
    """
    if xs.size < 3:
        return np.empty(0), ()
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    v0, v1, v2 = vals[:-2], vals[1:-1], vals[2:]
    sg = np.sign(v1)
    w0, w1, w2 = sg * v0, sg * v1, sg * v2
    valley = (v0 * v1 > 0.0) & (v1 * v2 > 0.0) & (w1 < w0) & (w1 <= w2)
    d1 = (w1 - w0) / (x1 - x0)
    d2 = (w2 - w1) / (x2 - x1)
    c2 = (d2 - d1) / (x2 - x0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_star = 0.5 * (x0 + x1) - d1 / (2.0 * c2)
        vertex = w0 + d1 * (x_star - x0) + c2 * (x_star - x0) * (x_star - x1)
    flagged = (valley & (c2 > 0.0) & (x_star > x0) & (x_star < x2)
               & (vertex < _DIP_VERTEX_FRACTION * w1))
    extra = []
    notes = []
    for i in np.nonzero(flagged)[0]:
        lo, hi = float(x0[i]), float(x2[i])
        shift = False
        for _ in range(3):
            sub_x, sub_v, _ = _count_on_grid(P, lo, hi, _DIP_SUBCELLS, shift)
            if not np.any(np.abs(sub_v) <= _NODE_ZERO_REL * scale):
                break
            shift = True
        else:
            raise NumericError("dip-audit nodes keep landing on zeros of "
                               "the process near x=%r" % (float(x1[i]),))
        idx = np.nonzero(sub_v[:-1] * sub_v[1:] < 0.0)[0]
        if idx.size:
            found = _refine(P, sub_x[idx], sub_x[idx + 1], sub_v[idx])
            log.info("dip audit resolved %d zeros missed by the scan in "
                     "(%.12g, %.12g)", idx.size, lo, hi)
            extra.append(found)
        elif vertex[i] < 0.0:
            notes.append(float(x_star[i]))
            log.info("dip audit predicted a crossing near x=%.12g but the "
                     "dense rescan found none", x_star[i])
    extra = np.concatenate(extra) if extra else np.empty(0)
    return extra, tuple(notes)


def count_zeros(P, interval=(0.0, TWO_PI), n_hint=1,
                scan_constant=DEFAULT_SCAN_CONSTANT, max_doublings=3):
    """Count the zeros of P on the interval.

    P must be a vectorized callable.  n_hint sizes the scan grid
    (scan_constant * n_hint cells before doubling).  Sign changes are
    refined by bisection to |dx| <= 1e-12; the count is accepted once
    two consecutive grid sizes agree, with at most `max_doublings`
    doublings (stable=False if they never agree).  The final grid then
    gets a dip audit (see _dip_audit): zero pairs hiding strictly
    between scan nodes are recovered by a dense rescan of any same-sign
    valley whose fitted parabola dips toward zero, so the count does
    not depend on where the doubling rule happened to stop.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (b >= a and math.isfinite(a) and math.isfinite(b)):
        raise DomainError("invalid interval (%r, %r)" % (a, b))
    if n_hint < 1:
        raise DomainError("n_hint must be >= 1, got %r" % (n_hint,))
    if b == a:
        return ZeroCountResult(count=0, locations=np.empty(0),
                               grid_factor=0, stable=True)

    cells = int(scan_constant) * int(n_hint)
    prev_count = None
    doublings = 0
    while True:
        shift = False
        for _ in range(3):
            xs, vals, scale = _count_on_grid(P, a, b, cells, shift)
            if scale == 0.0:
                raise DomainError("process is identically zero on the scan grid")
            on_node = np.abs(vals) <= _NODE_ZERO_REL * scale
            if not np.any(on_node):
                break
            shift = True  # a zero sits on a node: perturb by half-spacing
        else:
            raise NumericError("scan nodes keep landing on zeros of the process")

        change = vals[:-1] * vals[1:] < 0.0
        count = int(np.count_nonzero(change))

        if prev_count is not None and count == prev_count:
            stable = True
            break
        if doublings >= max_doublings:
            stable = False
            log.warning("zero count did not stabilize: %r then %r at %d cells",
                        prev_count, count, cells)
            break
        prev_count = count
        cells *= 2
        doublings += 1

    idx = np.nonzero(change)[0]
    locations = (_refine(P, xs[idx], xs[idx + 1], vals[idx])
                 if idx.size else np.empty(0))

    extra, dip_notes = _dip_audit(P, xs, vals, scale)
    if extra.size:
        locations = np.sort(np.concatenate([locations, extra]))
        count += int(extra.size)

    # near-tangency audit: tiny interior values without a sign change
    tiny = np.abs(vals) < _TANGENCY_REL * scale
    if np.any(tiny):
        neighbor = np.zeros_like(tiny)
        neighbor[:-1] |= change
        neighbor[1:] |= change
        suspicious = tiny & ~neighbor
        suspicious[0] = suspicious[-1] = False
        tangencies = tuple(float(t) for t in xs[suspicious]) + dip_notes
        if tangencies:
            log.info("near-tangency (no sign change, |P| < %g*scale) at %s",
                     _TANGENCY_REL, tangencies)
    else:
        tangencies = dip_notes

    # parity must match the endpoint signs when they are trustworthy
    if abs(vals[0]) > _TANGENCY_REL * scale and abs(vals[-1]) > _TANGENCY_REL * scale:
        same_sign = vals[0] * vals[-1] > 0.0
        if same_sign != (count % 2 == 0):
            raise InvariantViolation(
                "zero-count parity violated: %d zeros but endpoint values %r, %r"
                % (count, vals[0], vals[-1]))

    return ZeroCountResult(
        count=count, locations=locations,
        grid_factor=int(round(cells / max(n_hint, 1))),
        stable=stable, near_tangencies=tangencies, scale=scale)


def _bernstein_signs(P):
    """Sign variations along each row of Bernstein coefficients P
    (pieces, 4), skipping zeros, with the sign of the first and of the
    last nonzero coefficient: the signs of the cubic just inside the
    left and the right end of its piece (0 for a piece of zeros)."""
    s = np.sign(P)
    variations = np.zeros(len(P), dtype=np.int64)
    last = s[:, 0]
    for j in range(1, 4):
        sj = s[:, j]
        variations += (sj != 0.0) & (last != 0.0) & (sj != last)
        last = np.where(sj != 0.0, sj, last)
    first = s[:, 3]
    for j in (2, 1, 0):
        first = np.where(s[:, j] != 0.0, s[:, j], first)
    return variations, first, last


def _halve(P):
    """de Casteljau split of every piece at its midpoint."""
    b0, b1, b2, b3 = P.T
    c01, c12, c23 = 0.5 * (b0 + b1), 0.5 * (b1 + b2), 0.5 * (b2 + b3)
    d0, d1 = 0.5 * (c01 + c12), 0.5 * (c12 + c23)
    mid = 0.5 * (d0 + d1)
    return (np.stack((b0, c01, d0, mid), axis=1),
            np.stack((mid, d1, c23, b3), axis=1))


def _resolve_cells(P):
    """Zeros of odd multiplicity strictly inside each cell of P
    (cells, 4), by Descartes' rule on the Bernstein coefficients and
    de Casteljau halving of every piece with two or more variations.

    Returns (counts, unresolved, first, last); first/last are the cell's
    end signs from _bernstein_signs.  A piece still ambiguous after
    _SUBDIVISION_DEPTH halvings, or identically zero, leaves its cell
    unresolved and adds its variations mod 2, which keeps the parity of
    the count exact.
    """
    cells = len(P)
    counts = np.zeros(cells, dtype=np.int64)
    unresolved = np.zeros(cells, dtype=bool)
    variations, first, last = _bernstein_signs(P)
    owner = np.arange(cells)
    flat = first == 0.0
    for depth in range(_SUBDIVISION_DEPTH + 1):
        unresolved[owner[flat]] = True
        settled = (variations <= 1) & ~flat
        np.add.at(counts, owner[settled], variations[settled])
        ambiguous = (variations >= 2) & ~flat
        if not np.any(ambiguous):
            break
        owner, P = owner[ambiguous], P[ambiguous]
        if depth == _SUBDIVISION_DEPTH:
            unresolved[owner] = True
            np.add.at(counts, owner, variations[ambiguous] % 2)
            break
        left, right = _halve(P)
        v_left, first_left, last_left = _bernstein_signs(left)
        v_right, first_right, last_right = _bernstein_signs(right)
        # a zero exactly at the midpoint is a sign change when the
        # halves' signs next to it differ; elsewhere both equal sign(mid)
        np.add.at(counts, owner, last_left != first_right)
        owner = np.concatenate((owner, owner))
        P = np.concatenate((left, right))
        variations = np.concatenate((v_left, v_right))
        flat = np.concatenate((first_left, first_right)) == 0.0
    return counts, unresolved, first, last


def count_hermite_zeros(vals, ders, h, label="row", row_ids=None):
    """Exact zero counts of piecewise cubic Hermite interpolants.

    vals and ders hold grid values and slopes of shape (rows, points)
    on a uniform grid of spacing h.  Each row is counted as the number
    of sign changes of its interpolant, i.e. its zeros of odd
    multiplicity; a grid value that is exactly zero is a zero when the
    signs on its two sides differ, and a zero at either end of the
    interval is not counted.

    Every cell is written in Bernstein form with control points
    v0, v0 + h*d0/3, v1 - h*d1/3, v1.  By Descartes' rule in the
    Bernstein basis, 0 sign variations mean no zero inside the cell and
    1 means exactly one.  Cells with more variations are halved by de
    Casteljau subdivision until every piece has at most one; a piece
    still ambiguous after _SUBDIVISION_DEPTH halvings is an unresolved
    tangency.  Returns (counts, certified): int64 counts and a boolean
    flag per row, False when the row holds an unresolved tangency.  Such
    a row is counted as if every unresolved piece held as many zeros as
    its sign variations mod 2, so the parity stays exact, and is logged
    at WARNING as "<label> <row id>", with row_ids[i] (default i) as the
    id of row i.
    """
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    ders = np.atleast_2d(np.asarray(ders, dtype=float))
    if vals.shape != ders.shape or vals.shape[1] < 2:
        raise DomainError("values and slopes need one shape (rows, points >= 2), "
                          "got %r and %r" % (vals.shape, ders.shape))
    if not h > 0.0:
        raise DomainError("grid spacing must be positive, got %r" % (h,))
    rows = vals.shape[0]
    third = h / 3.0
    counts = np.zeros(rows, dtype=np.int64)
    found_rows, found_cells, found = [], [], []
    # row blocks keep the temporaries to a few MB on long grids
    for lo in range(0, rows, _ROW_BLOCK):
        v = vals[lo:lo + _ROW_BLOCK]
        d = ders[lo:lo + _ROW_BLOCK]
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            raise DomainError("non-finite value or slope in row block at %d" % lo)
        b0, b3 = v[:, :-1], v[:, 1:]
        b1 = d[:, :-1] * third
        b1 += b0
        b2 = d[:, 1:] * -third
        b2 += b3
        p01, p12, p23 = b0 * b1, b1 * b2, b2 * b3
        changes = (p01 < 0.0).view(np.int8) + (p12 < 0.0).view(np.int8)
        changes += (p23 < 0.0).view(np.int8)
        # cells with a zero control point or 2-3 variations are resolved
        # below; every other cell holds exactly `changes` simple zeros
        special = (p01 == 0.0) | (p12 == 0.0) | (p23 == 0.0) | (changes >= 2)
        counts[lo:lo + len(v)] = np.sum(changes, axis=1, dtype=np.int64)
        r, c = np.nonzero(special)
        if r.size:
            np.subtract.at(counts, lo + r, changes[r, c])
            found_rows.append(lo + r)
            found_cells.append(c)
            found.append(np.stack((b0[r, c], b1[r, c], b2[r, c], b3[r, c]), axis=1))
    certified = np.ones(rows, dtype=bool)
    if found:
        r = np.concatenate(found_rows)
        c = np.concatenate(found_cells)
        P = np.concatenate(found)
        inside, unresolved, first, last = _resolve_cells(P)
        np.add.at(counts, r, inside)
        certified[r[unresolved]] = False
        # a zero node is special in both cells that share it, and the
        # cells are listed in (row, cell) order, so its left cell is the
        # entry just before it
        node = np.nonzero((c > 0) & (P[:, 0] == 0.0))[0]
        np.add.at(counts, r[node], last[node - 1] != first[node])
        for i in np.nonzero(~certified)[0]:
            log.warning("zero count did not stabilize: %s %d holds an "
                        "unresolved tangency; %d zeros counted", label,
                        i if row_ids is None else row_ids[i], counts[i])
    ends = vals[:, 0] * vals[:, -1]
    bad = certified & (ends != 0.0) & ((ends > 0.0) != (counts % 2 == 0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvariantViolation(
            "zero-count parity violated in row %d: %d zeros but endpoint "
            "values %r, %r" % (i, counts[i], vals[i, 0], vals[i, -1]))
    return counts, certified


def standardize_count(count, expected_mean, n):
    """(count - expected_mean) / sqrt(n)."""
    if n < 1:
        raise DomainError("n must be >= 1, got %r" % (n,))
    return (count - expected_mean) / math.sqrt(n)


def count_zeros_changed_variable(proc, T, scan_constant=DEFAULT_SCAN_CONSTANT):
    """Count zeros of the raw (unweighted) comparison process on [0, T]
    and of its stationary pullback on [0, Omega(T)]; the two counts
    must agree exactly, else the cumulative map or the grid is broken.

    Returns (result_raw, result_pullback).
    """
    if getattr(proc, "kind", None) != "X_n_raw":
        raise DomainError("count_zeros_changed_variable needs an X_n_raw process, "
                          "got kind %r" % (getattr(proc, "kind", None),))
    T = float(T)
    if not (0.0 <= T <= TWO_PI + 1e-12):
        raise DomainError("T=%r outside [0, 2*pi]" % (T,))
    T = min(T, TWO_PI)
    pull = proc.stationary_pullback()
    t_end = proc.omega(T)
    res_raw = count_zeros(proc.value, (0.0, T), n_hint=proc.n,
                          scan_constant=scan_constant)
    res_pull = count_zeros(pull.value, (0.0, t_end), n_hint=proc.n,
                           scan_constant=scan_constant)
    if res_raw.count != res_pull.count:
        raise InvariantViolation(
            "change-of-variables count mismatch: %d zeros on [0, %.12g] but %d "
            "on [0, %.12g] after the change of variables"
            % (res_raw.count, T, res_pull.count, t_end))
    return res_raw, res_pull
