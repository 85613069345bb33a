"""Zero counting for sampled oscillatory processes.

count_hermite_zeros counts exactly the zeros of piecewise cubic
Hermite interpolants given by their grid values and slopes, for a whole
batch of rows at once; it is the package's one counter.  On each grid
cell the cubic is written in Bernstein form, and Descartes' rule of
signs in that basis settles the cell when its control polygon has 0 or
1 sign variations (no zero, or exactly one).  The rule reads only the
control points' sign bits, so a row's count is the sign changes between
its nodes, corrected on the few cells that need more.  Those with more
variations are halved by de Casteljau subdivision until every piece is settled
(Lane & Riesenfeld 1981; Mourrain & Pavone 2009); a piece that is still
ambiguous at the depth limit is an unresolved tangency, which the row's
`certified` flag reports instead of counting it silently.

The harness counts every replicate of a chunk in one call.  count_zeros
counts one process on an interval: it samples the process's value and
slope on a uniform grid of 16 cells per unit of n and counts the
interpolant of those samples the same way.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .weights import TWO_PI

log = logging.getLogger(__name__)

# Halvings of a cell before an ambiguous piece counts as an unresolved
# tangency.  Around a double root the control points of a piece of width
# 2**-20 cells are about 1e-12 of the cell's scale: deeper, the rounding
# of the subdivision itself could decide their signs.
_SUBDIVISION_DEPTH = 20
_ROW_BLOCK = 8
_CELLS_PER_N = 16  # count_zeros's grid: cells per unit of the process's n


@dataclass(frozen=True)
class ZeroCountResult:
    count: int
    stable: bool  # certified: the count holds no unresolved tangency


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


def _mean(x, y):
    """(x + y) / 2, but x + y where that halves to zero: a sum of one
    least subnormal would round to 0.0 and lose the sign that
    Descartes' rule reads."""
    total = x + y
    half = 0.5 * total
    return np.where(half == 0.0, total, half)


def _halve(P):
    """de Casteljau split of every piece at its midpoint."""
    b0, b1, b2, b3 = P.T
    c01, c12, c23 = _mean(b0, b1), _mean(b1, b2), _mean(b2, b3)
    d0, d1 = _mean(c01, c12), _mean(c12, c23)
    mid = _mean(d0, d1)
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
    1 means exactly one, so such a cell holds a zero exactly when its
    nodes' signs differ; only the control points' sign bits are read.
    Cells with more variations, or with a zero node, are special, and
    each row's count of node sign changes is corrected on them.  Cells
    with more variations are halved by de
    Casteljau subdivision until every piece has at most one; a piece
    still ambiguous after _SUBDIVISION_DEPTH halvings is an unresolved
    tangency.  Returns (counts, certified): int64 counts and a boolean
    flag per row, False when the row holds an unresolved tangency.  Such
    a row is counted as if every unresolved piece held as many zeros as
    its sign variations mod 2, so the parity stays exact, and is logged
    at WARNING as "<label> <row id>", with row_ids[i] (default i) as the
    id of row i; a row_ids of another length than the rows is refused.
    """
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    ders = np.atleast_2d(np.asarray(ders, dtype=float))
    if vals.shape != ders.shape or vals.shape[1] < 2:
        raise DomainError("values and slopes need one shape (rows, points >= 2), "
                          "got %r and %r" % (vals.shape, ders.shape))
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError("grid spacing must be positive and finite, got %r"
                          % (h,))
    rows = vals.shape[0]
    if row_ids is not None and len(row_ids) != rows:
        raise DomainError("row_ids names %d rows, but there are %d"
                          % (len(row_ids), rows))
    third = h / 3.0
    counts = np.zeros(rows, dtype=np.int64)
    found_rows, found_cells, found = [], [], []
    # row blocks keep the temporaries to a few MB on long grids; every
    # block carves b1 and b2 and five 1-byte masks from this one buffer,
    # so the blocks take no fresh pages from the system
    cells = vals.shape[1] - 1
    work = np.empty(min(rows, _ROW_BLOCK) * (21 * cells + 2), dtype=np.uint8)
    for lo in range(0, rows, _ROW_BLOCK):
        v = vals[lo:lo + _ROW_BLOCK]
        d = ders[lo:lo + _ROW_BLOCK]
        m = len(v)
        b0, b3 = v[:, :-1], v[:, 1:]
        b12 = work[:16 * m * cells].view(np.float64)
        b1, b2 = b12.reshape(2, m, cells)
        np.multiply(d[:, :-1], third, out=b1)
        b1 += b0
        np.multiply(d[:, 1:], -third, out=b2)
        b2 += b3
        # b1 and b2 read every value and slope, so a finite sum proves
        # them finite; an overflowing sum of finite ones is checked again
        if not math.isfinite(np.sum(b12)) and not (
                np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            raise DomainError("non-finite value or slope in row block at %d" % lo)
        masks = work[16 * m * cells:m * (21 * cells + 2)].view(bool)
        sv, zv = masks[:2 * m * (cells + 1)].reshape(2, m, cells + 1)
        d01, d12, d23 = masks[2 * m * (cells + 1):].reshape(3, m, cells)
        # Descartes' rule needs only the control points' signs: d01, d12
        # and d23 flag the sign changes between neighbours
        np.signbit(v, out=sv)
        np.signbit(b1, out=d12)
        np.signbit(b2, out=d23)
        np.not_equal(sv[:, :-1], d12, out=d01)
        np.not_equal(d12, d23, out=d12)
        np.not_equal(d23, sv[:, 1:], out=d23)
        variations = d01.view(np.int8)
        variations += d12.view(np.int8)
        variations += d23.view(np.int8)
        # cells with a zero node or 2-3 variations are resolved below;
        # every other cell holds exactly one simple zero if its nodes'
        # signs differ and none if not.  A zero b1 or b2 needs no test:
        # whatever sign it takes, the polygon varies at least as often as
        # with the zero skipped, so 0 or 1 variations stay exact.
        special = np.greater_equal(variations, 2, out=d23)
        np.equal(v, 0.0, out=zv)
        special |= zv[:, :-1]
        special |= zv[:, 1:]
        changes = np.not_equal(sv[:, :-1], sv[:, 1:], out=d01)
        # a count per row is several times faster than one along axis 1
        counts[lo:lo + m] = [np.count_nonzero(row) for row in changes]
        if special.any():
            cell = np.flatnonzero(special)
            r, c = np.divmod(cell, cells)
            np.subtract.at(counts, lo + r, changes.ravel()[cell])
            found_rows.append(lo + r)
            found_cells.append(c)
            found.append(np.stack((b0[r, c], b1.ravel()[cell], b2.ravel()[cell],
                                   b3[r, c]), axis=1))
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


def count_zeros(proc, interval=(0.0, TWO_PI)):
    """Count the zeros of a process on the interval.

    proc is a RandomProcess, from build_process or stationary_pullback.  Its
    value and slope are sampled together on a uniform grid of
    _CELLS_PER_N * proc.n cells of the interval, and the cubic Hermite
    interpolant of the samples is counted with count_hermite_zeros;
    `stable` is that row's certified flag.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (b >= a and math.isfinite(a) and math.isfinite(b)):
        raise DomainError("invalid interval (%r, %r)" % (a, b))
    if b == a:
        return ZeroCountResult(count=0, stable=True)
    cells = _CELLS_PER_N * proc.n
    vals, ders = proc.samples(np.linspace(a, b, cells + 1))
    counts, certified = count_hermite_zeros(vals, ders, (b - a) / cells)
    return ZeroCountResult(count=int(counts[0]), stable=bool(certified[0]))


def count_zeros_changed_variable(proc, T):
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
    t_end = proc.omega(T)
    res_raw = count_zeros(proc, (0.0, T))
    res_pull = count_zeros(proc.stationary_pullback(), (0.0, t_end))
    if res_raw.count != res_pull.count:
        raise InvariantViolation(
            "change-of-variables count mismatch: %d zeros on [0, %.12g] but %d "
            "on [0, %.12g] after the change of variables"
            % (res_raw.count, T, res_pull.count, t_end))
    return res_raw, res_pull
