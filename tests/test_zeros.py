"""Zero counting: count_zeros on processes, exact Hermite counts
against an independent oracle, change of variables."""

import logging
import math

import numpy as np
import pytest

from slzeros import (CoefficientDraw, DomainError, InvariantViolation,
                     build_process, count_hermite_zeros, count_zeros,
                     count_zeros_changed_variable, default_grid,
                     sample_coefficients)
from slzeros.ensembles import combine, process_rows, sample_coefficient_block
from slzeros.weights import TWO_PI, builtin_weights
from slzeros.zeros import _resolve_cells


def _single_mode(kind, n, weight=None):
    """The kind with a_n = sqrt(n) and every other coefficient 0: cos(n x)
    for T_n, cos(n Omega(x)/2) / sqrt(omega(x)) for X_n_raw."""
    a = np.zeros(n)
    a[-1] = math.sqrt(n)
    draw = CoefficientDraw(master_seed=0, n=n, replicate_id=0, a=a,
                           b=np.zeros(n), seed=0)
    return build_process(kind, n, draw, weight=weight)


def test_count_cosine_pinned():
    # cos(5x) has 10 zeros, each on a node of the 80-cell grid
    res = count_zeros(_single_mode("T_n", 5))
    assert (res.count, res.stable) == (10, True)
    # Omega maps [0, 2*pi] onto itself, so cos(7 Omega/2) has 7 zeros
    raw = _single_mode("X_n_raw", 7, builtin_weights("sine2"))
    assert count_zeros(raw).count == 7
    assert count_zeros(raw.stationary_pullback()).count == 7


def test_count_subinterval():
    proc = _single_mode("T_n", 5)
    assert count_zeros(proc, interval=(0.0, math.pi)).count == 5
    # zeros of cos(5x) at 0.1*pi and 0.3*pi
    assert count_zeros(proc, interval=(0.2, 1.0)).count == 2


@pytest.mark.parametrize("kind", ["f_n", "X_n_raw", "T_n", "perturbed"])
def test_count_zeros_counts_its_grid_samples(kind, sine2_basis):
    n = 50
    proc = build_process(kind, n, sample_coefficients(2024, n, 7),
                         weight=builtin_weights("sine2"),
                         basis_pair=sine2_basis)
    a, b = 0.5, 5.0
    x = np.linspace(a, b, 16 * n + 1)
    counts, certified = count_hermite_zeros(proc.value(x), proc.deriv(x),
                                            (b - a) / (16 * n))
    res = count_zeros(proc, interval=(a, b))
    assert counts[0] > 0
    assert (res.count, res.stable) == (counts[0], certified[0])


def test_count_zeros_validation():
    proc = _single_mode("T_n", 5)
    for interval in ((2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            count_zeros(proc, interval=interval)


def test_empty_interval():
    res = count_zeros(_single_mode("T_n", 5), interval=(1.0, 1.0))
    assert (res.count, res.stable) == (0, True)


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


def _sign_change_oracle(vals, ders, h):
    """Zeros of odd multiplicity of each row's cubic Hermite interpolant,
    counted without Bernstein forms: between the real roots of its
    derivative a cell's cubic is monotone, so every such zero is one sign
    change along the values at the nodes and at the critical points
    inside the cells."""
    v0, v1 = vals[:, :-1], vals[:, 1:]
    g0, g1 = h * ders[:, :-1], h * ders[:, 1:]
    # p(s) = v0 + g0 s + c2 s^2 + c3 s^3 for s in [0, 1]
    c2 = 3.0 * (v1 - v0) - 2.0 * g0 - g1
    c3 = 2.0 * (v0 - v1) + g0 + g1
    # roots of p'(s) = g0 + 2 c2 s + 3 c3 s^2, without cancellation
    disc = c2 * c2 - 3.0 * c3 * g0
    q = -(c2 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c2))
    seq = np.full(v0.shape + (3,), np.nan)
    seq[:, :, 0] = v0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = np.sort(np.stack((q / (3.0 * c3), g0 / q)), axis=0)
        for j, s in enumerate(roots):
            inside = (disc >= 0.0) & (s > 0.0) & (s < 1.0)
            p = ((c3 * s + c2) * s + g0) * s + v0
            seq[:, :, 1 + j] = np.where(inside, p, np.nan)
    counts = []
    for row, end in zip(seq.reshape(len(vals), -1), vals[:, -1]):
        signs = np.sign(np.append(row[~np.isnan(row)], end))
        signs = signs[signs != 0.0]
        counts.append(int(np.count_nonzero(signs[1:] != signs[:-1])))
    return counts


@pytest.mark.parametrize("kind", ["f_n", "X_n", "T_n", "perturbed"])
def test_hermite_counts_agree_with_sign_change_oracle(kind, sine2_basis):
    grid = default_grid()
    x = grid.points
    n = 50
    procs = [build_process(kind, n, sample_coefficients(2024, n, rid),
                           weight=builtin_weights("sine2"),
                           basis_pair=sine2_basis)
             for rid in range(13)]
    vals = np.stack([p.value(x) for p in procs])
    ders = np.stack([p.deriv(x) for p in procs])
    counts, certified = count_hermite_zeros(vals, ders, grid.h)
    assert certified.all()
    assert counts.tolist() == _sign_change_oracle(vals, ders, grid.h)


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


def test_hermite_refuses_mismatched_row_ids():
    # two rows with a double root each: a warning names both, so row_ids
    # must name exactly two rows, refused before any counting
    vals, ders = _cubic_cell(lambda s: (s - 0.3) ** 2, lambda s: 2.0 * (s - 0.3))
    vals, ders = np.vstack([vals, vals]), np.vstack([ders, ders])
    for row_ids in ([7], [7, 8, 9], []):
        with pytest.raises(DomainError, match="row_ids names %d rows, but "
                           "there are 2" % len(row_ids)):
            count_hermite_zeros(vals, ders, 1.0, row_ids=row_ids)


@np.errstate(invalid="ignore", over="ignore")
def _product_rule_counts(vals, ders, h):
    """The counter's results by the product rule: a cell is settled by
    the signs of b0*b1, b1*b2 and b2*b3, its neighbouring control points'
    products, and a cell with a zero product or two or more negative
    ones goes to _resolve_cells and the zero-node rule.  It refuses a
    non-finite value or slope as the counter does, and checks the same
    parity, so its outcome is (counts, certified) or the error's type."""
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    ders = np.atleast_2d(np.asarray(ders, dtype=float))
    rows, third = len(vals), h / 3.0
    counts = np.zeros(rows, dtype=np.int64)
    found_rows, found_cells, found = [], [], []
    for lo in range(0, rows, 8):
        v, d = vals[lo:lo + 8], ders[lo:lo + 8]
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            return DomainError
        b0, b3 = v[:, :-1], v[:, 1:]
        b1 = b0 + d[:, :-1] * third
        b2 = b3 + d[:, 1:] * -third
        p01, p12, p23 = b0 * b1, b1 * b2, b2 * b3
        changes = ((p01 < 0.0).astype(int) + (p12 < 0.0).astype(int)
                   + (p23 < 0.0).astype(int))
        special = (p01 == 0.0) | (p12 == 0.0) | (p23 == 0.0) | (changes >= 2)
        counts[lo:lo + len(v)] = changes.sum(axis=1)
        r, c = np.nonzero(special)
        np.subtract.at(counts, lo + r, changes[r, c])
        found_rows.append(lo + r)
        found_cells.append(c)
        found.append(np.stack((b0[r, c], b1[r, c], b2[r, c], b3[r, c]), axis=1))
    certified = np.ones(rows, dtype=bool)
    r, c = np.concatenate(found_rows), np.concatenate(found_cells)
    P = np.concatenate(found)
    if len(P):
        inside, unresolved, first, last = _resolve_cells(P)
        np.add.at(counts, r, inside)
        certified[r[unresolved]] = False
        node = np.nonzero((c > 0) & (P[:, 0] == 0.0))[0]
        np.add.at(counts, r[node], last[node - 1] != first[node])
    ends = vals[:, 0] * vals[:, -1]
    if np.any(certified & (ends != 0.0) & ((ends > 0.0) != (counts % 2 == 0))):
        return InvariantViolation
    return counts.tolist(), certified.tolist()


def _sign_rule_counts(vals, ders, h):
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            counts, certified = count_hermite_zeros(vals, ders, h)
    except (DomainError, InvariantViolation) as exc:
        return type(exc)
    return counts.tolist(), certified.tolist()


@pytest.mark.parametrize("n", [50, 400])
def test_sign_rule_matches_product_rule_on_process_rows(n, sine2_basis):
    # 20 draws span two full 8-row blocks and a partial one
    grid = default_grid()
    A, B, _ = sample_coefficient_block(2024, n, range(20))
    for kind in ("f_n", "X_n", "T_n", "perturbed"):
        rows = process_rows(kind, n, grid=grid, weight=builtin_weights("sine2"),
                            basis_pair=sine2_basis)
        vals, ders = combine(rows, A / math.sqrt(n), B / math.sqrt(n))
        expected = _product_rule_counts(vals, ders, grid.h)
        assert isinstance(expected, tuple)
        assert _sign_rule_counts(vals, ders, grid.h) == expected


_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e308,
                      -1e308, 1.7e308, -1.7e308])


def _extreme_rows(rng, rows, points):
    """Values or slopes drawn from the extremes above and from normals
    scaled by 10**e for e in [-320, 300], which underflow and overflow
    the control points and their products."""
    scaled = rng.standard_normal((rows, points)) * 10.0 ** rng.integers(
        -320, 301, size=(rows, points))
    return np.where(rng.random((rows, points)) < 0.4,
                    rng.choice(_EXTREMES, size=(rows, points)), scaled)


@pytest.mark.parametrize("h", [1e-3, 0.5, 1.0, 3.0])
def test_sign_rule_matches_product_rule_on_extremes(h):
    # 4 grid sizes x 200 rows per h, 3,200 rows over the four cases; each
    # grid size is counted in 8 calls of 25 rows, so blocks end early too
    rng = np.random.default_rng(int(h * 1000) + 17)
    outcomes = set()
    for points in (2, 3, 5, 9):
        vals = _extreme_rows(rng, 200, points)
        ders = _extreme_rows(rng, 200, points)
        for lo in range(0, 200, 25):
            v, d = vals[lo:lo + 25], ders[lo:lo + 25]
            expected = _product_rule_counts(v, d, h)
            assert _sign_rule_counts(v, d, h) == expected
            outcomes.add(expected if isinstance(expected, type) else tuple)
    assert tuple in outcomes


def test_sign_rule_refuses_non_finite_rows_as_product_rule_does():
    rng = np.random.default_rng(29)
    for bad in (math.nan, math.inf, -math.inf):
        for target in range(2):
            vals = _extreme_rows(rng, 11, 6)
            ders = _extreme_rows(rng, 11, 6)
            (vals, ders)[target][rng.integers(11), rng.integers(6)] = bad
            assert _product_rule_counts(vals, ders, 0.5) is DomainError
            assert _sign_rule_counts(vals, ders, 0.5) is DomainError
    # finite rows whose control points overflow are counted, not refused
    vals, ders = np.array([[1.7e308, -1.7e308]]), np.array([[1.7e308, 1.7e308]])
    assert _sign_rule_counts(vals, ders, 3.0) == ([1], [True])
    assert _product_rule_counts(vals, ders, 3.0) == ([1], [True])


def test_halving_keeps_the_sign_of_a_least_subnormal():
    # the first cell's polygon is (-4.7e116, 1.7e308, -5e-324, -0.0): a
    # zero lies about 3e-631 left of its zero right node, which halving
    # finds only if 0.5 * (-5e-324 + -0.0) keeps its sign.  The row
    # changes sign three times, the third time at that node
    vals = np.array([[-4.71e116, -0.0, 1.39e142]])
    ders = np.array([[1.7e308, 5e-324, 7.6e-70]])
    counts, certified = count_hermite_zeros(vals, ders, 3.0)
    assert (counts.tolist(), certified.tolist()) == ([3], [True])


def test_hermite_validation():
    with pytest.raises(DomainError):
        count_hermite_zeros([[1.0, 2.0]], [[1.0]], 0.1)
    with pytest.raises(DomainError):
        count_hermite_zeros([[1.0, math.nan]], [[1.0, 1.0]], 0.1)
    with pytest.raises(DomainError):
        count_hermite_zeros([[1.0, -1.0]], [[1.0, 1.0]], 0.0)
    with pytest.raises(DomainError, match="positive and finite"):
        count_hermite_zeros([[1.0, -1.0]], [[0.0, 1.0]], math.inf)


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
