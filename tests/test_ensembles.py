"""Coefficient draws, the perturbed rows' bounds, process construction and algebra."""

import math
import re
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slzeros import (BoundaryCondition, DomainError, PreconditionError,
                     build_process, eigen_solve, sample_coefficient_block,
                     sample_coefficients)
from slzeros import ensembles
from slzeros.ensembles import combine, hermite_rows, process_rows
from slzeros.weights import TWO_PI, Grid, default_grid, omega_map

SEED = 777


# ----------------------------------------------------------------------
# coefficient draws


def test_sample_coefficients_reproducible():
    d1 = sample_coefficients(SEED, 12, 3)
    d2 = sample_coefficients(SEED, 12, 3)
    np.testing.assert_array_equal(d1.a, d2.a)
    np.testing.assert_array_equal(d1.b, d2.b)
    assert d1.seed == d2.seed


def test_sample_coefficients_streams_and_replicates_differ():
    d = sample_coefficients(SEED, 12, 3)
    assert d.a.shape == (12,)
    assert not np.allclose(d.a, d.b)          # stream separation
    other = sample_coefficients(SEED, 12, 4)
    assert not np.allclose(d.a, other.a)      # replicate separation
    assert d.seed != other.seed
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
    for n in (math.nan, math.inf):
        with pytest.raises(PreconditionError,
                           match="^n must be a positive integer, got %r$" % n):
            sample_coefficients(SEED, n, 1)
    with pytest.raises(PreconditionError, match="master_seed"):
        sample_coefficients(-1, 5, 1)
    with pytest.raises(PreconditionError, match="replicate_id"):
        sample_coefficients(SEED, 5, -1)


@pytest.mark.parametrize("args, name", [
    ((7.9, 5, 2), "master_seed"), ((7, 5, 2.5), "replicate_id"),
    ((7, 5, 2.0), "replicate_id"), ((7, 5, "2"), "replicate_id"),
    ((7, 5, 2 ** 32), "replicate_id"),
])
def test_sample_coefficients_refuses_by_name(args, name):
    # no int() truncation: 7.9 is not seed 7, 2.5 not replicate 2; an id
    # is one 32-bit word of the key
    with pytest.raises(PreconditionError, match=name):
        sample_coefficients(*args)


def test_sample_coefficients_accepts_numpy_integers():
    d = sample_coefficients(np.int64(SEED), np.int32(12), np.uint32(3))
    ref = sample_coefficients(SEED, 12, 3)
    assert (d.master_seed, d.n, d.replicate_id) == (SEED, 12, 3)
    assert type(d.master_seed) is int and type(d.replicate_id) is int
    np.testing.assert_array_equal(d.a, ref.a)
    np.testing.assert_array_equal(d.b, ref.b)
    assert d.seed == ref.seed


@pytest.mark.parametrize("ids", [[1.5], [0, -1], [2 ** 32], [[0, 1]]])
def test_sample_coefficient_block_refuses_bad_ids(ids):
    with pytest.raises(PreconditionError, match="replicate_ids"):
        sample_coefficient_block(SEED, 5, ids)


def test_sample_coefficient_block_fills_out_with_its_bits():
    # 600 ids span three key blocks of 256; the views start mid-array
    ids = range(100, 700)
    A, B = np.zeros((3, 700, 9)), np.zeros((3, 700, 9))
    seeds = np.zeros((3, 700), dtype=np.uint64)
    out = (A[1, 100:], B[1, 100:], seeds[1, 100:])
    got = sample_coefficient_block(SEED, 9, ids, out=out)
    assert all(g is o for g, o in zip(got, out))
    for filled, allocated in zip(out, sample_coefficient_block(SEED, 9, ids)):
        assert np.array_equal(filled, allocated)
    for arr in (A, B, seeds):  # nothing outside the views is written
        assert not (arr[1, :100].any() or arr[[0, 2]].any())


@pytest.mark.parametrize("which, arr", [
    (0, np.zeros((4, 5))), (1, np.zeros((3, 6))), (2, np.zeros(3)),
    (0, np.zeros((3, 5), dtype=np.float32)), (1, np.zeros((5, 3)).T),
    (2, np.zeros(3, dtype=np.int64))], ids=[
        "A shape", "B shape", "seeds dtype", "A dtype", "B order",
        "seeds signed"])
def test_sample_coefficient_block_refuses_bad_out_by_name(which, arr):
    out = [np.empty((3, 5)), np.empty((3, 5)), np.empty(3, dtype=np.uint64)]
    out[which] = arr
    label = ("A", "B", "seeds")[which]
    with pytest.raises(PreconditionError, match="^out's %s must be" % label):
        sample_coefficient_block(SEED, 5, range(3), out=tuple(out))


# the per-draw derivation the block kernel must reproduce bit for bit:
# one SeedSequence and one Philox per stream, and the record seed from
# spawn_key=(n, replicate_id)
def _oracle_draw(master_seed, n, replicate_id):
    def stream(tag):
        ss = np.random.SeedSequence(entropy=master_seed,
                                    spawn_key=(n, replicate_id, tag))
        return np.random.Generator(np.random.Philox(ss)).standard_normal(n)

    ss_rec = np.random.SeedSequence(entropy=master_seed,
                                    spawn_key=(n, replicate_id))
    seed = int(ss_rec.generate_state(1, dtype=np.uint64)[0])
    return stream(0), stream(1), seed


def _assert_block_matches_oracle(master_seed, n, ids):
    A, B, seeds = sample_coefficient_block(master_seed, n, ids)
    assert A.shape == B.shape == (len(ids), n)
    assert seeds.shape == (len(ids),)
    for i, rid in enumerate(ids):
        a, b, seed = _oracle_draw(master_seed, n, rid)
        assert np.array_equal(A[i], a) and np.array_equal(B[i], b), rid
        assert int(seeds[i]) == seed, rid


ORACLE_SEEDS = (0, 7, 20260819, 2 ** 32, 2 ** 40 + 5, 2 ** 63 + 11,
                2 ** 130 + 1)
ORACLE_IDS = (0, 1, 63, 64, 29999, 2 ** 32 - 1)


@pytest.mark.parametrize("master_seed", ORACLE_SEEDS)
@pytest.mark.parametrize("n", (1, 2, 13, 400))
def test_draws_bit_equal_to_per_draw_oracle(master_seed, n):
    _assert_block_matches_oracle(master_seed, n, ORACLE_IDS)
    for rid in ORACLE_IDS:
        d = sample_coefficients(master_seed, n, rid)
        a, b, seed = _oracle_draw(master_seed, n, rid)
        assert np.array_equal(d.a, a) and np.array_equal(d.b, b)
        assert d.seed == seed


def test_long_and_empty_blocks_bit_equal_to_oracle():
    # a block spanning several key sub-blocks, as covariance_check draws
    _assert_block_matches_oracle(20260819, 50, range(0, 1400, 2))
    A, B, seeds = sample_coefficient_block(SEED, 3, [])
    assert A.shape == B.shape == (0, 3) and seeds.shape == (0,)


@settings(max_examples=60, deadline=None)
@given(master_seed=st.integers(0, 2 ** 140), n=st.integers(1, 40),
       ids=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=6))
def test_block_bit_equal_to_oracle_property(master_seed, n, ids):
    _assert_block_matches_oracle(master_seed, n, ids)


# ----------------------------------------------------------------------
# the perturbed rows


def test_default_perturbation_satisfies_bounds():
    # 510 is the largest n the storage grid resolves for the perturbed kind;
    # the family keeps |eps_k|, |eta_k| <= 1/(2k) and their slopes within 1.
    # Draw k with a_k = 1 (b_k = 1) and every other coefficient 0 is
    # cos(kx) + eps_k (sin(kx) + eta_k)
    n = 510
    rows = process_rows("perturbed", n, grid=default_grid())
    x = default_grid().points[None, :]
    k = np.arange(1, n + 1, dtype=float)[:, None]
    c, s = np.cos(k * x), np.sin(k * x)
    unit, zero = np.eye(n), np.zeros((n, n))
    slack = 1e-12
    vals, ders = combine(rows, unit, zero)
    assert np.all(np.abs(vals - c) <= 1.0 / (2.0 * k) + slack)
    assert np.all(np.abs(ders + k * s) <= 1.0 + slack)
    vals, ders = combine(rows, zero, unit)
    assert np.all(np.abs(vals - s) <= 1.0 / (2.0 * k) + slack)
    assert np.all(np.abs(ders - k * c) <= 1.0 + slack)


@pytest.mark.parametrize("kind, x, match", [
    ("X_n", np.linspace(0.0, 1.0, 3), "the X kinds tabulate Omega on it"),
    ("T_n", None, "x=None means the grid's points")])
def test_process_rows_without_a_grid_refused_by_name(kind, x, match,
                                                     sine2_weight):
    with pytest.raises(PreconditionError,
                       match="^kind '%s' needs a grid: %s$" % (kind, match)):
        process_rows(kind, 5, x, weight=sine2_weight)


@pytest.mark.parametrize("kind", ensembles.KINDS)
@pytest.mark.parametrize("n", [0, -1, 2.5, float("nan"), float("inf")])
def test_process_rows_refuses_bad_orders_first(kind, n):
    # before its grid, weight or basis pair is looked at
    with pytest.raises(DomainError,
                       match="^order n must be a positive integer, got %s$"
                       % re.escape(repr(n))):
        process_rows(kind, n, np.linspace(0.0, 1.0, 3))


def test_build_process_refuses_a_fractional_order():
    draw = sample_coefficients(SEED, 3, 0)
    draw = ensembles.CoefficientDraw(draw.master_seed, 2.5, 0, draw.a,
                                     draw.b, draw.seed)
    with pytest.raises(DomainError, match="^order n must be a positive "
                                          "integer, got 2.5$"):
        build_process("T_n", 2.5, draw)


# ----------------------------------------------------------------------
# Hermite interpolation


def test_hermite_rows_exact_at_nodes_and_for_cubics():
    grid = Grid(33)
    p = grid.points
    f = np.vstack([p ** 3 - 2.0 * p ** 2 + p, np.ones_like(p)])
    df = np.vstack([3.0 * p ** 2 - 4.0 * p + 1.0, np.zeros_like(p)])
    # node exactness (up to the x/h roundoff of the cell locator)
    vals, _ = hermite_rows(f, df, grid.h, p)
    np.testing.assert_allclose(vals, f, rtol=0.0, atol=1e-12)
    # a cubic is reproduced exactly anywhere, with its derivative
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, TWO_PI, 64)
    vals, ders = hermite_rows(f, df, grid.h, x)
    np.testing.assert_allclose(vals[0], x ** 3 - 2.0 * x ** 2 + x,
                               rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(ders[0], 3.0 * x ** 2 - 4.0 * x + 1.0,
                               rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(vals[1], 1.0, rtol=1e-14)
    np.testing.assert_allclose(ders[1], 0.0, atol=1e-14)


def _hermite_rows_oracle(funcs, dfuncs, h, x):
    """hermite_rows with a gather per column of each cell: the formula
    that the one gather of both end columns per table must match bit for
    bit."""
    idx, wv, wd = ensembles._hermite_weights(x, h, funcs.shape[1] - 1)
    f0 = funcs[:, idx]
    f1 = funcs[:, idx + 1]
    g0 = dfuncs[:, idx]
    g1 = dfuncs[:, idx + 1]
    vals = wv[0] * f0 + wv[1] * g0 + wv[2] * f1 + wv[3] * g1
    ders = wd[0] * f0 + wd[1] * g0 + wd[2] * f1 + wd[3] * g1
    return vals, ders


@pytest.mark.parametrize("family", [0, 1])  # C and D
def test_hermite_rows_bit_equal_to_per_column_gathers(family, sine2_basis):
    basis = sine2_basis[family]
    h = basis.grid.h
    rng = np.random.default_rng(11)
    for x in (basis.grid.points, np.array([0.0, TWO_PI]),
              rng.uniform(0.0, TWO_PI, 257),
              np.concatenate(([TWO_PI], rng.uniform(0.0, TWO_PI, 5), [0.0]))):
        got = hermite_rows(basis.funcs, basis.dfuncs, h, x)
        want = _hermite_rows_oracle(basis.funcs, basis.dfuncs, h, x)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (basis.funcs.shape[0], x.size)
            assert np.array_equal(g, w)


# ----------------------------------------------------------------------
# process construction preconditions


def test_build_process_rejects_bad_requests(sine2_weight, unit_basis):
    draw = sample_coefficients(SEED, 20, 0)
    with pytest.raises(DomainError, match="unknown process kind 'Z_n'"):
        build_process("Z_n", 20, draw)
    with pytest.raises(PreconditionError, match="draw has n=20"):
        build_process("T_n", 21, draw)
    # f_n without a basis names the basis pair, not the weight
    with pytest.raises(PreconditionError, match="eigenbasis pair"):
        build_process("f_n", 20, draw)
    for kind in ("X_n", "X_n_raw"):
        with pytest.raises(PreconditionError,
                           match="kind '%s' needs a weight" % kind):
            build_process(kind, 20, draw)
    bc_c, bc_d = unit_basis
    with pytest.raises(PreconditionError, match="ordered"):
        build_process("f_n", 20, draw, basis_pair=(bc_d, bc_c))
    big_draw = sample_coefficients(SEED, 200, 0)
    with pytest.raises(PreconditionError, match="eigenbasis too small"):
        build_process("f_n", 200, big_draw, basis_pair=unit_basis)
    # a process without a weight has no Omega
    x_n = build_process("X_n", 20, draw, weight=sine2_weight)
    for proc in (build_process("T_n", 20, draw),
                 build_process("perturbed", 20, draw),
                 x_n.stationary_pullback()):
        with pytest.raises(PreconditionError,
                           match="kind '%s' has no weight" % proc.kind):
            proc.omega(1.0)


@pytest.mark.parametrize("kind", ["X_n", "X_n_raw"])
def test_process_rows_refuses_a_missing_weight_by_name(kind, unit_basis):
    with pytest.raises(PreconditionError, match="kind '%s' needs a weight"
                       % kind):
        process_rows(kind, 5, np.linspace(0.0, 1.0, 3),
                     basis_pair=unit_basis, grid=unit_basis[0].grid)


def test_eigen_kinds_take_weight_and_grid_from_their_pair(unit_weight,
                                                          sine2_basis):
    # a weight or grid passed beside the pair is not read: x=None means the
    # pair's grid points, and f_n's factor is the pair's weight
    x = np.linspace(0.05, 6.2, 37)
    for kind in ("F_n", "f_n"):
        for at in (x, None):
            want = process_rows(kind, 12, at, basis_pair=sine2_basis)
            got = process_rows(kind, 12, at, weight=unit_weight,
                               basis_pair=sine2_basis, grid=Grid(1025))
            assert want.ra.shape == (12, 37 if at is x else 8192)
            for f in fields(want):
                assert (getattr(got, f.name) is None
                        if getattr(want, f.name) is None
                        else np.array_equal(getattr(got, f.name),
                                            getattr(want, f.name))), f.name
        proc = build_process(kind, 12, sample_coefficients(SEED, 12, 0),
                             weight=unit_weight, basis_pair=sine2_basis)
        assert proc.weight is sine2_basis[0].weight
        assert proc.grid is sine2_basis[0].grid


@pytest.mark.parametrize("kind", ["T_n", "X_n", "f_n"])
@pytest.mark.parametrize("start, match", [
    (-1, "start must be non-negative, got -1"),
    (5, "start must be below n=5, got 5"),
    (6, "start must be below n=5, got 6"),
    (2.5, "start must be an integer, got 2.5")])
def test_process_rows_refuses_a_start_outside_the_order(kind, start, match,
                                                        sine2_weight,
                                                        unit_basis):
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(match)):
        process_rows(kind, 5, np.linspace(0.0, 1.0, 3), weight=sine2_weight,
                     basis_pair=unit_basis, grid=unit_basis[0].grid,
                     start=start)


def test_build_process_rejects_mismatched_grids(unit_weight, unit_basis):
    small = eigen_solve(unit_weight, BoundaryCondition.D, 3,
                        grid=Grid(1025))
    draw = sample_coefficients(SEED, 3, 0)
    with pytest.raises(PreconditionError):
        build_process("f_n", 3, draw, basis_pair=(unit_basis[0], small))


@pytest.mark.parametrize("count", [8192, 8191])
def test_row_tables_in_two_threads_bit_equal_to_one(count, monkeypatch,
                                                    sine2_weight):
    # each table large enough is filled by row halves in a second thread,
    # joined before the build returns: those of the builds the harness
    # makes, T_n, X_n and perturbed at n on the grid
    grid, n = Grid(count), 400
    started = []

    def tables():
        builds = [process_rows("T_n", n, grid=grid),
                  process_rows("X_n", n, grid=grid, weight=sine2_weight),
                  process_rows("perturbed", n, grid=grid)]
        return [getattr(rows, f) for rows in builds
                for f in ("ra", "rb", "dphase")
                if getattr(rows, f) is not None]

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(ensembles.threading, "Thread", CountedThread)
    alive = threading.active_count()
    split = tables()
    assert threading.active_count() == alive
    assert len(started) == 3
    monkeypatch.setattr(ensembles, "_SPLIT_MIN", math.inf)
    del started[:]
    whole = tables()
    assert started == []
    assert len(split) == len(whole) == 7
    for a, b in zip(split, whole):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# process values: closed-form cross-checks


def test_trig_processes_match_direct_sums():
    n = 9
    draw = sample_coefficients(SEED, n, 2)
    x = np.linspace(0.3, 6.0, 23)
    k = np.arange(1, n + 1, dtype=float)
    ph = x[:, None] * k
    want_t = (np.cos(ph) @ draw.a + np.sin(ph) @ draw.b) / math.sqrt(n)
    t_proc = build_process("T_n", n, draw)
    np.testing.assert_allclose(t_proc.value(x), want_t, atol=1e-12)
    want_dt = (np.cos(ph) @ (draw.b * k) - np.sin(ph) @ (draw.a * k)) / math.sqrt(n)
    np.testing.assert_allclose(t_proc.deriv(x), want_dt,
                               atol=1e-11)


def test_perturbed_process_is_trig_plus_perturbation():
    n = 7
    draw = sample_coefficients(SEED, n, 1)
    pert = build_process("perturbed", n, draw)
    plain = build_process("T_n", n, draw)
    x = np.linspace(0.1, 6.1, 17)
    k = np.arange(1, n + 1, dtype=float)
    a, b = draw.a / math.sqrt(n), draw.b / math.sqrt(n)
    # eps_k = sin((k+1)x)/(2k), eta_k = cos((k+1)x)/(2k) and their slopes
    c1, s1 = np.cos(np.outer(x, k + 1)), np.sin(np.outer(x, k + 1))
    extra = s1 @ (a / (2 * k)) + c1 @ (b / (2 * k))
    dextra = c1 @ (a * (k + 1) / (2 * k)) - s1 @ (b * (k + 1) / (2 * k))
    np.testing.assert_allclose(pert.value(x),
                               plain.value(x) + extra, atol=1e-12)
    np.testing.assert_allclose(pert.deriv(x),
                               plain.deriv(x) + dextra, atol=1e-11)


def test_X_process_agrees_with_stationary_pullback(sine2_weight):
    n = 15
    draw = sample_coefficients(SEED, n, 4)
    x = np.linspace(0.0, TWO_PI, 29)
    y = omega_map(sine2_weight, default_grid()).forward(x)
    xn = build_process("X_n", n, draw, weight=sine2_weight)
    pull = xn.stationary_pullback()
    np.testing.assert_allclose(xn.value(x), pull.value(y), atol=1e-12)
    raw = build_process("X_n_raw", n, draw, weight=sine2_weight)
    om = np.asarray(sine2_weight.eval(x), dtype=float)
    np.testing.assert_allclose(raw.value(x), pull.value(y) / np.sqrt(om),
                               atol=1e-12)
    np.testing.assert_allclose(raw.omega(x), y, atol=1e-12)


@pytest.mark.parametrize("kind", ensembles.KINDS)
def test_process_samples_are_its_table_rows(kind, sine2_weight, sine2_basis):
    # a process is its kind's rows and its draw scaled by 1/sqrt(n), as
    # the harness scales a chunk's draws
    n = 12
    draw = sample_coefficients(SEED, n, 3)
    x = np.linspace(0.05, 6.2, 37)
    proc = build_process(kind, n, draw, weight=sine2_weight,
                         basis_pair=sine2_basis)
    root = 1.0 / math.sqrt(n)
    rows = process_rows(kind, n, x, weight=sine2_weight,
                        basis_pair=sine2_basis, grid=proc.grid)
    for got, want in zip(proc.samples(x),
                         combine(rows, draw.a * root, draw.b * root)):
        assert got.tobytes() == want.tobytes()
    assert proc.value(x).tobytes() == proc.samples(x)[0].tobytes()
    assert proc.deriv(x).tobytes() == proc.samples(x)[1].tobytes()


@pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "off_grid"])
@pytest.mark.parametrize("kind", ensembles.KINDS)
def test_unit_blocks_bit_equal_to_whole_table(kind, on_grid, sine2_weight,
                                              sine2_basis):
    # n = 45 leaves a last block of 26 vectors; each block builds only its
    # own coefficients' rows (perturbed's one more, f_n's Hermite rows
    # from start off the grid), and its values and slopes are the same
    # rows of one combine over the whole table at all 2n unit vectors
    n = 45
    x = None if on_grid else np.linspace(0.05, 6.2, 37)
    given = dict(weight=sine2_weight, basis_pair=sine2_basis,
                 grid=sine2_basis[0].grid)
    unit = np.eye(2 * n)
    whole = combine(process_rows(kind, n, x, **given), unit[:, 0::2],
                    unit[:, 1::2])
    for deriv in (True, False):
        done = 0
        for lo, hi, vals, ders in ensembles.unit_blocks(kind, n, x, deriv,
                                                        **given):
            assert (lo, hi) == (done, min(done + ensembles._UNIT_BLOCK,
                                          2 * n))
            assert vals.tobytes() == whole[0][lo:hi].tobytes()
            if deriv:
                assert ders.tobytes() == whole[1][lo:hi].tobytes()
            else:
                assert ders is None
            done = hi
        assert done == 2 * n


@pytest.mark.parametrize("kind", ["X_n", "X_n_raw"])
def test_stationary_pullback_is_the_Y_kind(kind, sine2_weight):
    draw = sample_coefficients(SEED, 9, 1)
    pull = build_process(kind, 9, draw, weight=sine2_weight).stationary_pullback()
    assert (pull.kind, pull.n, pull.draw) == ("Y_n", 9, draw)
    y = np.linspace(0.0, TWO_PI, 41)
    for got, want in zip(pull.samples(y),
                         build_process("Y_n", 9, draw).samples(y)):
        assert got.tobytes() == want.tobytes()
    mu = 0.5 * np.arange(1, 10)
    c, s = np.cos(np.outer(y, mu)), np.sin(np.outer(y, mu))
    np.testing.assert_allclose(pull.value(y), (c @ draw.a + s @ draw.b) / 3.0,
                               atol=1e-12)
    np.testing.assert_allclose(pull.deriv(y),
                               (c @ (mu * draw.b) - s @ (mu * draw.a)) / 3.0,
                               atol=1e-12)


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


@pytest.mark.parametrize("kind", ["T_n", "perturbed", "X_n", "X_n_raw", "F_n",
                                  "f_n"])
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
    # eps_n = f_n - X_n on the storage grid and between its nodes
    for x in (f_proc.grid.points, np.linspace(0.0, TWO_PI, 101)):
        np.testing.assert_allclose(f_proc.value(x) - x_proc.value(x), 0.0,
                                   atol=1e-8)


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
