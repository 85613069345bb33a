"""Experiment configs, record persistence, summaries, diagnostics."""

import concurrent.futures
import json
import logging
import math
import mmap
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import erfc, ndtri

from slzeros import (BoundaryCondition, DomainError, ExperimentConfig,
                     NumericError, PreconditionError, ReplicateRecord,
                     UsageError, build_basis_pair, builtin_weights,
                     count_hermite_zeros, covariance_check, eigen_solve,
                     gap_diagnostics, ks_statistic, read_records,
                     run_experiment, summarize, sup_eps_diagnostic,
                     write_records, write_summary)
from slzeros.ensembles import (build_process, combine, process_rows,
                                sample_coefficient_block, sample_coefficients)
from slzeros import ensembles, harness
from slzeros.harness import (RECORD_COLUMNS, SIMULATED_KINDS, _fmt,
                             _RunContext, _worker_count,
                             check_covariance_draws, record_row)
from slzeros.kernels import r_n_closed
from slzeros.weights import Grid, omega_map

SEED = 20260819


# ----------------------------------------------------------------------
# configuration validation


def test_config_validation():
    ok = dict(weight_name="unit", n_list=(10, 20), replicates=4,
              master_seed=SEED, process_kinds=("T_n",))
    ExperimentConfig(**ok)
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "replicates": 1})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "master_seed": -1})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "n_list": ()})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "n_list": (10, 10)})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "n_list": (20, 10)})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "n_list": (0, 10)})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "process_kinds": ("T_n", "Z_n")})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "process_kinds": ()})
    with pytest.raises(PreconditionError):
        ExperimentConfig(**{**ok, "k_max": 15})


@pytest.mark.parametrize("field, value, name", [
    ("n_list", (2.5, 4), "n"),
    ("replicates", 2.5, "replicates"),
    ("master_seed", 1.5, "master_seed"),
    ("master_seed", "7", "master_seed"),
])
def test_config_refuses_non_integers_by_name(field, value, name, tmp_path):
    # int() would truncate an n to 2, and a run would refuse 2.5
    # replicates or a 1.5 seed only after creating records.csv
    ok = dict(weight_name="unit", n_list=(10, 20), replicates=4,
              master_seed=SEED, process_kinds=("T_n",),
              output_path=str(tmp_path / "o"))
    with pytest.raises(PreconditionError,
                       match="^%s must be an integer, got " % name):
        ExperimentConfig(**{**ok, field: value})
    assert not (tmp_path / "o").exists()


def test_config_keeps_integer_like_values_as_ints():
    cfg = ExperimentConfig(weight_name="unit", n_list=np.array([10, 20]),
                           replicates=np.int64(4), master_seed=np.uint32(7),
                           process_kinds=("T_n",))
    assert cfg.n_list == (10, 20) and type(cfg.n_list[0]) is int
    assert type(cfg.replicates) is int and type(cfg.master_seed) is int


def test_counts_above_the_replicate_id_range_refused():
    # ids 0 .. count-1 must fit one 32-bit key word; only construction
    # and the precondition run here, never a run of that size
    ok = dict(weight_name="unit", n_list=(10,), master_seed=SEED,
              process_kinds=("T_n",))
    assert ExperimentConfig(**ok, replicates=2 ** 32).replicates == 2 ** 32
    with pytest.raises(PreconditionError,
                       match=r"at most 2\*\*32 replicates, .* got 4294967297"):
        ExperimentConfig(**ok, replicates=2 ** 32 + 1)
    check_covariance_draws(2 ** 32)
    with pytest.raises(PreconditionError,
                       match=r"at most 2\*\*32 draws, .* got 4294967297"):
        check_covariance_draws(2 ** 32 + 1)


@pytest.mark.parametrize("kinds, n, k_max, bound", [
    (("f_n", "X_n"), 400, 700, "k_max must be at most 682"),
    (("X_n",), 700, None, "n must be at most 682"),
    (("T_n",), 512, None, "n must be at most 511"),
    (("perturbed",), 511, None, "n must be at most 510"),
])
def test_config_refuses_unresolved_frequencies(kinds, n, k_max, bound):
    # 8191 cells: 2*cells/(k*1.5) points per wavelength for sine2's
    # modes, cells/n for T_n and cells/(n+1) for the perturbation
    with pytest.raises(PreconditionError, match=bound) as err:
        ExperimentConfig(weight_name="sine2", n_list=(n,), replicates=4,
                         master_seed=SEED, process_kinds=kinds, k_max=k_max)
    assert "points per wavelength" in str(err.value)


@pytest.mark.parametrize("kinds", [("f_n", "X_n"), ("X_n",), ("T_n",),
                                   ("T_n", "perturbed")])
@pytest.mark.parametrize("k_max", [400.5, float("nan"), float("inf"), 0,
                                   "400"])
def test_config_refuses_a_bad_k_max_for_every_kind_set(kinds, k_max):
    # a run without f_n never reads k_max, yet must not accept one that
    # basis_k_max would turn into nan
    with pytest.raises(PreconditionError,
                       match="^k_max must be a positive integer, got %s$"
                       % re.escape(repr(k_max))):
        ExperimentConfig(weight_name="sine2", n_list=(50, 400), replicates=4,
                         master_seed=SEED, process_kinds=kinds, k_max=k_max)
    cfg = ExperimentConfig(weight_name="sine2", n_list=(50, 400),
                           replicates=4, master_seed=SEED,
                           process_kinds=kinds, k_max=400.0)
    assert cfg.k_max == 400 and type(cfg.k_max) is int


def test_config_accepts_k_max_400():
    for kinds in (("f_n", "X_n"), ("T_n", "perturbed")):
        ExperimentConfig(weight_name="sine2", n_list=(50, 400), replicates=4,
                         master_seed=SEED, process_kinds=kinds, k_max=400)


def test_config_properties():
    cfg = ExperimentConfig(weight_name="unit", n_list=(10, 20), replicates=4,
                           master_seed=SEED, process_kinds=("f_n", "X_n"))
    assert cfg.needs_basis
    assert cfg.basis_k_max == 20
    cfg2 = ExperimentConfig(weight_name="unit", n_list=(10,), replicates=4,
                            master_seed=SEED, process_kinds=("T_n",), k_max=64)
    assert not cfg2.needs_basis
    assert cfg2.basis_k_max == 64


# ----------------------------------------------------------------------
# record persistence


def test_record_row_pins_millis_to_zero():
    rec = ReplicateRecord(n=5, replicate_id=2, seed=123, n_tn=8)
    row = record_row(rec)
    assert row == "5,2,123,,,8,,,,,0"
    assert len(row.split(",")) == len(RECORD_COLUMNS)


@pytest.mark.parametrize("value, cell", [
    ("C", "C"), (7, "7"), (np.int64(-7), "-7"), (0.1, "0.10000000000000001"),
    (np.float64(1 / 3), "0.33333333333333331"), (2.0, "2"),
    (True, "1"), (False, "0"), (None, ""),
])
def test_fmt_cells(value, cell):
    assert _fmt(value) == cell


def test_records_round_trip(tmp_path):
    recs = [
        ReplicateRecord(n=5, replicate_id=0, seed=11, n_fn=4, n_xn=5,
                        sup_eps=0.12345678901234567, stable_fn=True,
                        stable_xn=False),
        ReplicateRecord(n=5, replicate_id=1, seed=12, n_tn=9, n_pert=11),
    ]
    path = tmp_path / "records.csv"
    write_records(recs, path)
    back = read_records(path)
    assert len(back) == 2
    assert back[0].n_fn == 4 and back[0].n_xn == 5
    assert back[0].stable_fn is True and back[0].stable_xn is False
    assert back[0].sup_eps == recs[0].sup_eps  # %.17g round-trips floats
    assert back[0].n_tn is None
    assert back[1].n_tn == 9 and back[1].n_pert == 11
    assert back[1].stable_fn is None
    assert back[0].count("f_n") == 4
    assert back[1].count("T_n") == 9


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DomainError):
        read_records(path)
    # a short row is refused, not read with its missing fields as None
    path.write_text(",".join(RECORD_COLUMNS) + "\n5,2,123,,,8,,,,\n")
    with pytest.raises(DomainError, match="has 10 cells, not 11"):
        read_records(path)


# ----------------------------------------------------------------------
# running experiments


def test_run_experiment_deterministic_with_output(tmp_path):
    cfg = lambda out: ExperimentConfig(
        weight_name="unit", n_list=(10, 20), replicates=6, master_seed=SEED,
        process_kinds=("T_n",), output_path=str(out))
    r1 = run_experiment(cfg(tmp_path / "a"))
    r2 = run_experiment(cfg(tmp_path / "b"))
    rows1 = [record_row(r) for r in r1]
    rows2 = [record_row(r) for r in r2]
    assert rows1 == rows2
    assert len(r1) == 12
    assert [r.n for r in r1] == [10] * 6 + [20] * 6
    assert [r.replicate_id for r in r1] == list(range(6)) * 2
    assert all(r.n_tn is not None and r.n_tn >= 0 for r in r1)
    assert all(r.n_fn is None for r in r1)
    # the streamed CSV is exactly the written records
    streamed = (tmp_path / "a" / "records.csv").read_text()
    want = ",".join(RECORD_COLUMNS) + "\n" + "".join(s + "\n" for s in rows1)
    assert streamed == want


def test_run_experiment_coupled_kinds(unit_basis, tmp_path):
    cfg = ExperimentConfig(
        weight_name="unit", n_list=(10,), replicates=4, master_seed=SEED,
        process_kinds=("f_n", "X_n"))
    recs = run_experiment(cfg, basis_pair=unit_basis)
    assert len(recs) == 4
    for r in recs:
        assert r.n_fn is not None and r.n_xn is not None
        assert r.stable_fn is not None and r.stable_xn is not None
        assert r.sup_eps is not None and r.sup_eps < 1e-6  # unit: f_n == X_n
        assert r.n_fn == r.n_xn
        assert r.n_tn is None and r.n_pert is None


def test_run_experiment_rejects_small_basis(unit_basis):
    cfg = ExperimentConfig(
        weight_name="unit", n_list=(200,), replicates=4, master_seed=SEED,
        process_kinds=("f_n",))
    with pytest.raises(PreconditionError):
        run_experiment(cfg, basis_pair=unit_basis)


def _plain_perturbed_samples(n, x, A, B):
    """perturbed's values and slopes at the points x for the scaled
    draws A and B, from its rows as the plain expressions of its
    definition: cos(kx) + eps_k, sin(kx) + eta_k and their slopes, for
    eps_k = sin((k+1)x)/(2k) and eta_k = cos((k+1)x)/(2k)."""
    k = np.arange(1, n + 1, dtype=float)[:, None]
    c, s = np.cos(k * x), np.sin(k * x)
    c1, s1 = np.cos((k + 1) * x), np.sin((k + 1) * x)
    vals = A @ (c + s1 / (2 * k)) + B @ (s + c1 / (2 * k))
    ders = (A @ (-k * s + (k + 1) * c1 / (2 * k))
            + B @ (k * c - (k + 1) * s1 / (2 * k)))
    return vals, ders


def test_close_root_pair_is_counted_and_certified(caplog):
    # perturbed replicate 114 at n=400 holds a zero pair that the callable
    # counter's grid doubling never settled ("468 then 470"); counted
    # cell by cell it is exact, certified, and raises no warning.  The
    # run maps each draw onto T_(n+1)'s coefficients, and every count is
    # that of perturbed's rows as plain expressions
    cfg = ExperimentConfig(
        weight_name="sine2", n_list=(50, 400), replicates=128,
        master_seed=SEED, process_kinds=("perturbed",))
    with caplog.at_level(logging.WARNING):
        records = run_experiment(cfg)
    assert (records[128 + 114].n, records[128 + 114].replicate_id) == (400, 114)
    assert records[128 + 114].n_pert == 470
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    for n in cfg.n_list:
        A, B, _ = sample_coefficient_block(SEED, n, range(cfg.replicates))
        root = math.sqrt(n)
        counts, certified = count_hermite_zeros(*_plain_perturbed_samples(
            n, cfg.grid.points, A / root, B / root), cfg.grid.h)
        assert certified.all()
        assert [r.n_pert for r in records if r.n == n] == counts.tolist()


@pytest.mark.parametrize("kind", SIMULATED_KINDS)
def test_grid_samples_match_process_definitions(kind, sine2_weight,
                                                sine2_basis):
    # the records path evaluates every replicate of a chunk at once on the
    # storage grid, from rows built at max(n_list) and cut to n; it must
    # give each process's own value and slope there
    n, replicates = 50, 4
    cfg = ExperimentConfig(weight_name="sine2", n_list=(n, 400),
                           replicates=replicates, master_seed=SEED,
                           process_kinds=(kind,))
    grid = cfg.grid
    ctx = _RunContext(cfg, sine2_weight, sine2_basis)
    draws = [sample_coefficients(SEED, n, rid) for rid in range(replicates)]
    A = np.stack([d.a for d in draws]) / math.sqrt(n)
    B = np.stack([d.b for d in draws]) / math.sqrt(n)
    vals, ders = combine(ctx.rows[n][kind], A, B)
    for i, draw in enumerate(draws):
        proc = build_process(kind, n, draw, weight=sine2_weight,
                             basis_pair=sine2_basis)
        for got, want in ((vals[i], proc.value(grid.points)),
                          (ders[i], proc.deriv(grid.points))):
            scale = np.max(np.abs(got))
            assert scale > 0.0
            assert np.max(np.abs(got - want)) <= 1e-10 * scale


def _plain_combine(rows, A, B):
    """combine as plain expressions, each result a new array."""
    if rows.perturbed:
        # frequency j takes a_j + b_{j-1}/(2(j-1)) and b_j + a_{j-1}/(2(j-1))
        zero = np.zeros(A.shape[:-1] + (1,))
        two_k = 2.0 * rows.freq[:-1]
        A, B = (np.concatenate((A, zero), axis=-1)
                + np.concatenate((zero, B / two_k), axis=-1),
                np.concatenate((B, zero), axis=-1)
                + np.concatenate((zero, A / two_k), axis=-1))
    vals = A @ rows.ra + B @ rows.rb
    if rows.da is not None:
        ders = A @ rows.da + B @ rows.db
    else:
        ders = (B * rows.freq) @ rows.ra - (A * rows.freq) @ rows.rb
        if rows.dphase is not None:
            ders *= rows.dphase
    if rows.factor is not None:
        ders = rows.dfactor * vals + rows.factor * ders
        vals = rows.factor * vals
    return vals, ders


# each simulated kind alone, T_n beside perturbed, whose table it shares,
# and f_n beside X_n, whose values f_n's pool rows must leave alone
_CONTEXT_KINDS = ([pytest.param((kind,), id=kind) for kind in SIMULATED_KINDS]
                  + [pytest.param(("T_n", "perturbed"), id="T_n+perturbed"),
                     pytest.param(("f_n", "X_n"), id="f_n+X_n")])


@pytest.mark.parametrize("kinds", _CONTEXT_KINDS)
def test_context_buffers_bit_equal_to_plain_expressions(kinds, sine2_weight,
                                                        sine2_basis):
    # the pool rows a _RunContext reuses give the bits of fresh arrays, for
    # a full chunk and for short last ones down to one draw, filled again
    # and again, from rows built at max(n_list) and cut to n, at one and
    # at two OpenBLAS threads.  n = 400 takes products deeper than
    # OpenBLAS's 384-row panels, and one draw takes GEMV where more take
    # GEMM, so stacking value and slope coefficients into one product
    # must keep each row's bits there too
    cfg = ExperimentConfig(weight_name="sine2", n_list=(40, 400),
                           replicates=70, master_seed=SEED,
                           process_kinds=kinds)
    ctx = _RunContext(cfg, sine2_weight, sine2_basis)
    assert list(ctx.rows[40]) == [k for k in ("X_n", "f_n", "T_n",
                                              "perturbed") if k in kinds]
    id_sets = [range(64), range(64, 70), range(5), range(1), range(69, 70),
               range(2), range(37)]
    threads = harness._set_blas_threads(1)
    try:
        for count in (1, 2):
            harness._set_blas_threads(count)
            for n in cfg.n_list:
                for ids in id_sets:
                    A, B, _ = sample_coefficient_block(SEED, n, list(ids))
                    A *= 1.0 / math.sqrt(n)
                    B *= 1.0 / math.sqrt(n)
                    m, kept = len(ids), {}
                    for kind in ctx.rows[n]:
                        rows = ctx.rows[n][kind]
                        got = combine(rows, A, B, out=ctx.out(kind, m))
                        want = _plain_combine(rows, A, B)
                        kept[kind] = got[0], want[0]
                        for g, w in zip(got, want):
                            assert np.shares_memory(g, ctx.pool)
                            np.testing.assert_array_equal(
                                g, w, err_msg="%s, n=%d, m=%d, %d threads"
                                % (kind, n, m, count))
                    if "f_n" in kept and "X_n" in kept:
                        # sup_eps reads X_n's values after f_n's count
                        np.testing.assert_array_equal(*kept["X_n"])
    finally:
        if threads is not None:
            harness._set_blas_threads(threads)


@pytest.mark.parametrize("kinds", _CONTEXT_KINDS)
def test_context_rows_bit_equal_to_fresh_rows(kinds, sine2_weight,
                                              sine2_basis):
    # a run builds each kind's rows once, at max(n_list); the rows it
    # gives a smaller n are those that process_rows builds for that n,
    # and T_n's keep those bits when they are views of perturbed's table
    n = 40
    cfg = ExperimentConfig(weight_name="sine2", n_list=(n, 400),
                           replicates=2, master_seed=SEED,
                           process_kinds=kinds)
    grid = cfg.grid
    ctx = _RunContext(cfg, sine2_weight, sine2_basis)
    for n_rows in (n, 400):
        for kind in kinds:
            got = ctx.rows[n_rows][kind]
            want = process_rows(kind, n_rows, weight=sine2_weight,
                                basis_pair=sine2_basis, grid=grid)
            assert got.ra.shape == (n_rows + (kind == "perturbed"),
                                    grid.count)
            for f in fields(want):
                if getattr(want, f.name) is None:
                    assert getattr(got, f.name) is None, f.name
                else:
                    np.testing.assert_array_equal(getattr(got, f.name),
                                                  getattr(want, f.name),
                                                  err_msg=f.name)


def _traced_context(cfg, weight, basis_pair=None):
    """(ctx, peak, kept): a _RunContext and the bytes numpy allocates
    while building it, at their peak and once it is built, as
    tracemalloc sees them."""
    omega_map(weight, cfg.grid)  # the cached phase map is not the rows'
    tracemalloc.start()
    try:
        ctx = _RunContext(cfg, weight, basis_pair)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ctx, peak, kept


def test_context_build_peak_with_shared_table(sine2_weight):
    # T_n beside perturbed: one cos/sin table of 401 rows, whose first
    # 400 rows are T_n's, and a chunk pool of 4 * CHUNK rows, which each
    # kind's combine calls reuse for their values, slopes and stacked
    # products; a few rows' slack covers per-point vectors
    n_top = 400
    cfg = ExperimentConfig(weight_name="sine2", n_list=(50, n_top),
                           replicates=2, master_seed=SEED,
                           process_kinds=("T_n", "perturbed"))
    row = cfg.grid.count * 8
    kept_rows = 2 * (n_top + 1) + 4 * harness.CHUNK
    ctx, peak, kept = _traced_context(cfg, sine2_weight)
    assert kept_rows * row <= kept <= peak <= (kept_rows + 4) * row
    t_rows, p_rows = ctx.rows[n_top]["T_n"], ctx.rows[n_top]["perturbed"]
    assert p_rows.ra.shape == (n_top + 1, cfg.grid.count)
    for name in ("ra", "rb"):
        assert np.shares_memory(getattr(t_rows, name), getattr(p_rows, name))


def test_context_build_peak_with_coupled_kinds(sine2_weight, sine2_basis):
    # f_n beside X_n: X_n's cos/sin table of 400 rows, and a chunk pool of
    # 4 * CHUNK rows, X_n's values and f_n's values, slopes and scratch;
    # f_n's rows are the basis's own samples.  A few rows' slack covers
    # per-point vectors
    n_top = 400
    cfg = ExperimentConfig(weight_name="sine2", n_list=(50, n_top),
                           replicates=2, master_seed=SEED,
                           process_kinds=("f_n", "X_n"), k_max=n_top)
    row = cfg.grid.count * 8
    kept_rows = 2 * n_top + 4 * harness.CHUNK
    ctx, peak, kept = _traced_context(cfg, sine2_weight, sine2_basis)
    assert kept_rows * row <= kept <= peak <= (kept_rows + 4) * row
    assert ctx.pool.size == 4 * harness.CHUNK * cfg.grid.count
    # all four kinds share one pool too, of no more than 6 * CHUNK rows
    every = _RunContext(replace(cfg, process_kinds=SIMULATED_KINDS),
                        sine2_weight, sine2_basis)
    assert every.pool.size <= 6 * harness.CHUNK * cfg.grid.count


@pytest.mark.parametrize("kind", ["T_n", "X_n", "perturbed"])
def test_context_build_holds_no_full_size_temporaries(kind, sine2_weight):
    # a kind alone writes its sines into the phase buffer, so the build
    # peaks at what the context keeps; a few rows' slack covers
    # per-point vectors
    cfg = ExperimentConfig(weight_name="sine2", n_list=(50, 400),
                           replicates=2, master_seed=SEED,
                           process_kinds=(kind,))
    row = cfg.grid.count * 8
    _, peak, kept = _traced_context(cfg, sine2_weight)
    assert peak <= kept + 4 * row


def test_run_records_independent_of_n_list_and_workers(monkeypatch,
                                                       unit_basis):
    # each n of a run gets the records of a run of that n alone, for one
    # worker and for two; 130 replicates leave each n a short last chunk.
    # A run builds each kind's rows once and forks at most one pool;
    # T_n's rows are views of perturbed's table, which has one row more.
    calls, pools = [], []
    real_rows = harness.process_rows

    def counted_rows(kind, n, **kwargs):
        calls.append((kind, n))
        return real_rows(kind, n, **kwargs)

    real_pool = concurrent.futures.ProcessPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(args[0])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(harness, "process_rows", counted_rows)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        counted_pool)

    def run(n_list, threads):
        monkeypatch.setenv("SLZEROS_THREADS", threads)
        cfg = ExperimentConfig(weight_name="unit", n_list=n_list,
                               replicates=130, master_seed=SEED,
                               process_kinds=SIMULATED_KINDS)
        del calls[:], pools[:]
        rows = [record_row(r) for r in run_experiment(cfg,
                                                      basis_pair=unit_basis)]
        top = max(n_list)
        assert calls == [("f_n", top), ("X_n", top), ("perturbed", top)]
        assert pools == ([] if threads == "1" else [2])
        return rows

    whole = {threads: run((10, 20), threads) for threads in ("1", "2")}
    assert len(whole["1"]) == 260
    assert whole["1"] == whole["2"]
    for threads in ("1", "2"):
        assert whole[threads] == run((10,), threads) + run((20,), threads)


_DYING_WORKER = """
import multiprocessing, os
from slzeros import ExperimentConfig, harness, run_experiment

def die(task):
    os._exit(9)

harness._process_chunk = die
cfg = ExperimentConfig(weight_name="unit", n_list=(10, 20), replicates=130,
                       master_seed=1, process_kinds=("T_n",))
try:
    run_experiment(cfg)
except ChildProcessError:
    print("ChildProcessError", len(multiprocessing.active_children()))
"""


def test_dead_records_worker_ends_the_run(module_cli_env):
    # a worker killed mid-task (os._exit, or the OOM killer) must end the
    # run with ChildProcessError, not leave run_experiment waiting for a
    # lost task; the script runs in its own session, so a hang is killed
    # with every worker it forked
    proc = subprocess.Popen(
        [sys.executable, "-c", _DYING_WORKER], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
        env=dict(module_cli_env, SLZEROS_THREADS="2"))
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_experiment still waited 60 s after its worker died")
    assert proc.returncode == 0, err
    assert out.split() == ["ChildProcessError", "0"]


def test_run_experiment_worker_invariance(monkeypatch):
    cfg = ExperimentConfig(
        weight_name="unit", n_list=(10,), replicates=130, master_seed=SEED,
        process_kinds=("T_n",))
    monkeypatch.setenv("SLZEROS_THREADS", "1")
    serial = [record_row(r) for r in run_experiment(cfg)]
    monkeypatch.setenv("SLZEROS_THREADS", "2")
    forked = [record_row(r) for r in run_experiment(cfg)]
    assert serial == forked
    assert len(serial) == 130


def test_counts_at_n400_independent_of_workers(monkeypatch, sine2_basis):
    # 128 replicates are two tasks, so two workers both fork.  A forked
    # worker sets OpenBLAS to one thread and a one-worker run keeps the
    # library's default, so sup_eps may move in its last bits at n = 400;
    # no count or flag may move
    def run(threads):
        monkeypatch.setenv("SLZEROS_THREADS", threads)
        return run_experiment(ExperimentConfig(
            weight_name="sine2", n_list=(400,), replicates=128,
            master_seed=SEED), basis_pair=sine2_basis)

    one, two = run("1"), run("2")
    assert len(one) == 128
    for name in ("n_fn", "n_xn", "stable_fn", "stable_xn"):
        assert [getattr(r, name) for r in one] == \
            [getattr(r, name) for r in two], name
    np.testing.assert_allclose([r.sup_eps for r in one],
                               [r.sup_eps for r in two], rtol=1e-12)


@pytest.fixture(scope="module")
def split_pair(sine2_weight):
    """A sine2 (C, D) pair of 20 modes each, C solved on 1025 points and
    D on 2049."""
    return tuple(eigen_solve(sine2_weight, bc, 20, grid=Grid(count))
                 for bc, count in ((BoundaryCondition.C, 1025),
                                   (BoundaryCondition.D, 2049)))


@pytest.mark.parametrize("use", ["build_process", "gap_diagnostics",
                                 "run_experiment"])
def test_pair_on_two_grids_refused(use, split_pair, sine2_weight):
    n = 20
    with pytest.raises(PreconditionError):
        if use == "build_process":
            build_process("f_n", n, sample_coefficients(SEED, n, 0),
                          basis_pair=split_pair)
        elif use == "gap_diagnostics":
            gap_diagnostics(split_pair, sine2_weight, (n,))
        else:
            run_experiment(ExperimentConfig(
                weight_name="sine2", n_list=(n,), replicates=2,
                master_seed=SEED), basis_pair=split_pair)


def test_basis_off_the_run_grid_refused_before_records(sine2_weight,
                                                       tmp_path):
    # 70 modes on 1025 points: n = 70 would leave T_n 14.6 points per
    # wavelength there, but the run samples on config.grid alone
    pair = build_basis_pair(sine2_weight, 70, Grid(1025))
    out = tmp_path / "o"
    cfg = ExperimentConfig(weight_name="sine2", n_list=(70,), replicates=2,
                           master_seed=SEED, process_kinds=("f_n", "T_n"),
                           output_path=str(out))
    with pytest.raises(PreconditionError,
                       match="C family was solved on 1025 points"):
        run_experiment(cfg, basis_pair=pair)
    assert not out.exists()


def test_short_basis_refused_before_records(sine2_basis_200, tmp_path):
    out = tmp_path / "o"
    cfg = ExperimentConfig(weight_name="sine2", n_list=(300,), replicates=2,
                           master_seed=SEED, output_path=str(out))
    with pytest.raises(PreconditionError, match="eigenbasis too small"):
        run_experiment(cfg, basis_pair=sine2_basis_200)
    assert not out.exists()


# a fresh process builds a run's context at n = 400 for the given kinds,
# counts one chunk, then prints the minor page faults of 11 more chunks
_CHUNK_LOOP = """
import resource, sys
from slzeros import ExperimentConfig, builtin_weights, harness
cfg = ExperimentConfig(weight_name="sine2", n_list=(400,), replicates=768,
                       master_seed=1, process_kinds=tuple(sys.argv[1:]))
harness._WORKER_CTX = harness._RunContext(cfg, builtin_weights("sine2"), None)
tasks = [(400, list(range(lo, lo + harness.CHUNK)))
         for lo in range(0, cfg.replicates, harness.CHUNK)]
harness._process_chunk(tasks[0])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for task in tasks[1:]:
    harness._process_chunk(task)
print(len(tasks) - 1, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults as Linux counts them")
@pytest.mark.parametrize("kinds", [("X_n",), ("T_n", "perturbed")])
def test_chunk_loop_reuses_its_memory(module_cli_env, kinds):
    # with the allocator's defaults, a chunk after the first faults in
    # fewer than 32 pages: combine writes into the context's buffers and
    # the zero counter's row blocks, masks included, into one buffer per
    # call
    out = subprocess.run([sys.executable, "-c", _CHUNK_LOOP, *kinds],
                         capture_output=True, text=True,
                         env=module_cli_env, check=True)
    chunks, faults = map(int, out.stdout.split())
    assert chunks == 11
    assert faults < chunks * 32


def test_run_context_leaves_no_thread_alive(monkeypatch, sine2_weight):
    # the row builds fill their large tables in two threads, and join
    # them before they return, so a pool or a child forks from one thread
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(ensembles.threading, "Thread", CountedThread)
    cfg = ExperimentConfig(weight_name="sine2", n_list=(50, 400),
                           replicates=70, master_seed=SEED,
                           process_kinds=("X_n", "T_n", "perturbed"))
    alive = threading.active_count()
    _RunContext(cfg, sine2_weight, None)
    assert threading.active_count() == alive
    assert len(started) == 2  # X_n's table and perturbed's, T_n's too


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SLZEROS_THREADS", "8")
    assert _worker_count(3) == 3
    assert _worker_count(100) == 8
    monkeypatch.setenv("SLZEROS_THREADS", "0")
    assert _worker_count(3) == 1
    monkeypatch.setenv("SLZEROS_THREADS", "two")
    with pytest.raises(PreconditionError):
        _worker_count(3)


def test_bad_thread_count_refused_before_any_work(monkeypatch, tmp_path):
    def no_solve(*args, **kwargs):
        raise AssertionError("the basis solve ran")

    monkeypatch.setattr(harness, "build_basis_pair", no_solve)
    monkeypatch.setenv("SLZEROS_THREADS", "two")
    cfg = ExperimentConfig(
        weight_name="unit", n_list=(5,), replicates=4, master_seed=SEED,
        process_kinds=("f_n",), output_path=str(tmp_path / "o"))
    with pytest.raises(PreconditionError, match="SLZEROS_THREADS"):
        run_experiment(cfg)
    assert not (tmp_path / "o").exists()


def test_run_experiment_unknown_weight():
    cfg = ExperimentConfig(weight_name="nope", n_list=(10,), replicates=4,
                           master_seed=SEED, process_kinds=("T_n",))
    with pytest.raises(UsageError):
        run_experiment(cfg)


def test_build_basis_pair_is_ordered(unit_weight):
    pair = build_basis_pair(unit_weight, 3, grid=Grid(1025))
    assert pair[0].bc.value == "C"
    assert pair[1].bc.value == "D"
    assert pair[0].k_max == pair[1].k_max == 3


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve_d_with(monkeypatch, d_solve, c_solve=None):
    """Route harness.eigen_solve's D calls, and its C calls when c_solve
    is given, to stand-ins."""
    real = harness.eigen_solve

    def solve(weight, bc, k_max, grid=None):
        if bc is BoundaryCondition.D:
            return d_solve(weight, bc, k_max, grid=grid)
        return (c_solve or real)(weight, bc, k_max, grid=grid)

    monkeypatch.setattr(harness, "eigen_solve", solve)


def _assert_basis_equal(basis, solo):
    assert basis.bc is solo.bc
    assert basis.grid is solo.grid
    assert np.array_equal(basis.eigenvalues, solo.eigenvalues)
    assert np.array_equal(basis.funcs, solo.funcs)
    assert np.array_equal(basis.dfuncs, solo.dfuncs)
    assert [p.index for p in basis.pairs] == [p.index for p in solo.pairs]
    for k, pair in enumerate(basis.pairs):
        assert np.array_equal(pair.func, basis.funcs[k])
        assert np.array_equal(pair.dfunc, basis.dfuncs[k])


@pytest.mark.parametrize("name", ["sine2", "expcos"])
def test_build_basis_pair_bit_equal_to_solo_solves(name):
    w = builtin_weights(name)
    g = Grid(1025)
    pair = build_basis_pair(w, 24, grid=g)
    _no_child_left()
    for basis, bc in zip(pair, (BoundaryCondition.C, BoundaryCondition.D)):
        _assert_basis_equal(basis, eigen_solve(w, bc, 24, grid=g))


def test_build_basis_pair_d_arrays_live_in_a_shared_mapping(unit_weight):
    c, d = build_basis_pair(unit_weight, 6, grid=Grid(257))
    for arr in (d.funcs, d.dfuncs):
        owner = arr
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert isinstance(getattr(owner, "obj", owner), mmap.mmap)
    assert c.funcs.flags.owndata  # C is solved in this process


def test_build_basis_pair_without_fork_solves_in_turn(monkeypatch):
    w = builtin_weights("sine2")
    g = Grid(1025)
    forked = build_basis_pair(w, 12, grid=g)
    monkeypatch.delattr(os, "fork")
    for basis, solo in zip(build_basis_pair(w, 12, grid=g), forked):
        _assert_basis_equal(basis, solo)


def test_build_basis_pair_raises_the_childs_error(monkeypatch, unit_weight):
    message = "no residual sign change found for ordinal 3 (D family)"

    def failing(weight, bc, k_max, grid=None):
        raise NumericError(message)

    _solve_d_with(monkeypatch, failing)
    with pytest.raises(NumericError) as info:
        build_basis_pair(unit_weight, 5, grid=Grid(257))
    assert type(info.value) is NumericError
    assert str(info.value) == message
    _no_child_left()


def test_build_basis_pair_names_an_unpicklable_error(monkeypatch, unit_weight):
    class LocalError(Exception):  # a local class does not pickle
        pass

    def failing(weight, bc, k_max, grid=None):
        raise LocalError("lost in the child")

    _solve_d_with(monkeypatch, failing)
    with pytest.raises(RuntimeError, match="^LocalError: lost in the child$"):
        build_basis_pair(unit_weight, 5, grid=Grid(257))
    _no_child_left()


def test_build_basis_pair_child_that_dies_silently(monkeypatch, unit_weight):
    def dying(weight, bc, k_max, grid=None):
        os._exit(3)

    _solve_d_with(monkeypatch, dying)
    with pytest.raises(ChildProcessError, match="exit code 3 and sent no error"):
        build_basis_pair(unit_weight, 5, grid=Grid(257))
    _no_child_left()


def test_build_basis_pair_kills_and_reaps_the_child_when_c_fails(
        monkeypatch, unit_weight):
    def slow(weight, bc, k_max, grid=None):
        time.sleep(60)

    def failing(weight, bc, k_max, grid=None):
        raise NumericError("C failed")

    _solve_d_with(monkeypatch, slow, c_solve=failing)
    start = time.monotonic()
    with pytest.raises(NumericError, match="^C failed$"):
        build_basis_pair(unit_weight, 5, grid=Grid(257))
    assert time.monotonic() - start < 30
    _no_child_left()


def _sample_row_sets():
    """Two row sets of different widths at n = 13: X_n (sine2) at 6
    points and T_n at 3."""
    xs = np.linspace(0.3, 6.0, 6)
    return [process_rows("X_n", 13, xs, weight=builtin_weights("sine2"),
                         grid=Grid(1025)),
            process_rows("T_n", 13, xs[:3])]


@pytest.fixture
def small_draw_blocks(monkeypatch):
    """Blocks of 256 ids, so that m = 1000 or 1001 gives each half two
    blocks, the child's last one short."""
    monkeypatch.setattr(harness, "_DRAW_BLOCK", 256)


def _block_loop(n, m, row_sets):
    """_sampled_in_halves's tables from one process, block by block, at
    one OpenBLAS thread."""
    threads = harness._set_blas_threads(1)
    try:
        tables = [np.empty((m, rows.ra.shape[1])) for rows in row_sets]
        for lo in range(0, m, harness._DRAW_BLOCK):
            hi = min(lo + harness._DRAW_BLOCK, m)
            A, B, _ = sample_coefficient_block(SEED, n, range(lo, hi))
            A /= math.sqrt(n)
            B /= math.sqrt(n)
            for rows, table in zip(row_sets, tables):
                table[lo:hi] = combine(rows, A, B, deriv=False)[0]
    finally:
        if threads is not None:
            harness._set_blas_threads(threads)
    return tables


@pytest.mark.parametrize("m", [1001, 1000])  # odd and even m
def test_sampled_in_halves_bit_equal_to_one_process_block_loop(
        small_draw_blocks, m):
    row_sets = _sample_row_sets()
    tables = harness._sampled_in_halves(SEED, 13, m, row_sets)
    _no_child_left()
    for got, want in zip(tables, _block_loop(13, m, row_sets)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("m, blocks", [(500, 2), (700, 3), (1001, 4)])
def test_sampled_in_halves_draws_the_larger_half_here(
        small_draw_blocks, monkeypatch, tmp_path, m, blocks):
    # the forked child pays the fork's first-use costs, so the calling
    # process draws blocks [0, ceil(k/2)) and the child the rest
    log = str(tmp_path / "draws")
    draw = harness.sample_coefficient_block

    def logged(master_seed, n, ids, out=None):
        with open(log, "a") as fh:  # one line per call, from either side
            fh.write("%d %d\n" % (os.getpid(), ids[0]))
        return draw(master_seed, n, ids, out=out)

    monkeypatch.setattr(harness, "sample_coefficient_block", logged)
    row_sets = _sample_row_sets()
    tables = harness._sampled_in_halves(SEED, 13, m, row_sets)
    _no_child_left()
    with open(log) as fh:
        calls = [tuple(map(int, line.split())) for line in fh]
    here = -(-blocks // 2)
    assert sorted(first for _, first in calls) == [256 * i
                                                   for i in range(blocks)]
    assert sorted(first for pid, first in calls
                  if pid == os.getpid()) == [256 * i for i in range(here)]
    assert len({pid for pid, _ in calls}) == 2
    for got, want in zip(tables, _block_loop(13, m, row_sets)):
        assert np.array_equal(got, want)


def test_sampled_in_halves_agrees_with_one_plain_combine():
    row_sets = _sample_row_sets()
    A, B, _ = sample_coefficient_block(SEED, 13, range(5000))
    A /= math.sqrt(13)
    B /= math.sqrt(13)
    tables = harness._sampled_in_halves(SEED, 13, 5000, row_sets)
    assert len(tables) == 2
    for rows, table in zip(row_sets, tables):
        np.testing.assert_allclose(table, combine(rows, A, B, deriv=False)[0],
                                   rtol=1e-12, atol=0)


def test_sampled_in_halves_without_fork_runs_in_turn(small_draw_blocks,
                                                     monkeypatch):
    row_sets = _sample_row_sets()
    forked = harness._sampled_in_halves(SEED, 13, 1001, row_sets)
    monkeypatch.delattr(os, "fork")
    for got, want in zip(harness._sampled_in_halves(SEED, 13, 1001, row_sets),
                         forked):
        assert np.array_equal(got, want)


def test_sampled_in_halves_runs_one_block_here(monkeypatch):
    # m = 1000 is one block at the default _DRAW_BLOCK: no fork
    def no_fork():
        raise AssertionError("forked for a one-block draw")

    monkeypatch.setattr(os, "fork", no_fork)
    row_sets = _sample_row_sets()
    tables = harness._sampled_in_halves(SEED, 13, 1000, row_sets)
    for got, want in zip(tables, _block_loop(13, 1000, row_sets)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _draw_halves_with(monkeypatch, lower, upper):
    """Route harness.sample_coefficient_block's calls for the lower half
    of the blocks (first id below 512, drawn here) and the upper half
    (drawn in the child) to stand-ins; with 256-id blocks and m = 1001
    the halves are ids [0, 512) and [512, 1001)."""
    def draw(master_seed, n, ids, out=None):
        return (lower if ids[0] < 512 else upper)()

    monkeypatch.setattr(harness, "sample_coefficient_block", draw)


def test_sampled_in_halves_raises_the_childs_error(small_draw_blocks,
                                                   monkeypatch):
    def failing():
        raise DomainError("the upper half failed")

    _draw_halves_with(monkeypatch, lambda: None, failing)
    with pytest.raises(DomainError) as info:
        harness._sampled_in_halves(SEED, 13, 1001, _sample_row_sets())
    assert type(info.value) is DomainError
    assert str(info.value) == "the upper half failed"
    _no_child_left()


def test_sampled_in_halves_kills_and_reaps_the_child_when_its_half_fails(
        small_draw_blocks, monkeypatch):
    def failing():
        raise DomainError("the lower half failed")

    _draw_halves_with(monkeypatch, failing, lambda: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(DomainError, match="^the lower half failed$"):
        harness._sampled_in_halves(SEED, 13, 1001, _sample_row_sets())
    assert time.monotonic() - start < 30
    _no_child_left()


def test_covariance_check_bits_independent_of_blas_threads(sine2_basis,
                                                           sine2_weight):
    # at n = 400 one plain (m, 400) @ (400, 40) matmul sums in another
    # order under two OpenBLAS threads than under one
    outs = []
    for count in (1, 2):
        before = harness._set_blas_threads(count)
        if before is None:
            pytest.skip("numpy's bundled OpenBLAS is not found")
        try:
            outs.append(covariance_check(sine2_weight, 400,
                                         basis_pair=sine2_basis, m=5000))
            assert harness._set_blas_threads(count) == count  # restored
        finally:
            harness._set_blas_threads(before)
    for key in ("cov_empirical", "var_f_empirical"):
        assert np.array_equal(outs[0][key], outs[1][key])


@pytest.mark.parametrize("with_basis, columns", [(True, 3), (False, 2)])
def test_covariance_check_shares_only_the_sampled_columns(
        small_draw_blocks, monkeypatch, unit_basis, unit_weight, with_basis,
        columns):
    # 256-id blocks: m = 1200 is five blocks, so the draw forks
    sizes = []
    beside_child = harness._beside_child

    def spy(nbytes, child, parent):
        sizes.append(nbytes)
        return beside_child(nbytes, child, parent)

    monkeypatch.setattr(harness, "_beside_child", spy)
    for n in (20, 80):
        covariance_check(unit_weight, n, n_pairs=7, m=1200,
                         basis_pair=unit_basis if with_basis else None)
    assert sizes == [8 * 1200 * columns * 7] * 2


@pytest.mark.parametrize("n_pairs", [0, -1, 2.5, float("nan"), float("inf"),
                                     "3"])
def test_covariance_check_refuses_bad_n_pairs(monkeypatch, unit_weight,
                                              n_pairs):
    def draw(*args, **kwargs):
        raise AssertionError("drew before refusing n_pairs")

    monkeypatch.setattr(harness, "sample_coefficient_block", draw)
    with pytest.raises(PreconditionError,
                       match="^n_pairs must be a positive integer, got %s$"
                       % re.escape(repr(n_pairs))):
        covariance_check(unit_weight, 5, n_pairs=n_pairs, m=1000)


@pytest.mark.parametrize("n", [0, -1, 2.5, float("nan"), float("inf")])
def test_covariance_check_refuses_bad_orders(monkeypatch, unit_weight, n):
    # the rows are built before any draw, and process_rows checks n first
    def draw(*args, **kwargs):
        raise AssertionError("drew before refusing n")

    monkeypatch.setattr(harness, "sample_coefficient_block", draw)
    with pytest.raises(DomainError,
                       match="^order n must be a positive integer, got %s$"
                       % re.escape(repr(n))):
        covariance_check(unit_weight, n, m=1000)


@pytest.mark.parametrize("m", [1000.5, float("nan"), float("inf"), "2000"])
def test_covariance_check_refuses_bad_m(monkeypatch, unit_weight, m):
    def draw(*args, **kwargs):
        raise AssertionError("drew before refusing m")

    monkeypatch.setattr(harness, "sample_coefficient_block", draw)
    with pytest.raises(PreconditionError,
                       match=r"^m must be a positive integer, got %s$"
                       % re.escape(repr(m))):
        covariance_check(unit_weight, 4, m=m)


def test_covariance_check_takes_integral_float_m(unit_weight):
    assert check_covariance_draws(2000.0) == 2000
    whole = covariance_check(unit_weight, 4, m=2000)
    out = covariance_check(unit_weight, 4, m=2000.0)
    assert type(out["draws"]) is int and out["draws"] == 2000
    np.testing.assert_array_equal(out["cov_empirical"], whole["cov_empirical"])


@pytest.mark.parametrize("k_max, match", [
    (0, "k_max must be a positive integer, got 0"),
    (2.5, "k_max must be a positive integer, got 2.5"),
    (math.nan, "k_max must be a positive integer, got nan"),
    (math.inf, "k_max must be a positive integer, got inf"),
    (400, "k_max=400 leaves .* k_max must be at most"),
])
def test_build_basis_pair_refuses_bad_k_max(unit_weight, k_max, match):
    with pytest.raises(PreconditionError, match=match):
        build_basis_pair(unit_weight, k_max, grid=Grid(257))
    _no_child_left()


# ----------------------------------------------------------------------
# the KS statistic


def test_ks_statistic_constant_samples():
    np.testing.assert_allclose(ks_statistic(np.zeros(5), 0.0, 1.0), 0.5)
    # constant at one reference sd above the mean
    phi1 = 0.8413447460685429
    np.testing.assert_allclose(ks_statistic(np.full(9, 3.0), 2.0, 1.0), phi1,
                               rtol=1e-12)


def test_ks_statistic_gaussian_quantiles():
    m = 2000
    sample = 5.0 + 2.0 * ndtri((np.arange(1, m + 1) - 0.5) / m)
    ks = ks_statistic(sample, 5.0, 2.0)
    np.testing.assert_allclose(ks, 1.0 / (2 * m), atol=1e-10)


def test_ks_statistic_matches_scipy_erfc_reference():
    # math.erfc in place of scipy.special.erfc moves only the last bits
    rng = np.random.default_rng(5)
    sample = rng.normal(size=500).round(1) * 3.0
    mean, sd = float(np.mean(sample)), float(np.std(sample, ddof=1))
    z = np.sort(sample - mean)
    cdf = 0.5 * erfc(-z / (sd * math.sqrt(2.0)))
    grid = np.arange(1, z.size + 1) / z.size
    want = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / z.size)))
    np.testing.assert_allclose(ks_statistic(sample, mean, sd), want,
                               rtol=1e-14, atol=0)


def test_ks_statistic_validation():
    with pytest.raises(PreconditionError):
        ks_statistic(np.ones(1), 0.0, 1.0)
    with pytest.raises(DomainError):
        ks_statistic(np.ones(5), 0.0, 0.0)


# ----------------------------------------------------------------------
# summaries on synthetic records


def _tn_records(n, counts):
    return [ReplicateRecord(n=n, replicate_id=i, seed=i, n_tn=c)
            for i, c in enumerate(counts)]


def test_summarize_moments_pinned():
    report = summarize(_tn_records(4, [1, 3, 5, 7]))
    assert report.n_list == (4,)
    ks = report.per_n[4].kinds["T_n"]
    assert ks.replicates == 4
    np.testing.assert_allclose(ks.mean, 4.0)
    np.testing.assert_allclose(ks.var, 20.0 / 3.0)
    np.testing.assert_allclose(ks.var_over_n, 5.0 / 3.0)
    np.testing.assert_allclose(ks.skewness, 0.0, atol=1e-14)
    np.testing.assert_allclose(ks.excess_kurtosis, 41.0 / 25.0 - 3.0)
    lo, hi = ks.var_over_n_ci
    half = 1.959963984540054 * math.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(lo, 5.0 / 3.0 * math.exp(-half))
    np.testing.assert_allclose(hi, 5.0 / 3.0 * math.exp(half))
    assert ks.stable_fraction is None
    assert not ks.unreliable
    assert report.per_n[4].contiguity is None
    assert report.v_estimate == {"T_n": ks.var_over_n}


def test_summarize_degenerate_counts():
    ks = summarize(_tn_records(4, [6, 6, 6])).per_n[4].kinds["T_n"]
    assert ks.var == 0.0
    assert ks.var_over_n_ci == (0.0, 0.0)
    assert ks.ks_fitted == 1.0


def test_summarize_stability_flags():
    recs = [ReplicateRecord(n=5, replicate_id=i, seed=i, n_fn=4 + i, n_xn=4,
                            sup_eps=0.1, stable_fn=False, stable_xn=True)
            for i in range(3)]
    block = summarize(recs).per_n[5]
    assert block.kinds["f_n"].stable_fraction == 0.0
    assert block.kinds["f_n"].unreliable
    assert block.kinds["X_n"].stable_fraction == 1.0
    assert not block.kinds["X_n"].unreliable
    # contiguity: mean |N_f - N_X| / sqrt(n) = (0 + 1 + 2)/3 / sqrt(5)
    np.testing.assert_allclose(block.contiguity, 1.0 / math.sqrt(5.0))
    np.testing.assert_allclose(block.sup_eps_median_scaled,
                               0.1 * math.sqrt(5.0) / math.log(5.0))


def test_summarize_v_estimate_uses_largest_n():
    recs = _tn_records(4, [1, 3, 5, 7]) + _tn_records(16, [4, 8])
    report = summarize(recs)
    assert report.n_list == (4, 16)
    np.testing.assert_allclose(report.v_estimate["T_n"], 8.0 / 16.0)


def test_summarize_validation():
    with pytest.raises(PreconditionError):
        summarize([])
    with pytest.raises(PreconditionError):
        summarize(_tn_records(4, [3]))


def test_summary_json_round_trip(tmp_path):
    report = summarize(_tn_records(4, [1, 3, 5, 7]))
    d = report.to_dict()
    assert set(d) == {"n_list", "per_n", "v_estimate"}
    assert list(d["per_n"]) == ["4"]  # JSON-safe string keys
    path = tmp_path / "summary.json"
    write_summary(report, path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(d))


# ----------------------------------------------------------------------
# diagnostics


def test_contiguity_diagnostic_pinned():
    recs = [ReplicateRecord(n=9, replicate_id=i, seed=i, n_fn=a, n_xn=b)
            for i, (a, b) in enumerate([(5, 3), (4, 4), (7, 4)])]
    out = summarize(recs).per_n[9].contiguity
    np.testing.assert_allclose(out, (2 + 0 + 3) / 3.0 / 3.0)
    # no paired counts, no statistic
    assert summarize(_tn_records(4, [1, 2])).per_n[4].contiguity is None


def test_sup_eps_diagnostic_flat_series_has_zero_slope():
    recs = []
    for n in (10, 100):
        sup = math.log(n) / math.sqrt(n)
        recs += [ReplicateRecord(n=n, replicate_id=i, seed=i, n_fn=1, n_xn=1,
                                 sup_eps=sup) for i in range(3)]
    out = sup_eps_diagnostic(recs)
    np.testing.assert_allclose(out["quantiles"][10]["median"], 1.0)
    np.testing.assert_allclose(out["quantiles"][100]["p99"], 1.0)
    assert abs(out["median_loglog_slope"]) < 1e-12
    with pytest.raises(PreconditionError):
        sup_eps_diagnostic(_tn_records(4, [1, 2]))
    # log(1) = 0: summarize leaves n = 1 unscaled, the diagnostic refuses it
    at_1 = [ReplicateRecord(n=1, replicate_id=i, seed=i, n_fn=1, n_xn=1,
                            sup_eps=0.1) for i in range(2)]
    assert summarize(at_1).per_n[1].sup_eps_median_scaled is None
    with pytest.raises(PreconditionError, match="n < 2"):
        sup_eps_diagnostic(at_1)


def test_gap_diagnostics_unit_weight_vanishes(unit_basis, unit_weight):
    diag, = gap_diagnostics(unit_basis, unit_weight, (50,))
    assert diag.n == 50
    assert diag.x_grid.shape == (257,)
    assert diag.var_f.shape == (257,)
    assert diag.var_dev_sup < 1e-6
    assert diag.alpha_sup < 1e-5
    assert diag.delta_sup < 1e-6
    assert diag.beta_sup < 1e-6


def test_gap_diagnostics_sine2_bounded(sine2_basis, sine2_weight):
    diag, = gap_diagnostics(sine2_basis, sine2_weight, (50,))
    assert 0.0 < diag.var_dev_sup < 0.05
    assert 0.0 < diag.alpha_sup < 1.0
    assert 0.0 < diag.delta_sup < 0.1
    assert 0.0 < diag.beta_sup < 0.1


def test_gap_diagnostics_needs_basis(unit_basis, unit_weight):
    with pytest.raises(PreconditionError):
        gap_diagnostics(unit_basis, unit_weight, (200,))


@pytest.mark.parametrize("n_list", [(10, 0), (10, -1), (10, 2.5),
                                    (10, float("nan")), (10, float("inf")),
                                    ()], ids=repr)
def test_gap_diagnostics_refuses_bad_orders(monkeypatch, unit_basis,
                                            unit_weight, n_list):
    def rows(*args, **kwargs):
        raise AssertionError("built rows before refusing n_list")

    monkeypatch.setattr(harness, "process_rows", rows)
    if n_list:
        match = ("^order n must be a positive integer, got %s$"
                 % re.escape(repr(n_list[-1])))
    else:
        match = r"^n_list must hold at least one order n, got \(\)$"
    with pytest.raises(DomainError, match=match):
        gap_diagnostics(unit_basis, unit_weight, n_list)


def _gap_reference(basis_pair, weight, n, x_ref):
    """var f, alpha, Delta and beta at one n as eigenbasis sums written
    out: F_n's rows times sqrt(omega), X_n's cosine/sine rows and their
    slope rule, and the cos/sin of the frequencies at Omega(x_ref)."""
    x = np.linspace(0.0, 2.0 * math.pi, 257)
    f_rows = process_rows("F_n", n, x, basis_pair=basis_pair)
    grid = basis_pair[0].grid
    x_rows = process_rows("X_n", n, x, weight=weight, grid=grid)
    u, v = f_rows.ra, f_rows.rb
    C, S, mu = x_rows.ra, x_rows.rb, x_rows.freq
    om = x_rows.dphase
    omap = omega_map(weight, grid)
    var_f = om * np.sum(u * u + v * v, axis=0) / n
    cov_xp_f = (om * np.sqrt(om)
                * np.sum(mu[:, None] * (C * v - S * u), axis=0) / n)
    cov_x_f = np.sqrt(om) * np.sum(C * u + S * v, axis=0) / n
    om_ref = omap.forward(x_ref)
    cref, sref = np.cos(mu * om_ref), np.sin(mu * om_ref)
    cov_f_xref = np.sqrt(om) * ((cref @ u) + (sref @ v)) / n
    r_ref = r_n_closed(n, (omap.forward(x) - om_ref) / 2.0)[0]
    return {"var_f": var_f, "alpha": cov_xp_f / var_f,
            "delta": np.abs(var_f - cov_x_f ** 2),
            "beta": cov_f_xref - r_ref}


# 10x the largest deviation from the written-out sums measured over the
# cases below (sine2 and expcos, n = 50 and 400, three anchors),
# rounded up: 6.66e-16, 1.22e-15, 3.77e-15 and 3.33e-16
GAP_TOLERANCE = {"var_f": 6.7e-15, "alpha": 1.3e-14, "delta": 3.8e-14,
                 "beta": 3.4e-15}


@pytest.mark.parametrize("x_ref", [0.0, math.pi / 3.0, 2.0 * math.pi])
@pytest.mark.parametrize("name", ["sine2", "expcos"])
def test_gap_diagnostics_match_eigenbasis_sums(name, x_ref, request):
    weight = builtin_weights(name)
    basis_pair = request.getfixturevalue(name + "_basis")
    for diag in gap_diagnostics(basis_pair, weight, (50, 400), x_ref=x_ref):
        want = _gap_reference(basis_pair, weight, diag.n, x_ref)
        for key, tol in GAP_TOLERANCE.items():
            np.testing.assert_allclose(getattr(diag, key), want[key],
                                       rtol=0.0, atol=tol, err_msg=key)


@pytest.mark.parametrize("name", ["sine2", "expcos"])
def test_gap_diagnostics_cut_is_bit_equal(name, request):
    # n = 50 read from the rows of n = 400 has the bits of its own build
    weight = builtin_weights(name)
    basis_pair = request.getfixturevalue(name + "_basis")
    cut = gap_diagnostics(basis_pair, weight, (50, 400))[0]
    alone, = gap_diagnostics(basis_pair, weight, (50,))
    for f in fields(alone):
        np.testing.assert_array_equal(getattr(cut, f.name),
                                      getattr(alone, f.name), err_msg=f.name)


def test_covariance_check_small(unit_basis, unit_weight):
    out = covariance_check(unit_weight, 20, basis_pair=unit_basis,
                           n_pairs=10, m=1500)
    _no_child_left()
    assert out["draws"] == 1500
    assert out["x_pairs"].shape == (10, 2)
    assert out["cov_empirical"].shape == (10,)
    # ~1/sqrt(m) Monte Carlo noise
    assert out["cov_max_error"] < 4.0 / math.sqrt(1500)
    assert out["var_f_max_error"] < 0.12
    with pytest.raises(PreconditionError):
        covariance_check(unit_weight, 20, m=10)
