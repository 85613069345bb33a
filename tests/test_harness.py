"""Experiment configs, record persistence, summaries, diagnostics."""

import json
import logging
import math
import mmap
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import erfc, ndtri

from slzeros import (BoundaryCondition, DomainError, ExperimentConfig,
                     NumericError, PreconditionError, ReplicateRecord,
                     UsageError, build_basis_pair, builtin_weights,
                     covariance_check, eigen_solve, gap_diagnostics,
                     ks_statistic, read_records, run_experiment, summarize,
                     sup_eps_diagnostic, write_records, write_summary)
from slzeros.ensembles import (build_process, combine, process_rows,
                                sample_coefficient_block, sample_coefficients)
from slzeros import ensembles, harness
from slzeros.harness import (RECORD_COLUMNS, SIMULATED_KINDS, _fmt,
                             _RunContext, _worker_count,
                             check_covariance_draws, record_row)
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


def test_close_root_pair_is_counted_and_certified(caplog):
    # perturbed replicate 114 at n=400 holds a zero pair that the callable
    # counter's grid doubling never settled ("468 then 470"); counted
    # cell by cell it is exact, certified, and raises no warning
    cfg = ExperimentConfig(
        weight_name="sine2", n_list=(400,), replicates=115, master_seed=SEED,
        process_kinds=("perturbed",))
    with caplog.at_level(logging.WARNING):
        records = run_experiment(cfg)
    assert records[114].replicate_id == 114
    assert records[114].n_pert == 470
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


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


# each simulated kind alone, and T_n beside perturbed, whose table it shares
_CONTEXT_KINDS = ([pytest.param((kind,), id=kind) for kind in SIMULATED_KINDS]
                  + [pytest.param(("T_n", "perturbed"), id="T_n+perturbed")])


def _spied_context(monkeypatch, cfg, weight, basis_pair):
    """A _RunContext and the tables its perturbed rows were built from."""
    tables = []
    real = harness._perturbed_rows

    def spy(table, *args, **kwargs):
        tables.append(table)
        return real(table, *args, **kwargs)

    monkeypatch.setattr(harness, "_perturbed_rows", spy)
    return _RunContext(cfg, weight, basis_pair), tables


def _assert_shares_perturbed_table(ctx, tables, kinds):
    # with perturbed, T_n's rows are views of the cos/sin table that
    # perturbed's rows were built from, and perturbed's are arrays of
    # their own; without it, T_n builds its own rows
    if set(kinds) != {"T_n", "perturbed"}:
        assert tables == []
        return
    [table] = tables
    n_top = table.ra.shape[0] - 1
    t_rows, p_rows = ctx.rows[n_top]["T_n"], ctx.rows[n_top]["perturbed"]
    assert np.shares_memory(t_rows.ra, table.ra)
    assert np.shares_memory(t_rows.rb, table.rb)
    for name in ("ra", "rb", "da", "db"):
        assert not np.shares_memory(getattr(p_rows, name), table.ra), name
        assert not np.shares_memory(getattr(p_rows, name), table.rb), name


@pytest.mark.parametrize("kinds", _CONTEXT_KINDS)
def test_context_buffers_bit_equal_to_plain_expressions(kinds, monkeypatch,
                                                        sine2_weight,
                                                        sine2_basis):
    # the chunk buffers a _RunContext reuses give the bits of fresh arrays,
    # for a full chunk and for a short last one, filled again and again,
    # from rows built at max(n_list) and cut to n
    n = 40
    cfg = ExperimentConfig(weight_name="sine2", n_list=(n, 400),
                           replicates=70, master_seed=SEED,
                           process_kinds=kinds)
    ctx, tables = _spied_context(monkeypatch, cfg, sine2_weight, sine2_basis)
    _assert_shares_perturbed_table(ctx, tables, kinds)
    for ids in (list(range(64)), list(range(64, 70)), list(range(5))):
        A, B, _ = sample_coefficient_block(SEED, n, ids)
        A *= 1.0 / math.sqrt(n)
        B *= 1.0 / math.sqrt(n)
        m = len(ids)
        for kind in kinds:
            rows = ctx.rows[n][kind]
            got = combine(rows, A, B, out=(
                ctx.values[kind][:m], ctx.slopes[:m], ctx.scratch[:m]))
            assert np.shares_memory(got[0], ctx.values[kind])
            assert np.shares_memory(got[1], ctx.slopes)
            for g, want in zip(got, _plain_combine(rows, A, B)):
                np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("kinds", _CONTEXT_KINDS)
def test_context_rows_bit_equal_to_fresh_rows(kinds, monkeypatch,
                                              sine2_weight, sine2_basis):
    # a run builds each kind's rows once, at max(n_list); the rows it
    # gives a smaller n are those that process_rows builds for that n,
    # and T_n's and perturbed's keep those bits when they share a table
    n = 40
    cfg = ExperimentConfig(weight_name="sine2", n_list=(n, 400),
                           replicates=2, master_seed=SEED,
                           process_kinds=kinds)
    grid = cfg.grid
    ctx, tables = _spied_context(monkeypatch, cfg, sine2_weight, sine2_basis)
    _assert_shares_perturbed_table(ctx, tables, kinds)
    for n_rows in (n, 400):
        for kind in kinds:
            got = ctx.rows[n_rows][kind]
            want = process_rows(kind, n_rows, weight=sine2_weight,
                                basis_pair=sine2_basis, grid=grid)
            assert got.ra.shape == (n_rows, grid.count)
            for f in fields(want):
                if getattr(want, f.name) is None:
                    assert getattr(got, f.name) is None, f.name
                else:
                    np.testing.assert_array_equal(getattr(got, f.name),
                                                  getattr(want, f.name),
                                                  err_msg=f.name)


def _traced_context(cfg, weight):
    """(peak, kept): the bytes numpy allocates while building a
    _RunContext, at their peak and once it is built, as tracemalloc
    sees them."""
    omega_map(weight, cfg.grid)  # the cached phase map is not the rows'
    tracemalloc.start()
    try:
        ctx = _RunContext(cfg, weight, None)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del ctx
    return peak, kept


def test_context_build_peak_with_shared_table(sine2_weight):
    # T_n beside perturbed: one cos/sin table of 401 rows and perturbed's
    # four 400-row arrays, built with no full-size temporary, so the
    # build peaks at what it keeps: at most six tables and the chunk block
    n_top = 400
    cfg = ExperimentConfig(weight_name="sine2", n_list=(50, n_top),
                           replicates=2, master_seed=SEED,
                           process_kinds=("T_n", "perturbed"))
    table = (n_top + 1) * cfg.grid.count * 8
    block = 4 * harness.CHUNK * cfg.grid.count * 8
    peak, kept = _traced_context(cfg, sine2_weight)
    assert kept >= 6 * table * n_top / (n_top + 1) + block
    assert peak <= 6 * table + block


@pytest.mark.parametrize("kind, extra", [("T_n", 0), ("X_n", 0),
                                         ("perturbed", 1)])
def test_context_build_holds_no_full_size_temporaries(kind, extra,
                                                      sine2_weight):
    # a kind alone: T_n and X_n write their sines into the phase buffer,
    # and perturbed holds its sine table beside its rows, one table more
    # than the context keeps; a few rows' slack covers per-point vectors
    cfg = ExperimentConfig(weight_name="sine2", n_list=(50, 400),
                           replicates=2, master_seed=SEED,
                           process_kinds=(kind,))
    row = cfg.grid.count * 8
    peak, kept = _traced_context(cfg, sine2_weight)
    assert peak <= kept + (extra * 401 + 4) * row


def test_run_records_independent_of_n_list_and_workers(monkeypatch,
                                                       unit_basis):
    # each n of a run gets the records of a run of that n alone, for one
    # worker and for two; 130 replicates leave each n a short last chunk.
    # A run builds each kind's rows once and forks at most one pool;
    # perturbed's rows come from T_n's table, which has one row more.
    calls, pools = [], []
    real_rows, real_perturbed = harness.process_rows, harness._perturbed_rows

    def counted_rows(kind, n, **kwargs):
        calls.append((kind, n))
        return real_rows(kind, n, **kwargs)

    def counted_perturbed(table):
        calls.append(("perturbed", len(table.freq) - 1))
        return real_perturbed(table)

    fork_ctx = multiprocessing.get_context("fork")
    real_pool = fork_ctx.Pool

    def counted_pool(*args, **kwargs):
        pools.append(args[0])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(harness, "process_rows", counted_rows)
    monkeypatch.setattr(harness, "_perturbed_rows", counted_perturbed)
    monkeypatch.setattr(fork_ctx, "Pool", counted_pool)

    def run(n_list, threads):
        monkeypatch.setenv("SLZEROS_THREADS", threads)
        cfg = ExperimentConfig(weight_name="unit", n_list=n_list,
                               replicates=130, master_seed=SEED,
                               process_kinds=SIMULATED_KINDS)
        del calls[:], pools[:]
        rows = [record_row(r) for r in run_experiment(cfg,
                                                      basis_pair=unit_basis)]
        top = max(n_list)
        assert calls == [("T_n", top + 1), ("perturbed", top), ("f_n", top),
                         ("X_n", top)]
        assert pools == ([] if threads == "1" else [2])
        return rows

    whole = {threads: run((10, 20), threads) for threads in ("1", "2")}
    assert len(whole["1"]) == 260
    assert whole["1"] == whole["2"]
    for threads in ("1", "2"):
        assert whole[threads] == run((10,), threads) + run((20,), threads)


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
            gap_diagnostics(split_pair, sine2_weight, n)
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
    assert len(started) == 4  # X_n's table, T_n's, perturbed's two passes


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
    """Two deriv=False row sets of different widths at n = 13: X_n
    (sine2) at 6 points and T_n at 3."""
    xs = np.linspace(0.3, 6.0, 6)
    return [process_rows("X_n", 13, xs, weight=builtin_weights("sine2"),
                         grid=Grid(1025), deriv=False),
            process_rows("T_n", 13, xs[:3], deriv=False)]


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
    diag = gap_diagnostics(unit_basis, unit_weight, 50)
    assert diag.n == 50
    assert diag.x_grid.shape == (257,)
    assert diag.var_f.shape == (257,)
    assert diag.var_dev_sup < 1e-6
    assert diag.alpha_sup < 1e-5
    assert diag.delta_sup < 1e-6
    assert diag.beta_sup < 1e-6


def test_gap_diagnostics_sine2_bounded(sine2_basis, sine2_weight):
    diag = gap_diagnostics(sine2_basis, sine2_weight, 50)
    assert 0.0 < diag.var_dev_sup < 0.05
    assert 0.0 < diag.alpha_sup < 1.0
    assert 0.0 < diag.delta_sup < 0.1
    assert 0.0 < diag.beta_sup < 0.1


def test_gap_diagnostics_needs_basis(unit_basis, unit_weight):
    with pytest.raises(PreconditionError):
        gap_diagnostics(unit_basis, unit_weight, 200)


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
