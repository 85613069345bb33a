"""Seeded Monte Carlo experiments over zero counts, and their summaries.

run_experiment() draws coefficient vectors replicate by replicate,
evaluates the configured process kinds on the storage grid, counts
zeros of the cubic-Hermite interpolants exactly, cell by cell, with
zeros.count_hermite_zeros over a whole chunk of replicates at once,
and streams one record per (n, replicate) to CSV.  A replicate whose
count holds an unresolved tangency is logged at WARNING and, for f_n
and X_n, recorded with stable_* = 0.  Replicates are processed in
fixed-size chunks whose composition depends only on the replicate
ids, so results are bit-identical no matter how many workers run them
(SLZEROS_THREADS, default 1).

summarize() reduces persisted records to per-n statistics: mean count,
var/n with a log-scale normal-theory confidence interval, skewness and
excess kurtosis of the counts, the Kolmogorov-Smirnov distance of the
standardized counts to a moment-fitted Gaussian, the paired-count
contiguity statistic E|N_f - N_X|/sqrt(n), and scaled quantiles of the
sup-norm gap between the eigenfunction sum and its trigonometric
comparison process.  Everything in the summary is recomputable from
the record rows alone.

gap_diagnostics() and covariance_check() provide the second-order
diagnostics: coupling coefficients alpha/Delta/beta from exact
eigenbasis sums, and empirical covariance spot checks against the
closed-form kernel.
"""

import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .eigen import BoundaryCondition, eigen_solve
from .ensembles import (default_perturbation, hermite_rows, sample_coefficients,
                        verify_perturbation)
from .errors import DomainError, PreconditionError
from .kernels import r_n_closed
from .weights import TWO_PI, builtin_weights, default_grid, omega_map
# count_zeros is not used here; it stays importable from this module
# because the benchmark's traced run (perfbench/tracing.py) wraps it here
from .zeros import count_hermite_zeros, count_zeros  # noqa: F401

SIMULATED_KINDS = ("f_n", "X_n", "T_n", "perturbed")
RECORD_COLUMNS = ("n", "replicate_id", "seed", "N_fn", "N_Xn", "N_Tn",
                  "N_pert", "sup_eps", "stable_fn", "stable_Xn", "millis")
CHUNK = 64  # replicates per batch; fixed so results never depend on workers

_COUNT_FIELD = {"f_n": "n_fn", "X_n": "n_xn", "T_n": "n_tn",
                "perturbed": "n_pert"}
_STABLE_FIELD = {"f_n": "stable_fn", "X_n": "stable_xn"}


@dataclass(frozen=True)
class ExperimentConfig:
    weight_name: str
    n_list: tuple
    replicates: int
    master_seed: int
    process_kinds: tuple = ("f_n", "X_n")
    output_path: str = None
    k_max: int = None
    timing: bool = False
    pert_c0: float = 0.5
    pert_c1: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "process_kinds", tuple(self.process_kinds))
        if self.replicates < 2:
            raise PreconditionError("need at least 2 replicates, got %d"
                                    % self.replicates)
        if not self.n_list:
            raise PreconditionError("n_list must be nonempty")
        if any(n < 1 for n in self.n_list):
            raise PreconditionError("every n must be positive: %r" % (self.n_list,))
        if list(self.n_list) != sorted(set(self.n_list)):
            raise PreconditionError("n_list must be strictly ascending: %r"
                                    % (self.n_list,))
        bad = [k for k in self.process_kinds if k not in SIMULATED_KINDS]
        if bad or not self.process_kinds:
            raise PreconditionError(
                "process_kinds must be a nonempty subset of %s, got %r"
                % (", ".join(SIMULATED_KINDS), self.process_kinds))
        if self.k_max is not None and self.k_max < max(self.n_list):
            raise PreconditionError(
                "k_max=%d is smaller than max(n_list)=%d"
                % (self.k_max, max(self.n_list)))
        if "perturbed" in self.process_kinds:
            # fail at construction, before any replicate runs
            verify_perturbation(default_perturbation(self.pert_c0, self.pert_c1),
                                max(self.n_list))

    @property
    def needs_basis(self):
        return "f_n" in self.process_kinds

    @property
    def basis_k_max(self):
        return self.k_max if self.k_max is not None else max(self.n_list)


@dataclass(frozen=True)
class ReplicateRecord:
    n: int
    replicate_id: int
    seed: int
    n_fn: int = None
    n_xn: int = None
    n_tn: int = None
    n_pert: int = None
    sup_eps: float = None
    stable_fn: bool = None
    stable_xn: bool = None
    millis: float = 0.0

    def count(self, kind):
        return getattr(self, _COUNT_FIELD[kind])


# ----------------------------------------------------------------------
# record persistence

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def record_row(rec):
    # the millis column is pinned in the schema but always written as 0
    # so record files are byte-reproducible; measured timings go to the
    # optional timing.csv sidecar instead.
    return ",".join(_fmt(v) for v in (
        rec.n, rec.replicate_id, rec.seed, rec.n_fn, rec.n_xn, rec.n_tn,
        rec.n_pert, rec.sup_eps, rec.stable_fn, rec.stable_xn, 0.0))


def write_records(records, path):
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for rec in records:
            fh.write(record_row(rec) + "\n")


def read_records(path):
    def parse(text, conv):
        return None if text == "" else conv(text)

    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != list(RECORD_COLUMNS):
            raise DomainError("unrecognized records header in %s" % path)
        for line in fh:
            c = line.strip().split(",")
            records.append(ReplicateRecord(
                n=int(c[0]), replicate_id=int(c[1]), seed=int(c[2]),
                n_fn=parse(c[3], int), n_xn=parse(c[4], int),
                n_tn=parse(c[5], int), n_pert=parse(c[6], int),
                sup_eps=parse(c[7], float),
                stable_fn=parse(c[8], lambda s: bool(int(s))),
                stable_xn=parse(c[9], lambda s: bool(int(s))),
                millis=float(c[10])))
    return records


# ----------------------------------------------------------------------
# per-n evaluation context (shared read-only with forked workers)

class _NContext:
    """Everything a worker needs to turn draws for one n into records."""

    def __init__(self, config, n, weight, basis_pair, grid):
        self.n = n
        self.kinds = tuple(k for k in SIMULATED_KINDS
                           if k in config.process_kinds)
        self.master_seed = config.master_seed
        self.timing = config.timing
        self.h = grid.h
        x = grid.points
        self.root = 1.0 / math.sqrt(n)
        if "f_n" in self.kinds:
            bc_c, bc_d = basis_pair
            self.U = bc_c.funcs[:n]
            self.V = bc_d.funcs[:n]
            self.dU = bc_c.dfuncs[:n]
            self.dV = bc_d.dfuncs[:n]
            om = np.asarray(weight.eval(x), dtype=float)
            self.rtw = np.sqrt(om)
            self.wfac = 0.5 * np.asarray(weight.deriv1(x), dtype=float) / self.rtw
        if "X_n" in self.kinds:
            self.khalf = 0.5 * np.arange(1, n + 1)
            ph = self.khalf[:, None] * omega_map(weight, grid).forward(x)[None, :]
            self.CX = np.cos(ph)
            self.SX = np.sin(ph)
            self.omega_x = np.asarray(weight.eval(x), dtype=float)
        if "T_n" in self.kinds or "perturbed" in self.kinds:
            self.kfull = np.arange(1, n + 1, dtype=float)
            ph = self.kfull[:, None] * x[None, :]
            self.CT = np.cos(ph)
            self.ST = np.sin(ph)
        if "perturbed" in self.kinds:
            fam = default_perturbation(config.pert_c0, config.pert_c1)
            verify_perturbation(fam, n)
            kcol = self.kfull[:, None]
            self.E = fam.eps(kcol, x[None, :])
            self.H = fam.eta(kcol, x[None, :])
            self.dE = fam.deps(kcol, x[None, :])
            self.dH = fam.deta(kcol, x[None, :])

    def samples(self, A, B, kind):
        """Grid values and derivatives for a chunk of draws (rows)."""
        if kind == "f_n":
            F = A @ self.U + B @ self.V
            dF = A @ self.dU + B @ self.dV
            return self.rtw * F, self.wfac * F + self.rtw * dF
        if kind == "X_n":
            vals = A @ self.CX + B @ self.SX
            ders = ((B * self.khalf) @ self.CX
                    - (A * self.khalf) @ self.SX) * self.omega_x
            return vals, ders
        if kind == "T_n":
            vals = A @ self.CT + B @ self.ST
            ders = (B * self.kfull) @ self.CT - (A * self.kfull) @ self.ST
            return vals, ders
        if kind == "perturbed":
            vals = A @ (self.CT + self.E) + B @ (self.ST + self.H)
            ders = ((B * self.kfull) @ self.CT - (A * self.kfull) @ self.ST
                    + A @ self.dE + B @ self.dH)
            return vals, ders
        raise DomainError("unknown kind %r" % (kind,))


_WORKER_CTX = None  # set in the parent before forking a pool


def _process_chunk(replicate_ids):
    ctx = _WORKER_CTX
    n = ctx.n
    t0 = time.perf_counter() if ctx.timing else 0.0
    draws = [sample_coefficients(ctx.master_seed, n, rid)
             for rid in replicate_ids]
    A = np.stack([d.a for d in draws]) * ctx.root
    B = np.stack([d.b for d in draws]) * ctx.root
    fields = [{} for _ in replicate_ids]
    values = {}
    for kind in ctx.kinds:
        vals, ders = ctx.samples(A, B, kind)
        counts, certified = count_hermite_zeros(
            vals, ders, ctx.h, label="%s at n=%d, replicate" % (kind, n),
            row_ids=replicate_ids)
        del ders  # before the next kind's samples: keeps the peak down
        if kind in ("f_n", "X_n"):
            values[kind] = vals  # for sup_eps
        stable_field = _STABLE_FIELD.get(kind)
        for i, count in enumerate(counts.tolist()):
            fields[i][_COUNT_FIELD[kind]] = count
            if stable_field is not None:
                fields[i][stable_field] = bool(certified[i])
    if "f_n" in values and "X_n" in values:
        sups = np.max(np.abs(values["f_n"] - values["X_n"]), axis=1)
        for f, sup in zip(fields, sups.tolist()):
            f["sup_eps"] = sup
    millis = ((time.perf_counter() - t0) * 1e3 / len(replicate_ids)
              if ctx.timing else 0.0)
    return [ReplicateRecord(n=n, replicate_id=rid, seed=d.seed, millis=millis,
                            **f)
            for rid, d, f in zip(replicate_ids, draws, fields)]


def _worker_count(n_chunks):
    raw = os.environ.get("SLZEROS_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise PreconditionError("SLZEROS_THREADS must be an integer, got %r"
                                % raw)
    return max(1, min(workers, n_chunks))


def resolve_weight(name):
    return builtin_weights(name)


def build_basis_pair(weight, k_max, grid=None):
    """Solve both boundary families once; shared by every n."""
    return (eigen_solve(weight, BoundaryCondition.C, k_max, grid=grid),
            eigen_solve(weight, BoundaryCondition.D, k_max, grid=grid))


def run_experiment(config, basis_pair=None):
    """Run the configured experiment; returns all records, and streams
    them to <output_path>/records.csv as chunks complete when an output
    path is set (timing.csv beside it when timing is enabled)."""
    global _WORKER_CTX
    weight = resolve_weight(config.weight_name)
    grid = default_grid()
    if config.needs_basis:
        if basis_pair is None:
            basis_pair = build_basis_pair(weight, config.basis_k_max, grid)
        short = min(basis_pair[0].k_max, basis_pair[1].k_max)
        if short < max(config.n_list):
            raise PreconditionError(
                "eigenbasis has %d pairs but max(n_list)=%d"
                % (short, max(config.n_list)))
        grid = basis_pair[0].grid

    rec_fh = tim_fh = None
    if config.output_path is not None:
        os.makedirs(config.output_path, exist_ok=True)
        rec_fh = open(os.path.join(config.output_path, "records.csv"), "w")
        rec_fh.write(",".join(RECORD_COLUMNS) + "\n")
        if config.timing:
            tim_fh = open(os.path.join(config.output_path, "timing.csv"), "w")
            tim_fh.write("n,replicate_id,millis\n")

    records = []
    try:
        for n in config.n_list:
            ctx = _NContext(config, n, weight, basis_pair, grid)
            chunks = [list(range(lo, min(lo + CHUNK, config.replicates)))
                      for lo in range(0, config.replicates, CHUNK)]
            _WORKER_CTX = ctx
            workers = _worker_count(len(chunks))
            if workers > 1 and hasattr(os, "fork"):
                with multiprocessing.get_context("fork").Pool(workers) as pool:
                    produced = pool.imap(_process_chunk, chunks)
                    for batch in produced:
                        records.extend(batch)
                        _flush(batch, rec_fh, tim_fh)
            else:
                for chunk in chunks:
                    batch = _process_chunk(chunk)
                    records.extend(batch)
                    _flush(batch, rec_fh, tim_fh)
            _WORKER_CTX = None
    finally:
        _WORKER_CTX = None
        if rec_fh is not None:
            rec_fh.close()
        if tim_fh is not None:
            tim_fh.close()
    return records


def _flush(batch, rec_fh, tim_fh):
    if rec_fh is None:
        return
    for rec in batch:
        rec_fh.write(record_row(rec) + "\n")
        if tim_fh is not None:
            tim_fh.write("%d,%d,%.17g\n" % (rec.n, rec.replicate_id, rec.millis))
    rec_fh.flush()
    if tim_fh is not None:
        tim_fh.flush()


# ----------------------------------------------------------------------
# statistics

def ks_statistic(sample, mean, sd):
    """Two-sided Kolmogorov-Smirnov distance between the empirical CDF
    of the sample and the Gaussian N(mean, sd^2)."""
    z = np.sort((np.asarray(sample, dtype=float) - mean))
    m = z.size
    if m < 2:
        raise PreconditionError("KS needs a sample of size >= 2, got %d" % m)
    if not sd > 0:
        raise DomainError("reference sd must be positive, got %r" % (sd,))
    cdf = 0.5 * erfc(-z / (sd * math.sqrt(2.0)))
    grid = np.arange(1, m + 1) / m
    d_plus = np.max(grid - cdf)
    d_minus = np.max(cdf - (grid - 1.0 / m))
    return float(max(d_plus, d_minus))


def _moments(counts):
    x = np.asarray(counts, dtype=float)
    m = x.size
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1))
    cent = x - mean
    m2 = float(np.mean(cent ** 2))
    if m2 > 0:
        skew = float(np.mean(cent ** 3)) / m2 ** 1.5
        kurt = float(np.mean(cent ** 4)) / m2 ** 2 - 3.0
    else:
        skew = 0.0
        kurt = 0.0
    return mean, var, skew, kurt, m


@dataclass(frozen=True)
class KindSummary:
    kind: str
    replicates: int
    mean: float
    var: float
    var_over_n: float
    var_over_n_ci: tuple
    skewness: float
    excess_kurtosis: float
    ks_fitted: float
    stable_fraction: float = None
    unreliable: bool = False


@dataclass(frozen=True)
class PerNSummary:
    n: int
    kinds: dict
    contiguity: float = None
    sup_eps_median_scaled: float = None
    sup_eps_p99_scaled: float = None


@dataclass(frozen=True)
class SummaryReport:
    n_list: tuple
    per_n: dict
    v_estimate: dict = field(default_factory=dict)

    def to_dict(self):
        out = {"n_list": list(self.n_list), "per_n": {}, "v_estimate": dict(self.v_estimate)}
        for n in self.n_list:
            block = self.per_n[n]
            kinds = {}
            for kind, ks in block.kinds.items():
                kinds[kind] = {
                    "replicates": ks.replicates,
                    "mean": ks.mean,
                    "var": ks.var,
                    "var_over_n": ks.var_over_n,
                    "var_over_n_ci": list(ks.var_over_n_ci),
                    "skewness": ks.skewness,
                    "excess_kurtosis": ks.excess_kurtosis,
                    "ks_fitted": ks.ks_fitted,
                    "stable_fraction": ks.stable_fraction,
                    "unreliable": ks.unreliable,
                }
            out["per_n"][str(n)] = {
                "kinds": kinds,
                "contiguity": block.contiguity,
                "sup_eps_median_scaled": block.sup_eps_median_scaled,
                "sup_eps_p99_scaled": block.sup_eps_p99_scaled,
            }
        return out


def _group_by_n(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec.n, []).append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: r.replicate_id)
    return dict(sorted(groups.items()))


def summarize(records):
    """Per-n statistics of the recorded counts; see module docstring."""
    groups = _group_by_n(records)
    if not groups:
        raise PreconditionError("summarize needs at least one record")
    per_n = {}
    v_estimate = {}
    for n, recs in groups.items():
        if len(recs) < 2:
            raise PreconditionError("need >= 2 records per n, got %d for n=%d"
                                    % (len(recs), n))
        kinds = {}
        for kind in SIMULATED_KINDS:
            counts = [r.count(kind) for r in recs]
            if any(c is None for c in counts):
                continue
            mean, var, skew, kurt, m = _moments(counts)
            half = 1.959963984540054 * math.sqrt(2.0 / (m - 1))
            ci = ((var / n) * math.exp(-half), (var / n) * math.exp(half)) \
                if var > 0 else (0.0, 0.0)
            sd = math.sqrt(var) if var > 0 else 0.0
            ks = ks_statistic(counts, mean, sd) if sd > 0 else 1.0
            stable = None
            if kind == "f_n":
                flags = [r.stable_fn for r in recs]
            elif kind == "X_n":
                flags = [r.stable_xn for r in recs]
            else:
                flags = []
            if flags and all(f is not None for f in flags):
                stable = float(np.mean([1.0 if f else 0.0 for f in flags]))
            kinds[kind] = KindSummary(
                kind=kind, replicates=m, mean=mean, var=var, var_over_n=var / n,
                var_over_n_ci=ci, skewness=skew, excess_kurtosis=kurt,
                ks_fitted=ks, stable_fraction=stable,
                unreliable=(stable == 0.0))
        contiguity = None
        paired = [(r.n_fn, r.n_xn) for r in recs
                  if r.n_fn is not None and r.n_xn is not None]
        if paired:
            diffs = np.array([abs(a - b) for a, b in paired], dtype=float)
            contiguity = float(np.mean(diffs)) / math.sqrt(n)
        med = p99 = None
        sups = [r.sup_eps for r in recs if r.sup_eps is not None]
        if sups and n > 1:
            scaled = np.array(sups) * math.sqrt(n) / math.log(n)
            med = float(np.median(scaled))
            p99 = float(np.percentile(scaled, 99))
        per_n[n] = PerNSummary(n=n, kinds=kinds, contiguity=contiguity,
                               sup_eps_median_scaled=med,
                               sup_eps_p99_scaled=p99)
    n_max = max(groups)
    for kind, ks in per_n[n_max].kinds.items():
        v_estimate[kind] = ks.var_over_n
    return SummaryReport(n_list=tuple(groups), per_n=per_n,
                         v_estimate=v_estimate)


def contiguity_diagnostic(records):
    """Per-n E|N_f - N_X| / sqrt(n) from paired counts."""
    out = {}
    for n, recs in _group_by_n(records).items():
        pairs = [(r.n_fn, r.n_xn) for r in recs
                 if r.n_fn is not None and r.n_xn is not None]
        if not pairs:
            raise PreconditionError("no paired counts recorded for n=%d" % n)
        diffs = np.array([abs(a - b) for a, b in pairs], dtype=float)
        out[n] = float(np.mean(diffs)) / math.sqrt(n)
    return out


def sup_eps_diagnostic(records):
    """Per-n quantiles of sup|eps_n| * sqrt(n)/log(n), plus the log-log
    slope of the median across n (boundedness check)."""
    quantiles = {}
    for n, recs in _group_by_n(records).items():
        sups = [r.sup_eps for r in recs if r.sup_eps is not None]
        if not sups:
            raise PreconditionError("no sup_eps recorded for n=%d" % n)
        scaled = np.array(sups, dtype=float) * math.sqrt(n) / math.log(n)
        quantiles[n] = {"median": float(np.median(scaled)),
                        "p99": float(np.percentile(scaled, 99))}
    slope = None
    ns = sorted(quantiles)
    if len(ns) >= 2 and all(quantiles[n]["median"] > 0 for n in ns):
        slope = float(np.polyfit(np.log(ns),
                                 np.log([quantiles[n]["median"] for n in ns]),
                                 1)[0])
    return {"quantiles": quantiles, "median_loglog_slope": slope}


# ----------------------------------------------------------------------
# second-order diagnostics

@dataclass(frozen=True)
class GapDiagnostics:
    n: int
    x_ref: float
    x_grid: np.ndarray
    var_f: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray
    beta: np.ndarray
    var_dev_sup: float
    alpha_sup: float
    delta_sup: float
    beta_sup: float


def gap_diagnostics(basis_pair, weight, n, x_grid=None, x_ref=math.pi / 3.0):
    """Coupling diagnostics from exact eigenbasis sums.

    alpha(x) = E[X' f] / var f, Delta(x) = |var X var f - cov(X,f)^2|,
    beta(y) = cov(f(y) - X(y), X(x_ref)) / var X(x_ref); var X is 1
    exactly, so only eigenfunction samples and the closed-form kernel
    enter.
    """
    bc_c, bc_d = basis_pair
    if bc_c.k_max < n or bc_d.k_max < n:
        raise PreconditionError("eigenbasis has %d pairs, need %d"
                                % (min(bc_c.k_max, bc_d.k_max), n))
    if x_grid is None:
        x_grid = np.linspace(0.0, TWO_PI, 257)
    x = np.asarray(x_grid, dtype=float)
    h = bc_c.grid.h
    u, _ = hermite_rows(bc_c.funcs[:n], bc_c.dfuncs[:n], h, x)
    v, _ = hermite_rows(bc_d.funcs[:n], bc_d.dfuncs[:n], h, x)
    omap = omega_map(weight, bc_c.grid)
    om = np.asarray(weight.eval(x), dtype=float)
    mu = 0.5 * np.arange(1, n + 1)
    ph = mu[:, None] * omap.forward(x)[None, :]
    C, S = np.cos(ph), np.sin(ph)

    var_f = om * np.sum(u * u + v * v, axis=0) / n
    cov_xp_f = om * np.sqrt(om) * np.sum(mu[:, None] * (C * v - S * u), axis=0) / n
    alpha = cov_xp_f / var_f
    cov_x_f = np.sqrt(om) * np.sum(C * u + S * v, axis=0) / n
    delta = np.abs(var_f - cov_x_f ** 2)

    # beta over y = x_grid, anchored at x_ref
    om_ref = omap.forward(float(x_ref))
    cref, sref = np.cos(mu * om_ref), np.sin(mu * om_ref)
    cov_f_xref = np.sqrt(om) * ((cref @ u) + (sref @ v)) / n
    r_ref = r_n_closed(n, (omap.forward(x) - om_ref) / 2.0)[0]
    beta = cov_f_xref - r_ref

    return GapDiagnostics(
        n=n, x_ref=float(x_ref), x_grid=x, var_f=var_f, alpha=alpha,
        delta=delta, beta=beta,
        var_dev_sup=float(np.max(np.abs(var_f - 1.0))),
        alpha_sup=float(np.max(np.abs(alpha))),
        delta_sup=float(np.max(delta)), beta_sup=float(np.max(np.abs(beta))))


def covariance_check(weight, n, basis_pair=None, n_pairs=20, m=5000,
                     master_seed=20260819, grid=None):
    """Empirical spot check of the closed-form covariances.

    Draws m coefficient vectors, evaluates X_n at n_pairs random point
    pairs, and compares the sample covariance with
    r_n((Omega(x) - Omega(y))/2).  When a basis pair is supplied the
    empirical variance of f_n is checked against 1 at the same points.
    Returns a dict with the max absolute errors and the raw tables.
    """
    if m < 1000:
        raise PreconditionError("need at least 1000 draws, got %d" % m)
    grid = grid if grid is not None else default_grid()
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=(97,))))
    xs = rng.uniform(0.0, TWO_PI, size=2 * n_pairs)
    A = np.empty((m, n))
    B = np.empty((m, n))
    for rid in range(m):
        draw = sample_coefficients(master_seed, n, rid)
        A[rid] = draw.a
        B[rid] = draw.b
    A /= math.sqrt(n)
    B /= math.sqrt(n)

    omap = omega_map(weight, grid)
    mu = 0.5 * np.arange(1, n + 1)
    ph = omap.forward(xs)[None, :] * mu[:, None]
    vals_x = A @ np.cos(ph) + B @ np.sin(ph)  # (m, 2*n_pairs)

    cov_emp = np.empty(n_pairs)
    cov_exact = np.empty(n_pairs)
    for i in range(n_pairs):
        a, b = vals_x[:, 2 * i], vals_x[:, 2 * i + 1]
        cov_emp[i] = float(np.cov(a, b, ddof=1)[0, 1])
        t = (omap.forward(xs[2 * i]) - omap.forward(xs[2 * i + 1])) / 2.0
        cov_exact[i] = float(r_n_closed(n, t)[0])
    out = {
        "x_pairs": xs.reshape(n_pairs, 2),
        "cov_empirical": cov_emp,
        "cov_exact": cov_exact,
        "cov_max_error": float(np.max(np.abs(cov_emp - cov_exact))),
        "draws": m,
    }
    if basis_pair is not None:
        bc_c, bc_d = basis_pair
        h = bc_c.grid.h
        pts = xs[:n_pairs]
        u, _ = hermite_rows(bc_c.funcs[:n], bc_c.dfuncs[:n], h, pts)
        v, _ = hermite_rows(bc_d.funcs[:n], bc_d.dfuncs[:n], h, pts)
        om = np.asarray(weight.eval(pts), dtype=float)
        f_vals = np.sqrt(om) * (A @ u + B @ v)
        var_emp = np.var(f_vals, axis=0, ddof=1)
        out["var_f_points"] = pts
        out["var_f_empirical"] = var_emp
        out["var_f_max_error"] = float(np.max(np.abs(var_emp - 1.0)))
    return out


def write_summary(report, path):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
