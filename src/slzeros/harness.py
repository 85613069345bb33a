"""Seeded Monte Carlo experiments over zero counts, and their summaries.

build_basis_pair() solves the two boundary families that f_n sums, C
in this process and D in a forked child beside it, and returns D's
arrays through an anonymous shared mapping, with the bits of a solo
eigen_solve call for each family.  covariance_check() streams its
draws the same way, in fixed blocks of ids, the lower half of the
blocks here (the larger half, for an odd count) and the rest in the
child, each at one OpenBLAS thread; only the values at its sampled
points are shared, and their bits do not depend on the number of cores
or on the split.  Both fork through _beside_child, the package's one
fork of a single child and the one layout of a shared mapping.

run_experiment() builds each configured kind's rows once, at
max(n_list), on ExperimentConfig.grid, the run's one storage grid, on
which it solves f_n's basis pair for the config's weight; each n takes
the first n rows (n + 1 for perturbed, whose cos/sin table of
frequencies 1..max(n_list)+1 holds T_n's rows too when a run has both).
Each large table is filled in two threads whatever SLZEROS_THREADS is,
joined before its build returns, so the pool forks from one thread.  A
task is one n and a fixed-size chunk of replicate ids: one
ensembles.sample_coefficient_block call draws the chunk, and
zeros.count_hermite_zeros counts the zeros of its cubic-Hermite
interpolants exactly, cell by cell, from the sign bits of each cell's
Bernstein control points.  One pool of SLZEROS_THREADS workers
(default 1, a ProcessPoolExecutor, whose modules are imported only when
a run forks it), forked once per run, each at one OpenBLAS thread, maps
the tasks in order (a dead worker raises ChildProcessError), and one
record per (n, replicate) streams to CSV, so the records keep their
order and draws for any worker count.
A replicate whose count holds an unresolved tangency is logged at WARNING
and, for f_n and X_n, recorded with stable_* = 0.  Each record's fields,
in order, are the columns of records.csv, then a millis column, always 0.
ExperimentConfig refuses at construction what a run could not do (an
n, replicate count or seed that is not an integer, a negative seed,
fewer than 2 or more than 2**32 replicates, a k_max that is not a
positive integer, whatever the kinds, frequencies the storage grid
cannot resolve); the perturbed kind is T_n perturbed by the fixed
family of ensembles.process_rows, eps_k = sin((k+1)x)/(2k) and
eta_k = cos((k+1)x)/(2k), whose bounds |eps_k| <= 1/(2k) and
|eps_k'| <= 1 hold for every n.

summarize() reduces persisted records to per-n statistics: mean count,
var/n with a log-scale normal-theory confidence interval, skewness and
excess kurtosis of the counts, the Kolmogorov-Smirnov distance of the
standardized counts to a moment-fitted Gaussian, the paired-count
contiguity statistic E|N_f - N_X|/sqrt(n), and scaled quantiles of the
sup-norm gap between the eigenfunction sum and its trigonometric
comparison process.  Everything in the summary is recomputable from
the record rows alone, and it is the only reduction of them:
sup_eps_slope() fits the log-log slope to its scaled medians.
write_json() writes every JSON output file (summary, manifest,
compare), and _fmt() every CSV cell.

gap_diagnostics() and covariance_check() provide the second-order
diagnostics, for the weight and on the grid of their basis pair:
coupling coefficients alpha/Delta/beta summed over f_n's and X_n's
values and slopes at the unit coefficient vectors, one block of rows
at a time (ensembles.unit_blocks), and empirical covariance spot
checks against the closed-form kernel.
"""

import ctypes
import glob
import json
import math
import mmap
import os
import pickle
import signal
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate

import numpy as np

from .eigen import BoundaryCondition, EigenBasis, check_k_max, eigen_solve
from .ensembles import (ID_LIMIT, combine, process_rows,
                        sample_coefficient_block, unit_blocks)
# sample_coefficients, the one-id case of sample_coefficient_block, is
# not called here; the benchmark's traced run (perfbench/tracing.py)
# looks it up in this module by name
from .ensembles import sample_coefficients  # noqa: F401
from .errors import (DomainError, PreconditionError, check_order,
                     non_negative_int, positive_integral)
from .kernels import covariance_X, r_n_closed
from .weights import (TWO_PI, builtin_weights, check_resolution, default_grid,
                      omega_map)
# count_zeros, the one-process front of count_hermite_zeros, is not
# called here; the benchmark's traced run (perfbench/tracing.py) looks
# it up in this module by name
from .zeros import count_hermite_zeros, count_zeros  # noqa: F401

SIMULATED_KINDS = ("f_n", "X_n", "T_n", "perturbed")
RECORD_COLUMNS = ("n", "replicate_id", "seed", "N_fn", "N_Xn", "N_Tn",
                  "N_pert", "sup_eps", "stable_fn", "stable_Xn", "millis")
CHUNK = 64  # replicates per batch; fixed so results never depend on workers
# covariance_check's ids per draw block, a multiple of the ids whose keys
# sample_coefficient_block derives at once; fixed, so the bits are too
_DRAW_BLOCK = 2048
# covariance_check's random point pairs
_COV_PAIRS = 20

_COUNT_FIELD = {"f_n": "n_fn", "X_n": "n_xn", "T_n": "n_tn",
                "perturbed": "n_pert"}
_STABLE_FIELD = {"f_n": "stable_fn", "X_n": "stable_xn"}


def basis_size(k_max, n_list):
    """The eigenpairs per family for the orders n_list: k_max, by
    default max(n_list), and refused by name if smaller."""
    top = max(n_list)
    if k_max is not None and k_max < top:
        raise PreconditionError("k_max=%d is smaller than max(n_list)=%d"
                                % (k_max, top))
    return top if k_max is None else k_max


@dataclass(frozen=True)
class ExperimentConfig:
    weight_name: str
    n_list: tuple
    replicates: int
    master_seed: int
    process_kinds: tuple = ("f_n", "X_n")
    output_path: str = None
    k_max: int = None

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(
            non_negative_int("n", n) for n in self.n_list))
        for name in ("replicates", "master_seed"):
            object.__setattr__(self, name,
                               non_negative_int(name, getattr(self, name)))
        object.__setattr__(self, "process_kinds", tuple(self.process_kinds))
        if self.k_max is not None:
            object.__setattr__(self, "k_max",
                               positive_integral("k_max", self.k_max))
        if self.replicates < 2:
            raise PreconditionError("need at least 2 replicates, got %d"
                                    % self.replicates)
        if self.replicates > ID_LIMIT:
            raise PreconditionError("need at most 2**32 replicates, one per "
                                    "32-bit replicate id, got %d"
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
        basis_size(self.k_max, self.n_list)
        # refuse frequencies the storage grid cannot resolve
        grid, top = self.grid, max(self.n_list)
        if self.needs_basis or "X_n" in self.process_kinds:
            k = self.basis_k_max if self.needs_basis else top
            check_resolution(grid, "n" if k == top else "k_max", k,
                             weight=builtin_weights(self.weight_name))
        if "perturbed" in self.process_kinds:
            check_resolution(grid, "n", top, shift=1)
        elif "T_n" in self.process_kinds:
            check_resolution(grid, "n", top)

    @property
    def grid(self):
        """The run's one storage grid, for its rows and its basis pair."""
        return default_grid()

    @property
    def needs_basis(self):
        return "f_n" in self.process_kinds

    @property
    def basis_k_max(self):
        return basis_size(self.k_max, self.n_list)


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

    def count(self, kind):
        return getattr(self, _COUNT_FIELD[kind])


# ----------------------------------------------------------------------
# record persistence

# the columns of records.csv, in order, all but the last (millis)
_RECORD_FIELDS = fields(ReplicateRecord)
_PARSE = {int: int, float: float, bool: lambda text: bool(int(text))}


def _fmt(value):
    """One CSV cell: empty for None, 1 or 0 for a bool, an integer in
    decimal, a float to 17 significant digits, anything else as str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def record_row(rec):
    # the millis column stays in the schema, always 0, so that record
    # files keep their bytes
    return ",".join([_fmt(getattr(rec, f.name)) for f in _RECORD_FIELDS]
                    + ["0"])


def write_records(records, path):
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for rec in records:
            fh.write(record_row(rec) + "\n")


def read_records(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != list(RECORD_COLUMNS):
            raise DomainError("unrecognized records header in %s" % path)
        for line in fh:
            cells = line.strip().split(",")
            if len(cells) != len(RECORD_COLUMNS):
                raise DomainError("a row of %s has %d cells, not %d"
                                  % (path, len(cells), len(RECORD_COLUMNS)))
            # zip stops before the trailing millis cell
            records.append(ReplicateRecord(*(
                None if text == "" else _PARSE[f.type](text)
                for f, text in zip(_RECORD_FIELDS, cells))))
    return records


def write_json(path, obj):
    """obj as JSON, indented, with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# per-run evaluation context (shared read-only with forked workers)

class _RunContext:
    """Everything a worker needs to turn draws into records: each
    simulated kind's rows on config.grid, built once at max(n_list)
    and cut to rows[n][kind] (ProcessRows.prefix), which has the bits
    of rows built for n since row k-1 depends on k alone; and one pool
    of CHUNK-row blocks that every chunk's combine calls reuse (out):
    4 when a trigonometric kind runs, 3 for f_n alone.  A chunk counts
    the kinds in rows[n]'s order, X_n first; f_n's rows beside X_n start
    one block in, so X_n's values stay for sup_eps, and no other kind's
    values outlive its count.

    perturbed's rows are the cos/sin table of frequencies
    1..max(n_list)+1; when the run has T_n too, T_n's rows are views of
    that table's first max(n_list) rows."""

    def __init__(self, config, weight, basis_pair):
        grid = config.grid
        self.master_seed = config.master_seed
        self.h = grid.h
        n_top = max(config.n_list)
        kinds = [kind for kind in SIMULATED_KINDS
                 if kind in config.process_kinds]
        both = "T_n" in kinds and "perturbed" in kinds
        top = {kind: process_rows(kind, n_top, weight=weight,
                                  basis_pair=basis_pair, grid=grid)
               for kind in kinds if not (both and kind == "T_n")}
        if both:
            table = replace(top["perturbed"], perturbed=False)
            top["T_n"] = table.prefix(n_top)
        top = {kind: top[kind]
               for kind in ("X_n", "f_n", "T_n", "perturbed") if kind in top}
        self.rows = {n: {kind: rows.prefix(n) for kind, rows in top.items()}
                     for n in config.n_list}
        self.points, self.after_xn = grid.count, "X_n" in top
        self.pool = np.empty(CHUNK * self.points * max(
            rows.out_rows(1) for rows in top.values()))

    def out(self, kind, m):
        """The pool's rows for kind's combine call on m draws."""
        skip = kind == "f_n" and self.after_xn
        return self.pool[skip * m * self.points:].reshape(-1, self.points)


_WORKER_CTX = None  # set in the parent before forking a pool


def _process_chunk(task):
    ctx = _WORKER_CTX
    n, replicate_ids = task
    m, root = len(replicate_ids), 1.0 / math.sqrt(n)
    A, B, seeds = sample_coefficient_block(ctx.master_seed, n, replicate_ids)
    A *= root
    B *= root
    # one list per record field; a field no kind fills stays None
    columns = {"n": [n] * m, "replicate_id": replicate_ids,
               "seed": seeds.tolist()}
    values = {}
    for kind, rows in ctx.rows[n].items():
        values[kind], ders = combine(rows, A, B, out=ctx.out(kind, m))
        counts, certified = count_hermite_zeros(
            values[kind], ders, ctx.h,
            label="%s at n=%d, replicate" % (kind, n), row_ids=replicate_ids)
        columns[_COUNT_FIELD[kind]] = counts.tolist()
        if kind in _STABLE_FIELD:
            columns[_STABLE_FIELD[kind]] = certified.tolist()
        if kind == "f_n" and "X_n" in values:
            # X_n's values are still in the rows before f_n's, and f_n's
            # slopes are counted, so their rows take f_n - X_n
            eps = np.subtract(values["f_n"], values["X_n"], out=ders)
            columns["sup_eps"] = np.abs(eps, out=eps).max(axis=1).tolist()
    unset = [None] * m
    return [ReplicateRecord(*row) for row in zip(
        *(columns.get(f.name, unset) for f in _RECORD_FIELDS))]


def _worker_count(n_tasks):
    raw = os.environ.get("SLZEROS_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise PreconditionError("SLZEROS_THREADS must be an integer, got %r"
                                % raw)
    return max(1, min(workers, n_tasks))


def _set_blas_threads(count):
    """Set numpy's bundled OpenBLAS to count threads; returns the count
    it had, or None, having done nothing, when that library or its
    thread-count functions are not found.  The pool's initializer sets
    each forked worker to one thread, so the workers do not
    oversubscribe the cores."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            old = get()
            put(count)
            return old
    return None


def _beside_child(shapes, child, parent):
    """Run child(shared) in a forked child process while this process
    runs parent(shared); returns (shared, what parent returned).

    shared is a list of float64 arrays, one of each shape of shapes,
    laid end to end in that order over one anonymous shared mapping made
    before the fork, so what the child writes there is read here
    without a copy.  The child leaves only through os._exit.  A child
    that fails sends its exception back pickled, and it is raised here
    with its type and message; one that exits non-zero and sends nothing
    raises ChildProcessError.  The child is always reaped, and killed
    first if parent raises.  Without os.fork, parent and then child run
    here, one after the other.
    """
    ends = list(accumulate((math.prod(shape) for shape in shapes), initial=0))
    flat = np.frombuffer(mmap.mmap(-1, 8 * ends[-1]))
    shared = [flat[lo:hi].reshape(shape)
              for lo, hi, shape in zip(ends, ends[1:], shapes)]
    if not hasattr(os, "fork"):
        result = parent(shared)
        child(shared)
        return shared, result
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the child never returns into its caller: whatever happens, it
        # leaves through os._exit, after sending back any exception
        os.close(read_fd)
        code = 1
        try:
            child(shared)
            code = 0
        except BaseException as exc:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_pickled_exception(exc))
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            result = parent(shared)
            failure = pipe.read()  # empty when the child succeeds
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if failure:
        raise pickle.loads(failure)
    if status != 0:
        raise ChildProcessError("the forked child ended with exit code %d "
                                "and sent no error"
                                % os.waitstatus_to_exitcode(status))
    return shared, result


def build_basis_pair(weight, k_max, grid):
    """Solve both boundary families once; shared by every n.

    Neither solve reads the other, so _beside_child solves D in a forked
    child while this process solves C.  The child writes D's funcs,
    dfuncs and eigenvalues into the arrays _beside_child shares, and the
    D basis is built over them without a copy.  The omega map is built
    before the fork, so the child inherits it.  Each family has the bits
    that eigen_solve gives it alone, and both solves go through this
    module's name eigen_solve.
    """
    k_max = check_k_max(k_max, weight, grid)
    omega_map(weight, grid)

    def solve_d(shared):
        basis = eigen_solve(weight, BoundaryCondition.D, k_max, grid=grid)
        for dst, src in zip(shared, (basis.funcs, basis.dfuncs,
                                     basis.eigenvalues)):
            dst[...] = src

    (funcs, dfuncs, eigenvalues), basis_c = _beside_child(
        [(k_max, grid.count)] * 2 + [(k_max,)], solve_d,
        lambda shared: eigen_solve(weight, BoundaryCondition.C, k_max,
                                   grid=grid))
    return basis_c, EigenBasis(BoundaryCondition.D, weight, grid,
                               eigenvalues, funcs, dfuncs)


def _pickled_exception(exc):
    """exc pickled, or, when it does not survive pickling, a
    RuntimeError that names its type and message."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps(RuntimeError("%s: %s" % (type(exc).__name__, exc)))


def run_experiment(config):
    """Run the configured experiment; returns all records, and streams
    them to <output_path>/records.csv as chunks complete when an output
    path is set.  When f_n runs, its basis pair is solved here
    (build_basis_pair) for the config's weight, k_max and grid.  A
    SLZEROS_THREADS that is not an integer is refused before the basis
    solve, and every refusal comes before records.csv exists.
    A pool worker that dies without a result (killed, or os._exit)
    raises ChildProcessError, as _beside_child's child does, and the
    pool's other tasks are dropped."""
    global _WORKER_CTX
    tasks = [(n, list(range(lo, min(lo + CHUNK, config.replicates))))
             for n in config.n_list
             for lo in range(0, config.replicates, CHUNK)]
    workers = _worker_count(len(tasks))
    fork = workers > 1 and hasattr(os, "fork")
    weight = builtin_weights(config.weight_name)
    basis_pair = (build_basis_pair(weight, config.basis_k_max, config.grid)
                  if config.needs_basis else None)
    ctx = _RunContext(config, weight, basis_pair)

    rec_fh = None
    if config.output_path is not None:
        os.makedirs(config.output_path, exist_ok=True)
        rec_fh = open(os.path.join(config.output_path, "records.csv"), "w")
        rec_fh.write(",".join(RECORD_COLUMNS) + "\n")

    records = []
    if fork:  # imported here, so a process that forks no pool never loads them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    try:
        _WORKER_CTX = ctx
        # the pool forks on its first task, so its workers inherit the
        # run's context
        with (ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_set_blas_threads, initargs=(1,))
              if fork else nullcontext()) as pool:
            try:
                for batch in (pool.map if fork else map)(_process_chunk,
                                                         tasks):
                    records.extend(batch)
                    if rec_fh is not None:
                        rec_fh.writelines(record_row(r) + "\n" for r in batch)
                        rec_fh.flush()
            except (BrokenProcessPool if fork else ()) as exc:
                raise ChildProcessError("a records worker ended without "
                                        "returning its chunk") from exc
            except BaseException:
                if fork:  # map submitted every task: drop those not started
                    pool.shutdown(cancel_futures=True)
                raise
    finally:
        _WORKER_CTX = None
        if rec_fh is not None:
            rec_fh.close()
    return records


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
    cdf = 0.5 * np.array([math.erfc(v) for v in -z / (sd * math.sqrt(2.0))])
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
        return {"n_list": list(self.n_list),
                "v_estimate": dict(self.v_estimate),
                "per_n": {str(n): asdict(block)
                          for n, block in self.per_n.items()}}


def summarize(records):
    """Per-n statistics of the recorded counts; see module docstring."""
    groups = {}  # the records of each n, by replicate id, in ascending n
    for rec in sorted(records, key=lambda r: (r.n, r.replicate_id)):
        groups.setdefault(rec.n, []).append(rec)
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
            flag_field = _STABLE_FIELD.get(kind)
            flags = ([getattr(r, flag_field) for r in recs]
                     if flag_field is not None else [])
            if flags and all(f is not None for f in flags):
                stable = float(np.mean([1.0 if f else 0.0 for f in flags]))
            kinds[kind] = KindSummary(
                replicates=m, mean=mean, var=var, var_over_n=var / n,
                var_over_n_ci=ci, skewness=skew, excess_kurtosis=kurt,
                ks_fitted=ks, stable_fraction=stable,
                unreliable=(stable == 0.0))
        median, p99 = _sup_eps_quantiles(n, recs)
        per_n[n] = PerNSummary(
            kinds=kinds, contiguity=_contiguity(n, recs),
            sup_eps_median_scaled=median, sup_eps_p99_scaled=p99)
    n_max = max(groups)
    for kind, ks in per_n[n_max].kinds.items():
        v_estimate[kind] = ks.var_over_n
    return SummaryReport(n_list=tuple(groups), per_n=per_n,
                         v_estimate=v_estimate)


def _contiguity(n, recs):
    """E|N_f - N_X| / sqrt(n) over the paired counts, or None."""
    diffs = [abs(r.n_fn - r.n_xn) for r in recs
             if r.n_fn is not None and r.n_xn is not None]
    if not diffs:
        return None
    return float(np.mean(np.array(diffs, dtype=float))) / math.sqrt(n)


def _sup_eps_quantiles(n, recs):
    """Median and 99th percentile of sup|eps_n| * sqrt(n)/log(n), both
    None when no sup_eps is recorded or n < 2, where log(n) is 0."""
    sups = [r.sup_eps for r in recs if r.sup_eps is not None]
    if not sups or n < 2:
        return None, None
    scaled = np.array(sups, dtype=float) * math.sqrt(n) / math.log(n)
    return float(np.median(scaled)), float(np.percentile(scaled, 99))


def sup_eps_slope(report):
    """The log-log slope of the summary's scaled sup_eps medians across n
    (boundedness check): the least-squares slope of log(median) against
    log(n), or None for a single n or a median that is not positive.  An
    n without a scaled median is refused by name."""
    medians = [report.per_n[n].sup_eps_median_scaled for n in report.n_list]
    for n, median in zip(report.n_list, medians):
        if median is None:
            raise PreconditionError("no scaled sup_eps for n=%d: none "
                                    "recorded, or n < 2" % n)
    return (float(np.polyfit(np.log(report.n_list), np.log(medians), 1)[0])
            if len(medians) > 1 and min(medians) > 0 else None)


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


def gap_diagnostics(basis_pair, n_list, x_ref=math.pi / 3.0):
    """Coupling diagnostics from exact eigenbasis sums on 257 points of
    [0, 2*pi]: one GapDiagnostics per n of n_list, in its order, for the
    weight and on the grid of the basis pair.

    alpha(x) = E[X' f] / var f, Delta(x) = |var X var f - cov(X,f)^2|,
    beta(y) = cov(f(y) - X(y), X(x_ref)) / var X(x_ref), var X being 1
    exactly.  Each covariance is a sum over the unit coefficient vectors
    a_1, b_1, ..., a_n, b_n divided by n: f_n's and X_n's values and
    slopes there, one block at a time (unit_blocks), each block's rows
    built alone up to max(n_list); n's bits do not depend on the rest of
    n_list.  Refuses an empty n_list, and an n that is not a positive
    integer (check_order), before any row is built, and then what f_n's
    rows refuse (process_rows).
    """
    orders = [check_order(n) for n in n_list]
    if not orders:
        raise DomainError("n_list must hold at least one order n, got %r"
                          % (n_list,))
    n_top = max(orders)
    # refused as f_n's rows refuse, from its rows at no points
    process_rows("f_n", n_top, np.empty(0), basis_pair=basis_pair)
    weight, grid = basis_pair[0].weight, basis_pair[0].grid
    x = np.linspace(0.0, TWO_PI, 257)
    omap = omega_map(weight, grid)
    half_gap = (omap.forward(x) - omap.forward(float(x_ref))) / 2.0
    # sums of f*f, X'*f, X*f and X(x_ref)*f over the vectors below lo
    sums, diags = np.zeros((4, x.size)), {}
    for (lo, hi, f, _), (_, _, xv, xd) in zip(
            unit_blocks("f_n", n_top, x, deriv=False, basis_pair=basis_pair),
            unit_blocks("X_n", n_top, np.append(x, x_ref), weight=weight,
                        grid=grid)):
        block = np.stack((f, xd[:, :-1], xv[:, :-1],
                          np.broadcast_to(xv[:, -1:], f.shape))) * f
        for n in (n for n in orders if lo < 2 * n <= hi):
            var_f, cov_xp_f, cov_x_f, cov_f_ref = (
                sums + block[:, :2 * n - lo].sum(axis=1)) / n
            alpha, delta = cov_xp_f / var_f, np.abs(var_f - cov_x_f ** 2)
            beta = cov_f_ref - r_n_closed(n, half_gap)[0]
            diags[n] = GapDiagnostics(
                n, float(x_ref), x, var_f, alpha, delta, beta,
                *(float(np.max(np.abs(v)))
                  for v in (var_f - 1.0, alpha, delta, beta)))
        sums += block.sum(axis=1)
    return [diags[n] for n in orders]


def check_covariance_draws(m):
    """covariance_check's precondition on its number of draws m: an
    integer (2000.0 counts as 2000), at least 1000, and at most one per
    32-bit replicate id.  Returns m as an int."""
    m = positive_integral("m", m)
    if m < 1000:
        raise PreconditionError("need at least 1000 draws, got %d" % m)
    if m > ID_LIMIT:
        raise PreconditionError("need at most 2**32 draws, one per 32-bit "
                                "replicate id, got %d" % m)
    return m


def _sampled_in_halves(master_seed, n, m, row_sets):
    """The values of each ProcessRows of row_sets at the draws of ids
    0..m-1: one (m, points) table per row set, whose row i is
    combine(rows, a_i / sqrt(n), b_i / sqrt(n), deriv=False)[0].

    The ids go in blocks of _DRAW_BLOCK, aligned at multiples of it from
    id 0.  _beside_child runs the first ceil(k/2) of the k blocks here
    and the rest in a forked child, which also pays the fork's first-use
    costs (for a single block, the child draws none), each at one
    OpenBLAS thread (this process gets its count back after).  A block
    is one sample_coefficient_block call into buffers the half reuses,
    then one combine per row set into the block's rows of that set's
    table; only the tables are shared.  A row's draw depends on its own
    key alone and, at one thread, its values on its block alone, so the
    bits are the same for any split and any number of cores.
    """
    starts = range(0, m, _DRAW_BLOCK)
    size = min(m, _DRAW_BLOCK)
    root = math.sqrt(n)

    def half(block_starts):
        def fill(tables):
            threads = _set_blas_threads(1)
            try:
                A, B = np.empty((2, size, n))
                seeds = np.empty(size, dtype=np.uint64)
                for lo in block_starts:
                    hi = min(lo + _DRAW_BLOCK, m)
                    a, b = A[:hi - lo], B[:hi - lo]
                    sample_coefficient_block(master_seed, n, range(lo, hi),
                                             out=(a, b, seeds[:hi - lo]))
                    a /= root
                    b /= root
                    for rows, table in zip(row_sets, tables):
                        combine(rows, a, b, deriv=False, out=table[lo:hi])
            finally:
                if threads is not None:
                    _set_blas_threads(threads)
        return fill

    split = (len(starts) + 1) // 2
    tables, _ = _beside_child([(m, rows.ra.shape[1]) for rows in row_sets],
                              half(starts[split:]), half(starts[:split]))
    return tables


def covariance_check(basis_pair, n, m=5000, master_seed=20260819):
    """Empirical spot check of the closed-form covariances, for the
    weight and on the grid of the basis pair.

    Draws m coefficient vectors, evaluates X_n at _COV_PAIRS (20) random
    point pairs, and compares the sample covariance with
    r_n((Omega(x) - Omega(y))/2), Omega tabulated on the pair's grid; and
    checks the empirical variance of f_n against 1 at the first 20 of
    those points.  The draws are those of ids 0..m-1, streamed in
    blocks by _sampled_in_halves, the larger, lower half of the blocks
    here and the rest in a forked child whatever SLZEROS_THREADS is, and
    only the values at the sampled points are kept: m rows of 60,
    whatever n is.  Each half runs at one OpenBLAS thread, so the bits
    do not depend on the host's core count.  Refuses a master_seed that
    is not a non-negative integer and m as check_covariance_draws does,
    in that order before the points are drawn, then n and the pair as
    f_n's rows do (process_rows), all before any draw or fork.  Returns
    a dict with the max absolute errors and the raw tables.
    """
    master_seed = non_negative_int("master_seed", master_seed)
    m = check_covariance_draws(m)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(97,))))
    xs = rng.uniform(0.0, TWO_PI, size=2 * _COV_PAIRS)
    pts = xs[:_COV_PAIRS]
    f_rows = process_rows("f_n", n, pts, basis_pair=basis_pair)
    weight, grid = basis_pair[0].weight, basis_pair[0].grid
    vals_x, vals_f = _sampled_in_halves(
        master_seed, n, m,
        [process_rows("X_n", n, xs, weight=weight, grid=grid), f_rows])
    pairs = xs.reshape(_COV_PAIRS, 2)
    cov_emp = np.array([np.cov(vals_x[:, 2 * i], vals_x[:, 2 * i + 1],
                               ddof=1)[0, 1] for i in range(_COV_PAIRS)])
    cov_exact = np.array([covariance_X(n, weight, x, y, grid)
                          for x, y in pairs])
    var_emp = np.var(vals_f, axis=0, ddof=1)
    return {
        "x_pairs": pairs,
        "cov_empirical": cov_emp,
        "cov_exact": cov_exact,
        "cov_max_error": float(np.max(np.abs(cov_emp - cov_exact))),
        "draws": m,
        "var_f_points": pts,
        "var_f_empirical": var_emp,
        "var_f_max_error": float(np.max(np.abs(var_emp - 1.0))),
    }


def write_summary(report, path):
    write_json(path, report.to_dict())
