"""One run of the slzeros command line, measured from inside the fresh
process that runs it, then checked.

    python3 perfbench/probe.py --workload W --seed S --out DIR \
        --result FILE --spans DIR --trace 0|1

run.py starts this with PYTHONPATH leading to the checkout's `src`.  It
installs the recorder, calls slzeros.cli.main with the workload's
arguments, takes the end time and resource use as soon as main returns,
and only then runs the checks, so the checks cost the measurement
nothing.  The result file holds the phase marks, the resource use, the
checks and, when traced, the per-layer figures.
"""

import argparse
import json
import math
import os
import resource
import sys

import numpy as np

import checks
import recount
import tracing
from workloads import WORKLOADS


def _checks(wl, seed, out, basis):
    results = []
    digest_files = []
    if wl.subcommand in ("compare", "robustness"):
        path = os.path.join(out, "records.csv")
        digest_files.append(path)
        records = checks.read_records(path)
        results.append(checks.check_layout(records, wl.n_list,
                                           wl.replicates, wl.kinds))
        results += checks.check_means(records, wl.n_list, wl.kinds)
        results.append(checks.check_summary(os.path.join(out, "summary.json"),
                                            records, wl.n_list, wl.kinds))
        if wl.subcommand == "compare":
            results.append(checks.check_sup_eps(records, wl.n_list))
        results += _recount_checks(wl, seed, records, basis)
    else:
        for name in ("gap_table.csv", "cov_check.csv", "var_check.csv"):
            digest_files.append(os.path.join(out, name))
        results += _diagnose_checks(wl, out, basis)
    digest = "".join(checks.sha256_file(p) for p in digest_files)
    return results, digest


def _recount_checks(wl, seed, records, basis):
    from slzeros import default_grid, sample_coefficients

    grid = basis[0].grid if basis is not None else default_grid()
    ids = np.array(wl.recount_ids)
    recorded = {kind: [] for kind in wl.kinds}
    recounted = {kind: [] for kind in wl.kinds}
    seeds_ok = True
    sup_worst = 0.0
    for n in wl.n_list:
        draws = [sample_coefficients(seed, n, int(rid)) for rid in ids]
        root = 1.0 / math.sqrt(n)
        A = np.stack([d.a for d in draws]) * root
        B = np.stack([d.b for d in draws]) * root
        seeds_ok &= [d.seed for d in draws] == list(
            checks.column(records, n, "seed")[ids])
        vals = {}
        for kind in wl.kinds:
            vals[kind], ders = recount.samples(kind, A, B, grid.points, basis)
            recounted[kind] += list(recount.count_hermite_zeros(vals[kind], ders, grid.h))
            recorded[kind] += list(checks.column(records, n, checks.COUNT_COLUMNS[kind])[ids])
        if wl.subcommand == "compare":
            sup = np.abs(vals["f_n"] - vals["X_n"]).max(axis=1)
            stored = checks.column(records, n, "sup_eps", float)[ids]
            sup_worst = max(sup_worst, float(np.max(np.abs(sup - stored) / sup)))
    out = [checks.check_recount("recount.%s" % kind, recorded[kind], recounted[kind])
           for kind in wl.kinds]
    out.append(checks.Check("records.seed", seeds_ok,
                            "seed column of %d sampled rows per n" % ids.size))
    if wl.subcommand == "compare":
        out.append(checks.Check("sup_eps.recomputed", sup_worst <= 1e-8,
                                "largest relative difference %.2e" % sup_worst))
    return out


def expcos(a=0.5):
    """omega = exp(a cos x)/I0(a) and its first two derivatives."""
    c = 1.0 / np.i0(a)
    om = lambda x: c * np.exp(a * np.cos(x))
    d1 = lambda x: -a * np.sin(x) * om(x)
    d2 = lambda x: a * (a * np.sin(x) ** 2 - np.cos(x)) * om(x)
    return om, d1, d2


def _diagnose_checks(wl, out, basis):
    om, d1, d2 = expcos()
    results = []
    x = basis[0].grid.points
    h = basis[0].grid.h
    q_mean, q_sup = checks.phase_potential(om, d1, d2,
                                           np.linspace(0.0, 2.0 * math.pi, 20001))
    for fam in basis:
        family = fam.bc.value
        lam = np.array([p.eigenvalue for p in fam.pairs])
        results.append(checks.check_eigenvalues(family, lam, q_mean, q_sup))
        results.append(checks.check_orthogonality(family, fam.funcs, fam.dfuncs,
                                                  om(x), d1(x), h))
        results.append(checks.check_ode_residual(family, lam, fam.funcs,
                                                 fam.dfuncs, om(x), h))
    n = max(wl.n_list)
    m = wl.replicates

    # Omega by 64-point Gauss-Legendre on [0, x]; X_n covariance is
    # r_n((Omega(x) - Omega(y))/2)
    nodes, weights = np.polynomial.legendre.leggauss(64)

    def Omega(z):
        z = np.asarray(z, dtype=float)
        pts = 0.5 * z[:, None] * (nodes + 1.0)
        return 0.5 * z * (om(pts) @ weights)

    cov = checks.read_table(os.path.join(out, "cov_check.csv"))
    exact = checks.r_n(n, 0.5 * (Omega(cov["x"]) - Omega(cov["y"])))
    kernel_err = float(np.abs(exact - cov["cov_exact"]).max())
    results.append(checks.Check("kernels.r_n", kernel_err <= 1e-9,
                                "closed-form kernel vs term-by-term sum: "
                                "max difference %.2e" % kernel_err))
    results.append(checks.check_covariances(
        "cov_check.error", cov["cov_empirical"], exact, m,
        np.sqrt(1.0 + exact ** 2)))

    var = checks.read_table(os.path.join(out, "var_check.csv"))
    pts = var["x"]
    bc_c, bc_d = basis
    u = _hermite(bc_c.funcs[:n], bc_c.dfuncs[:n], h, pts)
    v = _hermite(bc_d.funcs[:n], bc_d.dfuncs[:n], h, pts)
    var_exact = om(pts) * (u * u + v * v).sum(axis=0) / n
    results.append(checks.check_covariances(
        "var_check.error", var["var_f_empirical"], var_exact, m,
        math.sqrt(2.0) * var_exact))
    return results


def _hermite(funcs, dfuncs, h, pts):
    """Cubic Hermite interpolation of every row at the points pts."""
    i = np.minimum((pts / h).astype(int), funcs.shape[1] - 2)
    s = pts / h - i
    return (funcs[:, i] * (1 + 2 * s) * (1 - s) ** 2
            + dfuncs[:, i] * h * s * (1 - s) ** 2
            + funcs[:, i + 1] * s * s * (3 - 2 * s)
            + dfuncs[:, i + 1] * h * s * s * (s - 1))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.master_seed(args.seed)

    rec = tracing.Recorder(bool(args.trace), args.spans)
    rec.install()
    import slzeros.cli

    t0 = tracing.now()
    code = slzeros.cli.main(wl.argv(args.seed, args.out))
    t1 = tracing.now()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "exit_code": code,
        "marks": rec.marks,
        "end": t1,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }
    if code == 0:
        if args.trace:
            result["trace"] = tracing.round_trace(
                rec, ("cli.main", t0, t1, 0, 0), wl.threads)
        found, digest = _checks(wl, seed, args.out, rec.basis)
        result["checks"] = [c.as_dict() for c in found]
        result["digest"] = digest
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
