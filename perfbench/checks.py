"""Correctness checks on what one command-line run produced.

Every check compares the program's output with something the benchmark
computes itself: a closed form, a property the method guarantees, or an
independent recount.  None compares with a stored copy of earlier
output.  Each returns a Check; a check that cannot be made (a missing
column, a malformed row) fails rather than passes.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# A mean count more than this many standard errors from the closed form
# fails.  With the workloads' replicate counts a correct program stays
# below 2 in practice; 5 standard errors happen by chance about once in
# two million checks.
MEAN_Z = 5.0
# Bound on the median of sup|f_n - X_n| * sqrt(n)/log(n) per n (sine2).
SUP_EPS_SCALED_MAX = 1.0
# Covariance spot checks: |error| <= COV_SIGMAS * (standard deviation of
# the estimate) for m draws; see check_covariances.
COV_SIGMAS = 5.0

COUNT_COLUMNS = {"f_n": "N_fn", "X_n": "N_Xn", "T_n": "N_Tn",
                 "perturbed": "N_pert"}
STABLE_COLUMNS = {"f_n": "stable_fn", "X_n": "stable_Xn"}
RECORD_HEADER = ("n", "replicate_id", "seed", "N_fn", "N_Xn", "N_Tn",
                 "N_pert", "sup_eps", "stable_fn", "stable_Xn", "millis")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str

    def as_dict(self):
        return {"name": self.name, "ok": bool(self.ok), "detail": self.detail}


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expected_count(n, kind):
    """Closed-form mean zero count on [0, 2*pi]: the half-frequency
    process (X_n, and f_n in the limit) and the full-frequency T_n."""
    if kind in ("f_n", "X_n"):
        return 2.0 * math.sqrt((n + 1) * (2 * n + 1) / 24.0)
    if kind in ("T_n", "perturbed"):
        return 2.0 * math.sqrt((n + 1) * (2 * n + 1) / 6.0)
    raise ValueError("no closed form for kind %r" % (kind,))


# ----------------------------------------------------------------------
# records.csv

class RecordsError(ValueError):
    pass


def read_records(path):
    """records.csv as a list of dicts of raw strings, header checked."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != RECORD_HEADER:
        raise RecordsError("records header is %r" % (rows[0] if rows else None,))
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(RECORD_HEADER):
            raise RecordsError("records line %d has %d fields" % (i, len(row)))
        out.append(dict(zip(RECORD_HEADER, row)))
    return out


def column(records, n, name, conv=int):
    """Values of one column for one n, ordered by replicate id; raises
    RecordsError on an empty or malformed cell."""
    rows = sorted((r for r in records if r["n"] == str(n)),
                  key=lambda r: int(r["replicate_id"]))
    try:
        return np.array([conv(r[name]) for r in rows])
    except ValueError as exc:
        raise RecordsError("column %s for n=%d: %s" % (name, n, exc))


def check_layout(records, n_list, replicates, kinds):
    """Each n has replicate ids 0..replicates-1 in order, with counts
    exactly in the requested kinds' columns."""
    name = "records.layout"
    expect = [(n, rid) for n in n_list for rid in range(replicates)]
    got = [(int(r["n"]), int(r["replicate_id"])) for r in records]
    if got != expect:
        return Check(name, False, "rows are not n x replicate ids 0..%d in "
                     "order" % (replicates - 1))
    for kind, col in COUNT_COLUMNS.items():
        filled = [r[col] != "" for r in records]
        want = kind in kinds
        if any(f != want for f in filled):
            return Check(name, False, "column %s is %s" % (
                col, "incomplete" if want else "filled for an unrequested kind"))
    return Check(name, True, "%d rows, counts in %s" % (
        len(records), ", ".join(COUNT_COLUMNS[k] for k in kinds)))


def check_mean(counts, n, kind, z_max=MEAN_Z):
    """Mean count within z_max standard errors of the closed form."""
    counts = np.asarray(counts, dtype=float)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(counts.size))
    target = expected_count(n, kind)
    z = abs(mean - target) / se if se > 0 else math.inf
    return Check("mean.%s.n%d" % (kind, n), z <= z_max,
                 "mean %.3f vs %.3f, %.2f SE (limit %.1f)"
                 % (mean, target, z, z_max))


def check_means(records, n_list, kinds):
    out = []
    for n in n_list:
        for kind in kinds:
            try:
                counts = column(records, n, COUNT_COLUMNS[kind])
            except RecordsError as exc:
                out.append(Check("mean.%s.n%d" % (kind, n), False, str(exc)))
                continue
            out.append(check_mean(counts, n, kind))
    return out


def check_sup_eps(records, n_list, bound=SUP_EPS_SCALED_MAX):
    """Median of sup|f_n - X_n| * sqrt(n)/log(n) stays below a fixed
    bound at every n."""
    meds = {}
    try:
        for n in n_list:
            sup = column(records, n, "sup_eps", float)
            meds[n] = float(np.median(sup)) * math.sqrt(n) / math.log(n)
    except RecordsError as exc:
        return Check("sup_eps.scaled_median", False, str(exc))
    ok = all(0.0 < v <= bound for v in meds.values())
    return Check("sup_eps.scaled_median", ok, "%s (limit %.2f)" % (
        ", ".join("n=%d: %.4f" % (n, v) for n, v in meds.items()), bound))


def check_summary(summary_path, records, n_list, kinds):
    """summary.json's per-n mean and variance are those of the records."""
    with open(summary_path) as fh:
        summary = json.load(fh)
    worst = 0.0
    try:
        for n in n_list:
            for kind in kinds:
                counts = column(records, n, COUNT_COLUMNS[kind]).astype(float)
                block = summary["per_n"][str(n)]["kinds"][kind]
                worst = max(worst,
                            abs(block["mean"] - counts.mean()),
                            abs(block["var"] - counts.var(ddof=1))
                            / max(1.0, counts.var(ddof=1)))
    except (KeyError, RecordsError) as exc:
        return Check("summary.matches_records", False, "missing %s" % (exc,))
    return Check("summary.matches_records", worst <= 1e-9,
                 "largest mean/variance difference %.2e" % worst)


def flagged_unsettled(records, n_list, kinds):
    """Rows whose stability column says the count did not settle."""
    return sum(int(np.count_nonzero(column(records, n, STABLE_COLUMNS[kind]) == 0))
               for kind in kinds if kind in STABLE_COLUMNS for n in n_list)


def check_unstable_flags(flagged, warnings):
    """Every row flagged unsettled matches one of the zero counter's own
    'did not stabilize' warnings."""
    return Check("records.unstable_flags", flagged <= warnings,
                 "%d rows flagged unsettled, %d counter warnings"
                 % (flagged, warnings))


def check_recount(name, recorded, recounted):
    """Every recorded count equals the independent recount."""
    recorded = np.asarray(recorded)
    recounted = np.asarray(recounted)
    bad = np.nonzero(recorded != recounted)[0]
    detail = "%d rows agree" % recorded.size
    if bad.size:
        detail = "%d of %d rows differ, first: recorded %d, recount %d" % (
            bad.size, recorded.size, recorded[bad[0]], recounted[bad[0]])
    return Check(name, recorded.size > 0 and bad.size == 0, detail)


def check_identical(name, digests):
    """All rounds of a run wrote the same bytes."""
    ok = len(set(digests)) == 1
    return Check(name, ok, "%d rounds, %d distinct digests" % (
        len(digests), len(set(digests))))


# ----------------------------------------------------------------------
# eigenbasis properties (diagnose)

def phase_potential(omega, d1, d2, x):
    """Mean and sup of |.| of the phase-frame potential Q(y) = q(x(y)),
    q = omega''/(2 omega^3) - (3/4) omega'^2/omega^4.  The mean over the
    phase variable is (1/2pi) integral of q omega dx, by composite
    Simpson on the uniform points x (an even number of cells)."""
    om, w1, w2 = omega(x), d1(x), d2(x)
    q = w2 / (2.0 * om ** 3) - 0.75 * w1 ** 2 / om ** 4
    f = q * om
    h = x[1] - x[0]
    simpson = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                         + 2.0 * f[2:-1:2].sum())
    return simpson / (2.0 * math.pi), float(np.abs(q).max())


def check_eigenvalues(family, lambdas, q_mean, q_sup, k_from=20, tol=0.005):
    """Eigenvalues rise strictly; k*|sqrt(lambda_k) - k/2| stays below
    sup|Q| (with 1% slack), the bound that comparison with the constant
    potentials min Q and max Q gives; and k*(sqrt(lambda_k) - k/2) is
    within tol of its limit, the mean of Q, for k >= k_from."""
    lam = np.asarray(lambdas, dtype=float)
    k = np.arange(1, lam.size + 1)
    rising = bool(np.all(np.diff(lam) > 0.0))
    scaled = k * (np.sqrt(lam) - 0.5 * k)
    tail = np.abs(scaled[k >= k_from] - q_mean)
    worst_tail = float(tail.max()) if tail.size else math.inf
    bound = float(np.abs(scaled).max())
    ok = rising and worst_tail <= tol and bound <= 1.01 * q_sup
    return Check("eigen.%s.asymptotics" % family, ok,
                 "strictly rising: %s; max k|sqrt(lambda)-k/2| = %.4f "
                 "(sup|Q| = %.4f); |k(sqrt(lambda)-k/2) - %.4f| <= %.5f for "
                 "k >= %d (limit %.3f)"
                 % (rising, bound, q_sup, q_mean, worst_tail, k_from, tol))


def gram_omega2(funcs, dfuncs, omega, d_omega, h):
    """Gram matrix of the rows in omega^2 dx by the trapezoid rule with
    its Euler-Maclaurin end correction, which uses the stored slopes:
    integral f ~ h*(sum f - (f_0 + f_N)/2) - h^2/12 (f'_N - f'_0)."""
    w2 = omega ** 2
    colw = w2 * h
    colw[0] *= 0.5
    colw[-1] *= 0.5
    G = (funcs * colw) @ funcs.T
    for end, sign in ((-1, 1.0), (0, -1.0)):
        u, du = funcs[:, end], dfuncs[:, end]
        # d/dx (u_j u_k omega^2) at the end point
        deriv = (np.outer(du, u) + np.outer(u, du)) * w2[end] \
            + np.outer(u, u) * 2.0 * omega[end] * d_omega[end]
        G -= sign * h * h / 12.0 * deriv
    return G


def check_orthogonality(family, funcs, dfuncs, omega, d_omega, h, tol=1e-9):
    """Distinct eigenfunctions of one family are orthogonal in
    omega^2 dx: every off-diagonal Gram entry is below tol times the
    smallest diagonal one."""
    G = gram_omega2(funcs, dfuncs, omega, d_omega, h)
    diag = np.diag(G).copy()
    off = np.abs(G - np.diag(diag)).max() / diag.min()
    return Check("eigen.%s.orthogonality" % family, off <= tol,
                 "max |<psi_j, psi_k>| / min <psi_k, psi_k> = %.2e (limit %.0e)"
                 % (off, tol))


def fd_first(f, h):
    """Sixth-order central first derivative at interior points 3..N-3."""
    return (-f[:, :-6] + 9.0 * f[:, 1:-5] - 45.0 * f[:, 2:-4]
            + 45.0 * f[:, 4:-2] - 9.0 * f[:, 5:-1] + f[:, 6:]) / (60.0 * h)


def check_ode_residual(family, lambdas, funcs, dfuncs, omega, h, tol=1e-4):
    """psi'' + lambda omega^2 psi = 0, with psi'' the sixth-order finite
    difference of the stored slopes, relative to lambda sup|omega^2 psi|;
    and the stored slopes match the finite difference of the values."""
    lam = np.asarray(lambdas, dtype=float)[:, None]
    inner = slice(3, -3)
    d2 = fd_first(dfuncs, h)
    w2 = omega[inner] ** 2
    scale = np.maximum(np.abs(lam), 1.0)[:, 0] * np.abs(w2 * funcs[:, inner]).max(axis=1)
    res = np.abs(d2 + lam * w2 * funcs[:, inner]).max(axis=1) / scale
    slope = (np.abs(fd_first(funcs, h) - dfuncs[:, inner]).max(axis=1)
             / np.abs(dfuncs).max(axis=1))
    worst, worst_slope = float(res.max()), float(slope.max())
    return Check("eigen.%s.ode_residual" % family,
                 worst <= tol and worst_slope <= tol,
                 "max relative residual %.2e, slope mismatch %.2e (limit %.0e)"
                 % (worst, worst_slope, tol))


# ----------------------------------------------------------------------
# covariance spot checks (diagnose)

def r_n(n, t):
    """(1/n) sum_{k=1..n} cos(k t), summed term by term."""
    k = np.arange(1, n + 1, dtype=float)
    return np.cos(np.multiply.outer(np.asarray(t, dtype=float), k)).sum(axis=-1) / n


def check_covariances(name, empirical, exact, m, sd):
    """|empirical - exact| <= COV_SIGMAS * sd / sqrt(m) at every point,
    where sd / sqrt(m) is the standard deviation of the estimate from m
    Gaussian draws: sd = sqrt(1 + r^2) for the covariance r of two
    unit-variance values and sqrt(2) * v for a sample variance v."""
    err = np.abs(np.asarray(empirical) - np.asarray(exact))
    limit = COV_SIGMAS * np.asarray(sd) / math.sqrt(m)
    worst = float((err / limit).max())
    return Check(name, worst <= 1.0, "max error %.4f, %.2f of the limit "
                 "%.1f sd/sqrt(m) at m=%d" % (float(err.max()), worst,
                                              COV_SIGMAS, m))


def read_table(path):
    """A CSV table with a header as a dict of float columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header)}
