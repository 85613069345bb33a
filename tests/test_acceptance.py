"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``criterion NN: PASS/FAIL (detail)`` line
(visible with ``pytest -s``) and then asserts, so a red run names the
exact guarantee that broke and the measured value that broke it.

Heavy Monte Carlo inputs come from the session fixtures in conftest.py
(sine2 coupled runs with 2000 replicates per n, the perturbed-family
runs, and the unit-weight coupled runs); the statistical thresholds
below are pinned to those fixed seeds.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from slzeros.eigen import BoundaryCondition, asymptotic_deviation, eigen_solve
from slzeros.ensembles import build_process, sample_coefficients
from slzeros.errors import InvariantViolation
from slzeros.harness import (ExperimentConfig, covariance_check,
                             gap_diagnostics, run_experiment, summarize,
                             sup_eps_diagnostic)
from slzeros.kernels import expected_count_closed
from slzeros.weights import TWO_PI, builtin_weights
from slzeros.zeros import count_zeros_changed_variable

MASTER_SEED = 20260819  # matches conftest.MASTER_SEED


def _report(num, ok, detail):
    print("criterion %02d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def main_summary(main_records):
    return summarize(main_records[1])


@pytest.fixture(scope="module")
def pert_summary(pert_records):
    return summarize(pert_records[1])


def test_criterion_01_unit_eigenvalue_oracle():
    """Unit-weight eigenvalues hit k^2/4 to 1e-8, both families, < 5 s."""
    t0 = time.perf_counter()
    ks = np.arange(1, 21, dtype=float)
    worst = 0.0
    for bc in (BoundaryCondition.D, BoundaryCondition.C):
        basis = eigen_solve(builtin_weights("unit"), bc, 20)
        worst = max(worst,
                    float(np.max(np.abs(basis.eigenvalues - ks ** 2 / 4.0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, ok, "max |lambda_k - k^2/4| = %.3g (tol 1e-8), %.2fs (limit 5s)"
            % (worst, elapsed))


def test_criterion_02_sine2_eigenvalue_asymptotics():
    """sqrt(lambda_k) - k/2 decays like 1/k for the sine2 weight, < 60 s."""
    t0 = time.perf_counter()
    weight = builtin_weights("sine2")
    slopes = []
    for bc in (BoundaryCondition.C, BoundaryCondition.D):
        basis = eigen_solve(weight, bc, 200)
        k = np.arange(1, 201, dtype=float)
        sel = k >= 20
        resid = np.abs(np.sqrt(basis.eigenvalues[sel]) - k[sel] / 2.0)
        slopes.append(float(np.polyfit(np.log(k[sel]), np.log(resid), 1)[0]))
    elapsed = time.perf_counter() - t0
    ok = all(abs(s + 1.0) <= 0.3 for s in slopes) and elapsed < 60.0
    _report(2, ok, "log-log slopes C = %.3f, D = %.3f (target -1 +- 0.3), "
            "%.2fs (limit 60s)" % (slopes[0], slopes[1], elapsed))


def test_criterion_03_eigenfunction_asymptotics(sine2_basis_200):
    """k * sup|psi_k - asymptotic form| stays bounded over k in [20, 200]."""
    details = []
    ok = True
    for basis in sine2_basis_200:
        ks, d, _ = asymptotic_deviation(basis)
        ks = np.asarray(ks, dtype=float)
        kd = ks[ks >= 20] * np.asarray(d)[ks >= 20]
        ratio = float(np.max(kd) / np.median(kd))
        details.append("%s max/median = %.2f" % (basis.bc.value, ratio))
        ok = ok and ratio <= 3.0
    _report(3, ok, ", ".join(details) + " (limit 3.0)")


def test_criterion_04_kac_rice_monte_carlo_mean():
    """Mean zero count of the unit-weight comparison process at n = 50
    matches the closed-form expectation within 3 standard errors, < 3 min."""
    t0 = time.perf_counter()
    config = ExperimentConfig(weight_name="unit", n_list=(50,),
                              replicates=2000, master_seed=MASTER_SEED,
                              process_kinds=("X_n",))
    records = run_experiment(config)
    counts = np.array([r.n_xn for r in records], dtype=float)
    elapsed = time.perf_counter() - t0
    target = expected_count_closed(50, "X_n")
    assert abs(target - 29.300170647967224) < 1e-12
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(counts.size))
    ok = abs(mean - target) <= 3.0 * se and elapsed < 180.0
    _report(4, ok, "mean = %.4f vs closed form %.4f, |diff| = %.4f, "
            "3 SE = %.4f, %.1fs (limit 180s)"
            % (mean, target, abs(mean - target), 3.0 * se, elapsed))


def test_criterion_05_unit_weight_exact_coupling(unit_couple_records):
    """With the unit weight the coupled processes coincide: identical
    zero counts in every replicate and a negligible coupling error."""
    _, records = unit_couple_records
    equal = sum(1 for r in records if r.n_fn == r.n_xn)
    sup = max(r.sup_eps for r in records)
    ok = equal == len(records) and sup <= 1e-6
    _report(5, ok, "equal counts in %d/%d replicates, max sup|eps| = %.2e "
            "(tol 1e-6)" % (equal, len(records), sup))


def test_criterion_06_variance_stabilization(main_summary):
    """var(count)/n settles: n = 200 and n = 400 estimates within 15%,
    and the n = 400 value is positive with a 95% CI excluding zero."""
    v200 = main_summary.per_n[200].kinds["f_n"].var_over_n
    s400 = main_summary.per_n[400].kinds["f_n"]
    rel = abs(v200 - s400.var_over_n) / s400.var_over_n
    lo, hi = s400.var_over_n_ci
    ok = rel <= 0.15 and s400.var_over_n > 0.0 and lo > 0.0
    _report(6, ok, "var/n = %.4f (n=200) vs %.4f (n=400), rel diff = %.1f%% "
            "(limit 15%%), CI(400) = [%.4f, %.4f]"
            % (v200, s400.var_over_n, 100.0 * rel, lo, hi))


def test_criterion_07_gaussian_limit(main_summary):
    """Standardized counts look Gaussian: fitted KS distance at n = 400
    is at most 0.08 and improves on n = 50."""
    ks50 = main_summary.per_n[50].kinds["f_n"].ks_fitted
    ks400 = main_summary.per_n[400].kinds["f_n"].ks_fitted
    ok = ks400 <= 0.08 and ks400 < ks50
    _report(7, ok, "KS(400) = %.4f (limit 0.08), KS(50) = %.4f"
            % (ks400, ks50))


def test_criterion_08_l1_contiguity(main_summary):
    """E|count difference|/sqrt(n) of the coupled pair shrinks with n
    and is at most 0.1 at n = 400."""
    c50 = main_summary.per_n[50].contiguity
    c400 = main_summary.per_n[400].contiguity
    ok = c400 < c50 and c400 <= 0.1
    _report(8, ok, "contiguity = %.4f (n=50) -> %.4f (n=400, limit 0.1)"
            % (c50, c400))


def test_criterion_09_coupling_error_scale(main_records):
    """Median sup|eps_n| * sqrt(n)/log(n) is flat across n (log-log
    slope within 0.3 of zero)."""
    diag = sup_eps_diagnostic(main_records[1])
    slope = diag["median_loglog_slope"]
    meds = {n: q["median"] for n, q in sorted(diag["quantiles"].items())}
    ok = slope is not None and abs(slope) <= 0.3
    _report(9, ok, "scaled medians %s, log-log slope = %.3f (limit +-0.3)"
            % ({n: round(v, 4) for n, v in meds.items()}, slope))


def test_criterion_10_covariance_kernels(sine2_weight, sine2_basis):
    """Empirical covariances match the closed-form kernel at random point
    pairs, and var(f_n(x)) is within 0.05 of 1 at n = 400."""
    check = covariance_check(sine2_weight, 400, basis_pair=sine2_basis,
                             n_pairs=20, m=5000, master_seed=MASTER_SEED)
    tol = 4.0 / math.sqrt(check["draws"])
    ok = check["cov_max_error"] <= tol and check["var_f_max_error"] <= 0.05
    _report(10, ok, "cov max error = %.4f (tol %.4f), var(f) max error = "
            "%.4f (tol 0.05)" % (check["cov_max_error"], tol,
                                 check["var_f_max_error"]))


def test_criterion_11_gap_diagnostics(sine2_weight, sine2_basis):
    """Second-order diagnostics stay bounded across n: sup|alpha_n|,
    n * sup|Delta_n|, and sup|beta_n| * n/log(n) each have max <= 3x median."""
    n_list = (50, 100, 200, 400)
    alpha, n_delta, beta_scaled = [], [], []
    for n, g in zip(n_list, gap_diagnostics(sine2_basis, sine2_weight,
                                            n_list)):
        alpha.append(g.alpha_sup)
        n_delta.append(n * g.delta_sup)
        beta_scaled.append(g.beta_sup * n / math.log(n))
    details = []
    ok = True
    for name, vals in (("alpha", alpha), ("n*delta", n_delta),
                       ("beta_scaled", beta_scaled)):
        ratio = float(np.max(vals) / np.median(vals))
        details.append("%s max/median = %.2f" % (name, ratio))
        ok = ok and ratio <= 3.0
    _report(11, ok, ", ".join(details) + " (limit 3.0)")


def test_criterion_12_perturbed_robustness(pert_summary):
    """The default perturbed ensemble keeps the variance plateau, the
    Gaussian shape, and the closed-form mean of the unperturbed family."""
    p50 = pert_summary.per_n[50].kinds["perturbed"]
    p200 = pert_summary.per_n[200].kinds["perturbed"]
    p400 = pert_summary.per_n[400].kinds["perturbed"]
    rel = abs(p200.var_over_n - p400.var_over_n) / p400.var_over_n
    lo, _ = p400.var_over_n_ci
    target = expected_count_closed(400, "T_n")
    se = math.sqrt(p400.var / p400.replicates)
    mean_gap = abs(p400.mean - target)
    ok = (rel <= 0.15 and lo > 0.0 and p400.ks_fitted <= 0.08
          and p400.ks_fitted < p50.ks_fitted and mean_gap <= 3.0 * se)
    _report(12, ok, "var/n rel diff = %.1f%% (limit 15%%), CI low = %.4f, "
            "KS(400) = %.4f (limit 0.08) vs KS(50) = %.4f, |mean - %.4f| = "
            "%.4f, 3 SE = %.4f"
            % (100.0 * rel, lo, p400.ks_fitted, p50.ks_fitted, target,
               mean_gap, 3.0 * se))


def test_criterion_13_change_of_variables_identity(sine2_weight):
    """Zero counts are invariant under the cumulative-weight change of
    variables in 500 random (draw, endpoint) trials at n = 100."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=MASTER_SEED, spawn_key=(413,))))
    trials = 500
    agreed = 0
    for rid in range(trials):
        draw = sample_coefficients(MASTER_SEED, 100, rid)
        proc = build_process("X_n_raw", 100, draw, weight=sine2_weight)
        endpoint = float(rng.uniform(0.0, TWO_PI))
        try:
            res_raw, res_pull = count_zeros_changed_variable(proc, endpoint)
        except InvariantViolation:
            continue
        agreed += int(res_raw.count == res_pull.count)
    ok = agreed == trials
    _report(13, ok, "count equality held in %d/%d trials" % (agreed, trials))


def test_criterion_14_thread_count_invariance(tmp_path, module_cli_env):
    """Identical configs produce byte-identical record CSVs regardless of
    the worker count."""
    base = [sys.executable, "-m", "slzeros", "simulate", "--weight", "sine2",
            "--n-list", "20,40", "--replicates", "96", "--kinds", "f_n,X_n",
            "--k-max", "40", "--seed", str(MASTER_SEED)]
    blobs = []
    for threads in ("1", "2"):
        out = str(tmp_path / ("run_threads_" + threads))
        env = dict(module_cli_env, SLZEROS_THREADS=threads)
        proc = subprocess.run(base + ["--out", out], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(out, "records.csv"), "rb") as fh:
            blobs.append(fh.read())
    ok = len(blobs[0]) > 0 and blobs[0] == blobs[1]
    _report(14, ok, "records.csv byte-identical across SLZEROS_THREADS=1,2 "
            "(%d bytes)" % len(blobs[0]))
