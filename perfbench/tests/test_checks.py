"""Each of the benchmark's checks passes on a right input and fails on a
wrong one.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import recount  # noqa: E402

N_LIST = (50, 400)


def make_records(kind_counts, replicates=400, sup=None):
    """Rows as read_records returns them; kind_counts maps a kind to a
    function (n, rng) -> counts."""
    rng = np.random.default_rng(5)
    rows = []
    for n in N_LIST:
        cols = {k: f(n, rng) for k, f in kind_counts.items()}
        for rid in range(replicates):
            row = dict.fromkeys(checks.RECORD_HEADER, "")
            row.update(n=str(n), replicate_id=str(rid), seed="7", millis="0")
            for kind, counts in cols.items():
                row[checks.COUNT_COLUMNS[kind]] = str(int(counts[rid]))
                if kind in checks.STABLE_COLUMNS:
                    row[checks.STABLE_COLUMNS[kind]] = "1"
            if sup is not None:
                row["sup_eps"] = repr(sup(n))
            rows.append(row)
    return rows


def around(kind, shift_se=0.0, replicates=400):
    def draw(n, rng):
        sd = math.sqrt(0.2 * n)
        mean = checks.expected_count(n, kind) + shift_se * sd / math.sqrt(replicates)
        return np.rint(rng.normal(mean, sd, replicates))
    return draw


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(checks.RECORD_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in checks.RECORD_HEADER) + "\n")


def test_means_pass_at_the_closed_form():
    rows = make_records({"f_n": around("X_n"), "X_n": around("X_n")})
    assert all(c.ok for c in checks.check_means(rows, N_LIST, ("f_n", "X_n")))


def test_means_fail_on_a_shifted_mean():
    rows = make_records({"X_n": around("X_n", shift_se=8.0)})
    assert not any(c.ok for c in checks.check_means(rows, N_LIST, ("X_n",)))


def test_means_fail_on_swapped_kinds():
    # T_n counts written where the half-frequency kind belongs
    rows = make_records({"X_n": around("T_n"), "T_n": around("X_n")})
    assert not any(c.ok for c in checks.check_means(rows, N_LIST, ("X_n", "T_n")))


def test_layout_fails_on_a_missing_row_or_a_stray_column():
    rows = make_records({"T_n": around("T_n"), "perturbed": around("T_n")})
    kinds = ("T_n", "perturbed")
    assert checks.check_layout(rows, N_LIST, 400, kinds).ok
    assert not checks.check_layout(rows[:17] + rows[18:], N_LIST, 400, kinds).ok
    assert not checks.check_layout(rows, N_LIST, 400, ("T_n",)).ok


def test_a_corrupted_records_row_is_refused(tmp_path):
    rows = make_records({"X_n": around("X_n")})
    path = tmp_path / "records.csv"
    write_csv(path, rows)
    assert len(checks.read_records(path)) == len(rows)
    text = path.read_text().splitlines()
    text[5] = text[5].rsplit(",", 1)[0]  # drop a field
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(checks.RecordsError):
        checks.read_records(path)
    rows[3]["N_Xn"] = "4x"
    assert not checks.check_means(rows, N_LIST, ("X_n",))[0].ok


def test_summary_check_fails_when_the_summary_disagrees(tmp_path):
    rows = make_records({"X_n": around("X_n")})
    summary = {"per_n": {}}
    for n in N_LIST:
        c = checks.column(rows, n, "N_Xn").astype(float)
        summary["per_n"][str(n)] = {"kinds": {"X_n": {
            "mean": float(c.mean()), "var": float(c.var(ddof=1))}}}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    assert checks.check_summary(path, rows, N_LIST, ("X_n",)).ok
    summary["per_n"]["400"]["kinds"]["X_n"]["mean"] += 0.01
    path.write_text(json.dumps(summary))
    assert not checks.check_summary(path, rows, N_LIST, ("X_n",)).ok


def test_sup_eps_bound():
    good = make_records({"X_n": around("X_n")},
                        sup=lambda n: 0.3 * math.log(n) / math.sqrt(n))
    bad = make_records({"X_n": around("X_n")},
                       sup=lambda n: 1.5 * math.log(n) / math.sqrt(n))
    assert checks.check_sup_eps(good, N_LIST).ok
    assert not checks.check_sup_eps(bad, N_LIST).ok


def test_unstable_flags_must_be_explained_by_warnings():
    rows = make_records({"f_n": around("X_n"), "T_n": around("T_n")})
    rows[9]["stable_fn"] = "0"
    flagged = checks.flagged_unsettled(rows, N_LIST, ("f_n", "T_n"))
    assert flagged == 1
    assert checks.check_unstable_flags(flagged, 1).ok
    assert not checks.check_unstable_flags(flagged, 0).ok


def test_recount_differing_by_one_fails():
    assert checks.check_recount("r", [10, 12, 14], [10, 12, 14]).ok
    assert not checks.check_recount("r", [10, 12, 14], [10, 13, 14]).ok
    assert not checks.check_recount("r", [], []).ok


def test_identical_digests():
    assert checks.check_identical("i", ["a", "a", "a"]).ok
    assert not checks.check_identical("i", ["a", "b"]).ok


# ----------------------------------------------------------------------
# the independent zero count

def hermite_samples(f, df, points):
    x = np.linspace(0.0, 2.0 * math.pi, points)
    return f(x)[None, :], df(x)[None, :], x[1] - x[0]


@pytest.mark.parametrize("k", [1, 7, 40])
def test_recount_of_a_cosine(k):
    v, d, h = hermite_samples(lambda x: np.cos(k * x + 0.3),
                              lambda x: -k * np.sin(k * x + 0.3), 2049)
    assert recount.count_hermite_zeros(v, d, h)[0] == 2 * k


def test_recount_finds_a_root_pair_inside_one_cell():
    # a quadratic is its own cubic Hermite interpolant; both roots lie in
    # one cell, so the node values never change sign
    a, b = 1.001, 1.002
    v, d, h = hermite_samples(lambda x: (x - a) * (x - b),
                              lambda x: 2 * x - a - b, 65)
    assert np.all(v > 0)
    assert recount.count_hermite_zeros(v, d, h)[0] == 2


def test_recount_skips_a_double_root():
    v, d, h = hermite_samples(lambda x: (x - 1.5) ** 2 + 0.0,
                              lambda x: 2 * (x - 1.5), 65)
    assert recount.count_hermite_zeros(v, d, h)[0] == 0


def test_recount_is_per_row():
    x = np.linspace(0.0, 2.0 * math.pi, 513)
    v = np.stack([np.cos(3 * x), np.cos(5 * x + 0.1)])
    d = np.stack([-3 * np.sin(3 * x), -5 * np.sin(5 * x + 0.1)])
    assert list(recount.count_hermite_zeros(v, d, x[1] - x[0])) == [6, 10]


# ----------------------------------------------------------------------
# eigenbasis and covariance checks

def test_eigenvalue_check():
    k = np.arange(1, 201)
    q = 0.03
    lam = (0.5 * k + q / k) ** 2
    assert checks.check_eigenvalues("D", lam, q, 0.1).ok
    assert not checks.check_eigenvalues("D", lam, q + 0.01, 0.1).ok
    assert not checks.check_eigenvalues("D", lam, q, 0.02).ok
    swapped = lam.copy()
    swapped[[50, 51]] = swapped[[51, 50]]
    assert not checks.check_eigenvalues("D", swapped, q, 0.1).ok


def sine_family(m, points=2049):
    """sin(k x/2) on [0, 2 pi]: orthogonal in dx, eigenfunctions of
    psi'' + (k/2)^2 psi = 0 (unit weight)."""
    x = np.linspace(0.0, 2.0 * math.pi, points)
    k = np.arange(1, m + 1)[:, None]
    return (x, np.sin(0.5 * k * x), 0.5 * k * np.cos(0.5 * k * x),
            (0.5 * np.arange(1, m + 1)) ** 2)


def test_orthogonality_and_residual_checks():
    x, f, df, lam = sine_family(20)
    h = x[1] - x[0]
    one, zero = np.ones_like(x), np.zeros_like(x)
    assert checks.check_orthogonality("D", f, df, one, zero, h).ok
    assert checks.check_ode_residual("D", lam, f, df, one, h).ok
    mixed = f.copy()
    mixed[3] += 1e-3 * f[4]
    assert not checks.check_orthogonality("D", mixed, df, one, zero, h).ok
    assert not checks.check_ode_residual("D", lam * 1.001, f, df, one, h).ok


def test_covariance_check():
    exact = np.array([0.5, -0.2, 0.0])
    sd = np.sqrt(1 + exact ** 2)
    m = 10000
    assert checks.check_covariances("c", exact + 0.01, exact, m, sd).ok
    assert not checks.check_covariances("c", exact + 0.1, exact, m, sd).ok


def test_kernel_sum():
    t = np.array([0.0, 0.4, 2.0])
    direct = np.array([np.mean(np.cos(np.arange(1, 51) * s)) for s in t])
    assert np.allclose(checks.r_n(50, t), direct, atol=1e-14)
