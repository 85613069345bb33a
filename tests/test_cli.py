"""End-to-end checks of the command line: tables, manifests, exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from slzeros import cli
from slzeros.errors import NumericError
from slzeros.harness import (RECORD_COLUMNS, read_records, summarize,
                             sup_eps_slope)
from slzeros.kernels import expected_count_closed


def _run(argv):
    return cli.main(argv)


def _read_table(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_eigen_table_unit_weight(tmp_path):
    out = str(tmp_path / "eig")
    assert _run(["eigen", "--weight", "unit", "--k-max", "4",
                 "--out", out]) == 0
    header, rows = _read_table(os.path.join(out, "eigen_table.csv"))
    assert header == ["family", "k", "lambda", "sqrt_lambda_minus_half_k",
                      "d", "k_d", "d1"]
    assert [r[0] for r in rows] == ["C"] * 4 + ["D"] * 4
    assert [int(r[1]) for r in rows] == [1, 2, 3, 4] * 2
    for r in rows:
        k = int(r[1])
        np.testing.assert_allclose(float(r[2]), k * k / 4.0, atol=1e-8)
        assert abs(float(r[3])) < 1e-7
        assert abs(float(r[4])) < 1e-7
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["subcommand"] == "eigen"
    assert manifest["config"] == {"weight": "unit", "k_max": 4, "out": out}


def test_kac_table_matches_closed_forms(tmp_path):
    out = str(tmp_path / "kac")
    assert _run(["kac", "--weight", "unit", "--n-list", "1,2",
                 "--out", out]) == 0
    header, rows = _read_table(os.path.join(out, "kac_table.csv"))
    assert header == ["n", "kind", "expected_count", "closed_form"]
    table = {(int(r[0]), r[1]): (float(r[2]), float(r[3])) for r in rows}
    assert set(table) == {(1, "X_n"), (1, "T_n"), (2, "X_n"), (2, "T_n")}
    assert table[(1, "X_n")][1] == 1.0
    assert table[(1, "T_n")][1] == 2.0
    np.testing.assert_allclose(table[(2, "X_n")][1],
                               2.0 * math.sqrt(15.0 / 24.0), rtol=1e-14)
    np.testing.assert_allclose(table[(2, "T_n")][1],
                               2.0 * math.sqrt(15.0 / 6.0), rtol=1e-14)
    for integral, closed in table.values():
        np.testing.assert_allclose(integral, closed, rtol=1e-7)


def test_simulate_and_manifest_rerun_byte_identical(tmp_path):
    first_dir = str(tmp_path / "run1")
    assert _run(["simulate", "--weight", "unit", "--n-list", "5,10",
                 "--replicates", "4", "--kinds", "T_n", "--seed", "4242",
                 "--out", first_dir]) == 0
    rec_path = os.path.join(first_dir, "records.csv")
    header, rows = _read_table(rec_path)
    assert header == list(RECORD_COLUMNS)
    assert len(rows) == 8  # two n values x four replicates
    assert [int(r[0]) for r in rows] == [5] * 4 + [10] * 4
    with open(os.path.join(first_dir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["n_list"] == [5, 10]

    second_dir = str(tmp_path / "run2")
    assert _run(["simulate", "--config",
                 os.path.join(first_dir, "manifest.json"),
                 "--out", second_dir]) == 0
    with open(rec_path, "rb") as fh:
        first = fh.read()
    with open(os.path.join(second_dir, "records.csv"), "rb") as fh:
        second = fh.read()
    assert first == second
    with open(os.path.join(first_dir, "manifest.json")) as fh:
        m1 = json.load(fh)
    with open(os.path.join(second_dir, "manifest.json")) as fh:
        m2 = json.load(fh)
    assert m1["config"].pop("out") == first_dir
    assert m2["config"].pop("out") == second_dir
    assert m1 == m2


def test_retired_timing_flag_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--weight", "unit", "--n-list", "5",
              "--replicates", "2", "--kinds", "T_n", "--timing",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--timing" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_thread_count_leaves_no_records(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SLZEROS_THREADS", "two")
    out = tmp_path / "o"
    assert _run(["simulate", "--weight", "unit", "--n-list", "5",
                 "--replicates", "4", "--kinds", "T_n",
                 "--out", str(out)]) == 2
    assert "SLZEROS_THREADS" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def test_ini_layer_and_flag_override(tmp_path):
    ini = tmp_path / "conf.ini"
    ini.write_text("[kac]\nweight = unit\nn_list = 1\n")
    first = str(tmp_path / "o1")
    assert _run(["kac", "--config", str(ini), "--out", first]) == 0
    with open(os.path.join(first, "manifest.json")) as fh:
        cfg = json.load(fh)["config"]
    assert cfg["weight"] == "unit"
    assert cfg["n_list"] == [1]

    second = str(tmp_path / "o2")
    assert _run(["kac", "--config", str(ini), "--n-list", "2",
                 "--out", second]) == 0
    with open(os.path.join(second, "manifest.json")) as fh:
        cfg2 = json.load(fh)["config"]
    assert cfg2["weight"] == "unit"  # still from the file
    assert cfg2["n_list"] == [2]  # flag wins over the file
    _, rows = _read_table(os.path.join(second, "kac_table.csv"))
    assert {int(r[0]) for r in rows} == {2}


def test_unknown_config_key_rejected_by_name(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[simulate]\nx_ref = 1.0\n")
    rc = _run(["simulate", "--config", str(ini),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown config key" in err
    assert "x_ref" in err


def test_manifest_for_other_subcommand_rejected(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(
        {"subcommand": "eigen", "config": {"weight": "unit"}}))
    rc = _run(["kac", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "is for subcommand" in err


def test_missing_config_file(tmp_path, capsys):
    rc = _run(["kac", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config file not found" in err


def test_bad_flag_value(tmp_path, capsys):
    rc = _run(["simulate", "--replicates", "many",
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad value for replicates" in err


def test_unknown_weight_name(tmp_path, capsys):
    rc = _run(["eigen", "--weight", "nope", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "nope" in err


def test_k_max_below_largest_n(tmp_path, capsys):
    # one rule, and one message, for the run's config and for diagnose
    for argv in (["simulate", "--replicates", "2", "--kinds", "T_n"],
                 ["diagnose"]):
        rc = _run(argv + ["--weight", "unit", "--n-list", "5,20",
                          "--k-max", "10", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "k_max=10 is smaller than max(n_list)=20" in err


@pytest.mark.parametrize("argv", [
    ["eigen", "--weight", "nope"],
    ["simulate", "--weight", "unit", "--n-list", "5,20", "--k-max", "10",
     "--replicates", "2", "--kinds", "T_n"],
    ["robustness", "--n-list", "511", "--replicates", "2"],
    ["compare", "--weight", "unit", "--n-list", "1,4", "--replicates", "2"],
    ["diagnose", "--weight", "unit", "--n-list", "1,4"],
    ["diagnose", "--weight", "unit", "--n-list", "4", "--seed", "-1"],
    ["simulate", "--config", "replicates_2.5.json"],
    ["diagnose", "--weight", "unit", "--n-list", "4", "--x-ref", "nan"],
    ["diagnose", "--weight", "unit", "--n-list", "4", "--x-ref", "7"],
    ["diagnose", "--weight", "unit", "--n-list", "4", "--replicates", "10"],
    ["kac", "--weight", "unit", "--n-list", "0"],
])
def test_refused_run_leaves_no_manifest(argv, tmp_path, monkeypatch, capsys):
    # run in tmp_path, where the manifest case finds its file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "replicates_2.5.json").write_text(json.dumps(
        {"subcommand": "simulate", "config": {"replicates": 2.5}}))
    assert _run(argv + ["--out", "o"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, message", [
    ({"pert_c0": 0.5}, "unknown config key 'pert_c0'"),
    ({"replicates": 2.5}, "bad value for replicates: 2.5"),
    ({"seed": -1}, "bad value for seed"),
    # a string is the manifest file's whole text
    pytest.param('{"subcommand": "robustness", "config": ',
                 "cannot parse config", id="truncated"),
    pytest.param('["robustness", {}]', "cannot parse config", id="list"),
    pytest.param([], "cannot parse config", id="config-list"),
    # written before --timing was retired
    pytest.param({"timing": False}, "unknown config key 'timing'",
                 id="timing"),
])
def test_manifest_value_refused_by_name(config, message, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(config if isinstance(config, str) else json.dumps(
        {"subcommand": "robustness", "config": config}))
    rc = _run(["robustness", "--config", str(path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not (tmp_path / "o").exists()


def test_numeric_failure_exit_code(monkeypatch, tmp_path, capsys):
    def boom(cfg):
        raise NumericError("synthetic blowup")

    monkeypatch.setitem(cli._DISPATCH, "kac", boom)
    rc = _run(["kac", "--weight", "unit", "--n-list", "1",
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numerical failure: synthetic blowup" in err


def test_compare_outputs(tmp_path):
    out = str(tmp_path / "cmp")
    assert _run(["compare", "--weight", "unit", "--n-list", "10,20",
                 "--replicates", "4", "--seed", "7", "--k-max", "20",
                 "--out", out]) == 0
    header, rows_c = _read_table(os.path.join(out, "contiguity.csv"))
    assert header == ["n", "contiguity"]
    assert [int(r[0]) for r in rows_c] == [10, 20]
    # with the unit weight the coupled processes coincide, so the
    # normalized count distance vanishes identically
    assert all(float(r[1]) == 0.0 for r in rows_c)
    header, rows = _read_table(os.path.join(out, "sup_eps.csv"))
    assert header == ["n", "median_scaled", "p99_scaled"]
    assert [int(r[0]) for r in rows] == [10, 20]
    assert all(float(r[1]) < 1e-8 for r in rows)
    with open(os.path.join(out, "compare.json")) as fh:
        report = json.load(fh)
    assert set(report) == {"contiguity", "sup_eps_quantiles",
                           "median_loglog_slope"}
    assert set(report["contiguity"]) == {"10", "20"}
    assert math.isfinite(report["median_loglog_slope"])
    # both contiguity outputs are the summary's per-n statistic
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)["per_n"]
    assert {r[0]: float(r[1]) for r in rows_c} == {
        n: block["contiguity"] for n, block in summary.items()}
    assert report["contiguity"] == {
        n: block["contiguity"] for n, block in summary.items()}
    # both sup_eps outputs are the summary's scaled quantiles, and the
    # slope is the one fitted to the medians of the records' summary
    quantiles = {n: {"median": block["sup_eps_median_scaled"],
                     "p99": block["sup_eps_p99_scaled"]}
                 for n, block in summary.items()}
    assert report["sup_eps_quantiles"] == quantiles
    assert {r[0]: {"median": float(r[1]), "p99": float(r[2])}
            for r in rows} == quantiles
    records = read_records(os.path.join(out, "records.csv"))
    assert (report["median_loglog_slope"]
            == sup_eps_slope(summarize(records)))


def test_robustness_outputs(tmp_path):
    out = str(tmp_path / "rob")
    assert _run(["robustness", "--weight", "unit", "--n-list", "8,16",
                 "--replicates", "6", "--seed", "3", "--out", out]) == 0
    header, rows = _read_table(os.path.join(out, "robustness.csv"))
    assert header == ["n", "mean_T", "mean_perturbed", "closed_form_T",
                      "se_perturbed", "gap_over_se"]
    assert [int(r[0]) for r in rows] == [8, 16]
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)["per_n"]
    for row in rows:
        n = int(row[0])
        mean_t, mean_p, closed, se_p, gap = (float(v) for v in row[1:])
        kinds = summary[row[0]]["kinds"]
        assert mean_t == kinds["T_n"]["mean"]
        assert mean_p == kinds["perturbed"]["mean"]
        assert closed == expected_count_closed(n, "T_n")
        assert se_p > 0
        assert gap == abs(mean_p - closed) / se_p


def test_diagnose_outputs(tmp_path):
    out = str(tmp_path / "diag")
    assert _run(["diagnose", "--weight", "unit", "--n-list", "10",
                 "--replicates", "1000", "--seed", "3", "--out", out]) == 0
    header, rows = _read_table(os.path.join(out, "gap_table.csv"))
    assert header == ["n", "alpha_sup", "delta_sup", "n_delta_sup",
                      "beta_sup", "beta_scaled"]
    assert len(rows) == 1
    assert int(rows[0][0]) == 10
    assert float(rows[0][1]) < 1e-3  # unit weight: evenly spaced roots
    header, rows = _read_table(os.path.join(out, "cov_check.csv"))
    assert header == ["x", "y", "cov_empirical", "cov_exact", "abs_error"]
    assert len(rows) >= 5
    assert max(float(r[4]) for r in rows) < 0.3
    header, rows = _read_table(os.path.join(out, "var_check.csv"))
    assert header == ["x", "var_f_empirical", "abs_error"]
    assert max(float(r[2]) for r in rows) < 0.3


def test_module_entry_point_returns_main_exit_code(tmp_path, module_cli_env):
    # a bad weight makes main() return 2 itself, unlike a missing subcommand,
    # where argparse exits with 2 before main() can return
    proc = subprocess.run(
        [sys.executable, "-m", "slzeros", "eigen", "--weight", "nope",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=module_cli_env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


needs_console_script = pytest.mark.skipif(
    shutil.which("slzeros") is None,
    reason="the slzeros console script is not on PATH; installing the "
           "package (pip3 install -e .) provides it")


@needs_console_script
def test_console_script_runs(tmp_path):
    out = str(tmp_path / "cs")
    proc = subprocess.run(
        ["slzeros", "kac", "--weight", "unit", "--n-list", "1",
         "--out", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "kac_table.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))


@needs_console_script
def test_console_script_requires_subcommand():
    proc = subprocess.run(["slzeros"], capture_output=True, text=True)
    assert proc.returncode == 2
