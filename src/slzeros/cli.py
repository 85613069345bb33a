"""Batch command line: configure, run, and export experiments.

Subcommands: eigen, simulate, kac, compare, diagnose, robustness.
OPTIONS declares each option once: its parser, default and help text.
Options resolve in three layers — those defaults, then a config file
(INI with one section per subcommand, or a previously emitted
manifest.json), then command-line flags; every layer's values go
through the option's one parser.  Bad values and unknown config keys
are rejected by name.  Every run that finishes writes manifest.json
echoing the fully resolved configuration, and re-running from that
manifest reproduces the run byte for byte; a refused or failed run
writes none.

Exit codes: 0 success, 2 configuration/usage errors, 3 numerical
failures.
"""

import argparse
import configparser
import json
import math
import os
import sys
from collections import namedtuple

from .eigen import asymptotic_deviation
from .errors import (DomainError, InvariantViolation, NumericError,
                     PreconditionError, UsageError)
from .harness import (ExperimentConfig, _fmt, basis_size, build_basis_pair,
                      check_covariance_draws, covariance_check,
                      gap_diagnostics, run_experiment, summarize,
                      sup_eps_slope, write_json, write_summary)
from .kernels import expected_count_closed, kac_rice_expected
from .weights import TWO_PI, builtin_weights, default_grid


def _str_list(text):
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _int_list(text):
    return tuple(int(p) for p in _str_list(text))


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise ValueError(text)
    return seed


def _point(text):
    """A point of [0, 2*pi]; NaN and the infinities fail the test."""
    x = float(text)
    if not 0.0 <= x <= TWO_PI:
        raise ValueError(text)
    return x


Option = namedtuple("Option", "parse default help")

OPTIONS = {
    "weight": Option(str, "sine2", "built-in weight name"),
    "n_list": Option(_int_list, (50, 100, 200, 400), "ascending, with commas"),
    "replicates": Option(int, 2000, "replicates per n, or covariance draws"),
    "seed": Option(_seed, 20260819, "master seed, at least 0"),
    "kinds": Option(_str_list, ("f_n", "X_n"), "process kinds, with commas"),
    "k_max": Option(int, None, "eigenpairs per boundary family"),
    "x_ref": Option(_point, math.pi / 3.0, "anchor point of beta, in "
                                           "[0, 2*pi]"),
    "out": Option(str, "slzeros_out", "output directory"),
}

SUBCOMMAND_KEYS = {
    "eigen": ("weight", "k_max", "out"),
    "simulate": ("weight", "n_list", "replicates", "seed", "kinds",
                 "k_max", "out"),
    "kac": ("weight", "n_list", "out"),
    "compare": ("weight", "n_list", "replicates", "seed", "k_max", "out"),
    "diagnose": ("weight", "n_list", "replicates", "seed", "k_max",
                 "x_ref", "out"),
    "robustness": ("weight", "n_list", "replicates", "seed", "out"),
}

DEFAULT_OVERRIDES = {
    "diagnose": {"replicates": 5000},
}


def _text(value):
    """A manifest's JSON value as the text a flag would carry."""
    if isinstance(value, list):
        return ",".join(_text(v) for v in value)
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _parse_value(key, raw):
    option = OPTIONS[key]
    if raw is None and option.default is None:
        return None  # a manifest echoing an unset k_max
    try:
        return option.parse(_text(raw).strip())
    except ValueError:
        raise UsageError("bad value for %s: %r" % (key, raw))


def _load_file_layer(path, subcommand):
    if not os.path.exists(path):
        raise UsageError("config file not found: %s" % path)
    allowed = SUBCOMMAND_KEYS[subcommand]
    layer = {}
    if path.endswith(".json"):
        with open(path) as fh:
            try:
                manifest = json.load(fh)
            except ValueError as exc:
                raise UsageError("cannot parse config %s: %s" % (path, exc))
        if not (isinstance(manifest, dict)
                and isinstance(manifest.get("config", {}), dict)):
            raise UsageError("cannot parse config %s: a manifest and its "
                             "config must be JSON objects" % path)
        if manifest.get("subcommand") != subcommand:
            raise UsageError(
                "manifest %s is for subcommand %r, not %r"
                % (path, manifest.get("subcommand"), subcommand))
        source = manifest.get("config", {})
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise UsageError("cannot parse config %s: %s" % (path, exc))
        source = dict(parser[subcommand]) if parser.has_section(subcommand) else {}
    for key, raw in source.items():
        if key not in allowed:
            raise UsageError("unknown config key %r for subcommand %s"
                             % (key, subcommand))
        layer[key] = _parse_value(key, raw)
    return layer


def _resolve(subcommand, args):
    cfg = {key: option.default for key, option in OPTIONS.items()}
    cfg.update(DEFAULT_OVERRIDES.get(subcommand, {}))
    if args.config is not None:
        cfg.update(_load_file_layer(args.config, subcommand))
    for key in SUBCOMMAND_KEYS[subcommand]:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = _parse_value(key, flag_val)
    return {key: cfg[key] for key in SUBCOMMAND_KEYS[subcommand]}


def _write_table(path, header, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_eigen(cfg):
    weight = builtin_weights(cfg["weight"])
    k_max = cfg["k_max"] if cfg["k_max"] is not None else 20
    rows = []
    for basis in build_basis_pair(weight, k_max, default_grid()):
        ks, d, d1 = asymptotic_deviation(basis)
        for pair, dev, dev1 in zip(basis.pairs, d, d1):
            root = math.sqrt(pair.eigenvalue)
            rows.append((basis.bc.value, pair.index, pair.eigenvalue,
                         root - pair.index / 2.0, dev, pair.index * dev, dev1))
    _write_table(os.path.join(cfg["out"], "eigen_table.csv"),
                 ("family", "k", "lambda", "sqrt_lambda_minus_half_k",
                  "d", "k_d", "d1"),
                 rows)
    return 0


def cmd_simulate(cfg, kinds=None):
    report = summarize(run_experiment(ExperimentConfig(
        weight_name=cfg["weight"], n_list=cfg["n_list"],
        replicates=cfg["replicates"], master_seed=cfg["seed"],
        process_kinds=kinds or cfg["kinds"], output_path=cfg["out"],
        k_max=cfg.get("k_max"))))
    write_summary(report, os.path.join(cfg["out"], "summary.json"))
    return report


def cmd_kac(cfg):
    weight = builtin_weights(cfg["weight"])
    rows = []
    for n in cfg["n_list"]:
        for kind in ("X_n", "T_n"):
            rows.append((n, kind, kac_rice_expected(n, kind, weight),
                         expected_count_closed(n, kind)))
    _write_table(os.path.join(cfg["out"], "kac_table.csv"),
                 ("n", "kind", "expected_count", "closed_form"), rows)
    return 0


def _refuse_log_scaling_below_2(n_list, scaling):
    """The scaling divides by log(n), 0 at n = 1: refuse before any work."""
    if min(n_list, default=0) < 2:
        raise PreconditionError("the %s scaling needs a nonempty n_list with "
                                "every n >= 2, got %r" % (scaling, n_list))


def cmd_compare(cfg):
    _refuse_log_scaling_below_2(cfg["n_list"], "sqrt(n)/log(n)")
    report = cmd_simulate(cfg, kinds=("f_n", "X_n"))
    slope = sup_eps_slope(report)
    blocks = report.per_n.items()  # in ascending n
    _write_table(os.path.join(cfg["out"], "contiguity.csv"),
                 ("n", "contiguity"), [(n, b.contiguity) for n, b in blocks])
    _write_table(os.path.join(cfg["out"], "sup_eps.csv"),
                 ("n", "median_scaled", "p99_scaled"),
                 [(n, b.sup_eps_median_scaled, b.sup_eps_p99_scaled)
                  for n, b in blocks])
    write_json(os.path.join(cfg["out"], "compare.json"),
               {"contiguity": {str(n): b.contiguity for n, b in blocks},
                "sup_eps_quantiles": {
                    str(n): {"median": b.sup_eps_median_scaled,
                             "p99": b.sup_eps_p99_scaled}
                    for n, b in blocks},
                "median_loglog_slope": slope})
    return 0


def cmd_diagnose(cfg):
    _refuse_log_scaling_below_2(cfg["n_list"], "n/log(n)")
    weight = builtin_weights(cfg["weight"])
    n_max = max(cfg["n_list"])
    k_max = basis_size(cfg["k_max"], cfg["n_list"])
    check_covariance_draws(cfg["replicates"])
    basis_pair = build_basis_pair(weight, k_max, default_grid())
    rows = [(d.n, d.alpha_sup, d.delta_sup, d.n * d.delta_sup, d.beta_sup,
             d.beta_sup * d.n / math.log(d.n))
            for d in gap_diagnostics(basis_pair, cfg["n_list"],
                                     x_ref=cfg["x_ref"])]
    _write_table(os.path.join(cfg["out"], "gap_table.csv"),
                 ("n", "alpha_sup", "delta_sup", "n_delta_sup", "beta_sup",
                  "beta_scaled"), rows)
    check = covariance_check(basis_pair, n_max, m=cfg["replicates"],
                             master_seed=cfg["seed"])
    pair_rows = []
    for i in range(check["x_pairs"].shape[0]):
        x, y = check["x_pairs"][i]
        pair_rows.append((float(x), float(y), float(check["cov_empirical"][i]),
                          float(check["cov_exact"][i]),
                          abs(float(check["cov_empirical"][i]
                                    - check["cov_exact"][i]))))
    _write_table(os.path.join(cfg["out"], "cov_check.csv"),
                 ("x", "y", "cov_empirical", "cov_exact", "abs_error"),
                 pair_rows)
    var_rows = [(float(x), float(v), abs(float(v) - 1.0))
                for x, v in zip(check["var_f_points"],
                                check["var_f_empirical"])]
    _write_table(os.path.join(cfg["out"], "var_check.csv"),
                 ("x", "var_f_empirical", "abs_error"), var_rows)
    return 0


def cmd_robustness(cfg):
    report = cmd_simulate(cfg, kinds=("T_n", "perturbed"))
    rows = []
    for n, block in report.per_n.items():
        t_n, pert = block.kinds["T_n"], block.kinds["perturbed"]
        se_p = math.sqrt(pert.var / pert.replicates)
        closed = expected_count_closed(n, "T_n")
        rows.append((n, t_n.mean, pert.mean, closed, se_p,
                     abs(pert.mean - closed) / se_p if se_p > 0 else 0.0))
    _write_table(os.path.join(cfg["out"], "robustness.csv"),
                 ("n", "mean_T", "mean_perturbed", "closed_form_T",
                  "se_perturbed", "gap_over_se"), rows)
    return 0


_DISPATCH = {
    "eigen": cmd_eigen,
    "simulate": cmd_simulate,
    "kac": cmd_kac,
    "compare": cmd_compare,
    "diagnose": cmd_diagnose,
    "robustness": cmd_robustness,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slzeros",
        description="Zero-count experiments for Sturm-Liouville random sums")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI config or a previously emitted manifest.json")
        for key in SUBCOMMAND_KEYS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           default=None, help=OPTIONS[key].help)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args.subcommand, args)
        _DISPATCH[args.subcommand](cfg)
        # only a run that finished leaves a manifest: one refused on its
        # inputs or stopped by a numerical failure leaves none
        write_json(os.path.join(cfg["out"], "manifest.json"),
                   {"subcommand": args.subcommand, "config": cfg})
    except (UsageError, DomainError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NumericError, InvariantViolation) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
