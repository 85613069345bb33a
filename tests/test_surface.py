"""Names that code outside the package's own modules relies on: the
README's library quickstart, flags and process kinds, and the attributes
that the benchmark's tracer (perfbench/tracing.py) and probe
(perfbench/probe.py) look up; and what importing the package costs."""

import os
import re
import subprocess
import sys

import pytest

import slzeros
import slzeros.cli
import slzeros.ensembles
import slzeros.harness
import slzeros.weights

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def test_readme_quickstart_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Quickstart (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert re.fullmatch(r"\d+ zeros; expected \d+\.\d+\n",
                        capsys.readouterr().out)


@pytest.mark.parametrize("owner, name", [
    (slzeros.harness, "count_zeros"),
    (slzeros.harness, "sample_coefficients"),
    (slzeros.harness, "eigen_solve"),
    (slzeros.harness, "r_n_closed"),
    (slzeros.harness, "build_basis_pair"),
    (slzeros.cli, "run_experiment"),
    (slzeros.cli, "gap_diagnostics"),
    (slzeros.cli, "covariance_check"),
    (slzeros.cli, "summarize"),
    (slzeros.cli, "build_basis_pair"),
    (slzeros.weights, "OmegaMap"),
    (slzeros, "sample_coefficients"),
    (slzeros, "default_grid"),
], ids=lambda v: getattr(v, "__name__", v))
def test_benchmark_names_resolve(owner, name):
    assert callable(getattr(owner, name))


# flags the README names as retired; each must be refused
RETIRED_FLAGS = {"--pert-c0", "--pert-c1", "--timing"}


def _parses(argv):
    try:
        slzeros.cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def test_readme_flags_match_the_parser():
    # only parses: no subcommand runs
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert RETIRED_FLAGS <= flags
    subcommands = list(slzeros.cli.SUBCOMMAND_KEYS)
    for flag in sorted(flags - RETIRED_FLAGS):
        assert any(_parses([sub, flag, "1"]) == 0 for sub in subcommands), flag
    for flag in sorted(RETIRED_FLAGS):
        for sub in subcommands:
            assert _parses([sub, flag]) == 2, (sub, flag)
            assert _parses([sub, flag, "1"]) == 2, (sub, flag)


def test_readme_kinds_match_the_table():
    with open(README) as fh:
        text = fh.read()
    table = text.split("| kind ", 1)[1].split("\n\n", 1)[0]
    kinds = re.findall(r"^\| `(\w+)` ", table, re.MULTILINE)
    assert tuple(kinds) == slzeros.ensembles.KINDS


def test_import_loads_numpy_random(module_cli_env):
    # numpy loads numpy.random lazily; the package loads it at import so
    # that the children it forks (covariance_check's half, the records
    # pool) inherit the module instead of importing it on their first draw
    code = "import slzeros, sys; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=module_cli_env, check=True)
    assert out.stdout == "True\n"


def test_import_loads_no_process_pool(module_cli_env):
    # the records pool's modules load in run_experiment's fork branch
    # alone, so a process that forks no pool does not pay for them
    code = ("import slzeros, slzeros.cli, sys; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=module_cli_env, check=True)
    assert out.stdout == "[]\n"


def test_import_loads_no_scipy(module_cli_env, tmp_path):
    # numpy is the only runtime dependency: importing the package loads no
    # scipy, and the subcommands that once did (the summary's KS distance,
    # kac's quadrature) run with scipy made unimportable
    code = ("import slzeros, slzeros.cli, sys; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=module_cli_env, check=True)
    assert out.stdout == "[]\n"
    runs = [["simulate", "--weight", "unit", "--n-list", "8,16",
             "--replicates", "6"],
            ["robustness", "--n-list", "8,16", "--replicates", "6"],
            ["kac", "--n-list", "8,16"]]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from slzeros.cli import main\n"
            "for argv in %r:\n"
            "    assert main(argv) == 0, argv\n"
            % [argv + ["--out", str(tmp_path / argv[0])] for argv in runs])
    subprocess.run([sys.executable, "-c", code], env=module_cli_env,
                   check=True)
    for argv in runs:
        assert (tmp_path / argv[0] / "manifest.json").exists()
