"""Shared fixtures.

The expensive objects (eigenbases, Monte Carlo record sets) are session
scoped and lazy: running a single test module only pays for what it
touches.  Everything here is deterministic — the bases depend only on
the default grid, the record sets only on the pinned master seed — so
any test may consume them without ordering concerns.
"""

import os

import pytest

import slzeros
from slzeros import (ExperimentConfig, build_basis_pair, builtin_weights,
                     run_experiment)

MASTER_SEED = 20260819


@pytest.fixture(scope="session")
def module_cli_env():
    """Environment for a ``python -m slzeros`` child process: PYTHONPATH
    starts with the directory holding the package these tests import, so
    the child runs the same code whatever the working directory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slzeros.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath)


@pytest.fixture(scope="session")
def unit_weight():
    return builtin_weights("unit")


@pytest.fixture(scope="session")
def sine2_weight():
    return builtin_weights("sine2")


@pytest.fixture(scope="session")
def unit_basis(unit_weight):
    """(C, D) eigenbasis pair for the unit weight, 100 pairs each."""
    return build_basis_pair(unit_weight, 100)


@pytest.fixture(scope="session")
def sine2_basis(sine2_weight):
    """(C, D) eigenbasis pair for the sine2 weight, 400 pairs each."""
    return build_basis_pair(sine2_weight, 400)


@pytest.fixture(scope="session")
def sine2_basis_200(sine2_weight):
    """Smaller sine2 pair for tests that only need 200 modes."""
    return build_basis_pair(sine2_weight, 200)


@pytest.fixture(scope="session")
def main_records(sine2_basis, tmp_path_factory):
    """The flagship run: sine2 weight, coupled f_n/X_n counts,
    n in {50, 100, 200, 400}, 2000 replicates."""
    out = tmp_path_factory.mktemp("main") / "records.csv"
    config = ExperimentConfig(
        weight_name="sine2", n_list=(50, 100, 200, 400), replicates=2000,
        master_seed=MASTER_SEED, process_kinds=("f_n", "X_n"),
        output_path=str(out), k_max=400)
    records = run_experiment(config, basis_pair=sine2_basis)
    return config, records


@pytest.fixture(scope="session")
def pert_records(tmp_path_factory):
    """Stationary polynomial and its default perturbation,
    n in {50, 200, 400}, 2000 replicates (no eigenbasis involved)."""
    out = tmp_path_factory.mktemp("pert") / "records.csv"
    config = ExperimentConfig(
        weight_name="sine2", n_list=(50, 200, 400), replicates=2000,
        master_seed=MASTER_SEED, process_kinds=("T_n", "perturbed"),
        output_path=str(out))
    records = run_experiment(config)
    return config, records


@pytest.fixture(scope="session")
def unit_couple_records(unit_basis, tmp_path_factory):
    """Unit-weight coupled run where f_n and X_n coincide:
    n in {50, 100}, 500 replicates."""
    out = tmp_path_factory.mktemp("unit_couple") / "records.csv"
    config = ExperimentConfig(
        weight_name="unit", n_list=(50, 100), replicates=500,
        master_seed=MASTER_SEED, process_kinds=("f_n", "X_n"),
        output_path=str(out), k_max=100)
    records = run_experiment(config, basis_pair=unit_basis)
    return config, records


@pytest.fixture()
def single_thread_env(monkeypatch):
    monkeypatch.setenv("SLZEROS_THREADS", "1")
    return os.environ
