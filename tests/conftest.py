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
                     default_grid, harness, run_experiment)

MASTER_SEED = 20260819


def _solved(pair):
    """A stand-in for harness.build_basis_pair that returns pair, one a
    session fixture has solved already, after checking that the run
    asks for its weight and grid and for at most its modes."""
    def build_basis_pair(weight, k_max, grid):
        assert weight.name == pair[0].weight.name
        assert grid == pair[0].grid
        assert k_max <= pair[0].k_max
        return pair
    return build_basis_pair


def _run_on(pair, config):
    """run_experiment(config), reading pair as the run's basis pair."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "build_basis_pair", _solved(pair))
        return run_experiment(config)


@pytest.fixture()
def reuse_pair(monkeypatch):
    """pair -> None: this test's runs read pair as their basis pair in
    place of solving their own (see _solved)."""
    return lambda pair: monkeypatch.setattr(harness, "build_basis_pair",
                                            _solved(pair))


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
    return build_basis_pair(unit_weight, 100, default_grid())


@pytest.fixture(scope="session")
def sine2_basis(sine2_weight):
    """(C, D) eigenbasis pair for the sine2 weight, 400 pairs each."""
    return build_basis_pair(sine2_weight, 400, default_grid())


@pytest.fixture(scope="session")
def expcos_basis():
    """(C, D) eigenbasis pair for the expcos weight, 400 pairs each."""
    return build_basis_pair(builtin_weights("expcos"), 400, default_grid())


@pytest.fixture(scope="session")
def sine2_basis_200(sine2_weight):
    """Smaller sine2 pair for tests that only need 200 modes."""
    return build_basis_pair(sine2_weight, 200, default_grid())


@pytest.fixture(scope="session")
def main_records(sine2_basis, tmp_path_factory):
    """The flagship run: sine2 weight, coupled f_n/X_n counts,
    n in {50, 100, 200, 400}, 2000 replicates."""
    out = tmp_path_factory.mktemp("main")
    config = ExperimentConfig(
        weight_name="sine2", n_list=(50, 100, 200, 400), replicates=2000,
        master_seed=MASTER_SEED, process_kinds=("f_n", "X_n"),
        output_path=str(out), k_max=400)
    records = _run_on(sine2_basis, config)
    return config, records


@pytest.fixture(scope="session")
def pert_records(tmp_path_factory):
    """Stationary polynomial and its default perturbation,
    n in {50, 200, 400}, 2000 replicates (no eigenbasis involved)."""
    out = tmp_path_factory.mktemp("pert")
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
    out = tmp_path_factory.mktemp("unit_couple")
    config = ExperimentConfig(
        weight_name="unit", n_list=(50, 100), replicates=500,
        master_seed=MASTER_SEED, process_kinds=("f_n", "X_n"),
        output_path=str(out), k_max=100)
    records = _run_on(unit_basis, config)
    return config, records


@pytest.fixture()
def single_thread_env(monkeypatch):
    monkeypatch.setenv("SLZEROS_THREADS", "1")
    return os.environ
