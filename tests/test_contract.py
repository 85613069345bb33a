"""The byte-identity contract: the six subcommands at n = 20 and 40 write
15 files (manifest.json aside, whose out path differs per run), each of
which must keep the sha256 pinned in contract_digests.json.

The bits depend on numpy's version and on OpenBLAS's kernel, so the
table records both; on a host that differs in either, the test skips
and names the difference.  A change that means to move an output's
bits rewrites the table from its own code,

    PYTHONPATH=src python tests/test_contract.py

and commits it with the change, naming each moved file.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import slzeros

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "contract_digests.json")
_SMALL = ["--weight", "sine2", "--n-list", "20,40", "--seed", "3"]
# subcommand: (its arguments besides --out, SLZEROS_THREADS)
RUNS = {
    "eigen": (["--weight", "sine2", "--k-max", "40"], "1"),
    "simulate": (_SMALL + ["--replicates", "128",
                           "--kinds", "f_n,X_n,T_n,perturbed"], "2"),
    "kac": (["--weight", "sine2", "--n-list", "20,40"], "1"),
    "compare": (_SMALL + ["--replicates", "128"], "1"),
    "diagnose": (_SMALL + ["--replicates", "2000"], "1"),
    "robustness": (_SMALL + ["--replicates", "128"], "2"),
}


def host():
    """The facts the bits depend on: numpy's version and the name of
    the OpenBLAS core numpy's bundled library runs (None if not found)."""
    core = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                      None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
    return {"numpy": np.__version__, "openblas_core": core}


def run_all(out):
    """Run the six subcommands into out/<subcommand>, each in its own
    `python -m slzeros` process on the package this module imports;
    returns {"<subcommand>/<file>": sha256} of every file but the
    manifests."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slzeros.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = {}
    for sub, (args, threads) in RUNS.items():
        where = os.path.join(out, sub)
        proc = subprocess.run(
            [sys.executable, "-m", "slzeros", sub, *args, "--out", where],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath,
                     SLZEROS_THREADS=threads))
        assert proc.returncode == 0, (sub, proc.stderr)
        for name in sorted(os.listdir(where)):
            if name != "manifest.json":
                with open(os.path.join(where, name), "rb") as fh:
                    digests["%s/%s" % (sub, name)] = hashlib.sha256(
                        fh.read()).hexdigest()
    return digests


def _table():
    with open(TABLE) as fh:
        return json.load(fh)


def _pinned_names():
    """The table's file names, or none while the table is being written
    (test_the_runs_write_the_pinned_files then fails on it)."""
    return sorted(_table()["digests"]) if os.path.exists(TABLE) else []


@pytest.fixture(scope="module")
def pinned():
    table = _table()
    here = host()
    if table["host"] != here:
        pytest.skip("the digests were taken on %r, this host is %r"
                    % (table["host"], here))
    return table["digests"]


@pytest.fixture(scope="module")
def written(pinned, tmp_path_factory):
    return run_all(str(tmp_path_factory.mktemp("contract")))


def test_the_runs_write_the_pinned_files(pinned, written):
    assert sorted(written) == sorted(pinned)
    assert len(pinned) == 15


@pytest.mark.parametrize("name", _pinned_names())
def test_output_keeps_its_digest(name, pinned, written):
    assert written.get(name) == pinned[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        table = {"host": host(), "digests": run_all(out)}
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(table["digests"]), TABLE))
