"""The benchmark's workloads.

A workload is one command-line invocation of slzeros.  A run of it
repeats the invocation, each time in a fresh process; every round of a
run is the same, so it writes the same bytes and fails the same
operations.  The master seed is the run's --seed unless the workload
pins its own.
"""

from dataclasses import dataclass

# At this master seed, replicate 114 of the perturbed ensemble at n=400
# makes the zero counter return an unsettled count ("468 then 470 at 51200
# cells"), and no other T_n or perturbed count of the first 512
# replicates at n = 50, 200, 400 does.  records.csv has no stability
# column for T_n/perturbed, so that count is stored as if it had settled.
# Seeded runs of the same size meet such a silent count on some seeds only
# (seed 14 at n=400 and seed 27 at n=200 among those tried), which would make
# the failed share depend on the seed, so the robustness workload runs at
# this seed whatever --seed is.
PINNED_SEED = 20260819
UNSETTLED_REPLICATE = 114

KINDS = {"compare": ("f_n", "X_n"), "robustness": ("T_n", "perturbed"),
         "diagnose": ()}


@dataclass(frozen=True)
class Workload:
    """The arguments of one `python -m slzeros <subcommand> ...` run."""

    subcommand: str
    weight: str
    n_list: tuple
    replicates: int          # per n; the covariance draws for diagnose
    threads: int             # SLZEROS_THREADS
    k_max: int = None
    seed: int = None         # None: the run's --seed
    recount_ids: tuple = ()  # replicate ids recounted for every n and kind

    @property
    def kinds(self):
        return KINDS[self.subcommand]

    @property
    def work_items(self):
        """Replicates (every n) or covariance draws done by the work phase."""
        if self.subcommand == "diagnose":
            return self.replicates
        return self.replicates * len(self.n_list)

    @property
    def operations(self):
        """Operations attempted: one zero count per replicate and kind,
        or one covariance draw."""
        return self.work_items * max(1, len(self.kinds))

    def master_seed(self, run_seed):
        return self.seed if self.seed is not None else run_seed

    def argv(self, run_seed, out):
        args = [self.subcommand, "--weight", self.weight,
                "--n-list", ",".join(str(n) for n in self.n_list),
                "--replicates", str(self.replicates),
                "--seed", str(self.master_seed(run_seed)), "--out", out]
        if self.k_max is not None:
            args += ["--k-max", str(self.k_max)]
        return args


def _spread(replicates, count=8):
    return tuple(range(0, replicates, replicates // count))


WORKLOADS = {
    # The paper's coupled f_n/X_n run and the plain one-process baseline:
    # the eigenbasis pair sets up, the zero counter dominates the rest.
    "compare-sine2": Workload(
        "compare", "sine2", (50, 100, 200, 400), 256, threads=1, k_max=400,
        recount_ids=_spread(256)),
    # No eigenbasis, the heaviest per-n contexts, and the fork pool; pinned
    # to the seed of the one known silent unsettled count.
    "robustness-sine2-2w": Workload(
        "robustness", "sine2", (50, 200, 400), 512, threads=2,
        seed=PINNED_SEED,
        recount_ids=tuple(sorted(_spread(512) + (UNSETTLED_REPLICATE,)))),
    # No zero counts: the eigensolver on another potential, the kernels and
    # the coefficient draws of the covariance spot checks.
    "diagnose-expcos": Workload(
        "diagnose", "expcos", (50, 100, 200, 400), 30000, threads=1),
}
