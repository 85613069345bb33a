"""Phase marks and per-layer spans, recorded around calls into slzeros.

The recorder replaces public functions of the program's modules, as the
callers look them up, with timing wrappers; the program itself is not
changed.  Phase marks (when the eigenbasis is ready, when the work
starts and ends) are always recorded; the per-layer spans only in a
traced run.  Spans stay in memory in the process that installed the
wrappers; a forked pool worker appends its spans to a file of its own,
one write per span, so nothing is lost when the pool terminates it.
"""

import functools
import os
import resource
import time

now = time.monotonic


def cpu_seconds(who):
    u = resource.getrusage(who)
    return u.ru_utime + u.ru_stime


class Recorder:
    def __init__(self, trace, span_dir):
        self.trace = trace
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.marks = {}
        self.basis = None
        self.spans = []          # (name, t0, t1, amount, unsettled)
        self.parent_cpu_s = 0.0
        self._fd = None

    # -- recording -----------------------------------------------------

    def record(self, name, t0, t1, amount=0, unsettled=0):
        """One span; amount is the work it did (pairs solved, points
        evaluated), unsettled 1 for a count that did not settle."""
        if os.getpid() == self.pid:
            self.spans.append((name, t0, t1, amount, unsettled))
            return
        if self._fd is None:  # first span in a forked worker
            path = os.path.join(self.span_dir, "%d.spans" % os.getpid())
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(self._fd, ("%s %.9f %.9f %d %d\n" % (
            name, t0, t1, amount, unsettled)).encode())

    def worker_spans(self):
        out = []
        for entry in sorted(os.listdir(self.span_dir)):
            with open(os.path.join(self.span_dir, entry)) as fh:
                for line in fh:
                    name, t0, t1, pts, uns = line.split()
                    out.append((name, float(t0), float(t1), int(pts), int(uns)))
        return out

    def _mark(self, key, value, pick):
        old = self.marks.get(key)
        self.marks[key] = value if old is None else pick(old, value)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, owner, attr, span=None, work=False, basis=False,
              amount=None, cpu=False):
        """Replace owner.attr by a wrapper that marks the work phase
        (work), keeps the returned eigenbasis (basis), records a span with
        the work amount(result) did, and adds the process's CPU time in
        the call to parent_cpu_s (cpu)."""
        orig = getattr(owner, attr)
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = now()
            if work:
                rec._mark("work_start", t0, min)
            cpu0 = cpu_seconds(resource.RUSAGE_SELF) if cpu else 0.0
            result = orig(*args, **kwargs)
            t1 = now()
            if work:
                rec._mark("work_end", t1, max)
            if basis:
                rec._mark("basis_end", t1, max)
                rec.basis = result
            if cpu:
                rec.parent_cpu_s += cpu_seconds(resource.RUSAGE_SELF) - cpu0
            if span is not None:
                rec.record(span, t0, t1, amount(result) if amount else 0)
            return result

        setattr(owner, attr, wrapper)

    def _wrap_counter(self, owner, attr):
        orig = getattr(owner, attr)
        rec = self

        @functools.wraps(orig)
        def wrapper(P, *args, **kwargs):
            seen = [0]

            def counted(x):
                seen[0] += int(getattr(x, "size", 1))
                return P(x)

            t0 = now()
            result = orig(counted, *args, **kwargs)
            rec.record("zeros.count", t0, now(), seen[0],
                       0 if result.stable else 1)
            return result

        setattr(owner, attr, wrapper)

    def install(self):
        import slzeros.cli as cli
        import slzeros.harness as harness
        import slzeros.weights as weights

        traced = self.trace
        self._wrap(cli, "run_experiment", work=True, cpu=traced,
                   span="harness.run" if traced else None)
        for name in ("gap_diagnostics", "covariance_check"):
            self._wrap(cli, name, work=True,
                       span="harness.diagnostics" if traced else None)
        for owner in (cli, harness):
            self._wrap(owner, "build_basis_pair", basis=True)
        if not traced:
            return
        self._wrap(cli, "summarize", span="harness.summarize")
        self._wrap(harness, "eigen_solve", span="eigen.solve",
                   amount=lambda basis: basis.k_max)
        self._wrap(weights.OmegaMap, "__init__", span="weights.omega_map")
        self._wrap(harness, "sample_coefficients", span="ensembles.draw")
        self._wrap(harness, "r_n_closed", span="kernels.r_n_closed")
        self._wrap_counter(harness, "count_zeros")


def covered(spans, t0, t1, skip_layer):
    """Length of [t0, t1] covered by spans of other layers inside it."""
    inner = sorted((a, b) for name, a, b, _, _ in spans
                   if a >= t0 and b <= t1 and name.split(".")[0] != skip_layer)
    total, end = 0.0, t0
    for a, b in inner:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def round_trace(rec, main_span, workers):
    """Raw per-layer figures of one traced round.

    `workers` is the pool size; a worker's counter and draw time runs
    beside the others', so it enters the harness self time divided by
    the pool size (exact for one worker, an estimate for more).
    """
    spans = rec.spans + [main_span]
    forked = rec.worker_spans()
    everything = spans + forked
    durations = {}
    for name, a, b, _, _ in everything:
        durations.setdefault(name, []).append(b - a)
    runs = [s for s in spans if s[0] == "harness.run"]
    harness_self = sum(b - a - covered(spans, a, b, "harness") for _, a, b, _, _ in runs)
    harness_self -= sum(b - a for name, a, b, _, _ in forked
                        if name in ("zeros.count", "ensembles.draw")) / workers
    _, m0, m1, _, _ = main_span
    return {
        "durations": durations,
        "pairs": sum(p for name, _, _, p, _ in everything if name == "eigen.solve"),
        "points": sum(p for name, _, _, p, _ in everything if name == "zeros.count"),
        "unsettled": sum(u for *_, u in everything),
        "harness_self_s": harness_self,
        "cli_output_s": m1 - m0 - covered(spans, m0, m1, "cli"),
        "parent_cpu_s": rec.parent_cpu_s,
        "worker_cpu_s": cpu_seconds(resource.RUSAGE_CHILDREN),
        "workers": workers,
    }
