"""The slzeros benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
The run repeats whole rounds, each one command-line run of the workload
(see workloads.py) in a fresh process started by probe.py, until one more
round would end after S seconds; it runs at least two rounds.  It prints every
check, then the metrics by name and unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
rounds.  With --trace 1 untraced and traced rounds alternate, and the
metrics are the per-layer ones from the traced rounds, plus the tracing
overhead.  Scratch output goes to .perfbench/ and is removed at the end.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

import tracing
from checks import (check_identical, check_unstable_flags,
                    flagged_unsettled, read_records)
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
UNSETTLED = re.compile(r"zero count did not stabilize")
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("replicates_per_s", "1/s"), ("wall_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("eigen.solve_s", "s"), ("eigen.pairs", "count"),
    ("eigen.ms_per_pair", "ms"), ("weights.omega_map_builds", "count"),
    ("weights.omega_map_s", "s"), ("ensembles.draws", "count"),
    ("ensembles.draw_us", "us"), ("zeros.calls", "count"),
    ("zeros.count_ms", "ms"), ("zeros.count_ms_p99", "ms"),
    ("zeros.points_per_call", "count"), ("zeros.unsettled", "count"),
    ("zeros.share", "fraction"), ("harness.run_s", "s"),
    ("harness.self_s", "s"), ("harness.summarize_s", "s"),
    ("harness.diagnostics_s", "s"), ("harness.worker_cpu_s", "s"),
    ("harness.parent_cpu_s", "s"), ("kernels.r_n_closed_s", "s"),
    ("cli.output_s", "s"), ("trace.overhead_s", "s"))


class BenchError(RuntimeError):
    pass


def run_round(root, scratch, env, name, seed, index, trace):
    """Start one probe process, wait for it, and return its figures."""
    wl = WORKLOADS[name]
    base = os.path.join(scratch, "r%d" % index)
    out, spans, result = base + "-out", base + "-spans", base + ".json"
    os.makedirs(spans)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--workload", name,
           "--seed", str(seed), "--out", out, "--result", result,
           "--spans", spans, "--trace", str(int(trace))]
    start = tracing.now()
    # its own process group, so that a timeout can stop its pool workers too
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=dict(env, SLZEROS_THREADS=str(wl.threads)),
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s did not finish in %d s" % (name, CHILD_TIMEOUT_S))
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError("%s exited with %d:\n%s"
                         % (name, proc.returncode, err[-2000:]))
    with open(result) as fh:
        res = json.load(fh)
    marks = res["marks"]
    setup_end = max(marks["work_start"], marks.get("basis_end", marks["work_start"]))
    work_s = marks["work_end"] - setup_end
    # An unsettled count is a failed operation when records.csv does not
    # show it: T_n and perturbed have no stability column.
    warnings = len(UNSETTLED.findall(err))
    flagged = 0
    checks = res["checks"]
    if wl.kinds:
        flagged = flagged_unsettled(read_records(os.path.join(out, "records.csv")),
                                    wl.n_list, wl.kinds)
        checks.append(check_unstable_flags(flagged, warnings).as_dict())
    return {
        "traced": trace,
        "setup_s": setup_end - start,
        "work_s": work_s,
        "replicates_per_s": wl.work_items / work_s,
        "wall_s": res["end"] - start,
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "unsettled": warnings,
        "failed": max(0, warnings - flagged),
        "checks": checks,
        "digest": res["digest"],
        "trace": res.get("trace"),
    }


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def layer_metrics(r):
    """Per-layer figures of one traced round."""
    t = r["trace"]
    dur = t["durations"]

    def total(name):
        return float(sum(dur.get(name, ())))

    pairs = t["pairs"]
    counts = dur.get("zeros.count", [])
    draws = dur.get("ensembles.draw", [])
    calls = len(counts)
    return {
        "eigen.solve_s": total("eigen.solve"),
        "eigen.pairs": pairs,
        "eigen.ms_per_pair": 1e3 * total("eigen.solve") / pairs if pairs else 0.0,
        "weights.omega_map_builds": len(dur.get("weights.omega_map", ())),
        "weights.omega_map_s": total("weights.omega_map"),
        "ensembles.draws": len(draws),
        "ensembles.draw_us": 1e6 * statistics.median(draws) if draws else 0.0,
        "zeros.calls": calls,
        "zeros.count_ms": 1e3 * statistics.median(counts) if counts else 0.0,
        # the 99th percentile has ten samples beyond it from 1000 calls on
        "zeros.count_ms_p99": 1e3 * percentile(counts, 99) if calls >= 1000 else 0.0,
        "zeros.points_per_call": t["points"] / calls if calls else 0.0,
        "zeros.unsettled": t["unsettled"],
        "zeros.share": total("zeros.count") / (r["work_s"] * t["workers"]),
        "harness.run_s": total("harness.run"),
        "harness.self_s": t["harness_self_s"],
        "harness.summarize_s": total("harness.summarize"),
        "harness.diagnostics_s": total("harness.diagnostics"),
        "harness.worker_cpu_s": t["worker_cpu_s"],
        "harness.parent_cpu_s": t["parent_cpu_s"],
        "kernels.r_n_closed_s": total("kernels.r_n_closed"),
        "cli.output_s": t["cli_output_s"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "slzeros", "cli.py")):
        print("error: no slzeros source tree at %s/src; run from the root of "
              "a checkout" % root, file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    scratch = os.path.join(root, ".perfbench", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    rounds = []
    try:
        # an untimed import first, so that no round pays for cold file caches
        subprocess.run([sys.executable, "-c", "import slzeros.cli"], cwd=root,
                       env=env, check=True, timeout=CHILD_TIMEOUT_S)
        begin = tracing.now()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            r = run_round(root, scratch, env, args.workload, args.seed,
                          len(rounds), traced)
            rounds.append(r)
            print("round %d%s: setup %.3f s, work %.3f s, wall %.3f s, cpu %.3f s, "
                  "%d unsettled counts, %d failed" % (
                      len(rounds), " traced" if traced else "", r["setup_s"],
                      r["work_s"], r["wall_s"], r["cpu_s"], r["unsettled"],
                      r["failed"]))
            elapsed = tracing.now() - begin
            if len(rounds) >= 2 and elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break
    except (BenchError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    # every round's own checks, then byte identity across rounds
    verdicts = {}
    for r in rounds:
        for c in r["checks"]:
            seen = verdicts.setdefault(c["name"], [0, 0, c["detail"]])
            seen[0] += 1
            seen[1] += int(c["ok"])
            if not c["ok"] or seen[1] == seen[0]:
                seen[2] = c["detail"]
    same = check_identical("outputs.identical_across_rounds",
                           [r["digest"] for r in rounds])
    verdicts[same.name] = [1, int(same.ok), same.detail]
    correct = all(ok == total for total, ok, _ in verdicts.values())
    for name, (total, ok, detail) in sorted(verdicts.items()):
        print("check %-34s %s (%d/%d rounds) %s" % (
            name, "PASS" if ok == total else "FAIL", ok, total, detail))

    attempted = wl.operations * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {}
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r) for r in traced]
        for name, unit in PER_LAYER[:-1]:
            metrics[name] = {"value": statistics.median(x[name] for x in per_round),
                             "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in rounds if not r["traced"]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(r[name] for r in rounds),
                             "unit": unit}
    for name, m in metrics.items():
        print("metric %-26s %14.6f %s" % (name, m["value"], m["unit"]))
    print("rounds %d, operations attempted %d, failed %d"
          % (len(rounds), attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
