#!/usr/bin/env python3
"""Host-performance benchmark of the msgroof simulator.

Builds the benchmark binary from source (perfbench/CMakeLists.txt, output
in .bench_build/), then measures one workload. Every measurement runs in a
fresh child process, on one thread, so a workload's numbers are its own.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --steady K [--seconds S]

--trace 0 prints the end-to-end metrics of the timed pass (every observer
off). --trace 1 prints the per-layer metrics: observer ratios, exact op
counts, per-layer unit costs and the layer split. --steady K runs the
--trace 0 measurement K times with seeds N..N+K-1 and prints each metric's
median, quartiles, spread and bound. The last stdout line of a measurement
is one JSON object. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("stencil_scale", "roofline_sweep", "embedding_serving")
DEFAULT_SEED = 1
# Held out: never used while the benchmark was tuned. A gain claimed on the
# default seed must also hold on this one.
HELDOUT_SEED = 907

# (name, unit, bound): bound is the share of the parent's median by which
# the metric may worsen before a change counts as a regression. Mirrors
# BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("sim_msgs_per_s", "msgs/s", 0.25),
    ("setup_s", "s", 0.25),
    ("setup_rss_mb", "MiB", 0.1),
    ("peak_rss_mb", "MiB", 0.1),
)

PER_LAYER_UNITS = {
    "simnet.platform_build_s": "s",
    "simnet.platform_mb": "MiB",
    "simnet.route_ns": "ns",
    "simnet.transfer_ns": "ns",
    "runtime.engine_build_s": "s",
    "runtime.perform_ns": "ns",
    "mpi.barrier_ns_per_rank": "ns",
    "mpi.p2p_ns_m1e3": "ns",
    "mpi.p2p_ns_m1e4": "ns",
    "mpi.put_flush_ns": "ns",
    "mpi.get_ns": "ns",
    "shmem.world_build_s": "s",
    "shmem.put_signal_ns": "ns",
    "shmem.get_ns": "ns",
    "core.sweep_two_sided_s": "s",
    "core.sweep_one_sided_s": "s",
    "core.sweep_shmem_s": "s",
    "workloads.stencil.sweep_ns_per_cell": "ns",
    "workloads.embedding.build_spans_ns": "ns",
    "workloads.embedding.combine_ratio": "ratio",
    "count.fabric_ops": "count",
    "count.syncs": "count",
    "count.waits": "count",
    "observer.metrics_x": "x",
    "observer.check_x": "x",
    "observer.spans_x": "x",
    "observer.trace_x": "x",
    "split.runtime_share": "ratio",
    "split.simnet_share": "ratio",
    "split.comm_share": "ratio",
    "split.workloads_share": "ratio",
    "split.residual_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_x": "x",
}

OBSERVERS = ("metrics", "check", "spans", "trace")
MIN_CHILDREN = 3   # set-ups per --trace 0 run (setup_s is their median)
CHILD_TARGET = 5   # children a repeating workload splits --seconds over
# The RMA checker costs 10-1000x on some steps, so its one pass stops after
# the first step that ends past this many seconds.
CHECK_BUDGET_S = 15
OBSERVE_PASSES = 3  # other observer children report the median of these
BUILD_DIR = ".bench_build"
DEADLINE_S = 170   # a measurement ends this long after the build at most


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the benchmark binary; returns its path."""
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                ["cmake", "--build", out, "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


class Children:
    """Runs benchmark child processes against one shared deadline."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline

    def run(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before: perfbench " + " ".join(args))
        try:
            r = subprocess.run([self.binary, *args], capture_output=True,
                               text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: perfbench " + " ".join(args))
        if r.stderr:
            log(r.stderr.rstrip())
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            raise BenchError("perfbench %s exited %d" % (" ".join(args), r.returncode))
        out = json.loads(lines[-1])
        if out.get("error"):
            log("output check failed: " + out["error"])
        return out


def measure_timed(ch, workload, seed, seconds):
    """--trace 0: fresh-process set-ups, each followed by timed passes."""
    start = time.monotonic()
    budget = seconds / CHILD_TARGET
    runs = []
    while len(runs) < MIN_CHILDREN or time.monotonic() - start < seconds:
        runs.append(ch.run("timed", "--workload", workload, "--seed", str(seed),
                           "--budget", repr(budget)))
    pass_s = [t for r in runs for t in r["pass_s"]]
    rates = [m / t for r in runs for m, t in zip(r["msgs"], r["pass_s"])]
    values = {
        "wall_s": statistics.median(pass_s),
        "sim_msgs_per_s": statistics.median(rates),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "setup_rss_mb": statistics.median(r["setup_rss_mb"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    log("%s: %d processes, %d timed passes" % (workload, len(runs), len(pass_s)))
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    return attempted, failed, metrics


def layer_split(wall, counts, units, work):
    """Layer shares of `wall`: counts x unit costs, measured from outside.

    runtime = scheduler-visible ops x perform cost, simnet = fabric
    transfers x transfer cost; the comm probes time whole operations, so
    the comm share is their total minus the runtime and simnet shares
    (floored at 0); the residual is what no probe accounts for.
    """
    cost = lambda prefixes: sum(n * units[k] * 1e-9 for k, n in work.items()
                                if k.split(".")[0] in prefixes)
    dispatches = counts["fabric_ops"] + counts["syncs"] + counts["waits"]
    runtime = dispatches * units["runtime.perform_ns"] * 1e-9
    simnet = counts["transfers"] * units["simnet.transfer_ns"] * 1e-9
    comm = max(0.0, cost(("mpi", "shmem")) - runtime - simnet)
    work_s = cost(("workloads",))
    shares = {
        "split.runtime_share": runtime / wall,
        "split.simnet_share": simnet / wall,
        "split.comm_share": comm / wall,
        "split.workloads_share": work_s / wall,
    }
    shares["split.residual_share"] = 1.0 - sum(shares.values())
    return shares


def measure_layers(ch, workload, seed, root):
    """--trace 1: observer passes and the traced pass, each in its own
    process; per-layer numbers come only from these."""
    seed_args = ("--workload", workload, "--seed", str(seed))
    passes = ("--passes", str(OBSERVE_PASSES))
    base = ch.run("observe", *seed_args, *passes, "--observer", "none")
    obs = {}
    ratios = {}
    for o in OBSERVERS:
        budget = ("--budget", str(CHECK_BUDGET_S)) if o == "check" else passes
        obs[o] = ch.run("observe", *seed_args, "--observer", o, *budget)
        # Repeating workloads replay each observed pass with all observers
        # off in the same process; a run-once workload compares with `base`.
        off = obs[o].get("off_s", base["wall_s"])
        ratios["observer.%s_x" % o] = obs[o]["wall_s"] / off
    spans_path = os.path.join(root, BUILD_DIR, "spans-%s.csv" % workload)
    lay = ch.run("layers", *seed_args, "--spans", spans_path)
    log("spans of the traced pass: " + spans_path)

    wall = base["wall_s"]
    values = {k: v for k, v in lay.items() if k in PER_LAYER_UNITS}
    values.update(ratios)
    counts = obs["metrics"]
    for c in ("fabric_ops", "syncs", "waits"):
        values["count." + c] = counts[c]
    values["trace.wall_s"] = lay["trace_wall_s"]
    values["trace.overhead_x"] = lay["trace_wall_s"] / wall
    values.update(layer_split(wall, counts, values, lay["work"]))
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise BenchError("per-layer metrics missing: " + ", ".join(sorted(missing)))

    children = [base, lay, *obs.values()]
    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}
    return attempted, failed, metrics


def measure(binary, root, workload, seed, seconds, trace):
    ch = Children(binary, time.monotonic() + DEADLINE_S)
    if trace:
        attempted, failed, metrics = measure_layers(ch, workload, seed, root)
    else:
        attempted, failed, metrics = measure_timed(ch, workload, seed, seconds)
    for name, m in metrics.items():
        print("%-40s %.6g %s" % (name, m["value"], m["unit"]))
    print("%-40s %.6g ratio (%d of %d runs failed)" % (
        "failed_frac", failed / attempted, failed, attempted))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


# Printed with every steadiness report: the two noise sources diagnosed in
# an earlier version of this benchmark, and what this one does about them.
NOISE_NOTES = """\
known noise sources:
  setup_s once timed a single ~3 us constructor call: timer resolution, not
    set-up. Set-up here builds the platform and, for repeating workloads,
    runs a cold warm-up pass; it is never below milliseconds.
  short embedding_serving passes were dominated by the SHMEM heap zero-fill
    (4 PEs x 64 MiB of page faults, 0.19-0.26 s per pass). The timed region
    here repeats passes for seconds in several processes and reports
    medians; shmem.world_build_s reports the heap cost itself."""


def steady(binary, root, workload, seed, seconds, k):
    """Runs the --trace 0 measurement k times, one seed each, and reports
    each metric's median, quartiles (statistics.quantiles, n=4) and spread,
    (q3 - q1) / median, against its bound."""
    runs = []
    for i in range(k):
        runs.append(measure(binary, root, workload, seed + i, seconds, False))
    print("\n%s: %d runs, seeds %d..%d" % (workload, k, seed, seed + k - 1))
    print("%-16s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3",
                                           "spread", "bound"))
    for name, _, bound in END_TO_END:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bound / 3 else "  (above a third of the bound)"
        print("%-16s %12.6g %12.6g %12.6g %8.4f %8.3f%s" % (
            name, q1, med, q3, spread, bound, flag))
    print("failed runs: %d" % sum(not r["correct"] for r in runs))
    print(NOISE_NOTES)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K", default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    try:
        binary = build(root)
        if a.steady:
            steady(binary, root, a.workload, a.seed, a.seconds, a.steady)
        else:
            measure(binary, root, a.workload, a.seed, a.seconds, a.trace)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
