#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
compiles the monitor from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, runs the delivery
checker's self-test, then runs trials of the workload, each in a fresh
pipeline_bench process, and prints every metric by name and unit. The
last stdout line is the JSON result; build output goes to stderr.
Everything the benchmark writes stays under that build directory.

--trace 0 runs whole trials until --seconds is spent (at least three)
and reports the medians of the end-to-end metrics. --trace 1 runs one
untraced, one traced and one stepped trial of the same job and reports
the per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("backlog_drain", "live_tcp", "fanout_16")
MIN_TRIALS = 3
MAX_TRIALS = 30
TRIAL_BUDGET_S = 160  # all trials of one run, so the run ends within 180 s

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("drain_events_per_s", "1/s"),
    ("replay_events_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # name, unit, the end-to-end metric it should move (and where)
    ("lustre.changelog_lag_peak", "count", "latency_p50_ms on live_tcp"),
    ("lustre.generator_late_p99_us", "us", "latency_p99_ms on live_tcp"),
    ("lustre.create_us_p50", "us", "setup_s"),
    ("collector.busy_ns_per_record", "ns", "drain_events_per_s on backlog_drain"),
    ("collector.records_per_s", "1/s", "drain_events_per_s on backlog_drain"),
    ("collector.events_per_frame", "count", "latency_p50_ms on live_tcp"),
    ("collector.fidcache_hit_ratio", "ratio", "drain_events_per_s on backlog_drain"),
    ("shard_router.frames_refused", "ratio", "error rate (failed/attempted)"),
    ("shard_router.shard_skew", "ratio", "drain_events_per_s on backlog_drain"),
    ("aggregator.busy_ns_per_event", "ns", "drain_events_per_s"),
    ("aggregator.inbox_backlog_peak", "count", "drain_events_per_s"),
    ("aggregator.fanout_lag_us_p99", "us", "latency_p99_ms"),
    ("aggregator.publish_abandoned", "count", "error rate (failed/attempted)"),
    ("eventstore.persist_backlog_peak", "count", "drain_events_per_s on backlog_drain"),
    ("eventstore.events_per_commit_group", "count", "drain_events_per_s on backlog_drain"),
    ("eventstore.group_commit_latency_us_p99", "us", "drain_events_per_s on backlog_drain"),
    ("eventstore.replay_page_ms", "ms", "replay_events_per_s"),
    ("transport.frames_per_event", "ratio", "latency_p50_ms on live_tcp"),
    ("transport.hop_us_p50", "us", "latency_p50_ms on live_tcp"),
    ("transport.frame_copies", "count", "drain_events_per_s (stays 0)"),
    ("consumer.delivery_backlog_peak", "count", "drain_events_per_s on fanout_16"),
    ("consumer.match_ratio", "ratio", "drain_events_per_s on fanout_16"),
    ("consumer.busy_ns_per_delivery", "ns", "drain_events_per_s on fanout_16"),
    ("core.decodes_per_event", "ratio", "drain_events_per_s on fanout_16"),
    ("core.encodes_per_event", "ratio", "drain_events_per_s (stays 1.0)"),
    ("pipeline.stepped_events_per_s", "1/s", "single-threaded baseline of drain_events_per_s"),
    ("pipeline.threaded_speedup", "ratio", "drain_events_per_s"),
    ("pipeline.tracing_overhead_events_per_s", "1/s", "none: traced minus untraced drain"),
]


def build(here, build_dir):
    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: failed: %s\n" % " ".join(cmd))
            sys.exit(done.returncode or 1)

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build_dir, "-j", jobs,
          "--target", "checker_test", "pipeline_bench"])
    step([os.path.join(build_dir, "checker_test")])


class Trials:
    """Runs pipeline_bench trials, each in its own process."""

    def __init__(self, build_dir, workload):
        self.binary = os.path.join(build_dir, "pipeline_bench")
        self.work = os.path.join(build_dir, "run-%d" % os.getpid())
        self.workload = workload
        self.deadline = time.monotonic() + TRIAL_BUDGET_S

    def run(self, seed, mode):
        cmd = [self.binary, "--workload", self.workload, "--seed", str(seed),
               "--mode", mode, "--work-dir", self.work]
        left = self.deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: %s trial ran past the time budget\n" % mode)
            sys.exit(1)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write("perfbench: %s trial exited with %d\n" % (mode, done.returncode))
            sys.exit(1)
        return json.loads(lines[-1])


def trial_seed(seed, i):
    """Input seed of trial i of a run; fixed by the run's --seed."""
    return seed * 1000 + i


def total_tally(trials):
    keys = ("expected", "delivered", "lost", "duplicated", "misrouted")
    return {k: sum(int(t["tally"][k]) for t in trials) for k in keys}


def print_tally(tally, warnings):
    errors = tally["lost"] + tally["duplicated"] + tally["misrouted"]
    rate = errors / tally["expected"] if tally["expected"] else 0.0
    print("  deliveries: expected %d, delivered %d, lost %d, duplicated %d, misrouted %d"
          % tuple(tally[k] for k in ("expected", "delivered", "lost", "duplicated", "misrouted")))
    print("  error_rate %.3g (lost + duplicated + misrouted over expected)" % rate)
    print("  monitor warnings logged: %d" % warnings)
    return errors


def result(trials, metrics):
    tally = total_tally(trials)
    errors = print_tally(tally, sum(int(t["warnings"]) for t in trials))
    failures = [t["failure"] for t in trials if not t["ok"]]
    for failure in failures:
        print("  trial failed: %s" % failure)
    print(json.dumps({
        "correct": not failures and errors == 0,
        "attempted": max(1, tally["expected"]),
        "failed": errors,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }))


def window_latency(trial_list):
    """Median over the 250 ms live windows of the given trials of each
    window's p50 and p99, in ms."""
    windows = [w for t in trial_list for w in t.get("latency_windows_ms", [])]
    if not windows:
        return 0.0, 0.0
    return (statistics.median(w[0] for w in windows),
            statistics.median(w[1] for w in windows))


def run_plain(trials, args):
    done = []
    begin = time.monotonic()
    longest = 0.0
    while len(done) < MIN_TRIALS or (
            time.monotonic() - begin + longest <= args.seconds and len(done) < MAX_TRIALS):
        t0 = time.monotonic()
        done.append(trials.run(trial_seed(args.seed, len(done)), "plain"))
        done[-1]["latency_p50_ms"], done[-1]["latency_p99_ms"] = window_latency(done[-1:])
        sys.stderr.write("trial %d: %s\n" % (len(done) - 1, " ".join(
            "%s=%.4g" % (name, done[-1].get(name, 0))
            for name in [n for n, _ in END_TO_END] + ["latency_p99_ms"])))
        longest = max(longest, time.monotonic() - t0)
        if not done[-1]["ok"]:
            break
    first = done[0]
    print("workload %s, seed %d: %d trials of %d records / %d events; store on %s"
          % (args.workload, args.seed, len(done), first["records"], first["events"],
             first["filesystem"]))
    values = {name: statistics.median(t.get(name, 0) for t in done) for name, _ in END_TO_END}
    values["latency_p50_ms"], p99 = window_latency(done)
    metrics = [(name, unit, values[name]) for name, unit in END_TO_END]
    for name, unit, value in metrics:
        print("  %-40s %16.6g %s" % (name, value, unit))
    # Printed, not a BENCHMARK.json metric: on a shared host it moves with
    # the host's load far more than any bound allows (see README.md).
    print("  %-40s %16.6g %s (not gated)" % ("latency_p99_ms", p99, "ms"))
    tails = sorted(done, key=lambda t: t["tail_ms"])
    mid = tails[len(tails) // 2]
    print("  latency tail: p%g over %d samples per trial (%d beyond it): median trial %.3f ms,"
          " worst trial %.3f ms"
          % (mid["tail_pct"], mid["latency_samples"], mid["tail_beyond"], mid["tail_ms"],
             tails[-1]["tail_ms"]))
    print("  generator lateness: p50 %.1f us, p99 %.1f us (median over trials)"
          % (statistics.median(t["late_p50_us"] for t in done),
             statistics.median(t["late_p99_us"] for t in done)))
    result(done, metrics)


def run_traced(trials, args):
    seed = trial_seed(args.seed, 0)
    plain = trials.run(seed, "plain")
    traced = trials.run(seed, "traced")
    stepped = trials.run(seed, "stepped")
    # A failed trial reports no figures of its own; its metrics read 0
    # and the result says correct: false.
    s = stepped["layer"]
    layer = {name: 0.0 for name, _, _ in PER_LAYER}
    layer.update(traced["layer"])
    layer["lustre.create_us_p50"] = traced["create_us_p50"]
    layer["lustre.generator_late_p99_us"] = traced.get("late_p99_us", 0.0)
    for name in ("collector.busy_ns_per_record", "aggregator.busy_ns_per_event",
                 "consumer.busy_ns_per_delivery", "pipeline.stepped_events_per_s"):
        layer[name] = s.get(name, 0.0)
    stepped_rate = layer["pipeline.stepped_events_per_s"]
    plain_rate = plain.get("drain_events_per_s", 0.0)
    traced_rate = traced.get("drain_events_per_s", 0.0)
    layer["pipeline.threaded_speedup"] = plain_rate / stepped_rate if stepped_rate else 0.0
    layer["pipeline.tracing_overhead_events_per_s"] = traced_rate - plain_rate

    print("workload %s, seed %d (traced): %d records / %d events; store on %s"
          % (args.workload, args.seed, traced["records"], traced["events"],
             traced["filesystem"]))
    for name, unit, moves in PER_LAYER:
        print("  %-40s %16.6g %-6s -> %s" % (name, layer[name], unit, moves))
    print("  untraced drain %.0f ev/s, traced drain %.0f ev/s: tracing overhead %+.0f ev/s"
          % (plain_rate, traced_rate, layer["pipeline.tracing_overhead_events_per_s"]))
    print("  stepped single-threaded baseline %.0f ev/s; threaded / stepped = %.2fx"
          % (stepped_rate, layer["pipeline.threaded_speedup"]))
    print("  stepped busy share: collector+router %.0f%%, aggregator+store %.0f%%,"
          " changelog clear %.0f%%, consumers %.0f%%"
          % tuple(100 * s.get("stepped.share_" + k, 0.0)
                  for k in ("collector", "aggregator", "clear", "consumer")))
    print("  input queue peak / mean (events): " + ", ".join(
        "%s %.0f / %.0f" % (name, q["peak"], q["mean"])
        for name, q in traced.get("backlog", {}).items()))
    print("  bottleneck stage: %s" % traced.get("bottleneck", "unknown"))
    result([plain, traced, stepped],
           [(name, unit, layer[name]) for name, unit, _ in PER_LAYER])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no monitor sources under %s/src\n" % root)
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    build(here, build_dir)
    trials = Trials(build_dir, args.workload)
    if args.trace:
        run_traced(trials, args)
    else:
        run_plain(trials, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
