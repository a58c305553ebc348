#!/usr/bin/env bash
# Build and run the Table VIII cache sweep plus the resolver-pool sweep,
# the crash-recovery bench, the event-store replay bench, the shard
# scaling sweep, and the transport hop bench, checking that the
# machine-readable BENCH_*.json files landed.
#
# The resolver sweep pays the modeled fid2path cost for real (RealClock
# nanosleeps), so this takes a few seconds of wall time per row.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target bench_table8_cache_sweep bench_recovery bench_store bench_shards bench_transport bench_fanout bench_nsindex

./build/bench/bench_table8_cache_sweep

if [[ ! -s BENCH_resolution.json ]]; then
  echo "FAIL: bench did not write BENCH_resolution.json" >&2
  exit 1
fi
echo "OK: BENCH_resolution.json written."

# Recovery: baseline-vs-faulted pipeline plus aggregator restart latency.
# Exits nonzero if any run loses or duplicates events.
./build/bench/bench_recovery

if [[ ! -s BENCH_recovery.json ]]; then
  echo "FAIL: bench did not write BENCH_recovery.json" >&2
  exit 1
fi
echo "OK: BENCH_recovery.json written."

# Event store: replay throughput and resident bytes vs store size, with
# the tail cache on, off, and effectively unbounded (old in-memory path).
# Exits nonzero if replay is not byte-identical across configurations,
# the cache bound is violated, or disk replay falls below half the
# in-memory throughput.
./build/bench/bench_store

if [[ ! -s BENCH_store.json ]]; then
  echo "FAIL: bench did not write BENCH_store.json" >&2
  exit 1
fi
echo "OK: BENCH_store.json written."

# Shard scaling: 1/2/4 aggregator shards over the same workload, with
# the modeled per-batch durable-commit latency the shards overlap.
# Exits nonzero if any run loses events or 4 shards scale below 3.0x.
./build/bench/bench_shards

if [[ ! -s BENCH_shards.json ]]; then
  echo "FAIL: bench did not write BENCH_shards.json" >&2
  exit 1
fi
echo "OK: BENCH_shards.json written."

# Transport: the zero-copy FrameRef hop over in-proc/shm/TCP against the
# copy-per-hop in-proc baseline (the old BM_BatchedHop loop). Exits nonzero
# if the in-proc or shm hop falls below 2x the baseline at batch 64, any
# in-proc/shm hop copies a frame payload, or the one-serialization-per-
# event codec invariant breaks.
./build/bench/bench_transport

if [[ ! -s BENCH_transport.json ]]; then
  echo "FAIL: bench did not write BENCH_transport.json" >&2
  exit 1
fi
echo "OK: BENCH_transport.json written."

# Fan-out: shared subscription index vs per-consumer matching across a
# 10 -> 10k subscriber sweep at fixed matched volume, plus the hub's
# stalled-consumer isolation run. Exits nonzero if the index cost at 10k
# subscribers exceeds 2x the 10-subscriber cost or a stalled sibling
# cuts healthy throughput below 0.9x baseline.
./build/bench/bench_fanout

if [[ ! -s BENCH_fanout.json ]]; then
  echo "FAIL: bench did not write BENCH_fanout.json" >&2
  exit 1
fi
echo "OK: BENCH_fanout.json written."

# Namespace index: applier fold throughput, query latency at 1x vs 10x
# event volume over a fixed path population (must stay flat — queries
# hit materialized state, never the stream), and snapshot + delta
# restart cost vs delta size. Exits nonzero if any query's latency at
# 10x events exceeds 3x its 1x latency.
./build/bench/bench_nsindex

if [[ ! -s BENCH_nsindex.json ]]; then
  echo "FAIL: bench did not write BENCH_nsindex.json" >&2
  exit 1
fi
echo "OK: BENCH_nsindex.json written."
