#!/usr/bin/env bash
# Time the pod-sharded deterministic engine at shards 1, 2 and 4 on the
# k=8 fat-tree experiment workload and emit BENCH_shard.json with
# wall-clock, events/sec, the N-invariant safe-horizon window count and the
# per-point stall count (how often a shard sat a window out at the
# conservative lookahead horizon — the bound on multi-core scaling). The
# benchmark binary asserts in-run that every shard count produced a byte-identical hop/watermark/delivery stream to the 1-shard
# run (the property tests/shard_determinism.rs proves under proptest);
# this script records only the numbers. On a one- or two-vCPU host expect
# honest windowing overhead at 2 and 4 shards, not speedup — the JSON
# carries the host's cpu count and says which.
#
# Usage: scripts/shard_bench.sh [output.json]
# Knobs: RLIR_SHARDBENCH_MS   (trace duration, default 40)
#        RLIR_SHARDBENCH_REPS (best-of, default 3)
#        RLIR_SHARDBENCH_K    (fat-tree arity, default 8)

set -euo pipefail
cd "$(dirname "$0")/.."

source scripts/bench_lib.sh
run_bench shard_bench "${1:-BENCH_shard.json}"
