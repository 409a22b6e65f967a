#!/usr/bin/env bash
# Run the event-kernel criterion benches and record the results as JSON
# lines in BENCH_engine.json, so successive PRs accumulate a perf
# trajectory for the simulator itself.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_engine.json}"
# cargo runs bench binaries with the package dir as cwd; hand the shim an
# absolute path so results land at the workspace root.
case "$out" in
  /*) ;;
  *) out="$(pwd)/$out" ;;
esac

# Keep the previous trajectory around as the baseline for the trace
# overhead comparison before truncating for the fresh run.
baseline=""
if [ -f "$out" ]; then
  baseline="$(mktemp)"
  cp "$out" "$baseline"
fi

# Fresh file per run; the criterion shim appends one JSON object per line.
mkdir -p "$(dirname "$out")"
: > "$out"

export BLUEDBM_BENCH_JSON="$out"

echo "== layout sizes: Msg / queue entries (fails if Msg > 64 bytes) =="
cargo run -p bluedbm-bench --release --quiet --bin sizes

# The shard-scaling rows (sim_throughput/mesh8x8_scatter_sharded{1,2,4}
# and the KV rows kv_million_{seq,sharded{2,4}}) only show real parallel
# speedup when the host has cores to run the shards on; record the core
# count so the curve is interpretable, and flag outright when the widest
# sharded row (4 shards) is oversubscribed — on such hosts the sharded
# rows measure the sync protocol's overhead floor, not parallel scaling,
# and must not be read as a speedup curve.
cpus="$(nproc)"
echo "{\"id\":\"meta/host_cpus\",\"value\":$cpus}" >> "$out"
if [ "$cpus" -lt 4 ]; then overhead_floor=1; else overhead_floor=0; fi
echo "{\"id\":\"meta/sharded_rows_are_overhead_floor\",\"value\":$overhead_floor}" >> "$out"
if [ "$overhead_floor" = 1 ]; then
  echo "NOTE: host has $cpus CPU(s) < 4 shards; sharded rows record the sync-overhead floor, not parallel speedup."
fi

echo "== sim_throughput: typed kernel vs boxed baseline, cluster events/sec =="
cargo bench -p bluedbm-bench --bench sim_throughput

echo "== engines: ISP functional core throughput =="
cargo bench -p bluedbm-bench --bench engines

echo "== flash_ftl: SECDED codec, flash array churn, FTL and file system =="
cargo bench -p bluedbm-bench --bench flash_ftl

echo "== gc_cliff: flash-lifecycle tail latency and write amplification =="
cargo run -p bluedbm-bench --release --quiet --bin gc_cliff

echo "== trace: disabled-path overhead on the KV workload =="
# shellcheck disable=SC2086
cargo run -p bluedbm-bench --release --quiet --bin trace_overhead -- ${baseline:+"$baseline"}
if [ -n "$baseline" ]; then rm -f "$baseline"; fi

echo
echo "results written to $out:"
cat "$out"
