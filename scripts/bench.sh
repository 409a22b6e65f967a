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

# Fresh file per run; the criterion shim appends one JSON object per line.
mkdir -p "$(dirname "$out")"
: > "$out"

export BLUEDBM_BENCH_JSON="$out"

# Source identity and size, so code size lands in the same trajectory as
# speed. A run on uncommitted changes (other than to the trajectory file
# itself) gets a "-dirty" revision: its rows belong to no commit.
# src_lines follows the benchmark's rule (benchmark/src/meta.rs): every
# line of the .rs files under src/ and crates/*/src/, up to the first
# #[cfg(test)] of each file.
rev="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$rev" != unknown ] && ! git diff --quiet HEAD -- . ':(exclude)BENCH_engine.json'; then
  rev="$rev-dirty"
fi
src_lines="$(find src crates/*/src -name '*.rs' -type f -exec awk '
  FNR == 1 { stop = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { stop = 1 }
  !stop { n++ }
  END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')"
echo "{\"id\":\"meta/git_rev\",\"value\":\"$rev\"}" >> "$out"
echo "{\"id\":\"meta/src_lines\",\"value\":$src_lines}" >> "$out"
echo "source: $rev, $src_lines non-test program lines"

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
# Compares against the sim_throughput/kv_million_seq row written above.
cargo run -p bluedbm-bench --release --quiet --bin trace_overhead

echo
echo "results written to $out:"
cat "$out"
