//! Measure the trace layer's overhead on the million-key KV workload
//! and record it into the benchmark trajectory.
//!
//! Two wall-clock measurements of the same sequential-engine run, taken
//! interleaved (off, on, off, on, …) so host drift lands on both alike:
//!
//! * `trace/kv_trace_disabled` — `TraceConfig::off()` (the default):
//!   every instrumentation site compiles down to an enabled-flag check,
//!   so this row is directly comparable to the
//!   `sim_throughput/kv_million_seq` row of the same workload;
//! * `trace/kv_trace_enabled` — full capture across all categories,
//!   bounding what a diagnostic run costs.
//!
//! The fastest disabled run is compared against the fastest sample
//! (`ns_min`) of the `kv_million_seq` row that the same
//! `scripts/bench.sh` run has just written to the trajectory file
//! (`BLUEDBM_BENCH_JSON`); both time the same span — the run, its audits
//! and the store's teardown — and the overhead percentage lands in the
//! trajectory as `trace/disabled_overhead_vs_baseline_pct`, the ≤2%
//! acceptance bar. Timing verdicts are advisory (wall clock on
//! shared hosts is noisy); the exit code only gates correctness: the
//! traced and untraced runs must produce the identical result digest,
//! and the enabled run must actually capture records.
//!
//! Under `BLUEDBM_BENCH_SMOKE` the workload shrinks to 20k keys and the
//! baseline comparison is skipped (a scaled run is not comparable to
//! the full-size baseline row).

use std::io::Write;
use std::time::Instant;

use bluedbm_core::{Cluster, ExecMode, KvStore, SystemConfig};
use bluedbm_sim::TraceConfig;
use bluedbm_workloads::kvgen::{kv_flash_geometry, run_requests, KvWorkloadSpec};

const NODES: usize = 4;
const BATCH: usize = 8192;

fn smoke() -> bool {
    std::env::var("BLUEDBM_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One timed run; returns (wall ns, result digest, trace records captured).
fn run_once(spec: &KvWorkloadSpec, trace: TraceConfig) -> (u128, u64, usize) {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = kv_flash_geometry();
    config.sim.shards = 1;
    config.sim.exec = ExecMode::Auto;
    config.sim.trace = trace;
    let mut store = KvStore::new(Cluster::ring(NODES, &config).unwrap());
    // The timed span is the `kv_million_seq` routine's: the run, its
    // audits and the store's teardown.
    // detlint::allow(no-wallclock): overhead measurement reports wall
    // time only; nothing here feeds back into simulated time.
    let start = Instant::now();
    let summary = run_requests(&mut store, spec.load().chain(spec.churn()), BATCH);
    assert_eq!(summary.errors, 0, "a sized workload must not fail");
    store.assert_no_stranded_pages();
    store.cluster().assert_quiescent();
    let parts = store.take_trace();
    drop(store);
    let elapsed = start.elapsed().as_nanos();
    let doc = bluedbm_trace::TraceDoc::merge(parts);
    (elapsed, summary.digest, doc.len())
}

/// Median, min and max of a set of wall times, in ns.
fn spread(mut times: Vec<f64>) -> (f64, f64, f64) {
    times.sort_by(|a, b| a.total_cmp(b));
    (times[times.len() / 2], times[0], times[times.len() - 1])
}

/// Pull a numeric field out of a flat machine-written JSON line
/// (same scan as `speedup_gate`; the trajectory has no nesting).
fn field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The fastest `sim_throughput/kv_million_seq` sample in the trajectory
/// file at `path`, if the file has that row.
fn baseline_ns(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.contains("\"id\":\"sim_throughput/kv_million_seq\""))
        .and_then(|l| field_num(l, "ns_min"))
}

fn main() {
    let spec = if smoke() {
        KvWorkloadSpec::million(NODES).scaled_to(20_000)
    } else {
        KvWorkloadSpec::million(NODES)
    };
    let iters = if smoke() { 2 } else { 3 };

    let mut off_times = Vec::with_capacity(iters);
    let mut on_times = Vec::with_capacity(iters);
    let mut on_records = 0;
    for _ in 0..iters {
        let (ns, off_digest, off_records) = run_once(&spec, TraceConfig::off());
        off_times.push(ns as f64);
        assert_eq!(off_records, 0, "disabled sink must stay empty");
        let (ns, on_digest, records) = run_once(&spec, TraceConfig::on().with_capacity(1 << 21));
        on_times.push(ns as f64);
        on_records = records;
        assert_eq!(off_digest, on_digest, "trace capture perturbed the result digest");
        assert!(on_records > 0, "enabled sink captured nothing");
    }
    let (off_ns, off_min, off_max) = spread(off_times);
    let (on_ns, on_min, on_max) = spread(on_times);

    let enabled_pct = (on_ns / off_ns - 1.0) * 100.0;
    println!("trace/kv_trace_disabled: {:.0} ns/iter", off_ns);
    println!(
        "trace/kv_trace_enabled:  {:.0} ns/iter ({} records, {enabled_pct:+.2}% vs disabled)",
        on_ns, on_records
    );

    let mut lines = String::new();
    for (id, med, min, max) in [
        ("trace/kv_trace_disabled", off_ns, off_min, off_max),
        ("trace/kv_trace_enabled", on_ns, on_min, on_max),
    ] {
        lines.push_str(&format!(
            "{{\"id\":\"{id}\",\"ns_per_iter\":{med:.3},\"ns_min\":{min:.3},\"ns_max\":{max:.3}}}\n"
        ));
    }
    lines.push_str(&format!(
        "{{\"id\":\"trace/enabled_overhead_pct\",\"value\":{enabled_pct:.3}}}\n"
    ));

    let out = std::env::var("BLUEDBM_BENCH_JSON").ok();
    match out.as_deref().and_then(baseline_ns) {
        Some(base) if !smoke() => {
            let pct = (off_min / base - 1.0) * 100.0;
            let verdict = if pct <= 2.0 { "OK" } else { "WARN" };
            println!(
                "trace/disabled_overhead_vs_baseline_pct: {pct:+.2}% \
                 (fastest run vs fastest kv_million_seq sample, {base:.0} ns) \
                 — {verdict} (bar: ≤2%)"
            );
            lines.push_str(&format!(
                "{{\"id\":\"trace/disabled_overhead_vs_baseline_pct\",\"value\":{pct:.3}}}\n"
            ));
        }
        Some(_) => println!("smoke run: baseline comparison skipped (scaled workload)"),
        None => println!("no kv_million_seq row in this run; overhead-vs-baseline row skipped"),
    }

    if let Some(path) = out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(lines.as_bytes()))
            .unwrap_or_else(|e| panic!("appending trace overhead rows to {path}: {e}"));
    }
}
