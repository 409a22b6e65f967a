//! End-to-end and per-layer benchmark of the BlueDBM simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <kv_zipf_read|kv_overwrite_gc|fabric_scatter> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The run repeats the workload (fresh
//! cluster, set-up, measured phase, checks) until `--seconds` have passed.
//! Host times take each batch at its fastest over the repetitions and
//! are scaled to a nominal host speed (see `calib`); the simulated
//! figures are the same in every repetition. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced repetitions and reports the per-layer metrics.
//! The run record (metadata, problems, every metric by name and unit) is
//! printed as JSON; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every output checked out. See `README.md`.

mod calib;
mod kv;
mod layers;
mod meta;
mod rep;
mod scatter;
mod spans;

use std::fs;
use std::path::Path;

use bluedbm_sim::MetricsRegistry;
use rep::Rep;
use spans::host_clock;

/// Where runs leave their records, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

enum Workload {
    Kv(Box<kv::KvWorkload>),
    Scatter(scatter::Scatter),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "kv_zipf_read" => Workload::Kv(Box::new(kv::zipf_read(seed))),
            "kv_overwrite_gc" => Workload::Kv(Box::new(kv::overwrite_gc(seed))),
            "fabric_scatter" => Workload::Scatter(scatter::fabric_scatter(seed)),
            _ => return None,
        })
    }

    fn run(&self, traced: bool) -> Rep {
        match self {
            Workload::Kv(w) => w.run(traced),
            Workload::Scatter(w) => w.run(traced),
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Count, p50 and p999 of a latency sample, picoseconds.
fn summary(samples: &[u64]) -> Option<(usize, u64, u64)> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    (!s.is_empty()).then(|| (s.len(), percentile(&s, 0.5), percentile(&s, 0.999)))
}

/// Everything about a repetition that the model determines: two runs of
/// the same code and seed must produce the same string.
fn deterministic_record(rep: &Rep) -> String {
    format!(
        "events={} digest={:016x} measured_ops={} checked_ops={} reads={:?} writes={:?} \
         sim_elapsed_ps={} layers={:?}",
        rep.layers.delta.events,
        rep.digest,
        rep.measured_ops,
        rep.checked_ops,
        summary(&rep.reads_ps),
        summary(&rep.writes_ps),
        rep.sim_elapsed_ps,
        rep.layers,
    )
}

/// Host seconds of work done several times over, at its least
/// disturbed: `runs` time the same slices of work (batches, chunks) in
/// the same order, so each slice counts at its fastest over the runs and
/// the result is the sum. A busy stretch of the host that spares one run
/// of each slice leaves the figure unchanged.
fn fastest_sum(runs: &[&[f64]]) -> f64 {
    let n = runs.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// One phase of the repetitions by [`fastest_sum`] over its batches.
/// Every repetition of a run does the same batches; the determinism
/// check holds them to it.
fn best_s(reps: &[&Rep], batches: fn(&Rep) -> &[f64]) -> f64 {
    fastest_sum(&reps.iter().map(|r| batches(r)).collect::<Vec<_>>())
}

fn load_batches(r: &Rep) -> &[f64] {
    &r.load_batches_s
}

fn measured_batches(r: &Rep) -> &[f64] {
    &r.measured_batches_s
}

/// Host seconds of set-up at its least disturbed: the fastest build plus
/// the load phase by [`best_s`].
fn best_setup_s(reps: &[&Rep]) -> (f64, f64) {
    let build = reps.iter().map(|r| r.build_s).fold(f64::INFINITY, f64::min);
    (build, best_s(reps, load_batches))
}

/// `peak_rss_mb` is the growth of the resident set over the first
/// repetition, from the start of its set-up to its peak, so it counts
/// neither the benchmark's own inputs nor later repetitions. `scale`
/// turns host seconds into nominal-host seconds (see `calib`).
fn end_to_end(reps: &[Rep], peak_rss_mb: f64, scale: f64) -> Vec<Metric> {
    let first = &reps[0];
    let all: Vec<&Rep> = reps.iter().collect();
    let (build_s, load_s) = best_setup_s(&all);
    let mut m = vec![
        Metric {
            name: "host_ops_per_s",
            value: first.measured_ops as f64 / (best_s(&all, measured_batches) * scale),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: (build_s + load_s) * scale,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MiB",
        },
    ];
    if !first.reads_ps.is_empty() {
        let total: u128 = first.reads_ps.iter().map(|&ps| u128::from(ps)).sum();
        m.push(Metric {
            name: "sim_read_mean_us",
            value: total as f64 / first.reads_ps.len() as f64 / 1e6,
            unit: "us",
        });
    }
    m.push(Metric {
        name: "sim_ops_per_s",
        value: first.measured_ops as f64 / (first.sim_elapsed_ps.max(1) as f64 * 1e-12),
        unit: "1/s",
    });
    m
}

/// Host-time span names and the per-layer metric each feeds.
const SPAN_METRICS: [(&str, &str); 6] = [
    ("workloads.kvgen", "workloads.kvgen_s"),
    ("core.kvstore.submit", "core.kvstore.submit_s"),
    ("core.kvstore.drive", "core.kvstore.drive_s"),
    ("core.cluster.inject", "core.cluster.inject_s"),
    ("core.cluster.run", "core.cluster.run_s"),
    ("core.cluster.harvest", "core.cluster.harvest_s"),
];

/// Every host time here is in nominal-host seconds, like the end-to-end
/// metrics.
fn per_layer(reps: &[Rep], scale: f64) -> Vec<Metric> {
    let traced: Vec<&Rep> = reps.iter().filter(|r| !r.tracer.is_off()).collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.tracer.is_off()).collect();
    let own: Vec<_> = traced
        .iter()
        .map(|r| r.tracer.self_seconds_under("measure"))
        .collect();
    let mut m = Vec::new();
    for (span, name) in SPAN_METRICS {
        let value = median(
            own.iter()
                .map(|o| o.get(span).copied().unwrap_or(0.0))
                .collect(),
        );
        m.push(Metric {
            name,
            value: value * scale,
            unit: "s",
        });
    }
    let (build_s, load_s) = best_setup_s(&untraced);
    m.push(Metric {
        name: "core.cluster.build_s",
        value: build_s * scale,
        unit: "s",
    });
    m.push(Metric {
        name: "load_s",
        value: load_s * scale,
        unit: "s",
    });

    let l = &reps[0].layers;
    let d = &l.delta;
    let us = |ps: u64| ps as f64 / 1e6;
    let host_s = best_s(&untraced, measured_batches) * scale;
    let traced_s = best_s(&traced, measured_batches) * scale;
    let wall = |f: fn(&layers::Wall) -> u64| {
        median(traced.iter().map(|r| f(&r.wall) as f64 * 1e-9).collect()) * scale
    };
    let (reads, read_p50, read_p999) = summary(&reps[0].reads_ps).unwrap_or_default();
    let (writes, write_p50, write_p999) = summary(&reps[0].writes_ps).unwrap_or_default();
    let counts: [(&'static str, f64, &'static str); 39] = [
        ("latency.read_samples", reads as f64, "count"),
        ("latency.read_p50_us", us(read_p50), "us"),
        ("latency.read_p999_us", us(read_p999), "us"),
        ("latency.write_samples", writes as f64, "count"),
        ("latency.write_p50_us", us(write_p50), "us"),
        ("latency.write_p999_us", us(write_p999), "us"),
        ("sim.events", d.events as f64, "count"),
        (
            "sim.host_ns_per_event",
            host_s * 1e9 / d.events.max(1) as f64,
            "ns",
        ),
        ("sim.sync_rounds", d.sync_rounds as f64, "count"),
        ("sim.shard.spin_s", wall(|w| w.spin_ns), "s"),
        ("sim.shard.park_s", wall(|w| w.park_ns), "s"),
        ("sim.shard.execute_s", wall(|w| w.execute_ns), "s"),
        ("net.forwarded", d.net_forwarded as f64, "count"),
        ("net.delivered_bytes", d.net_delivered_bytes as f64, "bytes"),
        ("net.credit_stalls", d.net_credit_stalls as f64, "count"),
        ("net.latency_p50_us", us(l.net_latency_p50_ps), "us"),
        ("flash.read_p50_us", us(l.flash_read_p50_ps), "us"),
        ("flash.read_p999_us", us(l.flash_read_p999_ps), "us"),
        ("flash.tag_stalls", d.flash_tag_stalls as f64, "count"),
        (
            "flash.peak_in_flight",
            l.flash_peak_in_flight as f64,
            "count",
        ),
        (
            "core.agent.remote_reads",
            d.agent_remote_reads as f64,
            "count",
        ),
        (
            "core.agent.local_reads",
            d.agent_local_reads as f64,
            "count",
        ),
        (
            "core.agent.parked_pages",
            d.agent_parked_pages as f64,
            "count",
        ),
        (
            "host.bufpool.exhaustions",
            d.bufpool_exhaustions as f64,
            "count",
        ),
        (
            "host.bufpool.peak_in_use",
            l.bufpool_peak_in_use as f64,
            "count",
        ),
        ("core.accel.submitted", d.accel_submitted as f64, "count"),
        ("core.accel.parked", d.accel_parked as f64, "count"),
        (
            "core.accel.peak_parked",
            l.accel_peak_parked as f64,
            "count",
        ),
        ("core.accel.wait_total_us", us(d.accel_wait_total_ps), "us"),
        ("core.accel.wait_max_us", us(l.accel_wait_max_ps), "us"),
        (
            "core.kvstore.gate_wait_total_us",
            us(d.kv_gate_wait_total_ps),
            "us",
        ),
        (
            "core.kvstore.gate_wait_max_us",
            us(l.kv_gate_wait_max_ps),
            "us",
        ),
        (
            "core.kvstore.get_hit_frac",
            d.kv_get_hits as f64 / d.kv_gets.max(1) as f64,
            "ratio",
        ),
        ("ftl.host_writes", d.ftl_host_writes as f64, "count"),
        ("ftl.gc_writes", d.ftl_gc_writes as f64, "count"),
        ("ftl.erases", d.ftl_erases as f64, "count"),
        ("ftl.wear_spread", l.ftl_wear_spread as f64, "count"),
        ("core.gc_agent.rounds", d.gc_rounds as f64, "count"),
        ("core.gc_agent.moves", d.gc_moves as f64, "count"),
    ];
    m.extend(
        counts
            .into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit }),
    );
    // Write amplification of the measured phase alone; 0 when it
    // programmed nothing.
    let wa = if d.ftl_host_writes == 0 {
        0.0
    } else {
        (d.ftl_host_writes + d.ftl_gc_writes) as f64 / d.ftl_host_writes as f64
    };
    m.push(Metric {
        name: "ftl.wa",
        value: wa,
        unit: "ratio",
    });
    m.push(Metric {
        name: "trace.overhead_frac",
        value: traced_s / host_s - 1.0,
        unit: "ratio",
    });
    m
}

/// Each workload must exercise its own mechanism and bypass the others;
/// returns what does not hold.
fn isolation_check(workload: &str, m: &[Metric]) -> Vec<String> {
    let get = |name: &str| {
        m.iter()
            .find(|x| x.name == name)
            .map_or(f64::NAN, |x| x.value)
    };
    let rules: &[(&str, bool)] = match workload {
        "kv_zipf_read" => &[
            ("ftl.erases == 0", get("ftl.erases") == 0.0),
            (
                "core.accel.submitted > 0",
                get("core.accel.submitted") > 0.0,
            ),
        ],
        "kv_overwrite_gc" => &[
            ("ftl.erases > 0", get("ftl.erases") > 0.0),
            ("ftl.wa > 1.2", get("ftl.wa") > 1.2),
        ],
        "fabric_scatter" => &[
            (
                "host.bufpool.peak_in_use > 0",
                get("host.bufpool.peak_in_use") > 0.0,
            ),
            (
                "no KV-driver time",
                get("core.kvstore.submit_s") == 0.0 && get("core.kvstore.drive_s") == 0.0,
            ),
            (
                "core.accel.submitted == 0",
                get("core.accel.submitted") == 0.0,
            ),
            ("ftl.erases == 0", get("ftl.erases") == 0.0),
        ],
        _ => &[],
    };
    rules
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(rule, _)| format!("layer-isolation check failed: {rule}"))
        .collect()
}

/// Compare this run's deterministic record with the one stored for the
/// same workload, seed and source tree, storing it if there is none.
fn determinism_file(
    dir: &Path,
    workload: &str,
    seed: u64,
    source: u64,
    record: &str,
) -> Result<(), String> {
    let path = dir.join(format!("{workload}-seed{seed}.txt"));
    let line = format!("{source:016x} {record}\n");
    match fs::read_to_string(&path) {
        Ok(prev) if prev.starts_with(&format!("{source:016x} ")) => {
            if prev == line {
                Ok(())
            } else {
                Err(format!(
                    "simulated results differ from an earlier run of the same code and seed ({})",
                    path.display()
                ))
            }
        }
        _ => {
            fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            fs::write(&path, line).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload {}: kv_zipf_read, kv_overwrite_gc or fabric_scatter",
            args.workload
        );
        std::process::exit(2);
    };
    let root = std::env::current_dir().expect("working directory");
    let out = root.join(OUT_DIR);

    // Repeat until the time is up; a traced run alternates untraced and
    // traced repetitions so both sides of the overhead ratio exist.
    let min_reps = if args.trace { 4 } else { 3 };
    let start = host_clock();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut ref_chunks: Vec<Vec<f64>> = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = workload.run(traced);
        if reps.is_empty() {
            peak_rss_mb = meta::peak_rss_mb() - rep.base_rss_mb;
        }
        ref_chunks.push(calib::kernel_chunks_s());
        eprintln!(
            "rep {}{}: setup {:.3} s, measured {:.3} s, reference {:.3} s, {} ops, {} failed",
            reps.len(),
            if traced { " (traced)" } else { "" },
            rep.build_s + rep.load_s(),
            rep.measured_s(),
            ref_chunks.last().map_or(0.0, |c| c.iter().sum()),
            rep.measured_ops,
            rep.failures.count
        );
        let failed = rep.failures.count > 0;
        reps.push(rep);
        if failed {
            break;
        }
    }
    let host_ref_s = fastest_sum(&ref_chunks.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let scale = calib::NOMINAL_S / host_ref_s;

    let mut problems: Vec<String> = reps
        .iter()
        .flat_map(|r| r.failures.first.iter().cloned())
        .collect();
    let record = deterministic_record(&reps[0]);
    let batches = |r: &Rep| (r.load_batches_s.len(), r.measured_batches_s.len());
    if reps
        .iter()
        .any(|r| deterministic_record(r) != record || batches(r) != batches(&reps[0]))
    {
        problems.push("repetitions of the same seed disagree on simulated results".into());
    }
    let source = meta::source(&root);
    if let Err(e) = determinism_file(
        &out.join("determinism"),
        &args.workload,
        args.seed,
        source.digest,
        &record,
    ) {
        problems.push(e);
    }

    let metrics = if args.trace {
        per_layer(&reps, scale)
    } else {
        end_to_end(&reps, peak_rss_mb, scale)
    };
    if args.trace {
        problems.extend(isolation_check(&args.workload, &metrics));
        if let Some(last) = reps.iter().rev().find(|r| !r.tracer.is_off()) {
            let path = out
                .join("spans")
                .join(format!("{}-seed{}.json", args.workload, args.seed));
            let written = fs::create_dir_all(path.parent().expect("parent"))
                .and_then(|()| fs::write(&path, last.tracer.to_chrome_json()));
            if let Err(e) = written {
                problems.push(format!("writing {}: {e}", path.display()));
            }
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.checked_ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failures.count).sum();
    let correct = problems.is_empty() && failed == 0;
    let (reads, writes) = (reps[0].reads_ps.len(), reps[0].writes_ps.len());

    // The run record: metadata, problems and metrics, printed and kept.
    let mut run = MetricsRegistry::new();
    run.scope("meta")
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("trace", u64::from(args.trace))
        .set("git_rev", meta::git_rev(&root))
        .set("source_digest", format!("{:016x}", source.digest))
        .set("src_lines", source.src_lines)
        .set("nproc", meta::nproc())
        .set("reps", reps.len())
        .set("host_ref_s", host_ref_s)
        .set("host_scale", scale)
        .set("ops_per_rep", reps[0].measured_ops)
        .set("read_samples", reads)
        .set("write_samples", writes)
        .set("sim_events_per_rep", reps[0].layers.delta.events)
        .set("digest", format!("{:016x}", reps[0].digest));
    let listed = run.scope("problems");
    for (i, p) in problems.iter().enumerate() {
        listed.set(&i.to_string(), p.as_str());
    }
    let mut result = MetricsRegistry::new();
    for m in &metrics {
        run.scope("metrics")
            .child(m.name)
            .set("value", m.value)
            .set("unit", m.unit);
        result
            .scope(m.name)
            .set("value", m.value)
            .set("unit", m.unit);
    }
    let run_json = run.snapshot().to_json_pretty();
    println!("{run_json}");

    let run_path = out.join("runs").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::create_dir_all(run_path.parent().expect("parent"))
        .and_then(|()| fs::write(&run_path, run_json + "\n"))
    {
        eprintln!("warning: could not write {}: {e}", run_path.display());
    }

    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        result.snapshot().to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::fastest_sum;

    #[test]
    fn fastest_sum_takes_each_slice_at_its_fastest() {
        let (a, b) = ([1.0, 5.0, 2.0], [3.0, 2.0]);
        assert_eq!(fastest_sum(&[&a, &b]), 3.0);
        assert_eq!(fastest_sum(&[]), 0.0);
    }
}
