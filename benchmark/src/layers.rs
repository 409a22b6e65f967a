//! Per-layer counts read from the simulator's public statistics.
//!
//! Additive counters are snapshotted after set-up and again after the
//! measured phase, and reported as the difference, so they describe the
//! measured work alone. Peaks, maxima and histogram percentiles are
//! cumulative over the whole repetition (set-up included): the program
//! keeps no history to subtract. Counts are summed over nodes and cards;
//! peaks and percentiles take the maximum, so a percentile is that of the
//! slowest component.

use bluedbm_core::{Cluster, KvStore, NodeId, TenantId};
use bluedbm_sim::WallLaneProfile;

/// Additive counters at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub events: u64,
    pub sync_rounds: u64,
    pub net_forwarded: u64,
    pub net_delivered_bytes: u64,
    pub net_credit_stalls: u64,
    pub flash_tag_stalls: u64,
    pub agent_remote_reads: u64,
    pub agent_local_reads: u64,
    pub agent_parked_pages: u64,
    pub bufpool_exhaustions: u64,
    pub accel_submitted: u64,
    pub accel_parked: u64,
    pub accel_wait_total_ps: u64,
    pub kv_gets: u64,
    pub kv_get_hits: u64,
    pub kv_gate_wait_total_ps: u64,
    pub ftl_host_writes: u64,
    pub ftl_gc_writes: u64,
    pub ftl_erases: u64,
    pub gc_rounds: u64,
    pub gc_moves: u64,
}

/// Host-time split of the sharded engine's worker lanes, in nanoseconds
/// summed over lanes (all zeros on the sequential engine or with the
/// wall profile off).
#[derive(Clone, Copy, Debug, Default)]
pub struct Wall {
    pub spin_ns: u64,
    pub park_ns: u64,
    pub execute_ns: u64,
}

/// Everything one repetition reports per layer, apart from host time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    pub delta: Counters,
    pub net_latency_p50_ps: u64,
    pub flash_read_p50_ps: u64,
    pub flash_read_p999_ps: u64,
    pub flash_peak_in_flight: u64,
    pub bufpool_peak_in_use: u64,
    pub accel_peak_parked: u64,
    pub accel_wait_max_ps: u64,
    pub kv_gate_wait_max_ps: u64,
    pub ftl_wear_spread: u64,
}

fn nodes(cluster: &Cluster) -> impl Iterator<Item = NodeId> {
    (0..cluster.node_count()).map(NodeId::from)
}

fn cards(cluster: &Cluster) -> impl Iterator<Item = (NodeId, usize)> + '_ {
    let per_node = cluster.config().flash.cards_per_node;
    nodes(cluster).flat_map(move |n| (0..per_node).map(move |c| (n, c)))
}

/// Read the additive counters; `tenants` is the KV tenant count (zero
/// for raw cluster workloads).
pub fn counters(cluster: &Cluster, store: Option<&KvStore>, tenants: u16) -> Counters {
    let mut c = Counters {
        events: cluster.events_delivered(),
        sync_rounds: cluster.sync_rounds().unwrap_or(0),
        ..Counters::default()
    };
    for n in nodes(cluster) {
        let r = cluster.router_stats(n);
        c.net_forwarded += r.forwarded;
        c.net_delivered_bytes += r.delivered_bytes;
        c.net_credit_stalls += r.credit_stalls;
        let a = cluster.agent_stats(n);
        c.agent_remote_reads += a.remote_reads;
        c.agent_local_reads += a.local_reads;
        c.agent_parked_pages += a.parked_pages;
        let s = cluster.sched_stats(n);
        c.accel_submitted += s.submitted;
        c.accel_parked += s.parked;
        c.accel_wait_total_ps += s.total_wait.as_ps();
        let g = cluster.gc_agent_stats(n);
        c.gc_rounds += g.rounds;
        c.gc_moves += g.moves;
    }
    for (n, card) in cards(cluster) {
        c.flash_tag_stalls += cluster.controller_stats(n, card).tag_stalls;
    }
    let doc = cluster.metrics();
    for n in 0..cluster.node_count() {
        c.bufpool_exhaustions += metric(&doc, &format!("nodes/node{n}/host_buffers/exhaustions"));
    }
    let gc = cluster.gc_stats();
    c.ftl_host_writes = gc.host_writes;
    c.ftl_gc_writes = gc.gc_writes;
    c.ftl_erases = gc.erases;
    if let Some(store) = store {
        for t in 0..tenants {
            let s = store.tenant_stats(t as TenantId);
            c.kv_gets += s.gets;
            c.kv_get_hits += s.get_hits;
            c.kv_gate_wait_total_ps += s.total_gate_wait.as_ps();
        }
    }
    c
}

fn metric(doc: &bluedbm_sim::MetricsDoc, path: &str) -> u64 {
    doc.get(path)
        .and_then(|v| v.as_int())
        .unwrap_or_else(|| panic!("metric {path} missing from Cluster::metrics()"))
}

/// The per-layer record of a repetition: counter differences since
/// `base` plus the cumulative peaks and percentiles.
pub fn layers(cluster: &Cluster, store: Option<&KvStore>, tenants: u16, base: &Counters) -> Layers {
    let now = counters(cluster, store, tenants);
    let delta = Counters {
        events: now.events - base.events,
        sync_rounds: now.sync_rounds - base.sync_rounds,
        net_forwarded: now.net_forwarded - base.net_forwarded,
        net_delivered_bytes: now.net_delivered_bytes - base.net_delivered_bytes,
        net_credit_stalls: now.net_credit_stalls - base.net_credit_stalls,
        flash_tag_stalls: now.flash_tag_stalls - base.flash_tag_stalls,
        agent_remote_reads: now.agent_remote_reads - base.agent_remote_reads,
        agent_local_reads: now.agent_local_reads - base.agent_local_reads,
        agent_parked_pages: now.agent_parked_pages - base.agent_parked_pages,
        bufpool_exhaustions: now.bufpool_exhaustions - base.bufpool_exhaustions,
        accel_submitted: now.accel_submitted - base.accel_submitted,
        accel_parked: now.accel_parked - base.accel_parked,
        accel_wait_total_ps: now.accel_wait_total_ps - base.accel_wait_total_ps,
        kv_gets: now.kv_gets - base.kv_gets,
        kv_get_hits: now.kv_get_hits - base.kv_get_hits,
        kv_gate_wait_total_ps: now.kv_gate_wait_total_ps - base.kv_gate_wait_total_ps,
        ftl_host_writes: now.ftl_host_writes - base.ftl_host_writes,
        ftl_gc_writes: now.ftl_gc_writes - base.ftl_gc_writes,
        ftl_erases: now.ftl_erases - base.ftl_erases,
        gc_rounds: now.gc_rounds - base.gc_rounds,
        gc_moves: now.gc_moves - base.gc_moves,
    };
    let mut l = Layers {
        delta,
        ftl_wear_spread: cluster.gc_stats().wear_spread,
        ..Layers::default()
    };
    let doc = cluster.metrics();
    for n in nodes(cluster) {
        let r = cluster.router_stats(n);
        if r.latency.count() > 0 {
            l.net_latency_p50_ps = l.net_latency_p50_ps.max(r.latency.percentile(0.5).as_ps());
        }
        let s = cluster.sched_stats(n);
        l.accel_peak_parked = l.accel_peak_parked.max(s.peak_parked);
        l.accel_wait_max_ps = l.accel_wait_max_ps.max(s.max_wait.as_ps());
        let peak = metric(
            &doc,
            &format!("nodes/node{}/host_buffers/peak_in_use", n.index()),
        );
        l.bufpool_peak_in_use = l.bufpool_peak_in_use.max(peak);
    }
    for (n, card) in cards(cluster) {
        let s = cluster.controller_stats(n, card);
        l.flash_peak_in_flight = l.flash_peak_in_flight.max(s.peak_in_flight as u64);
        if s.read_latency.count() > 0 {
            l.flash_read_p50_ps = l
                .flash_read_p50_ps
                .max(s.read_latency.percentile(0.5).as_ps());
            l.flash_read_p999_ps = l
                .flash_read_p999_ps
                .max(s.read_latency.percentile(0.999).as_ps());
        }
    }
    if let Some(store) = store {
        for t in 0..tenants {
            let s = store.tenant_stats(t as TenantId);
            l.kv_gate_wait_max_ps = l.kv_gate_wait_max_ps.max(s.max_gate_wait.as_ps());
        }
    }
    l
}

/// Sum the worker lanes' wall profiles (zeros on the sequential engine).
pub fn wall(cluster: &Cluster) -> Wall {
    let lanes: Vec<WallLaneProfile> = cluster.wall_profiles().unwrap_or_default();
    lanes.iter().fold(Wall::default(), |w, l| Wall {
        spin_ns: w.spin_ns + l.spin_ns,
        park_ns: w.park_ns + l.park_ns,
        execute_ns: w.execute_ns + l.execute_ns,
    })
}

impl Wall {
    pub fn since(self, base: Wall) -> Wall {
        Wall {
            spin_ns: self.spin_ns - base.spin_ns,
            park_ns: self.park_ns - base.park_ns,
            execute_ns: self.execute_ns - base.execute_ns,
        }
    }
}
