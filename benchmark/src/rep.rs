//! What one repetition of a workload produces, and the helpers the
//! workloads share to fill it.

use crate::layers::{Layers, Wall};
use crate::spans::Tracer;

/// One repetition: a fresh cluster, set up, loaded, measured, checked.
pub struct Rep {
    /// Host seconds to build the cluster.
    pub build_s: f64,
    /// Host seconds of each batch (or wave) of the load phase.
    pub load_batches_s: Vec<f64>,
    /// Host seconds of each batch (or round) of the measured phase: the
    /// calls into the program, the benchmark's own checks excluded.
    pub measured_batches_s: Vec<f64>,
    /// Resident memory when set-up began, MiB: the benchmark's own
    /// inputs and oracle, already in place. The peak-resident counter
    /// is reset at the same moment.
    pub base_rss_mb: f64,
    /// Ops completed in the measured phase.
    pub measured_ops: u64,
    /// Ops whose outcome the benchmark checked, set-up included.
    pub checked_ops: u64,
    pub failures: Failures,
    /// Simulated latency of the measured phase's reads (gets, page
    /// reads), picoseconds.
    pub reads_ps: Vec<u64>,
    /// Simulated latency of the measured phase's puts, picoseconds.
    pub writes_ps: Vec<u64>,
    /// Simulated time the measured phase spanned, picoseconds.
    pub sim_elapsed_ps: u64,
    /// Order-independent digest of every completion.
    pub digest: u64,
    pub layers: Layers,
    /// Worker-lane wall profile over the measured phase.
    pub wall: Wall,
    pub tracer: Tracer,
}

impl Rep {
    pub fn load_s(&self) -> f64 {
        self.load_batches_s.iter().sum()
    }

    pub fn measured_s(&self) -> f64 {
        self.measured_batches_s.iter().sum()
    }
}

/// Failed or wrong ops: a count and the first few descriptions.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.first.len() < 5 {
            self.first.push(what());
        }
    }
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Add one completion's fields to an order-independent digest: each
/// completion hashes alone and the hashes are summed.
pub fn fold(digest: &mut u64, fields: &[u64]) {
    let h = fields
        .iter()
        .fold(0x9e37_79b9_7f4a_7c15u64, |h, &f| mix(h ^ f));
    *digest = digest.wrapping_add(h);
}

/// A workload seed mixed with a per-purpose tag, so the streams a run
/// derives from one `--seed` are independent.
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix(seed ^ mix(tag))
}
