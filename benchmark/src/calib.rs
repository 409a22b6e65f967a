//! Host-speed reference, so that host times taken on different
//! stretches of a drifting host compare.
//!
//! The host this benchmark was tuned on changes speed by tens of percent
//! over minutes, for every workload at once, and the change cannot be
//! seen from inside the machine: there is no steal time, and CPU time
//! equals wall time. A run therefore also runs a fixed reference kernel
//! after every repetition and scales every host time it reports by
//! [`NOMINAL_S`] over the kernel's time: the figures read as on a host
//! where the kernel takes [`NOMINAL_S`]. The kernel's time is taken the
//! way the workloads' host times are: it is timed in fixed chunks, and
//! each chunk counts at its fastest over the run. The kernel does the
//! simulator's kind of work (a binary-heap event queue, hash-map
//! updates, scattered writes into a large vector) but shares no code
//! with the program, so a change to the program does not move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use bluedbm_sim::fxhash::FxHashMap;
use bluedbm_sim::Rng;

use crate::spans::host_clock;

/// A round figure near the kernel's time on the host the bounds were
/// set on (a 2-vCPU Xeon virtual machine), seconds.
pub const NOMINAL_S: f64 = 0.09;

/// Run the reference kernel once; returns the host seconds of each of
/// its chunks. Every call does the same work, chunk for chunk.
pub fn kernel_chunks_s() -> Vec<f64> {
    const CHUNKS: u64 = 250;
    const STEPS_PER_CHUNK: u64 = 1_000;
    let mut rng = Rng::new(0x0ca1_1b4a_7e00);
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..65_536)
        .map(|id| Reverse((rng.below(1 << 20), id)))
        .collect();
    let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
    let mut cells = vec![0u64; 1 << 20];
    let mut acc = 0u64;
    let mut chunks = Vec::with_capacity(CHUNKS as usize);
    for c in 0..CHUNKS {
        let t = host_clock();
        // Pop the earliest event, count a random key, scatter a write,
        // schedule the event again.
        for i in 0..STEPS_PER_CHUNK {
            let Reverse((at, id)) = queue.pop().expect("the queue never empties");
            let count = counts.entry(rng.below(300_000)).or_insert(0);
            *count += 1;
            acc = acc.wrapping_add(*count);
            let cell = (acc.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as usize;
            cells[cell] = cells[cell].wrapping_add(c * STEPS_PER_CHUNK + i);
            queue.push(Reverse((at + rng.below(1 << 20), id)));
        }
        black_box(acc);
        chunks.push(t.elapsed().as_secs_f64());
    }
    black_box(&cells);
    chunks
}
