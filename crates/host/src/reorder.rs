//! The "vector of FIFOs" burst-reassembly buffer (paper Figure 7).
//!
//! Flash data arrives at the DMA engine interleaved: bursts for different
//! read buffers mix freely because chips on multiple buses (or remote
//! nodes) complete out of order. A DMA burst, however, needs contiguous
//! data. The hardware solves this with a dual-ported buffer that behaves
//! like one FIFO per read buffer; a burst is eligible for DMA once its
//! FIFO holds at least one full DMA burst of data.
//!
//! This module is a standalone functional model of that structure. No
//! DES component uses it: the simulated read path hands whole pages to
//! [`crate::pcie::PcieLink`], and only this module's tests and the
//! workspace's chunking property test drive the queue.

/// An event produced by [`ReorderQueue::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstReady {
    /// Which page buffer the burst belongs to.
    pub buffer: u16,
    /// Bytes to DMA (a full burst, or the final partial burst of a page).
    pub bytes: u32,
    /// `true` when this burst completes the buffer's page.
    pub completes_page: bool,
}

/// Per-buffer FIFO accumulation state.
#[derive(Clone, Debug, Default)]
struct Fifo {
    /// Bytes received and not yet emitted as bursts.
    pending: u32,
    /// Bytes emitted so far for the current page.
    emitted: u32,
}

/// Vector-of-FIFOs reassembly for one DMA engine.
///
/// # Examples
///
/// ```rust
/// use bluedbm_host::reorder::ReorderQueue;
///
/// let mut rq = ReorderQueue::new(4, 128, 256); // 4 buffers, 128B bursts, 256B pages
/// assert!(rq.push(0, 64).is_empty());          // not enough for a burst yet
/// let bursts = rq.push(0, 64);
/// assert_eq!(bursts.len(), 1);
/// assert_eq!(bursts[0].bytes, 128);
/// assert!(!bursts[0].completes_page);
/// ```
#[derive(Clone, Debug)]
pub struct ReorderQueue {
    fifos: Vec<Fifo>,
    burst_bytes: u32,
    page_bytes: u32,
    /// Total bursts emitted.
    bursts: u64,
    /// Pages completed.
    pages: u64,
}

impl ReorderQueue {
    /// Create a queue over `buffers` page buffers with the given DMA
    /// burst size and page size.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or `burst_bytes > page_bytes`.
    pub fn new(buffers: usize, burst_bytes: u32, page_bytes: u32) -> Self {
        assert!(buffers > 0 && burst_bytes > 0 && page_bytes >= burst_bytes);
        ReorderQueue {
            fifos: vec![Fifo::default(); buffers],
            burst_bytes,
            page_bytes,
            bursts: 0,
            pages: 0,
        }
    }

    /// Record `bytes` arriving for `buffer`; returns the DMA bursts that
    /// became eligible (possibly several, possibly none).
    ///
    /// # Panics
    ///
    /// Panics if `buffer` is out of range or the page would overflow
    /// (more bytes pushed than `page_bytes` before [`Self::reset`]).
    pub fn push(&mut self, buffer: u16, bytes: u32) -> Vec<BurstReady> {
        let page_bytes = self.page_bytes;
        let burst = self.burst_bytes;
        let fifo = &mut self.fifos[buffer as usize];
        fifo.pending += bytes;
        assert!(
            fifo.emitted + fifo.pending <= page_bytes,
            "buffer {buffer} overflows its page"
        );
        let mut out = Vec::new();
        // Emit full bursts.
        while fifo.pending >= burst {
            fifo.pending -= burst;
            fifo.emitted += burst;
            out.push(BurstReady {
                buffer,
                bytes: burst,
                completes_page: fifo.emitted == page_bytes,
            });
        }
        // Emit a final partial burst when the page tail is in.
        if fifo.pending > 0 && fifo.emitted + fifo.pending == page_bytes {
            let bytes = fifo.pending;
            fifo.pending = 0;
            fifo.emitted = page_bytes;
            out.push(BurstReady {
                buffer,
                bytes,
                completes_page: true,
            });
        }
        self.bursts += out.len() as u64;
        self.pages += out.iter().filter(|b| b.completes_page).count() as u64;
        out
    }

    /// Bytes sitting in `buffer`'s FIFO awaiting a full burst.
    pub fn pending(&self, buffer: u16) -> u32 {
        self.fifos[buffer as usize].pending
    }

    /// Reset a buffer for its next page (after the software consumed it).
    pub fn reset(&mut self, buffer: u16) {
        self.fifos[buffer as usize] = Fifo::default();
    }

    /// Total bursts emitted.
    pub fn bursts_emitted(&self) -> u64 {
        self.bursts
    }

    /// Total pages completed.
    pub fn pages_completed(&self) -> u64 {
        self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_buffers_do_not_mix() {
        let mut rq = ReorderQueue::new(2, 128, 256);
        // Interleave sub-burst chunks for two buffers.
        assert!(rq.push(0, 100).is_empty());
        assert!(rq.push(1, 100).is_empty());
        let b0 = rq.push(0, 28);
        assert_eq!(
            b0,
            vec![BurstReady {
                buffer: 0,
                bytes: 128,
                completes_page: false
            }]
        );
        let b1 = rq.push(1, 156);
        assert_eq!(b1.len(), 2);
        assert_eq!(b1[0].buffer, 1);
        assert!(b1[1].completes_page);
        assert_eq!(rq.pending(1), 0);
    }

    #[test]
    fn page_tail_flushes_partial_burst() {
        let mut rq = ReorderQueue::new(1, 128, 300);
        let out = rq.push(0, 300);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].bytes, 128);
        assert_eq!(out[1].bytes, 128);
        assert_eq!(out[2].bytes, 44);
        assert!(out[2].completes_page);
        assert_eq!(rq.pages_completed(), 1);
        assert_eq!(rq.bursts_emitted(), 3);
    }

    #[test]
    fn reset_allows_next_page() {
        let mut rq = ReorderQueue::new(1, 128, 128);
        assert_eq!(rq.push(0, 128).len(), 1);
        rq.reset(0);
        assert_eq!(rq.push(0, 128).len(), 1);
        assert_eq!(rq.pages_completed(), 2);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflow_detected() {
        let mut rq = ReorderQueue::new(1, 128, 128);
        rq.push(0, 128);
        rq.push(0, 1);
    }

    #[test]
    fn many_tiny_chunks_accumulate() {
        let mut rq = ReorderQueue::new(1, 128, 8192);
        let mut bursts = 0;
        for _ in 0..512 {
            bursts += rq.push(0, 16).len();
        }
        assert_eq!(bursts, 64);
        assert_eq!(rq.pages_completed(), 1);
    }
}
