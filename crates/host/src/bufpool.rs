//! Page buffer pools (paper Section 3.3).
//!
//! "The host interface provides the software with 128 page buffers, each
//! for reads and writes. When writing a page, the software will request a
//! free write buffer, copy data to the write buffer, and send a write
//! request over RPC ... The buffer will be returned to the free queue
//! when the hardware has finished reading the data from the buffer."
//!
//! Since the handle-based payload refactor the actual bytes live in the
//! simulator-owned [`PageStore`]; [`BufferPool`] is the **capacity view**
//! over that shared store: it enforces the paper's fixed budget (128
//! buffers per direction) and free-queue discipline on top of the
//! store's unbounded slab. A pool either *allocates* pages from the
//! store (the write direction: software grabs a buffer and fills it) or
//! *adopts* pages that already exist (the read direction: hardware
//! produced the page and needs a host buffer slot to land it in); both
//! count against the same capacity, and exhaustion surfaces as `None` /
//! `false` so callers stall exactly like the paper's software does.

use bluedbm_sim::pagestore::{PageRef, PageStore};

/// A fixed-capacity buffer-accounting view over the shared [`PageStore`],
/// with free-queue discipline.
///
/// # Examples
///
/// ```rust
/// use bluedbm_host::bufpool::BufferPool;
/// use bluedbm_sim::PageStore;
///
/// let mut store = PageStore::new();
/// let mut pool = BufferPool::new(2);
/// let a = pool.alloc_from(&mut store, b"first page").unwrap();
/// let _b = pool.alloc(&mut store, 8192).unwrap();
/// assert!(pool.alloc(&mut store, 8192).is_none()); // exhausted
/// pool.free(&mut store, a);
/// assert_eq!(pool.available(), 1);
/// ```
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Pages currently charged to this pool. At most `capacity` (128 in
    /// the paper) entries, so membership checks are a linear scan over a
    /// dense 8-byte-element `Vec` — no hashing on the per-page DMA path.
    held: Vec<PageRef>,
    /// High-water mark of simultaneous allocations.
    peak_in_use: usize,
    /// Allocation/adoption attempts that found the pool empty.
    exhaustions: u64,
}

impl BufferPool {
    /// The paper's pool size: 128 buffers per direction.
    pub const PAPER_BUFFERS: usize = 128;

    /// A pool of `n` buffers, all free.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a buffer pool needs at least one buffer");
        BufferPool {
            capacity: n,
            held: Vec::with_capacity(n),
            peak_in_use: 0,
            exhaustions: 0,
        }
    }

    /// A 128-buffer pool, as in the paper.
    pub fn paper() -> Self {
        Self::new(Self::PAPER_BUFFERS)
    }

    /// Total buffers in the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently free buffers.
    pub fn available(&self) -> usize {
        self.capacity - self.held.len()
    }

    /// Pages currently charged to the pool.
    pub fn in_use(&self) -> usize {
        self.held.len()
    }

    /// `true` if `page` is currently charged to this pool.
    pub fn holds(&self, page: PageRef) -> bool {
        self.held.contains(&page)
    }

    /// The one capacity gate: `false` (and an exhaustion tick) when no
    /// buffer is free.
    fn has_free_buffer(&mut self) -> bool {
        if self.held.len() >= self.capacity {
            self.exhaustions += 1;
            return false;
        }
        true
    }

    fn charge(&mut self, page: PageRef) {
        debug_assert!(!self.holds(page), "page {page:?} charged twice");
        self.held.push(page);
        self.peak_in_use = self.peak_in_use.max(self.held.len());
    }

    /// Grab a free buffer of `len` bytes from the store (contents
    /// unspecified — the caller fills it). `None` when exhausted.
    pub fn alloc(&mut self, store: &mut PageStore, len: usize) -> Option<PageRef> {
        if !self.has_free_buffer() {
            return None;
        }
        let page = store.alloc(len);
        self.charge(page);
        Some(page)
    }

    /// Grab a free buffer and copy `data` into it — the paper's "request
    /// a free write buffer, copy data to the write buffer" step. `None`
    /// when exhausted.
    pub fn alloc_from(&mut self, store: &mut PageStore, data: &[u8]) -> Option<PageRef> {
        let page = self.alloc(store, data.len())?;
        store.get_mut(page).copy_from_slice(data);
        Some(page)
    }

    /// Charge an *existing* page against this pool's capacity — the read
    /// direction, where the hardware produced the page and needs a host
    /// buffer slot to land it in. Returns `false` (and counts an
    /// exhaustion) when no buffer is free; the page is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the page is already charged to this pool.
    pub fn adopt(&mut self, page: PageRef) -> bool {
        assert!(!self.holds(page), "page {page:?} adopted twice");
        if !self.has_free_buffer() {
            return false;
        }
        self.charge(page);
        true
    }

    /// Return a buffer slot without freeing the underlying page (the
    /// page's ownership moves on, e.g. to the consumer that will copy it
    /// out).
    ///
    /// # Panics
    ///
    /// Panics if `page` is not charged to this pool — a double free or a
    /// foreign handle, both protocol bugs in the caller.
    pub fn release(&mut self, page: PageRef) {
        let at = self
            .held
            .iter()
            .position(|&h| h == page)
            .unwrap_or_else(|| panic!("double free of buffer {page:?}"));
        self.held.swap_remove(at);
    }

    /// Return the buffer slot *and* free the page in the store — the
    /// "returned to the free queue" step once the consumer is done with
    /// the bytes.
    ///
    /// # Panics
    ///
    /// As for [`release`](Self::release).
    pub fn free(&mut self, store: &mut PageStore, page: PageRef) {
        self.release(page);
        store.free(page);
    }

    /// Highest simultaneous allocation count seen.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Times an allocation or adoption found the pool empty.
    pub fn exhaustions(&self) -> u64 {
        self.exhaustions
    }

    /// Write the pool's occupancy counters into a metrics subtree (for
    /// the unified `bluedbm_trace::MetricsRegistry`).
    pub fn fill_metrics(&self, node: &mut bluedbm_trace::MetricsNode) {
        node.set("capacity", self.capacity);
        node.set("in_use", self.in_use());
        node.set("peak_in_use", self.peak_in_use);
        node.set("exhaustions", self.exhaustions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut store = PageStore::new();
        let mut p = BufferPool::new(2);
        let a = p.alloc_from(&mut store, &[1, 2]).unwrap();
        let b = p.alloc(&mut store, 4).unwrap();
        assert_eq!(p.available(), 0);
        assert!(p.alloc(&mut store, 4).is_none());
        assert_eq!(p.exhaustions(), 1);
        assert_eq!(store.get(a), &[1, 2]);
        p.free(&mut store, a);
        let c = p.alloc(&mut store, 4).unwrap();
        assert!(p.holds(c));
        p.free(&mut store, b);
        p.free(&mut store, c);
        assert_eq!(p.available(), 2);
        assert_eq!(p.peak_in_use(), 2);
        store.assert_quiescent();
    }

    #[test]
    fn paper_pool_has_128() {
        let p = BufferPool::paper();
        assert_eq!(p.capacity(), 128);
    }

    #[test]
    fn adoption_counts_against_capacity() {
        let mut store = PageStore::new();
        let mut p = BufferPool::new(2);
        // Hardware-produced pages (not allocated through the pool).
        let x = store.alloc_from(&[9]);
        let y = store.alloc_from(&[8]);
        let z = store.alloc_from(&[7]);
        assert!(p.adopt(x));
        assert!(p.adopt(y));
        assert!(!p.adopt(z), "third adoption must find the pool empty");
        assert_eq!(p.exhaustions(), 1);
        p.release(x);
        assert!(p.adopt(z));
        // Release does not free store pages; callers own that step.
        for page in [x, y, z] {
            store.free(page);
        }
        store.assert_quiescent();
    }

    /// Paper Section 3.3 end to end: a host software driver bursts 300
    /// page writes at the PCIe link but owns only 128 write buffers.
    /// Allocation beyond the pool stalls (the software waits on the free
    /// queue); every completion returns its buffer and un-stalls exactly
    /// one queued write; the burst drains fully and the shared store is
    /// quiescent afterwards.
    #[test]
    fn write_burst_beyond_128_stalls_and_recovers() {
        use crate::msg::{HostMsg, HostProtocol};
        use crate::pcie::{Direction, PcieLink, PcieParams, PcieXfer};
        use bluedbm_sim::engine::{Component, ComponentId, Ctx, Simulator};
        use bluedbm_sim::time::SimTime;

        const TOTAL_WRITES: u64 = 300;
        const PAGE: usize = 8192;

        /// Host + a kick to start the driver.
        enum TestMsg {
            Host(HostMsg<PageRef>),
            Kick,
        }
        impl From<HostMsg<PageRef>> for TestMsg {
            fn from(m: HostMsg<PageRef>) -> Self {
                TestMsg::Host(m)
            }
        }
        impl HostProtocol for TestMsg {
            type Body = PageRef;
            fn into_host(self) -> HostMsg<PageRef> {
                match self {
                    TestMsg::Host(m) => m,
                    TestMsg::Kick => panic!("kick delivered to the link"),
                }
            }
        }

        struct WriteDriver {
            link: ComponentId,
            pool: BufferPool,
            remaining: u64,
            completed: u64,
            next_token: u64,
        }

        impl WriteDriver {
            /// Issue writes until the burst is done or the free queue is
            /// empty — the paper's "request a free write buffer" loop.
            fn pump(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                while self.remaining > 0 {
                    let Some(buffer) = self.pool.alloc(ctx.pages(), PAGE) else {
                        return; // stalled on the free queue
                    };
                    ctx.pages().get_mut(buffer)[0] = self.remaining as u8;
                    self.remaining -= 1;
                    let token = self.next_token;
                    self.next_token += 1;
                    let me = ctx.self_id();
                    ctx.send(
                        self.link,
                        SimTime::ZERO,
                        HostMsg::Xfer(PcieXfer::new(
                            Direction::HostToDevice,
                            PAGE as u32,
                            me,
                            token,
                            buffer,
                        )),
                    );
                }
            }
        }

        impl Component<TestMsg> for WriteDriver {
            fn handle(&mut self, ctx: &mut Ctx<'_, TestMsg>, msg: TestMsg) {
                match msg {
                    TestMsg::Kick => self.pump(ctx),
                    TestMsg::Host(HostMsg::Done(done)) => {
                        // "The buffer will be returned to the free queue
                        // when the hardware has finished reading the
                        // data from the buffer."
                        self.pool.free(ctx.pages(), done.body);
                        self.completed += 1;
                        self.pump(ctx);
                    }
                    TestMsg::Host(other) => {
                        panic!("driver got an unexpected message: {}", other.kind())
                    }
                }
            }
        }

        let mut sim = Simulator::<TestMsg>::new();
        let link = sim.add_component(PcieLink::new(PcieParams::paper()));
        let driver = sim.add_component(WriteDriver {
            link,
            pool: BufferPool::paper(),
            remaining: TOTAL_WRITES,
            completed: 0,
            next_token: 0,
        });
        sim.schedule(SimTime::ZERO, driver, TestMsg::Kick);
        sim.run();

        let d = sim.component::<WriteDriver>(driver).unwrap();
        assert_eq!(d.completed, TOTAL_WRITES, "the whole burst drains");
        assert_eq!(
            d.pool.peak_in_use(),
            BufferPool::PAPER_BUFFERS,
            "the burst saturates exactly the paper's 128 buffers"
        );
        assert!(
            d.pool.exhaustions() > 0,
            "a 300-write burst must hit the free-queue limit"
        );
        assert_eq!(d.pool.available(), BufferPool::PAPER_BUFFERS);
        sim.page_store().assert_quiescent();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut store = PageStore::new();
        let mut p = BufferPool::new(2);
        let a = p.alloc(&mut store, 4).unwrap();
        p.free(&mut store, a);
        p.release(a);
    }

    #[test]
    fn all_buffers_usable_and_distinct() {
        let mut store = PageStore::new();
        let mut p = BufferPool::new(128);
        let got: Vec<PageRef> = (0..128).map(|_| p.alloc(&mut store, 16).unwrap()).collect();
        let mut idx: Vec<u32> = got.iter().map(|r| r.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 128);
        assert!(p.alloc(&mut store, 16).is_none());
        for page in got {
            p.free(&mut store, page);
        }
        store.assert_quiescent();
    }
}
