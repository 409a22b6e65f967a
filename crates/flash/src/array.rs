//! Functional NAND array: what the flash chips actually store.
//!
//! This is the synchronous truth layer under the DES controller. It
//! enforces real NAND semantics — program-once-then-erase, whole-block
//! erases, per-block wear counters — injects wear-dependent bit errors,
//! and runs every page through the SECDED codec from [`crate::ecc`].
//!
//! Page bytes live in a slab of fixed-size records, each one page of data
//! followed by its OOB parity, the way the controller keeps a page behind
//! its ECC. Records are allocated a chunk at a time and recycled through
//! a free list when a page is trimmed or its block erased, so steady
//! program/erase churn allocates nothing. A block gets a slot index
//! (page → record) only when it first receives a data program: untouched
//! capacity of a huge geometry, and the blank-only shadow arrays behind
//! the mirror FTL, cost just their per-block bitmaps.

use bluedbm_sim::rng::Rng;

use crate::ecc;
use crate::error::FlashError;
use crate::geometry::{FlashGeometry, Ppa};

/// Target size of one slab chunk. A chunk holds as many whole records as
/// fit, and at least one.
const CHUNK_BYTES: usize = 8 << 10;

/// Slot-index entry of a page that holds no stored bytes.
const NO_RECORD: u32 = u32::MAX;

/// Empty a slot-index entry, returning its record to the free list.
fn recycle(free: &mut Vec<u32>, slot: &mut u32) {
    let r = std::mem::replace(slot, NO_RECORD);
    if r != NO_RECORD {
        free.push(r);
    }
}

/// Bit-error injection parameters.
///
/// The raw bit error rate grows linearly with a block's erase count,
/// which is the first-order behaviour of real NAND wear.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorModel {
    /// Probability that any given stored bit reads back flipped, at zero
    /// wear.
    pub base_ber: f64,
    /// Additional bit error probability per erase cycle of wear.
    pub ber_per_erase: f64,
    /// Fraction of blocks factory-marked bad.
    pub factory_bad_fraction: f64,
}

impl ErrorModel {
    /// No injected errors, no bad blocks — the deterministic default used
    /// by most tests and by the performance experiments.
    pub const fn none() -> Self {
        ErrorModel {
            base_ber: 0.0,
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        }
    }

    /// A wear-sensitive model for the reliability test suites.
    pub const fn wearing() -> Self {
        ErrorModel {
            base_ber: 1e-7,
            ber_per_erase: 1e-8,
            factory_bad_fraction: 0.01,
        }
    }
}

impl Default for ErrorModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Result of a successful page read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadResult {
    /// The page contents after ECC correction.
    pub data: Vec<u8>,
    /// Codewords in which a single-bit error was corrected on this read.
    pub corrected_words: u32,
}

#[derive(Clone, Debug, Default)]
struct BlockState {
    erase_count: u64,
    bad: bool,
    /// Bitmap of programmed pages.
    programmed: Vec<bool>,
    /// Slot index: the slab record holding each page's bytes, or
    /// `NO_RECORD`. Empty until the block first receives a data program.
    records: Vec<u32>,
}

/// Cumulative operation counters for one array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Pages programmed.
    pub programs: u64,
    /// Pages read.
    pub reads: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Pages invalidated via [`FlashArray::trim`].
    pub trims: u64,
    /// Total single-bit corrections performed by ECC.
    pub corrected_words: u64,
    /// Reads that failed with an uncorrectable ECC error.
    pub uncorrectable: u64,
}

/// One flash card's worth of NAND.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct FlashArray {
    geometry: FlashGeometry,
    /// The record slab: `chunk_records` records of `page_bytes` data
    /// followed by `oob_bytes` parity per chunk. Record `r` lives in
    /// chunk `r / chunk_records`.
    chunks: Vec<Box<[u8]>>,
    /// Records per slab chunk.
    chunk_records: usize,
    /// Records returned by trims and erases, reused before the slab
    /// grows.
    free: Vec<u32>,
    /// Per-block wear/bad/programmed state and slot index, keyed by
    /// linear block id.
    blocks: Vec<BlockState>,
    rng: Rng,
    error_model: ErrorModel,
    stats: ArrayStats,
}

impl FlashArray {
    /// A fresh array with no injected errors.
    pub fn new(geometry: FlashGeometry, seed: u64) -> Self {
        Self::with_error_model(geometry, seed, ErrorModel::none())
    }

    /// A fresh array with the given error model; factory-bad blocks are
    /// chosen deterministically from `seed`.
    pub fn with_error_model(geometry: FlashGeometry, seed: u64, error_model: ErrorModel) -> Self {
        let mut rng = Rng::new(seed);
        let blocks = (0..geometry.total_blocks())
            .map(|_| BlockState {
                erase_count: 0,
                bad: rng.chance(error_model.factory_bad_fraction),
                programmed: vec![false; geometry.pages_per_block],
                records: Vec::new(),
            })
            .collect();
        let record_bytes = geometry.page_bytes + geometry.oob_bytes();
        FlashArray {
            geometry,
            chunks: Vec::new(),
            chunk_records: (CHUNK_BYTES / record_bytes).max(1),
            free: Vec::new(),
            blocks,
            rng,
            error_model,
            stats: ArrayStats::default(),
        }
    }

    /// The card geometry.
    pub fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    /// Operation counters.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Records the slab has allocated, live or free. The slab grows one
    /// chunk at a time and only when the free list is empty, so this
    /// never exceeds the peak count of pages holding bytes, rounded up
    /// to a whole chunk.
    pub fn slab_records(&self) -> usize {
        self.chunks.len() * self.chunk_records
    }

    /// Records per slab chunk (the slab's growth step).
    pub fn chunk_records(&self) -> usize {
        self.chunk_records
    }

    fn block_index(&self, ppa: Ppa) -> usize {
        (ppa.bus as usize * self.geometry.chips_per_bus + ppa.chip as usize)
            * self.geometry.blocks_per_chip
            + ppa.block as usize
    }

    fn check(&self, ppa: Ppa) -> Result<(), FlashError> {
        if !self.geometry.contains(ppa) {
            return Err(FlashError::OutOfRange(ppa));
        }
        if self.blocks[self.block_index(ppa)].bad {
            return Err(FlashError::BadBlock(ppa));
        }
        Ok(())
    }

    fn record_bytes(&self) -> usize {
        self.geometry.page_bytes + self.geometry.oob_bytes()
    }

    /// Chunk and byte offset of record `r`.
    fn locate(&self, r: u32) -> (usize, usize) {
        let r = r as usize;
        (
            r / self.chunk_records,
            (r % self.chunk_records) * self.record_bytes(),
        )
    }

    fn record(&self, r: u32) -> &[u8] {
        let (chunk, off) = self.locate(r);
        &self.chunks[chunk][off..off + self.record_bytes()]
    }

    fn record_mut(&mut self, r: u32) -> &mut [u8] {
        let (chunk, off) = self.locate(r);
        let len = self.record_bytes();
        &mut self.chunks[chunk][off..off + len]
    }

    /// Record `src` to read beside record `dst` to write (`src != dst`).
    fn record_pair(&mut self, src: u32, dst: u32) -> (&[u8], &mut [u8]) {
        let len = self.record_bytes();
        let ((cs, os), (cd, od)) = (self.locate(src), self.locate(dst));
        let (s, d): (&[u8], &mut [u8]) = if cs == cd {
            let chunk = &mut self.chunks[cs];
            if os < od {
                let (lo, hi) = chunk.split_at_mut(od);
                (&lo[os..], hi)
            } else {
                let (lo, hi) = chunk.split_at_mut(os);
                (hi, &mut lo[od..])
            }
        } else if cs < cd {
            let (lo, hi) = self.chunks.split_at_mut(cd);
            (&lo[cs][os..], &mut hi[0][od..])
        } else {
            let (lo, hi) = self.chunks.split_at_mut(cs);
            (&hi[0][os..], &mut lo[cd][od..])
        };
        (&s[..len], &mut d[..len])
    }

    /// A free record: recycled if any, else from a freshly allocated
    /// chunk.
    fn alloc_record(&mut self) -> u32 {
        if let Some(r) = self.free.pop() {
            return r;
        }
        let base = self.slab_records() as u32;
        let n = self.chunk_records as u32;
        self.chunks
            .push(vec![0u8; self.chunk_records * self.record_bytes()].into_boxed_slice());
        // Lowest index on top, so a new chunk fills front to back.
        self.free.extend((base + 1..base + n).rev());
        base
    }

    /// The record holding `ppa`'s bytes, if any (`ppa` must be in range).
    fn record_of(&self, ppa: Ppa) -> Option<u32> {
        self.blocks[self.block_index(ppa)]
            .records
            .get(ppa.page as usize)
            .copied()
            .filter(|&r| r != NO_RECORD)
    }

    /// Mark `ppa` programmed with its bytes in record `r`.
    fn bind(&mut self, ppa: Ppa, r: u32) {
        let pages_per_block = self.geometry.pages_per_block;
        let bi = self.block_index(ppa);
        let block = &mut self.blocks[bi];
        if block.records.is_empty() {
            block.records = vec![NO_RECORD; pages_per_block];
        }
        block.records[ppa.page as usize] = r;
        block.programmed[ppa.page as usize] = true;
        self.stats.programs += 1;
    }

    /// Program-side checks shared by every program flavour.
    fn check_programmable(&self, ppa: Ppa) -> Result<(), FlashError> {
        self.check(ppa)?;
        if self.blocks[self.block_index(ppa)].programmed[ppa.page as usize] {
            return Err(FlashError::AlreadyProgrammed(ppa));
        }
        Ok(())
    }

    /// Program one page.
    ///
    /// # Errors
    ///
    /// * [`FlashError::OutOfRange`] / [`FlashError::BadBlock`] on a bad
    ///   address.
    /// * [`FlashError::WrongPageSize`] unless `data` is exactly one page.
    /// * [`FlashError::AlreadyProgrammed`] if the page holds data — NAND
    ///   cannot overwrite in place.
    pub fn program(&mut self, ppa: Ppa, data: &[u8]) -> Result<(), FlashError> {
        self.check(ppa)?;
        let page_bytes = self.geometry.page_bytes;
        if data.len() != page_bytes {
            return Err(FlashError::WrongPageSize {
                got: data.len(),
                want: page_bytes,
            });
        }
        if self.blocks[self.block_index(ppa)].programmed[ppa.page as usize] {
            return Err(FlashError::AlreadyProgrammed(ppa));
        }
        let r = self.alloc_record();
        let (stored, oob) = self.record_mut(r).split_at_mut(page_bytes);
        stored.copy_from_slice(data);
        ecc::encode_page_into(stored, oob);
        self.bind(ppa, r);
        Ok(())
    }

    /// Read one page through the ECC decode path.
    ///
    /// Bit errors are injected per the [`ErrorModel`] and the block's
    /// wear, then corrected (or reported) by SECDED.
    ///
    /// # Errors
    ///
    /// * Address errors as for [`FlashArray::program`].
    /// * [`FlashError::NotProgrammed`] if the page is erased.
    /// * [`FlashError::Uncorrectable`] if more errors hit a codeword than
    ///   SECDED can repair.
    pub fn read(&mut self, ppa: Ppa) -> Result<ReadResult, FlashError> {
        let mut data = vec![0u8; self.geometry.page_bytes];
        let corrected_words = self.read_into(ppa, &mut data)?;
        Ok(ReadResult {
            data,
            corrected_words,
        })
    }

    /// Read one page through the ECC decode path, writing the corrected
    /// contents straight into `dest` (one page long) — the write-once
    /// read path: the DES controller points `dest` at a
    /// [`bluedbm_sim::PageStore`] page, so read data is produced by the
    /// decoder in place instead of being decoded into a scratch `Vec`
    /// and copied into the store afterwards. On the common no-injected-
    /// errors configuration the stored record is decoded directly from
    /// the slab with no intermediate copy at all.
    ///
    /// Returns the number of corrected codewords; on any error `dest`'s
    /// contents are unspecified.
    ///
    /// # Errors
    ///
    /// As for [`FlashArray::read`].
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not exactly one page.
    pub fn read_into(&mut self, ppa: Ppa, dest: &mut [u8]) -> Result<u32, FlashError> {
        let (r, wear) = self.begin_read(ppa)?;
        let page_bytes = self.geometry.page_bytes;
        let noisy = self.corrupted_copy(r, wear);
        let (data, oob) = noisy
            .as_deref()
            .unwrap_or(self.record(r))
            .split_at(page_bytes);
        let decoded = ecc::decode_page_into(data, oob, dest);
        self.finish_read(ppa, decoded)
    }

    /// Move a page's contents from `src` to the erased page `dst` — the
    /// copy-forward of garbage collection, as one ECC-decoded copy
    /// between two slab records with no intermediate buffer. The stored
    /// bytes go through the same read path as [`FlashArray::read_into`]
    /// (error injection, SECDED correction, read counters) and are
    /// programmed at `dst` with fresh parity. When `src` holds no bytes
    /// (a blank shadow page, see [`FlashArray::program_blank`]) `dst` is
    /// programmed blank. `src` is left as it was; the caller erases its
    /// block.
    ///
    /// Returns the number of codewords corrected on the read.
    ///
    /// # Errors
    ///
    /// Exactly those of [`FlashArray::read`] on `src` followed by
    /// [`FlashArray::program`] on `dst`, checked in that order: an
    /// uncorrectable source fails with [`FlashError::Uncorrectable`]
    /// naming `src` and leaves `dst` erased.
    pub fn relocate(&mut self, src: Ppa, dst: Ppa) -> Result<u32, FlashError> {
        if !self.page_has_data(src) {
            return self.program_blank(dst).map(|()| 0);
        }
        let (from, wear) = self.begin_read(src)?;
        let page_bytes = self.geometry.page_bytes;
        let noisy = self.corrupted_copy(from, wear);
        let to = self.alloc_record();
        let (stored, out) = self.record_pair(from, to);
        let (data, oob) = noisy.as_deref().unwrap_or(stored).split_at(page_bytes);
        let decoded = ecc::decode_page_into(data, oob, &mut out[..page_bytes]);
        let programmable = self.check_programmable(dst);
        // The read's error, if any, wins, as in read-then-program.
        let result = self
            .finish_read(src, decoded)
            .and_then(|c| programmable.map(|()| c));
        let Ok(corrected) = result else {
            self.free.push(to);
            return result;
        };
        let (copied, parity) = self.record_mut(to).split_at_mut(page_bytes);
        ecc::encode_page_into(copied, parity);
        self.bind(dst, to);
        Ok(corrected)
    }

    /// Read-side checks and counters: the record holding `ppa` and the
    /// wear of its block.
    fn begin_read(&mut self, ppa: Ppa) -> Result<(u32, u64), FlashError> {
        self.check(ppa)?;
        let wear = self.blocks[self.block_index(ppa)].erase_count;
        let r = self.record_of(ppa).ok_or(FlashError::NotProgrammed(ppa))?;
        self.stats.reads += 1;
        Ok((r, wear))
    }

    /// Under a nonzero error rate, a copy of record `r` (data then
    /// parity) with bits flipped at the rate for `wear` — error injection
    /// never touches the stored truth. `None` when the rate is zero.
    fn corrupted_copy(&mut self, r: u32, wear: u64) -> Option<Vec<u8>> {
        let ber = self.error_model.base_ber + self.error_model.ber_per_erase * wear as f64;
        if ber <= 0.0 {
            return None;
        }
        let mut noisy = self.record(r).to_vec();
        // Expected flips over the whole codeword region; sample a count
        // from the exponentially-spaced geometric approximation.
        let total_bits = noisy.len() * 8;
        let expected = ber * total_bits as f64;
        let mut flips = expected.floor() as u64;
        if self.rng.chance(expected - flips as f64) {
            flips += 1;
        }
        for _ in 0..flips {
            let bit = self.rng.below(total_bits as u64) as usize;
            noisy[bit / 8] ^= 1 << (bit % 8);
        }
        Some(noisy)
    }

    /// Account a decode's outcome.
    fn finish_read(&mut self, ppa: Ppa, decoded: Option<u32>) -> Result<u32, FlashError> {
        match decoded {
            Some(corrected) => {
                self.stats.corrected_words += u64::from(corrected);
                Ok(corrected)
            }
            None => {
                self.stats.uncorrectable += 1;
                Err(FlashError::Uncorrectable(ppa))
            }
        }
    }

    /// Invalidate one page (a TRIM): the stored data is dropped and the
    /// page returns to the programmable state, as if its block had been
    /// garbage-collected around it. Real NAND can only erase whole
    /// blocks; this models the *observable outcome* of the FTL's
    /// copy-forward + erase at single-page granularity, so allocation
    /// layers (the cluster KV store's free list) can recycle pages
    /// without simulating full reclamation. Trimming an unprogrammed
    /// page is a no-op.
    ///
    /// # Errors
    ///
    /// Address errors as for [`FlashArray::program`].
    pub fn trim(&mut self, ppa: Ppa) -> Result<(), FlashError> {
        self.check(ppa)?;
        let (bi, page) = (self.block_index(ppa), ppa.page as usize);
        let block = &mut self.blocks[bi];
        if block.programmed[page] {
            block.programmed[page] = false;
            if let Some(slot) = block.records.get_mut(page) {
                recycle(&mut self.free, slot);
            }
            self.stats.trims += 1;
        }
        Ok(())
    }

    /// Erase a whole block (the `page` field of `ppa` is ignored).
    ///
    /// # Errors
    ///
    /// Address errors as for [`FlashArray::program`].
    pub fn erase(&mut self, ppa: Ppa) -> Result<(), FlashError> {
        self.check(ppa)?;
        let bi = self.block_index(ppa);
        let block = &mut self.blocks[bi];
        for slot in &mut block.records {
            recycle(&mut self.free, slot);
        }
        block.programmed.fill(false);
        block.erase_count += 1;
        self.stats.erases += 1;
        Ok(())
    }

    /// Program one page **without storing data** — the blank-shadow mode
    /// used by the offline FTL twin (`bluedbm_ftl`) when it mirrors a
    /// simulated device: the programmed bitmap, the program-once
    /// discipline, and the wear counters are modelled exactly, but no
    /// page bytes or ECC parity are stored, so a shadow array costs only
    /// its per-block bitmaps. A blank-programmed page reads back as
    /// [`FlashError::NotProgrammed`] (it holds no bytes) while
    /// [`FlashArray::is_programmed`] reports `true`; use
    /// [`FlashArray::page_has_data`] to tell the two apart.
    ///
    /// # Errors
    ///
    /// Address errors as for [`FlashArray::program`], and
    /// [`FlashError::AlreadyProgrammed`] if the page is already
    /// programmed (with or without data).
    pub fn program_blank(&mut self, ppa: Ppa) -> Result<(), FlashError> {
        self.check_programmable(ppa)?;
        let bi = self.block_index(ppa);
        self.blocks[bi].programmed[ppa.page as usize] = true;
        self.stats.programs += 1;
        Ok(())
    }

    /// `true` if the page currently holds data.
    pub fn is_programmed(&self, ppa: Ppa) -> bool {
        self.geometry.contains(ppa)
            && self.blocks[self.block_index(ppa)].programmed[ppa.page as usize]
    }

    /// `true` if the page holds stored bytes — i.e. it was programmed via
    /// [`FlashArray::program`], not [`FlashArray::program_blank`].
    pub fn page_has_data(&self, ppa: Ppa) -> bool {
        self.geometry.contains(ppa) && self.record_of(ppa).is_some()
    }

    /// Erase cycles endured by the block containing `ppa`.
    pub fn erase_count(&self, ppa: Ppa) -> u64 {
        self.blocks[self.block_index(ppa)].erase_count
    }

    /// `true` if the containing block is marked bad.
    pub fn is_bad(&self, ppa: Ppa) -> bool {
        self.blocks[self.block_index(ppa)].bad
    }

    /// Mark the containing block bad (a "grown" bad block).
    pub fn mark_bad(&mut self, ppa: Ppa) {
        let bi = self.block_index(ppa);
        self.blocks[bi].bad = true;
    }

    /// All good (not bad) block addresses, in linear order.
    pub fn good_blocks(&self) -> Vec<Ppa> {
        self.geometry
            .blocks()
            .filter(|b| !self.is_bad(*b))
            .collect()
    }

    /// Highest erase count across all blocks (wear-leveling metric).
    pub fn max_wear(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0)
    }

    /// Lowest erase count across good blocks.
    pub fn min_wear(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| !b.bad)
            .map(|b| b.erase_count)
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FlashArray {
        FlashArray::new(FlashGeometry::tiny(), 42)
    }

    fn page_of(array: &FlashArray, fill: u8) -> Vec<u8> {
        vec![fill; array.geometry().page_bytes]
    }

    #[test]
    fn program_read_round_trip() {
        let mut a = tiny();
        let ppa = Ppa::new(1, 0, 2, 3);
        let data = page_of(&a, 0x5A);
        a.program(ppa, &data).unwrap();
        let r = a.read(ppa).unwrap();
        assert_eq!(r.data, data);
        assert_eq!(r.corrected_words, 0);
        assert!(a.is_programmed(ppa));
        assert_eq!(a.stats().programs, 1);
        assert_eq!(a.stats().reads, 1);
    }

    #[test]
    fn cannot_overwrite_without_erase() {
        let mut a = tiny();
        let ppa = Ppa::new(0, 0, 0, 0);
        a.program(ppa, &page_of(&a, 1)).unwrap();
        assert_eq!(
            a.program(ppa, &page_of(&a, 2)),
            Err(FlashError::AlreadyProgrammed(ppa))
        );
        a.erase(ppa).unwrap();
        assert!(!a.is_programmed(ppa));
        a.program(ppa, &page_of(&a, 2)).unwrap();
        assert_eq!(a.read(ppa).unwrap().data, page_of(&a, 2));
    }

    #[test]
    fn trim_invalidates_one_page_and_allows_reprogram() {
        let mut a = tiny();
        let victim = Ppa::new(0, 0, 2, 1);
        let neighbor = Ppa::new(0, 0, 2, 2);
        a.program(victim, &page_of(&a, 1)).unwrap();
        a.program(neighbor, &page_of(&a, 2)).unwrap();
        a.trim(victim).unwrap();
        assert!(!a.is_programmed(victim));
        assert_eq!(a.read(victim), Err(FlashError::NotProgrammed(victim)));
        // Unlike erase, the rest of the block is untouched (no wear).
        assert_eq!(a.read(neighbor).unwrap().data, page_of(&a, 2));
        assert_eq!(a.erase_count(victim), 0);
        // The page is programmable again.
        a.program(victim, &page_of(&a, 3)).unwrap();
        assert_eq!(a.read(victim).unwrap().data, page_of(&a, 3));
        assert_eq!(a.stats().trims, 1);
        // Trimming an erased page is a no-op.
        a.trim(Ppa::new(1, 1, 0, 0)).unwrap();
        assert_eq!(a.stats().trims, 1);
        // Address checks still apply.
        assert_eq!(a.trim(Ppa::new(9, 0, 0, 0)), Err(FlashError::OutOfRange(Ppa::new(9, 0, 0, 0))));
    }

    #[test]
    fn erase_clears_whole_block_only() {
        let mut a = tiny();
        let in_block = Ppa::new(0, 0, 3, 5);
        let other_block = Ppa::new(0, 0, 4, 5);
        a.program(in_block, &page_of(&a, 1)).unwrap();
        a.program(other_block, &page_of(&a, 2)).unwrap();
        a.erase(in_block).unwrap();
        assert!(!a.is_programmed(in_block));
        assert!(a.is_programmed(other_block));
        assert_eq!(a.erase_count(in_block), 1);
        assert_eq!(a.erase_count(other_block), 0);
    }

    #[test]
    fn read_unprogrammed_fails() {
        let mut a = tiny();
        let ppa = Ppa::new(0, 1, 0, 0);
        assert_eq!(a.read(ppa), Err(FlashError::NotProgrammed(ppa)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut a = tiny();
        let ppa = Ppa::new(9, 0, 0, 0);
        assert_eq!(a.read(ppa), Err(FlashError::OutOfRange(ppa)));
        assert_eq!(
            a.program(ppa, &page_of(&a, 0)),
            Err(FlashError::OutOfRange(ppa))
        );
    }

    #[test]
    fn wrong_page_size_rejected() {
        let mut a = tiny();
        let err = a.program(Ppa::new(0, 0, 0, 0), &[0u8; 3]).unwrap_err();
        assert_eq!(
            err,
            FlashError::WrongPageSize {
                got: 3,
                want: a.geometry().page_bytes
            }
        );
    }

    #[test]
    fn bad_blocks_rejected_and_growable() {
        let mut a = tiny();
        let ppa = Ppa::new(1, 1, 1, 0);
        assert!(!a.is_bad(ppa));
        a.mark_bad(ppa);
        assert!(a.is_bad(ppa));
        assert_eq!(a.program(ppa, &page_of(&a, 0)), Err(FlashError::BadBlock(ppa)));
        assert_eq!(a.erase(ppa), Err(FlashError::BadBlock(ppa)));
        assert_eq!(a.good_blocks().len(), a.geometry().total_blocks() - 1);
    }

    #[test]
    fn factory_bad_blocks_from_seed_are_deterministic() {
        let model = ErrorModel {
            factory_bad_fraction: 0.25,
            ..ErrorModel::none()
        };
        let a = FlashArray::with_error_model(FlashGeometry::tiny(), 7, model);
        let b = FlashArray::with_error_model(FlashGeometry::tiny(), 7, model);
        assert_eq!(a.good_blocks(), b.good_blocks());
        let bad = a.geometry().total_blocks() - a.good_blocks().len();
        assert!(bad > 0, "a 25% fraction over 32 blocks should mark some bad");
    }

    #[test]
    fn injected_single_bit_errors_are_corrected() {
        let model = ErrorModel {
            base_ber: 3e-5, // ~0.15 flips per 512B+64B page read
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        };
        let mut a = FlashArray::with_error_model(FlashGeometry::tiny(), 11, model);
        let ppa = Ppa::new(0, 0, 0, 0);
        let data = page_of(&a, 0xA5);
        a.program(ppa, &data).unwrap();
        let mut corrected_total = 0;
        for _ in 0..2000 {
            let r = a.read(ppa).expect("SECDED should absorb sparse errors");
            assert_eq!(r.data, data, "corrected data must match what was written");
            corrected_total += r.corrected_words;
        }
        assert!(corrected_total > 0, "the error model should have fired");
    }

    #[test]
    fn heavy_errors_become_uncorrectable() {
        let model = ErrorModel {
            base_ber: 0.02, // many flips per word: SECDED must give up sometimes
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        };
        let mut a = FlashArray::with_error_model(FlashGeometry::tiny(), 13, model);
        let ppa = Ppa::new(0, 0, 0, 0);
        a.program(ppa, &page_of(&a, 0xFF)).unwrap();
        let mut saw_uncorrectable = false;
        for _ in 0..200 {
            if a.read(ppa) == Err(FlashError::Uncorrectable(ppa)) {
                saw_uncorrectable = true;
                break;
            }
        }
        assert!(saw_uncorrectable);
        assert!(a.stats().uncorrectable > 0);
    }

    #[test]
    fn wear_increases_error_rate() {
        let model = ErrorModel {
            base_ber: 0.0,
            ber_per_erase: 2e-6,
            factory_bad_fraction: 0.0,
        };
        let mut a = FlashArray::with_error_model(FlashGeometry::tiny(), 17, model);
        let ppa = Ppa::new(0, 0, 0, 0);
        // Wear the block heavily.
        for _ in 0..500 {
            a.erase(ppa).unwrap();
        }
        a.program(ppa, &page_of(&a, 1)).unwrap();
        let mut corrected = 0;
        for _ in 0..500 {
            corrected += a.read(ppa).map(|r| r.corrected_words).unwrap_or(1);
        }
        assert!(corrected > 0, "worn block should show bit errors");
        assert_eq!(a.max_wear(), 500);
        assert_eq!(a.min_wear(), 0);
    }

    #[test]
    fn blank_programs_track_the_bitmap_but_store_no_bytes() {
        let mut a = tiny();
        let ppa = Ppa::new(0, 0, 1, 2);
        a.program_blank(ppa).unwrap();
        assert!(a.is_programmed(ppa));
        assert!(!a.page_has_data(ppa));
        assert_eq!(a.stats().programs, 1);
        // Program-once discipline applies to blank programs too.
        assert_eq!(a.program_blank(ppa), Err(FlashError::AlreadyProgrammed(ppa)));
        assert_eq!(
            a.program(ppa, &page_of(&a, 1)),
            Err(FlashError::AlreadyProgrammed(ppa))
        );
        // Reads see no bytes.
        assert_eq!(a.read(ppa), Err(FlashError::NotProgrammed(ppa)));
        // Trim and erase recycle blank pages like data pages.
        a.trim(ppa).unwrap();
        assert!(!a.is_programmed(ppa));
        a.program(ppa, &page_of(&a, 7)).unwrap();
        assert!(a.page_has_data(ppa));
        a.erase(ppa).unwrap();
        assert!(!a.is_programmed(ppa));
        assert_eq!(a.erase_count(ppa), 1);
    }

    #[test]
    fn sparse_storage_handles_paper_geometry() {
        // 4 GiB card, but we only touch two pages — must be cheap.
        let mut a = FlashArray::new(FlashGeometry::paper_card(), 1);
        let p1 = Ppa::new(7, 7, 31, 255);
        let data = vec![9u8; a.geometry().page_bytes];
        a.program(p1, &data).unwrap();
        assert_eq!(a.read(p1).unwrap().data, data);
        assert_eq!(a.slab_records(), a.chunk_records());
    }

    #[test]
    fn erase_and_trim_recycle_slab_records() {
        let mut a = tiny();
        let pages = a.geometry().pages_per_block as u32;
        let block = |page| Ppa::new(0, 1, 3, page);
        for page in 0..pages {
            a.program(block(page), &page_of(&a, page as u8)).unwrap();
        }
        let grown = a.slab_records();
        assert!(grown >= pages as usize);
        for round in 1..=3u8 {
            a.erase(block(0)).unwrap();
            for page in 0..pages {
                assert!(!a.page_has_data(block(page)));
                a.program(block(page), &page_of(&a, round)).unwrap();
            }
            // Every recycled record holds the new bytes, never the old.
            for page in 0..pages {
                assert_eq!(a.read(block(page)).unwrap().data, page_of(&a, round));
            }
            assert_eq!(a.slab_records(), grown, "erase must recycle, not grow");
        }
        a.trim(block(4)).unwrap();
        a.program(Ppa::new(1, 0, 0, 0), &page_of(&a, 0xEE)).unwrap();
        assert_eq!(a.slab_records(), grown, "trim must recycle, not grow");
        assert_eq!(a.read(Ppa::new(1, 0, 0, 0)).unwrap().data, page_of(&a, 0xEE));
    }

    #[test]
    fn relocate_copies_a_data_page() {
        let mut a = tiny();
        let (src, dst) = (Ppa::new(0, 0, 1, 3), Ppa::new(1, 1, 5, 0));
        a.program(src, &page_of(&a, 0x3C)).unwrap();
        assert_eq!(a.relocate(src, dst), Ok(0));
        assert_eq!(a.read(dst).unwrap().data, page_of(&a, 0x3C));
        assert_eq!(a.read(src).unwrap().data, page_of(&a, 0x3C), "source untouched");
        assert_eq!((a.stats().programs, a.stats().reads), (2, 3));
        // The destination obeys program-once like any other program.
        assert_eq!(a.relocate(src, dst), Err(FlashError::AlreadyProgrammed(dst)));
    }

    #[test]
    fn relocate_programs_blank_from_a_blank_page() {
        let mut a = tiny();
        let (src, dst) = (Ppa::new(0, 0, 1, 3), Ppa::new(0, 0, 2, 0));
        a.program_blank(src).unwrap();
        assert_eq!(a.relocate(src, dst), Ok(0));
        assert!(a.is_programmed(dst));
        assert!(!a.page_has_data(dst));
        assert_eq!((a.stats().programs, a.stats().reads), (2, 0));
        assert_eq!(a.slab_records(), 0, "blank pages allocate no records");
    }

    #[test]
    fn relocate_matches_read_then_program_on_a_failing_source() {
        let model = ErrorModel {
            base_ber: 0.02,
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        };
        let mut old = FlashArray::with_error_model(FlashGeometry::tiny(), 13, model);
        let mut new = FlashArray::with_error_model(FlashGeometry::tiny(), 13, model);
        let (src, dst) = (Ppa::new(0, 0, 0, 0), Ppa::new(0, 1, 0, 0));
        old.program(src, &page_of(&old, 0x5A)).unwrap();
        new.program(src, &page_of(&new, 0x5A)).unwrap();
        let mut saw_uncorrectable = false;
        for _ in 0..200 {
            let want = old
                .read(src)
                .and_then(|r| old.program(dst, &r.data).map(|()| r.corrected_words));
            let got = new.relocate(src, dst);
            assert_eq!(got, want);
            assert_eq!(new.stats(), old.stats());
            if got == Err(FlashError::Uncorrectable(src)) {
                saw_uncorrectable = true;
                assert!(!new.is_programmed(dst), "a failed relocation leaves dst erased");
            }
            old.erase(dst).unwrap();
            new.erase(dst).unwrap();
        }
        assert!(saw_uncorrectable);
        // Same error-injection draws consumed: the next reads still agree.
        assert_eq!(new.read(src), old.read(src));
    }
}
