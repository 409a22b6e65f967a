//! Functional NAND array: what the flash chips actually store.
//!
//! This is the synchronous truth layer under the DES controller. It
//! enforces real NAND semantics — program-once-then-erase, whole-block
//! erases, per-block wear counters — stores real bytes (sparsely, so huge
//! geometries cost only what is touched), injects wear-dependent bit
//! errors, and runs every page through the SECDED codec from [`crate::ecc`].

use bluedbm_sim::fxhash::FxHashMap;

use bluedbm_sim::rng::Rng;

use crate::ecc;
use crate::error::FlashError;
use crate::geometry::{FlashGeometry, Ppa};

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

/// A stored codeword: page data plus its OOB parity bytes.
type StoredPage = (Box<[u8]>, Box<[u8]>);

/// One flash card's worth of NAND.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct FlashArray {
    geometry: FlashGeometry,
    /// Stored codewords: page data + OOB parity, keyed by linear page id.
    pages: FxHashMap<usize, StoredPage>,
    /// Per-block wear/bad/programmed state, keyed by linear block id.
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
            })
            .collect();
        FlashArray {
            geometry,
            pages: FxHashMap::default(),
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
        if data.len() != self.geometry.page_bytes {
            return Err(FlashError::WrongPageSize {
                got: data.len(),
                want: self.geometry.page_bytes,
            });
        }
        let bi = self.block_index(ppa);
        let programmed = &mut self.blocks[bi].programmed[ppa.page as usize];
        if *programmed {
            return Err(FlashError::AlreadyProgrammed(ppa));
        }
        *programmed = true;
        let oob = ecc::encode_page(data);
        self.pages.insert(
            self.geometry.linear_of(ppa),
            (data.into(), oob.into_boxed_slice()),
        );
        self.stats.programs += 1;
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
    /// errors configuration the stored codeword is decoded directly from
    /// the array's backing buffer with no intermediate copy at all.
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
        self.check(ppa)?;
        let linear = self.geometry.linear_of(ppa);
        let bi = self.block_index(ppa);
        let wear = self.blocks[bi].erase_count;
        if !self.pages.contains_key(&linear) {
            return Err(FlashError::NotProgrammed(ppa));
        }
        self.stats.reads += 1;
        let decoded = if self.ber_at(wear) <= 0.0 {
            // No injected errors: decode the stored codeword in place.
            let (data, oob) = self.pages.get(&linear).expect("checked present");
            ecc::decode_page_into(data, oob, dest)
        } else {
            // Error injection must not corrupt the stored truth: flip
            // bits on a scratch copy, then decode into `dest`.
            let (data, oob) = self.pages.get(&linear).expect("checked present");
            let (mut data, mut oob) = (data.to_vec(), oob.to_vec());
            self.inject_errors(&mut data, &mut oob, wear);
            ecc::decode_page_into(&data, &oob, dest)
        };
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

    /// Raw bit error rate at `wear` erase cycles — the one source of
    /// truth for both the zero-copy fast-path gate and the injector.
    fn ber_at(&self, wear: u64) -> f64 {
        self.error_model.base_ber + self.error_model.ber_per_erase * wear as f64
    }

    fn inject_errors(&mut self, data: &mut [u8], oob: &mut [u8], wear: u64) {
        let ber = self.ber_at(wear);
        if ber <= 0.0 {
            return;
        }
        // Expected flips over the whole codeword region; sample a count
        // from the exponentially-spaced geometric approximation.
        let total_bits = (data.len() + oob.len()) * 8;
        let expected = ber * total_bits as f64;
        let mut flips = expected.floor() as u64;
        if self.rng.chance(expected - flips as f64) {
            flips += 1;
        }
        for _ in 0..flips {
            let bit = self.rng.below(total_bits as u64) as usize;
            let (byte, off) = (bit / 8, bit % 8);
            if byte < data.len() {
                data[byte] ^= 1 << off;
            } else {
                oob[byte - data.len()] ^= 1 << off;
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
        let bi = self.block_index(ppa);
        if self.blocks[bi].programmed[ppa.page as usize] {
            self.blocks[bi].programmed[ppa.page as usize] = false;
            self.pages.remove(&self.geometry.linear_of(ppa));
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
        for page in 0..self.geometry.pages_per_block {
            let linear = self.geometry.linear_of(ppa.with_page(page as u32));
            self.pages.remove(&linear);
            self.blocks[bi].programmed[page] = false;
        }
        self.blocks[bi].erase_count += 1;
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
        self.check(ppa)?;
        let bi = self.block_index(ppa);
        if self.blocks[bi].programmed[ppa.page as usize] {
            return Err(FlashError::AlreadyProgrammed(ppa));
        }
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
        self.geometry.contains(ppa) && self.pages.contains_key(&self.geometry.linear_of(ppa))
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
    }
}
