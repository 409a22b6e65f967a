//! The driver-side page-level FTL.
//!
//! BlueDBM's flash hardware is raw; for compatibility with unmodified
//! software the driver implements the full translation layer (paper
//! Section 4). This FTL does:
//!
//! * **logical-to-physical mapping** at page granularity;
//! * **write allocation** round-robin across every (bus, chip) plane so
//!   sequential logical writes exploit the card's full chip parallelism —
//!   this is why the raw interface "exposes all degrees of parallelism of
//!   the device";
//! * **greedy garbage collection**: below a free-block watermark, the
//!   plane's block with the fewest valid pages is compacted;
//! * **static wear leveling**: when the erase-count spread exceeds a
//!   threshold, GC prefers the *coldest* block so long-lived data rotates
//!   onto worn blocks;
//! * **TRIM** and write-amplification accounting.
//!
//! # The twin-replay API
//!
//! Beyond the classic `write`/`read`/`trim` surface, the FTL doubles as
//! the **policy oracle for the event-driven simulation**: the cluster
//! keeps one `Ftl` per simulated flash card as a *mirror* and asks it,
//! synchronously, what the lifecycle of each host operation should be.
//!
//! * [`Ftl::step_write`] replays one host write **without data**: it runs
//!   the identical allocation / GC / wear-leveling policy as
//!   [`Ftl::write`], but programs the shadow array with
//!   [`FlashArray::program_blank`] (bitmaps and wear only — no page
//!   bytes, no ECC), and returns a [`StepOutcome`]: the physical
//!   destination of the host page plus every [`GcRound`] (victim block,
//!   valid-page relocations in policy order, wear-leveling flag) that ran
//!   to make room. The simulation then executes those rounds as ordinary
//!   bus/chip commands so GC pressure lands on foreground latency, while
//!   the conformance suite replays the same op log into a fresh twin and
//!   checks that mappings, victim sequence, erase counts and write
//!   amplification all agree bit for bit.
//! * [`Ftl::step_trim`] is the replay twin of [`Ftl::trim`]; it also
//!   reports which physical page the trimmed logical page occupied.
//!
//! Victim selection and relocation order are pure functions of the
//! logical op sequence (no randomness, no wall clock, no dependence on
//! simulated timing), which is what makes the mirror usable as a
//! cross-engine determinism oracle. Data-carrying and blank pages can
//! mix freely in one `Ftl`: GC relocates whichever kind it finds
//! ([`FlashArray::relocate`] copies the bytes or programs blank, per
//! page), so a full-data twin and a blank mirror driven with the same op
//! sequence make identical policy decisions.

use std::collections::VecDeque;

use bluedbm_flash::array::FlashArray;
use bluedbm_flash::geometry::Ppa;

use crate::error::FtlError;

/// FTL tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FtlConfig {
    /// Fraction of physical capacity withheld from the logical space
    /// (over-provisioning). Typical SSDs use 7%; the GC ablation bench
    /// sweeps this.
    pub over_provision: f64,
    /// GC triggers when a plane's free-block queue drops to this size.
    /// Must be >= 1 so GC always has a destination block.
    pub gc_watermark: usize,
    /// Wear-leveling kicks in when `max_wear - min_wear` exceeds this.
    pub wear_threshold: u64,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            over_provision: 0.12,
            gc_watermark: 1,
            wear_threshold: 32,
        }
    }
}

/// Cumulative FTL statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FtlStats {
    /// Pages written by the host.
    pub host_writes: u64,
    /// Pages programmed to flash (host + GC relocation).
    pub flash_writes: u64,
    /// Pages read by the host.
    pub host_reads: u64,
    /// GC victim blocks erased.
    pub gc_erases: u64,
    /// Valid pages relocated by GC.
    pub gc_moves: u64,
    /// Wear-leveling victim selections.
    pub wear_swaps: u64,
    /// TRIM commands processed.
    pub trims: u64,
}

impl FtlStats {
    /// Write amplification factor: flash writes per host write (1.0 when
    /// no host writes have happened).
    pub fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.flash_writes as f64 / self.host_writes as f64
        }
    }
}

/// One garbage-collection round recorded by the [twin-replay
/// API](crate#the-twin-replay-api): which block was compacted and every
/// valid-page relocation compaction forced, in policy order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcRound {
    /// The erased victim block, addressed at page 0.
    pub victim: Ppa,
    /// Valid-page relocations `(from, to)` in the order the policy
    /// issued them.
    pub moves: Vec<(Ppa, Ppa)>,
    /// Whether the victim was picked under wear-leveling pressure
    /// (coldest block) rather than by fewest-valid-pages.
    pub wear_leveling: bool,
}

/// What one replayed host write did: where the page landed and which GC
/// rounds ran, in order, to make room for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Physical destination of the host page.
    pub target: Ppa,
    /// GC rounds that ran before the host program (usually empty).
    pub gc: Vec<GcRound>,
}

/// Per-(bus, chip) allocation state.
#[derive(Clone, Debug)]
struct Plane {
    bus: u16,
    chip: u16,
    free: VecDeque<u32>,
    /// Currently open block and its next page to program.
    active: Option<(u32, u32)>,
}

/// The page-level FTL. See the [crate-level documentation](crate) for an
/// example.
#[derive(Debug)]
pub struct Ftl {
    array: FlashArray,
    config: FtlConfig,
    /// Logical page -> physical page.
    l2p: Vec<Option<Ppa>>,
    /// Linear physical page -> logical page (for GC relocation).
    p2l: Vec<Option<u64>>,
    /// Valid page count per linear block.
    valid: Vec<u32>,
    planes: Vec<Plane>,
    next_plane: usize,
    capacity: u64,
    stats: FtlStats,
    /// GC rounds run by the most recent write (cleared at the start of
    /// every write; drained by [`Ftl::step_write`]).
    rounds: Vec<GcRound>,
}

impl Ftl {
    /// Build an FTL over `array`.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::NoSpace`] if the geometry is too small to hold
    /// any logical pages after over-provisioning, or a plane has no good
    /// blocks at all.
    pub fn new(array: FlashArray, config: FtlConfig) -> Result<Self, FtlError> {
        assert!(
            (0.0..1.0).contains(&config.over_provision),
            "over-provision must be in [0, 1)"
        );
        assert!(config.gc_watermark >= 1, "GC needs a reserve block");
        let geom = array.geometry();
        let mut planes = Vec::with_capacity(geom.total_chips());
        for bus in 0..geom.buses as u16 {
            for chip in 0..geom.chips_per_bus as u16 {
                let free: VecDeque<u32> = (0..geom.blocks_per_chip as u32)
                    .filter(|&b| !array.is_bad(Ppa::new(bus, chip, b, 0)))
                    .collect();
                if free.len() <= config.gc_watermark {
                    return Err(FtlError::NoSpace);
                }
                planes.push(Plane {
                    bus,
                    chip,
                    free,
                    active: None,
                });
            }
        }
        let good_pages: u64 = planes
            .iter()
            .map(|p| p.free.len() as u64 * geom.pages_per_block as u64)
            .sum();
        // Keep the watermark reserve out of the exported space too.
        let reserve: u64 =
            planes.len() as u64 * config.gc_watermark as u64 * geom.pages_per_block as u64;
        let capacity =
            ((good_pages as f64 * (1.0 - config.over_provision)) as u64).saturating_sub(reserve);
        if capacity == 0 {
            return Err(FtlError::NoSpace);
        }
        Ok(Ftl {
            l2p: vec![None; capacity as usize],
            p2l: vec![None; geom.total_pages()],
            valid: vec![0; geom.total_blocks()],
            planes,
            next_plane: 0,
            capacity,
            array,
            config,
            stats: FtlStats::default(),
            rounds: Vec::new(),
        })
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    /// Bytes per page.
    pub fn page_bytes(&self) -> usize {
        self.array.geometry().page_bytes
    }

    /// Statistics so far.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// The wrapped array (for wear inspection in tests/benches).
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    fn check_lba(&self, lba: u64) -> Result<(), FtlError> {
        if lba >= self.capacity {
            Err(FtlError::LbaOutOfRange {
                lba,
                capacity: self.capacity,
            })
        } else {
            Ok(())
        }
    }

    fn linear_block(&self, ppa: Ppa) -> usize {
        let g = self.array.geometry();
        (ppa.bus as usize * g.chips_per_bus + ppa.chip as usize) * g.blocks_per_chip
            + ppa.block as usize
    }

    /// Pop a destination page in plane `pi`, opening a new block if
    /// needed. Returns `None` when the plane is out of free blocks.
    fn alloc_in_plane(&mut self, pi: usize) -> Option<Ppa> {
        let pages_per_block = self.array.geometry().pages_per_block as u32;
        let plane = &mut self.planes[pi];
        if plane.active.is_none() {
            let block = plane.free.pop_front()?;
            plane.active = Some((block, 0));
        }
        let (block, page) = plane.active.expect("just ensured");
        let ppa = Ppa::new(plane.bus, plane.chip, block, page);
        plane.active = if page + 1 == pages_per_block {
            None
        } else {
            Some((block, page + 1))
        };
        Some(ppa)
    }

    /// Write one logical page.
    ///
    /// # Errors
    ///
    /// * [`FtlError::LbaOutOfRange`] / [`FtlError::WrongPageSize`] on bad
    ///   arguments.
    /// * [`FtlError::NoSpace`] when GC cannot reclaim a destination.
    /// * [`FtlError::Flash`] on an underlying device error.
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), FtlError> {
        self.check_lba(lba)?;
        if data.len() != self.page_bytes() {
            return Err(FtlError::WrongPageSize {
                got: data.len(),
                want: self.page_bytes(),
            });
        }
        self.rounds.clear();
        self.stats.host_writes += 1;
        let pi = self.next_plane;
        self.next_plane = (self.next_plane + 1) % self.planes.len();
        let ppa = self.alloc_for_host(pi)?;
        self.array.program(ppa, data)?;
        self.stats.flash_writes += 1;
        self.invalidate(lba);
        self.map(lba, ppa);
        Ok(())
    }

    /// Replay one host write without data (the [twin-replay
    /// API](crate#the-twin-replay-api)): identical allocation / GC /
    /// wear-leveling decisions to [`Ftl::write`], but the shadow array is
    /// programmed blank — bitmaps and wear only, no page bytes.
    ///
    /// Returns where the host page landed and every GC round that ran to
    /// make room, in order, so a simulation can execute the same
    /// lifecycle as timed commands.
    ///
    /// # Errors
    ///
    /// Same as [`Ftl::write`], minus the page-size check.
    pub fn step_write(&mut self, lba: u64) -> Result<StepOutcome, FtlError> {
        self.check_lba(lba)?;
        self.rounds.clear();
        self.stats.host_writes += 1;
        let pi = self.next_plane;
        self.next_plane = (self.next_plane + 1) % self.planes.len();
        let ppa = self.alloc_for_host(pi)?;
        self.array.program_blank(ppa)?;
        self.stats.flash_writes += 1;
        self.invalidate(lba);
        self.map(lba, ppa);
        Ok(StepOutcome {
            target: ppa,
            gc: std::mem::take(&mut self.rounds),
        })
    }

    /// Replay twin of [`Ftl::trim`]: drop the mapping for `lba` and
    /// report which physical page it occupied (`None` if it was never
    /// written or already trimmed).
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] on a bad address.
    pub fn step_trim(&mut self, lba: u64) -> Result<Option<Ppa>, FtlError> {
        self.check_lba(lba)?;
        let old = self.l2p[lba as usize];
        self.invalidate(lba);
        self.stats.trims += 1;
        Ok(old)
    }

    /// GC rounds run by the most recent [`Ftl::write`] (empty after
    /// [`Ftl::step_write`], which hands its rounds to the caller).
    pub fn last_gc_rounds(&self) -> &[GcRound] {
        &self.rounds
    }

    fn map(&mut self, lba: u64, ppa: Ppa) {
        let linear = self.array.geometry().linear_of(ppa);
        self.l2p[lba as usize] = Some(ppa);
        self.p2l[linear] = Some(lba);
        let bi = self.linear_block(ppa);
        self.valid[bi] += 1;
    }

    fn invalidate(&mut self, lba: u64) {
        if let Some(old) = self.l2p[lba as usize].take() {
            let linear = self.array.geometry().linear_of(old);
            self.p2l[linear] = None;
            let bi = self.linear_block(old);
            self.valid[bi] -= 1;
        }
    }

    /// Read one logical page.
    ///
    /// # Errors
    ///
    /// * [`FtlError::LbaOutOfRange`] on a bad address.
    /// * [`FtlError::Flash`] wrapping
    ///   [`bluedbm_flash::FlashError::NotProgrammed`] if the page was
    ///   never written (or was trimmed).
    pub fn read(&mut self, lba: u64) -> Result<Vec<u8>, FtlError> {
        self.check_lba(lba)?;
        self.stats.host_reads += 1;
        match self.l2p[lba as usize] {
            None => Err(FtlError::Flash(bluedbm_flash::FlashError::NotProgrammed(
                Ppa::default(),
            ))),
            Some(ppa) => Ok(self.array.read(ppa)?.data),
        }
    }

    /// The current physical location of a logical page (the query the
    /// BlueDBM software stack uses to feed in-store processors).
    pub fn physical_of(&self, lba: u64) -> Option<Ppa> {
        self.l2p.get(lba as usize).copied().flatten()
    }

    /// Drop the mapping for `lba` (TRIM), freeing its page for GC.
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] on a bad address.
    pub fn trim(&mut self, lba: u64) -> Result<(), FtlError> {
        self.step_trim(lba).map(|_| ())
    }

    /// Allocate a destination page for a host write in plane `pi`,
    /// running the garbage collector when the plane is out of room.
    ///
    /// Invariant: `gc_watermark` free blocks stay reserved as GC
    /// destinations; host writes use the open block or pop free blocks
    /// above the reserve. Each [`Self::collect_one`] reclaims a positive
    /// number of pages, so the loop terminates.
    fn alloc_for_host(&mut self, pi: usize) -> Result<Ppa, FtlError> {
        // Preferred plane first, then spill to any other plane: a single
        // plane can jam with 100%-valid blocks while the device still has
        // room elsewhere.
        let n = self.planes.len();
        for offset in 0..n {
            let p = (pi + offset) % n;
            loop {
                if self.planes[p].active.is_some()
                    || self.planes[p].free.len() > self.config.gc_watermark
                {
                    if let Some(ppa) = self.alloc_in_plane(p) {
                        return Ok(ppa);
                    }
                    break;
                }
                if !self.collect_one(p)? {
                    break;
                }
            }
        }
        Err(FtlError::NoSpace)
    }

    /// Compact the best victim block in plane `pi`. Returns `false` when
    /// no victim would free anything.
    fn collect_one(&mut self, pi: usize) -> Result<bool, FtlError> {
        let geom = self.array.geometry();
        let pages_per_block = geom.pages_per_block as u32;
        let (bus, chip) = (self.planes[pi].bus, self.planes[pi].chip);
        let active_block = self.planes[pi].active.map(|(b, _)| b);

        let wear_leveling = self.array.max_wear() - self.array.min_wear()
            > self.config.wear_threshold;

        // Victim: fewest valid pages; under wear pressure, coldest block.
        let mut best: Option<(u32, u32, u64)> = None; // (block, valid, wear)
        for block in 0..geom.blocks_per_chip as u32 {
            if Some(block) == active_block {
                continue;
            }
            let addr = Ppa::new(bus, chip, block, 0);
            if self.array.is_bad(addr) {
                continue;
            }
            if self.planes[pi].free.contains(&block) {
                continue;
            }
            let v = self.valid[self.linear_block(addr)];
            if v == pages_per_block {
                // Full of valid data: only interesting for wear leveling.
                if !wear_leveling {
                    continue;
                }
            }
            let wear = self.array.erase_count(addr);
            let better = match best {
                None => true,
                Some((_, bv, bw)) => {
                    if wear_leveling {
                        wear < bw || (wear == bw && v < bv)
                    } else {
                        v < bv || (v == bv && wear < bw)
                    }
                }
            };
            if better {
                best = Some((block, v, wear));
            }
        }
        let Some((victim, valid, _)) = best else {
            return Ok(false);
        };
        if valid == pages_per_block && !wear_leveling {
            return Ok(false);
        }
        if wear_leveling {
            self.stats.wear_swaps += 1;
        }
        let mut round = GcRound {
            victim: Ppa::new(bus, chip, victim, 0),
            moves: Vec::new(),
            wear_leveling,
        };

        // Relocate valid pages *within the plane*: the per-plane reserve
        // block guarantees a destination, and staying local avoids
        // cross-plane GC ping-pong (a victim always has fewer valid pages
        // than one whole block, so reclamation is net-positive). Pages
        // may carry data (the classic path) or be blank replay shadows;
        // relocation preserves whichever kind it finds.
        for page in 0..pages_per_block {
            let src = Ppa::new(bus, chip, victim, page);
            let linear = geom.linear_of(src);
            let Some(lba) = self.p2l[linear] else {
                continue;
            };
            let dst = self.alloc_in_plane(pi).ok_or(FtlError::NoSpace)?;
            self.array.relocate(src, dst)?;
            self.stats.flash_writes += 1;
            self.stats.gc_moves += 1;
            self.invalidate(lba);
            self.map(lba, dst);
            round.moves.push((src, dst));
        }
        self.array.erase(Ppa::new(bus, chip, victim, 0))?;
        self.stats.gc_erases += 1;
        self.planes[pi].free.push_back(victim);
        self.rounds.push(round);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_flash::geometry::FlashGeometry;

    fn make(geom: FlashGeometry) -> Ftl {
        Ftl::new(FlashArray::new(geom, 7), FtlConfig::default()).unwrap()
    }

    fn page(ftl: &Ftl, tag: u64) -> Vec<u8> {
        let mut p = vec![0u8; ftl.page_bytes()];
        p[..8].copy_from_slice(&tag.to_le_bytes());
        p
    }

    #[test]
    fn write_read_round_trip() {
        let mut ftl = make(FlashGeometry::tiny());
        for lba in 0..10 {
            ftl.write(lba, &page(&ftl, lba)).unwrap();
        }
        for lba in 0..10 {
            assert_eq!(ftl.read(lba).unwrap(), page(&ftl, lba));
        }
        assert_eq!(ftl.stats().host_writes, 10);
        assert_eq!(ftl.stats().waf(), 1.0, "no GC yet, WAF is 1");
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut ftl = make(FlashGeometry::tiny());
        for round in 0..5 {
            ftl.write(3, &page(&ftl, 100 + round)).unwrap();
        }
        assert_eq!(ftl.read(3).unwrap(), page(&ftl, 104));
    }

    #[test]
    fn unwritten_and_out_of_range_reads_fail() {
        let mut ftl = make(FlashGeometry::tiny());
        assert!(matches!(ftl.read(0), Err(FtlError::Flash(_))));
        let cap = ftl.capacity_pages();
        assert!(matches!(
            ftl.read(cap),
            Err(FtlError::LbaOutOfRange { .. })
        ));
        assert!(matches!(
            ftl.write(cap, &vec![0; ftl.page_bytes()]),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_size_write_rejected() {
        let mut ftl = make(FlashGeometry::tiny());
        assert!(matches!(
            ftl.write(0, &[1, 2, 3]),
            Err(FtlError::WrongPageSize { .. })
        ));
    }

    #[test]
    fn sequential_writes_spread_across_planes() {
        let mut ftl = make(FlashGeometry::tiny());
        let n = ftl.planes.len() as u64;
        for lba in 0..n {
            ftl.write(lba, &page(&ftl, lba)).unwrap();
        }
        let mut seen: bluedbm_sim::fxhash::FxHashSet<(u16, u16)> = Default::default();
        for lba in 0..n {
            let ppa = ftl.physical_of(lba).unwrap();
            seen.insert((ppa.bus, ppa.chip));
        }
        assert_eq!(seen.len(), n as usize, "round-robin hits every plane");
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_preserve_data() {
        let mut ftl = make(FlashGeometry::tiny());
        let cap = ftl.capacity_pages();
        // Fill the whole logical space, then overwrite it several times.
        let mut expect: Vec<u64> = vec![0; cap as usize];
        let mut stamp = 1u64;
        for round in 0..6 {
            for lba in 0..cap {
                ftl.write(lba, &page(&ftl, stamp)).unwrap();
                expect[lba as usize] = stamp;
                stamp += 1;
            }
            // Spot check inside the loop too.
            if round == 3 {
                assert_eq!(ftl.read(0).unwrap(), page(&ftl, expect[0]));
            }
        }
        for lba in 0..cap {
            assert_eq!(
                ftl.read(lba).unwrap(),
                page(&ftl, expect[lba as usize]),
                "lba {lba}"
            );
        }
        let s = ftl.stats();
        assert!(s.gc_erases > 0, "GC must have run");
        // Sequential overwrites are the GC-friendly case: victims are
        // mostly fully invalid, so WAF stays close to 1.
        assert!(s.waf() >= 1.0);
        assert!(s.waf() < 2.0, "WAF should stay low: {}", s.waf());
    }

    #[test]
    fn random_overwrite_stress_keeps_integrity() {
        use bluedbm_sim::rng::Rng;
        let mut ftl = make(FlashGeometry::small());
        let cap = ftl.capacity_pages();
        let mut rng = Rng::new(99);
        let mut expect: Vec<Option<u64>> = vec![None; cap as usize];
        for stamp in 0..(cap * 4) {
            let lba = rng.below(cap);
            ftl.write(lba, &page(&ftl, stamp)).unwrap();
            expect[lba as usize] = Some(stamp);
        }
        for lba in 0..cap {
            match expect[lba as usize] {
                Some(stamp) => assert_eq!(ftl.read(lba).unwrap(), page(&ftl, stamp)),
                None => assert!(ftl.read(lba).is_err()),
            }
        }
    }

    #[test]
    fn trim_invalidates_and_frees_space() {
        let mut ftl = make(FlashGeometry::tiny());
        let cap = ftl.capacity_pages();
        for lba in 0..cap {
            ftl.write(lba, &page(&ftl, lba)).unwrap();
        }
        for lba in 0..cap {
            ftl.trim(lba).unwrap();
        }
        assert!(ftl.read(0).is_err());
        assert_eq!(ftl.stats().trims, cap);
        // Everything is invalid: rewriting the space must succeed and GC
        // must not need to move a single page.
        let moves_before = ftl.stats().gc_moves;
        for lba in 0..cap {
            ftl.write(lba, &page(&ftl, 1000 + lba)).unwrap();
        }
        assert_eq!(ftl.stats().gc_moves, moves_before, "trimmed GC is free");
    }

    #[test]
    fn wear_leveling_bounds_the_spread() {
        let geom = FlashGeometry::tiny();
        let config = FtlConfig {
            wear_threshold: 8,
            ..FtlConfig::default()
        };
        let mut ftl = Ftl::new(FlashArray::new(geom, 7), config).unwrap();
        let cap = ftl.capacity_pages();
        // Cold data: fill 3/4 of the space once and never touch it again.
        let cold = cap * 3 / 4;
        for lba in 0..cold {
            ftl.write(lba, &page(&ftl, lba)).unwrap();
        }
        // Hot data: hammer the rest.
        for stamp in 0..cap * 30 {
            let lba = cold + (stamp % (cap - cold));
            ftl.write(lba, &page(&ftl, stamp)).unwrap();
        }
        let spread = ftl.array().max_wear() - ftl.array().min_wear();
        assert!(
            spread <= 3 * config.wear_threshold,
            "wear spread {spread} should be bounded near the threshold"
        );
        assert!(ftl.stats().wear_swaps > 0, "wear leveling must have fired");
        // Cold data must have survived all that shuffling.
        for lba in (0..cold).step_by(7) {
            assert_eq!(ftl.read(lba).unwrap(), page(&ftl, lba));
        }
    }

    /// The wear-leveling victim comparator has two arms: a strictly
    /// colder block wins outright, and on an exact wear tie the block
    /// with fewer valid pages wins. Construct both cases explicitly.
    #[test]
    fn wear_tie_break_prefers_fewer_valid_pages() {
        let geom = FlashGeometry::tiny();
        let config = FtlConfig {
            wear_threshold: 1,
            ..FtlConfig::default()
        };
        // Logical pages currently mapped into plane-0 `block`.
        fn in_block(ftl: &Ftl, block: u32) -> Vec<u64> {
            (0..128)
                .filter(|&lba| {
                    let p = ftl.physical_of(lba).unwrap();
                    (p.bus, p.chip, p.block) == (0, 0, block)
                })
                .collect()
        }
        // 128 round-robin writes fill exactly blocks 0 and 1 of each of
        // the four planes, so plane 0 has two closed candidate blocks.
        fn fill(mut array: FlashArray, config: FtlConfig) -> Ftl {
            // Pre-wear a block in another plane so the array-wide spread
            // exceeds the threshold and wear leveling is active.
            for _ in 0..5 {
                array.erase(Ppa::new(1, 1, 7, 0)).unwrap();
            }
            let mut ftl = Ftl::new(array, config).unwrap();
            for lba in 0..128 {
                let data = page(&ftl, lba);
                ftl.write(lba, &data).unwrap();
            }
            ftl
        }

        // Exact tie: blocks 0 and 1 both have erase count 0; block 1 has
        // fewer valid pages and must win the tie.
        let mut ftl = fill(FlashArray::new(geom, 7), config);
        let (b0, b1) = (in_block(&ftl, 0), in_block(&ftl, 1));
        assert_eq!((b0.len(), b1.len()), (16, 16));
        ftl.trim(b0[0]).unwrap(); // block 0: 15 valid
        for &lba in &b1[..4] {
            ftl.trim(lba).unwrap(); // block 1: 12 valid
        }
        assert!(ftl.collect_one(0).unwrap());
        let round = ftl.rounds.last().unwrap();
        assert!(round.wear_leveling);
        assert_eq!(
            round.victim,
            Ppa::new(0, 0, 1, 0),
            "wear tie must break toward the emptier block"
        );
        assert_eq!(round.moves.len(), 12);
        assert_eq!(ftl.stats().wear_swaps, 1);

        // Strictly colder wins even against a much emptier warmer block:
        // block 1 is pre-worn and nearly empty, block 0 is cold and
        // fully valid — the cold block is still the victim.
        let mut array = FlashArray::new(geom, 7);
        for _ in 0..2 {
            array.erase(Ppa::new(0, 0, 1, 0)).unwrap();
        }
        let mut ftl = fill(array, config);
        let b1 = in_block(&ftl, 1);
        for &lba in &b1[..14] {
            ftl.trim(lba).unwrap(); // block 1: 2 valid, block 0: 16 valid
        }
        assert!(ftl.collect_one(0).unwrap());
        let round = ftl.rounds.last().unwrap();
        assert!(round.wear_leveling);
        assert_eq!(
            round.victim,
            Ppa::new(0, 0, 0, 0),
            "the colder block wins outright"
        );
        assert_eq!(round.moves.len(), 16);
    }

    /// The twin-replay contract: a blank mirror driven by `step_write` /
    /// `step_trim` makes the identical policy decisions as a full-data
    /// FTL fed the same logical op sequence.
    #[test]
    fn blank_step_replay_matches_the_data_path() {
        use bluedbm_sim::rng::Rng;
        let config = FtlConfig {
            wear_threshold: 4,
            ..FtlConfig::default()
        };
        let mut data_ftl =
            Ftl::new(FlashArray::new(FlashGeometry::small(), 7), config).unwrap();
        let mut blank = Ftl::new(FlashArray::new(FlashGeometry::small(), 7), config).unwrap();
        let cap = data_ftl.capacity_pages();
        let mut rng = Rng::new(42);
        for stamp in 0..cap * 3 {
            let lba = rng.below(cap);
            if rng.below(8) == 0 {
                data_ftl.trim(lba).unwrap();
                let before = blank.physical_of(lba);
                assert_eq!(blank.step_trim(lba).unwrap(), before);
            } else {
                let data = page(&data_ftl, stamp);
                data_ftl.write(lba, &data).unwrap();
                let data_rounds = data_ftl.last_gc_rounds().to_vec();
                let out = blank.step_write(lba).unwrap();
                assert_eq!(out.target, data_ftl.physical_of(lba).unwrap());
                assert_eq!(out.gc, data_rounds, "GC rounds diverge at stamp {stamp}");
            }
        }
        assert_eq!(data_ftl.stats(), blank.stats());
        for lba in 0..cap {
            assert_eq!(data_ftl.physical_of(lba), blank.physical_of(lba));
        }
        assert!(data_ftl.stats().gc_erases > 0, "GC must have run");
        assert_eq!(data_ftl.array().max_wear(), blank.array().max_wear());
        assert_eq!(data_ftl.array().min_wear(), blank.array().min_wear());
    }

    #[test]
    fn step_trim_reports_the_old_mapping() {
        let mut ftl = make(FlashGeometry::tiny());
        assert_eq!(ftl.step_trim(3).unwrap(), None);
        let out = ftl.step_write(3).unwrap();
        assert!(out.gc.is_empty());
        assert_eq!(ftl.step_trim(3).unwrap(), Some(out.target));
        assert!(ftl.read(3).is_err());
    }

    #[test]
    fn capacity_accounts_for_reserves() {
        let ftl = make(FlashGeometry::tiny());
        let geom = FlashGeometry::tiny();
        let total = geom.total_pages() as u64;
        assert!(ftl.capacity_pages() < total);
        assert!(ftl.capacity_pages() > total / 2);
    }

    #[test]
    fn factory_bad_blocks_are_skipped() {
        use bluedbm_flash::array::ErrorModel;
        let model = ErrorModel {
            factory_bad_fraction: 0.2,
            ..ErrorModel::none()
        };
        let array = FlashArray::with_error_model(FlashGeometry::small(), 21, model);
        let good = array.good_blocks().len();
        assert!(good < FlashGeometry::small().total_blocks());
        let mut ftl = Ftl::new(array, FtlConfig::default()).unwrap();
        let cap = ftl.capacity_pages();
        for lba in 0..cap {
            ftl.write(lba, &page(&ftl, lba)).unwrap();
        }
        for lba in (0..cap).step_by(11) {
            assert_eq!(ftl.read(lba).unwrap(), page(&ftl, lba));
        }
    }

    #[test]
    fn over_provisioning_reduces_waf() {
        use bluedbm_sim::rng::Rng;
        let run = |op: f64| -> f64 {
            let config = FtlConfig {
                over_provision: op,
                ..FtlConfig::default()
            };
            let mut ftl = Ftl::new(FlashArray::new(FlashGeometry::small(), 7), config).unwrap();
            let cap = ftl.capacity_pages();
            let mut rng = Rng::new(5);
            let data = vec![0xAAu8; ftl.page_bytes()];
            for lba in 0..cap {
                ftl.write(lba, &data).unwrap();
            }
            for _ in 0..cap * 3 {
                ftl.write(rng.below(cap), &data).unwrap();
            }
            ftl.stats().waf()
        };
        let tight = run(0.06);
        let roomy = run(0.30);
        assert!(
            roomy < tight,
            "more over-provisioning must lower WAF: {roomy} vs {tight}"
        );
    }
}
