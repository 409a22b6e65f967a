//! Property-based tests of the core invariants, across crates.

mod common;

use proptest::prelude::*;

use bluedbm::flash::array::ErrorModel;
use bluedbm::flash::ecc::{self, Decoded};
use bluedbm::flash::{FlashArray, FlashError, FlashGeometry, Ppa};
use bluedbm::ftl::ftl::{Ftl, FtlConfig};
use bluedbm::host::ReorderQueue;
use bluedbm::isp::mp::MpMatcher;
use bluedbm::net::{NodeId, RoutingTable, Topology};
use bluedbm::sim::time::SimTime;
use bluedbm::sim::{PageRef, PageStore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// SECDED corrects any single flipped bit of the 72-bit codeword.
    #[test]
    fn ecc_corrects_any_single_flip(data: u64, bit in 0usize..72) {
        let parity = ecc::encode(data);
        let (d, p) = if bit < 64 {
            (data ^ (1u64 << bit), parity)
        } else {
            (data, parity ^ (1u8 << (bit - 64)))
        };
        prop_assert_eq!(ecc::decode(d, p), Decoded::Corrected(data));
    }

    /// SECDED never mis-corrects a double flip into the wrong word: it
    /// either reports uncorrectable or (for flips involving the overall
    /// parity bit) recovers the original data.
    #[test]
    fn ecc_never_silently_corrupts_on_double_flip(
        data: u64,
        b1 in 0usize..64,
        b2 in 0usize..64,
    ) {
        prop_assume!(b1 != b2);
        let parity = ecc::encode(data);
        let corrupted = data ^ (1u64 << b1) ^ (1u64 << b2);
        prop_assert_eq!(ecc::decode(corrupted, parity), Decoded::Uncorrectable);
    }

    /// Morris-Pratt equals naive search for arbitrary inputs and
    /// arbitrary stream split points.
    #[test]
    fn mp_equals_naive_under_any_split(
        hay in proptest::collection::vec(0u8..3, 0..400),
        pat in proptest::collection::vec(0u8..3, 1..6),
        split in 0usize..400,
    ) {
        let naive: Vec<u64> = (0..hay.len().saturating_sub(pat.len() - 1))
            .filter(|&i| hay[i..i + pat.len()] == pat[..])
            .map(|i| i as u64)
            .collect();
        let mut m = MpMatcher::new(&pat).expect("non-empty");
        let split = split.min(hay.len());
        m.feed(&hay[..split]);
        m.feed(&hay[split..]);
        prop_assert_eq!(m.matches(), &naive[..]);
    }

    /// The reorder queue reassembles a page exactly once from any chunk
    /// decomposition, with every burst a full burst except possibly the
    /// last.
    #[test]
    fn reorder_queue_reassembles_any_chunking(
        chunks in proptest::collection::vec(1u32..500, 1..40),
    ) {
        const PAGE: u32 = 4096;
        let mut rq = ReorderQueue::new(1, 128, PAGE);
        let mut fed = 0u32;
        let mut bursts = Vec::new();
        for c in chunks {
            let take = c.min(PAGE - fed);
            if take == 0 { break; }
            bursts.extend(rq.push(0, take));
            fed += take;
        }
        let total: u32 = bursts.iter().map(|b| b.bytes).sum();
        prop_assert_eq!(total, fed - rq.pending(0));
        let completes = bursts.iter().filter(|b| b.completes_page).count();
        prop_assert_eq!(completes, usize::from(fed == PAGE));
        for b in &bursts[..bursts.len().saturating_sub(1)] {
            prop_assert_eq!(b.bytes, 128);
        }
    }

    /// On any connected random topology, deterministic routing reaches
    /// every destination on a shortest path, for every endpoint.
    #[test]
    fn routing_always_finds_shortest_paths(
        n in 3usize..10,
        extra_edges in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
        endpoint in 0u16..8,
    ) {
        // A ring guarantees connectivity; extra edges add diversity.
        let mut topo = Topology::ring(n, 1);
        for (a, b) in extra_edges {
            let (a, b) = (a % n, b % n);
            if a != b
                && topo.free_ports(NodeId::from(a)) > 0
                && topo.free_ports(NodeId::from(b)) > 0
            {
                topo.connect(NodeId::from(a), NodeId::from(b));
            }
        }
        let table = RoutingTable::compute(&topo);
        for src in 0..n {
            let dist = topo.distances_from(NodeId::from(src));
            for (dst, &want) in dist.iter().enumerate().take(n) {
                if src == dst { continue; }
                let path = table.path(&topo, NodeId::from(src), NodeId::from(dst), endpoint);
                prop_assert_eq!(path.len() as u32 - 1, want);
                prop_assert_eq!(*path.last().unwrap(), NodeId::from(dst));
            }
        }
    }

    /// The page store never hands out a stale handle, under any
    /// interleaving of allocations, frees and slot reuse: live handles
    /// always read back exactly their contents, freed handles never
    /// become live again (generation tagging), and the live count always
    /// matches a reference model.
    #[test]
    fn pagestore_interleavings_never_alias(
        ops in proptest::collection::vec((0u8..5, 0usize..64, 1usize..96), 1..160),
    ) {
        let mut store = PageStore::new();
        let mut live: Vec<(PageRef, Vec<u8>)> = Vec::new();
        let mut dead: Vec<PageRef> = Vec::new();
        let mut stamp: u8 = 0;
        for (op, pick, len) in ops {
            match op {
                // Allocate a fresh page with distinctive contents.
                0 | 1 => {
                    stamp = stamp.wrapping_add(1);
                    let data = vec![stamp; len];
                    let r = store.alloc_from(&data);
                    prop_assert!(
                        dead.iter().all(|&d| d != r),
                        "recycled slot must carry a new generation"
                    );
                    live.push((r, data));
                }
                // Free a random live page.
                2 => if !live.is_empty() {
                    let (r, _) = live.remove(pick % live.len());
                    store.free(r);
                    prop_assert!(!store.is_live(r));
                    dead.push(r);
                }
                // Read a random live page back.
                3 => if !live.is_empty() {
                    let (r, data) = &live[pick % live.len()];
                    prop_assert_eq!(store.get(*r), &data[..]);
                    prop_assert_eq!(store.len(*r), data.len());
                }
                // Every dead handle stays dead; every live handle stays live.
                _ => {
                    prop_assert!(dead.iter().all(|&d| !store.is_live(d)));
                    prop_assert!(live.iter().all(|(r, _)| store.is_live(*r)));
                }
            }
        }
        // The audit agrees with the model: it passes exactly when the
        // model says nothing is live (`live_pages` is what it checks).
        prop_assert_eq!(store.live_pages(), live.len());
        for (r, data) in &live {
            prop_assert_eq!(store.get(*r), &data[..]); // contents survive to the end
        }
        for (r, _) in live {
            store.free(r);
        }
        store.assert_quiescent();
    }

    /// SimTime arithmetic: associativity of addition and consistency of
    /// multiplication, over sane ranges.
    #[test]
    fn simtime_arithmetic_laws(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, k in 0u64..1000) {
        let ta = SimTime::ps(a);
        let tb = SimTime::ps(b);
        prop_assert_eq!(ta + tb, tb + ta);
        prop_assert_eq!((ta + tb).saturating_sub(tb), ta);
        prop_assert_eq!(ta * k, SimTime::ps(a * k));
        prop_assert_eq!(ta.max(tb).min(ta), ta.min(tb).max(ta));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Word count over any byte stream equals itself under any page
    /// split (the combiner's straddle-carrying invariant).
    #[test]
    fn wordcount_split_invariance(
        text in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        split in 0usize..300,
    ) {
        use bluedbm::isp::wordcount::WordCountEngine;
        use bluedbm::isp::Accelerator;
        let mut whole = WordCountEngine::new();
        whole.consume(0, &text);
        whole.finish();
        let mut halves = WordCountEngine::new();
        let split = split.min(text.len());
        halves.consume(0, &text[..split]);
        halves.consume(1, &text[split..]);
        halves.finish();
        prop_assert_eq!(whole.into_table(), halves.into_table());
    }

    /// Aggregation is page-decomposition invariant: any chunking of the
    /// record stream yields the same group table.
    #[test]
    fn aggregation_chunking_invariance(
        rows in proptest::collection::vec((0u64..8, 0u64..1000), 1..200),
        chunk in 1usize..32,
    ) {
        use bluedbm::isp::aggregate::{AggregateEngine, AggregateOp};
        use bluedbm::isp::Accelerator;
        let page_of = |rows: &[(u64, u64)]| {
            let mut p = Vec::with_capacity(rows.len() * 16);
            for &(k, v) in rows {
                p.extend_from_slice(&k.to_le_bytes());
                p.extend_from_slice(&v.to_le_bytes());
            }
            p
        };
        let mut whole = AggregateEngine::new(16, 0, 8, AggregateOp::Sum);
        whole.consume(0, &page_of(&rows));
        let mut chunked = AggregateEngine::new(16, 0, 8, AggregateOp::Sum);
        for (i, c) in rows.chunks(chunk).enumerate() {
            chunked.consume(i as u64, &page_of(c));
        }
        prop_assert_eq!(whole.into_table(), chunked.into_table());
    }
}

proptest! {
    // Heavier model-based test: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The log-structured file system behaves exactly like an in-memory
    /// map of name -> bytes under any sequence of create / write /
    /// append / delete / read operations, cleaner churn included.
    #[test]
    fn rfs_matches_map_model(
        ops in proptest::collection::vec(
            (0u8..5, 0usize..4, proptest::collection::vec(proptest::num::u8::ANY, 0..1500)),
            1..60,
        ),
    ) {
        use bluedbm::ftl::rfs::{Rfs, RfsConfig};
        use bluedbm::ftl::FtlError;
        let mut fs = Rfs::format(
            FlashArray::new(FlashGeometry::tiny(), 23),
            RfsConfig::default(),
        ).expect("format");
        // detlint::allow(no-std-hasher): oracle model independent of fxhash
        let mut model: std::collections::HashMap<String, Vec<u8>> = Default::default();
        let names = ["a", "b", "c", "d"];
        for (op, which, data) in ops {
            let name = names[which];
            match op {
                0 => match fs.create(name) {
                    Ok(()) => { prop_assert!(!model.contains_key(name)); model.insert(name.into(), vec![]); }
                    Err(FtlError::FileExists(_)) => prop_assert!(model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                },
                1 => match fs.write(name, &data) {
                    Ok(()) => { prop_assert!(model.contains_key(name)); model.insert(name.into(), data); }
                    Err(FtlError::NoSuchFile(_)) => prop_assert!(!model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                },
                2 => match fs.append(name, &data) {
                    Ok(()) => {
                        prop_assert!(model.contains_key(name));
                        model.get_mut(name).expect("checked").extend_from_slice(&data);
                    }
                    Err(FtlError::NoSuchFile(_)) => prop_assert!(!model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("append: {e}"))),
                },
                3 => match fs.delete(name) {
                    Ok(()) => { prop_assert!(model.remove(name).is_some()); }
                    Err(FtlError::NoSuchFile(_)) => prop_assert!(!model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                },
                _ => match model.get(name) {
                    Some(want) => prop_assert_eq!(&fs.read(name).expect("read"), want),
                    None => prop_assert!(fs.read(name).is_err()),
                },
            }
        }
        for (name, want) in &model {
            prop_assert_eq!(&fs.read(name).expect("final read"), want);
            prop_assert_eq!(
                fs.physical_addrs(name).expect("addrs").len() as u64,
                (want.len() as u64).div_ceil(fs.page_bytes() as u64)
            );
        }
    }

    /// The FTL behaves exactly like a hash map under any sequence of
    /// writes, overwrites, trims and reads (driver shared with the
    /// other oracle suites via `tests/common`).
    #[test]
    fn ftl_matches_hashmap_model(
        ops in proptest::collection::vec((0u8..3, 0u64..64, 0u8..255), 1..300),
    ) {
        let ftl = Ftl::new(
            FlashArray::new(FlashGeometry::tiny(), 3),
            FtlConfig::default(),
        ).expect("ftl");
        common::ftl_matches_model(ftl, ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The flash array stores exactly what an address -> bytes map
    /// would, under any sequence of program / blank program / read /
    /// trim / erase, with and without injected bit errors: same data,
    /// same errors, same program bitmap. Every program writes a fresh
    /// version number, so a read of a recycled slab record's old bytes
    /// would show. Steady churn never grows the slab past the peak
    /// count of pages holding bytes, rounded up to one chunk.
    #[test]
    fn flash_array_matches_map_oracle(
        ops in proptest::collection::vec((0u8..5, 0usize..256, 0u8..255), 1..400),
    ) {
        use std::collections::hash_map::Entry;
        let geom = FlashGeometry::tiny();
        for errors in [ErrorModel::none(), ErrorModel::wearing()] {
            let mut array = FlashArray::with_error_model(geom, 29, errors);
            // detlint::allow(no-std-hasher): oracle model independent of fxhash
            let mut model: std::collections::HashMap<Ppa, Vec<u8>> = Default::default();
            let mut version = 0u64;
            let mut page = |fill: u8| {
                version += 1;
                let mut bytes = vec![fill; geom.page_bytes];
                bytes[..8].copy_from_slice(&version.to_le_bytes());
                bytes
            };
            let mut peak_live = 0usize;
            for &(op, id, fill) in &ops {
                let ppa = geom.ppa_of(id);
                let bad = array.is_bad(ppa);
                match op {
                    0 | 1 => {
                        // An empty entry is a blank-programmed page.
                        let data = if op == 0 { page(fill) } else { Vec::new() };
                        let want = if bad {
                            Err(FlashError::BadBlock(ppa))
                        } else {
                            match model.entry(ppa) {
                                Entry::Occupied(_) => Err(FlashError::AlreadyProgrammed(ppa)),
                                Entry::Vacant(slot) => {
                                    slot.insert(data.clone());
                                    Ok(())
                                }
                            }
                        };
                        let got = if data.is_empty() {
                            array.program_blank(ppa)
                        } else {
                            array.program(ppa, &data)
                        };
                        prop_assert_eq!(got, want);
                    }
                    2 => {
                        let got = array.read(ppa).map(|r| r.data);
                        match model.get(&ppa) {
                            _ if bad => prop_assert_eq!(got, Err(FlashError::BadBlock(ppa))),
                            Some(data) if !data.is_empty() => prop_assert_eq!(got, Ok(data.clone())),
                            _ => prop_assert_eq!(got, Err(FlashError::NotProgrammed(ppa))),
                        }
                    }
                    3 => {
                        let want = if bad {
                            Err(FlashError::BadBlock(ppa))
                        } else {
                            model.remove(&ppa);
                            Ok(())
                        };
                        prop_assert_eq!(array.trim(ppa), want);
                    }
                    _ => {
                        let want = if bad {
                            Err(FlashError::BadBlock(ppa))
                        } else {
                            let block = (ppa.bus, ppa.chip, ppa.block);
                            model.retain(|p, _| (p.bus, p.chip, p.block) != block);
                            Ok(())
                        };
                        prop_assert_eq!(array.erase(ppa), want);
                    }
                }
                prop_assert_eq!(array.is_programmed(ppa), model.contains_key(&ppa));
                let has_data = model.get(&ppa).is_some_and(|d| !d.is_empty());
                prop_assert_eq!(array.page_has_data(ppa), has_data);
                peak_live = peak_live.max(model.values().filter(|d| !d.is_empty()).count());
                let chunk = array.chunk_records();
                prop_assert!(array.slab_records() <= peak_live.div_ceil(chunk) * chunk);
            }
            // Erase-then-reprogram cycles over every touched good block:
            // each read must return the newest version, never the bytes a
            // recycled record held before.
            let mut blocks: Vec<Ppa> = model.keys().map(|p| p.with_page(0)).collect();
            blocks.sort();
            blocks.dedup();
            let slab = array.slab_records();
            for cycle in 0..3u8 {
                let mut written = Vec::new();
                for &block in &blocks {
                    array.erase(block).expect("good block erases");
                    for p in 0..geom.pages_per_block as u32 {
                        prop_assert!(!array.page_has_data(block.with_page(p)));
                    }
                    // Fewer pages per block than before each cycle, so
                    // live pages never exceed the slab's peak.
                    let live = model
                        .iter()
                        .filter(|(p, d)| p.with_page(0) == block && !d.is_empty())
                        .count();
                    for p in 0..live.saturating_sub(cycle as usize) as u32 {
                        let data = page(cycle);
                        array.program(block.with_page(p), &data).expect("erased page programs");
                        written.push((block.with_page(p), data));
                    }
                }
                for (ppa, data) in &written {
                    prop_assert_eq!(&array.read(*ppa).expect("programmed page reads").data, data);
                }
                // Reprogramming recycles records: the slab does not grow.
                prop_assert_eq!(array.slab_records(), slab);
            }
        }
    }
}
