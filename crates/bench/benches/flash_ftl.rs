//! Criterion microbenchmarks of the storage substrate: SECDED codec
//! throughput, steady-state flash array churn, FTL write path and the
//! log-structured file system.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use bluedbm_flash::array::FlashArray;
use bluedbm_flash::ecc;
use bluedbm_flash::geometry::{FlashGeometry, Ppa};
use bluedbm_ftl::ftl::{Ftl, FtlConfig};
use bluedbm_ftl::rfs::{Rfs, RfsConfig};
use bluedbm_sim::rng::Rng;
use bluedbm_workloads::kvgen::kv_flash_geometry;

fn bench_ecc(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let mut page = vec![0u8; 8192];
    rng.fill_bytes(&mut page);
    let oob = ecc::encode_page(&page);
    let mut g = c.benchmark_group("ecc");
    g.throughput(Throughput::Bytes(page.len() as u64));
    g.bench_function("encode_8KiB", |b| {
        b.iter(|| black_box(ecc::encode_page(black_box(&page))))
    });
    g.bench_function("decode_8KiB_clean", |b| {
        b.iter(|| black_box(ecc::decode_page(black_box(&page), black_box(&oob))))
    });
    let mut corrupted = page.clone();
    corrupted[17] ^= 0x10;
    g.bench_function("decode_8KiB_one_flip", |b| {
        b.iter(|| black_box(ecc::decode_page(black_box(&corrupted), black_box(&oob))))
    });
    g.finish();
}

/// Steady-state array churn on the KV geometry: fill the first
/// `BLOCKS_PER_PLANE` blocks of every plane (pages interleaved across
/// planes, as the FTL allocates them), read every page back, erase the
/// blocks, repeat. One iteration is one page operation — a program, a
/// read, or a block erase — so the row reads directly as ns per page op.
struct ArrayChurn {
    array: FlashArray,
    pages: Vec<Ppa>,
    blocks: Vec<Ppa>,
    data: Vec<u8>,
    dest: Vec<u8>,
    step: usize,
}

const BLOCKS_PER_PLANE: u32 = 2;

impl ArrayChurn {
    fn new() -> Self {
        let geom = kv_flash_geometry();
        let planes: Vec<(u16, u16)> = (0..geom.buses as u16)
            .flat_map(|bus| (0..geom.chips_per_bus as u16).map(move |chip| (bus, chip)))
            .collect();
        let blocks: Vec<Ppa> = (0..BLOCKS_PER_PLANE)
            .flat_map(|block| {
                planes
                    .iter()
                    .map(move |&(bus, chip)| Ppa::new(bus, chip, block, 0))
            })
            .collect();
        let pages = (0..geom.pages_per_block as u32)
            .flat_map(|page| blocks.iter().map(move |b| b.with_page(page)))
            .collect();
        ArrayChurn {
            array: FlashArray::new(geom, 1),
            pages,
            blocks,
            data: vec![0xA5; geom.page_bytes],
            dest: vec![0; geom.page_bytes],
            step: 0,
        }
    }

    fn step(&mut self) {
        let n = self.pages.len();
        let i = self.step;
        self.step = (i + 1) % (2 * n + self.blocks.len());
        if i < n {
            self.array.program(self.pages[i], &self.data).unwrap();
        } else if i < 2 * n {
            self.array
                .read_into(self.pages[i - n], &mut self.dest)
                .unwrap();
        } else {
            self.array.erase(self.blocks[i - 2 * n]).unwrap();
        }
    }
}

fn bench_array(c: &mut Criterion) {
    let mut churn = ArrayChurn::new();
    let mut g = c.benchmark_group("flash_array");
    g.throughput(Throughput::Elements(1));
    g.bench_function("kv_geometry_churn_per_page_op", |b| b.iter(|| churn.step()));
    g.finish();
}

fn bench_ftl(c: &mut Criterion) {
    let geom = FlashGeometry::small();
    c.bench_function("ftl_random_overwrite_churn", |b| {
        b.iter_batched(
            || {
                let ftl = Ftl::new(FlashArray::new(geom, 3), FtlConfig::default()).unwrap();
                (ftl, Rng::new(9))
            },
            |(mut ftl, mut rng)| {
                let cap = ftl.capacity_pages();
                let data = vec![0u8; ftl.page_bytes()];
                for lba in 0..cap {
                    ftl.write(lba, &data).unwrap();
                }
                for _ in 0..cap {
                    ftl.write(rng.below(cap), &data).unwrap();
                }
                black_box(ftl.stats().waf())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_rfs(c: &mut Criterion) {
    let geom = FlashGeometry::small();
    let blob = vec![0x11u8; 64 * 1024];
    let mut g = c.benchmark_group("rfs");
    g.throughput(Throughput::Bytes(blob.len() as u64));
    g.bench_function("write_read_64KiB_file", |b| {
        b.iter_batched(
            || Rfs::format(FlashArray::new(geom, 5), RfsConfig::default()).unwrap(),
            |mut fs| {
                fs.create("bench").unwrap();
                fs.write("bench", &blob).unwrap();
                black_box(fs.read("bench").unwrap().len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!{
    name = benches;
    // Short sampling: these are smoke-level performance numbers, and the
    // full suite must run in CI time.
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ecc, bench_array, bench_ftl, bench_rfs
}
criterion_main!(benches);
