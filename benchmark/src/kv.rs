//! The two key-value workloads: `kv_zipf_read` and `kv_overwrite_gc`.
//!
//! Both are closed loops from one client: submit a fixed batch of
//! requests, wait for `KvStore::drive` to return every completion, check
//! them, then submit the next batch. A benchmark-side oracle holds the
//! last value written to every key; submission order is the store's
//! linearization order, so each get must return exactly the oracle's
//! value at the moment it was submitted.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bluedbm_core::kvstore::{KvCompletion, KvOpKind};
use bluedbm_core::{Cluster, KvStore, SystemConfig};
use bluedbm_flash::FlashGeometry;
use bluedbm_sim::fxhash::FxHashMap;
use bluedbm_sim::Rng;
use bluedbm_workloads::kvgen::{kv_flash_geometry, KvRequest, KvWorkloadSpec};

use crate::rep::{derive, fnv, fold, Failures, Rep};
use crate::spans::{host_clock, Tracer};
use crate::{layers, meta};

/// Batch size of the load and read-back phases (the default per-node
/// window).
const WINDOW_BATCH: usize = 512;

pub struct KvWorkload {
    config: SystemConfig,
    nodes: usize,
    spec: KvWorkloadSpec,
    /// Requests per closed-loop batch in the measured phase.
    batch: usize,
    /// Gets of seeded random keys after the churn, in batches of
    /// [`WINDOW_BATCH`], checked against the oracle.
    readback: u64,
    readback_seed: u64,
}

/// 4-node ring on the sequential engine, eight tenants, zipfian (0.99)
/// churn at 70/20/10 get/overwrite/delete in batches of 512. The flash
/// stays nearly empty, so garbage collection never runs.
pub fn zipf_read(seed: u64) -> KvWorkload {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = kv_flash_geometry();
    config.sim.shards = 1;
    let nodes = 4;
    KvWorkload {
        config,
        nodes,
        spec: KvWorkloadSpec {
            tenants: 8,
            keys_per_tenant: 12_500,
            churn_ops: 300_000,
            read_fraction: 0.7,
            delete_fraction: 0.1,
            zipf_exponent: 0.99,
            value_bytes: 64,
            nodes,
            seed: derive(seed, 0x21bf),
        },
        batch: 512,
        readback: 0,
        readback_seed: 0,
    }
}

/// Overwrite-only zipfian churn of twice the logical capacity over a
/// live set at 65% occupancy, in batches of 32, then a read-back of
/// sampled keys in full-window batches, so the gets queue behind each
/// other rather than behind collections. One value fills one page, so
/// every overwrite strands a page that garbage collection must reclaim.
pub fn overwrite_gc(seed: u64) -> KvWorkload {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = FlashGeometry {
        buses: 4,
        chips_per_bus: 4,
        blocks_per_chip: 32,
        pages_per_block: 32,
        page_bytes: 256,
    };
    config.sim.shards = 1;
    let nodes = 4;
    let capacity: u64 = {
        let probe = Cluster::ring(nodes, &config).expect("cluster");
        (0..nodes)
            .map(|n| probe.node_capacity_pages(n.into()))
            .sum()
    };
    let tenants = 4;
    KvWorkload {
        config,
        nodes,
        spec: KvWorkloadSpec {
            tenants,
            keys_per_tenant: capacity * 65 / 100 / u64::from(tenants),
            churn_ops: 2 * capacity,
            read_fraction: 0.0,
            delete_fraction: 0.0,
            zipf_exponent: 0.99,
            value_bytes: 200,
            nodes,
            seed: derive(seed, 0x6c0f),
        },
        batch: 32,
        readback: 12_000,
        readback_seed: derive(seed, 0x8ead),
    }
}

/// What the oracle expects of one submitted request.
#[derive(Clone, Copy)]
enum Expect {
    Put,
    Delete { found: bool },
    Get { value: Option<u64> },
}

impl KvWorkload {
    fn readback(&self) -> impl Iterator<Item = KvRequest> + '_ {
        let mut rng = Rng::new(self.readback_seed);
        let spec = &self.spec;
        (0..self.readback).map(move |_| {
            let tenant = rng.below(u64::from(spec.tenants)) as u16;
            let key = KvWorkloadSpec::key(tenant, rng.below(spec.keys_per_tenant));
            KvRequest::Get {
                tenant,
                reader: spec.reader(tenant),
                key,
            }
        })
    }

    pub fn run(&self, traced: bool) -> Rep {
        let mut config = self.config;
        config.sim.trace.wall_profile = traced;
        let mut tr = Tracer::new(traced);
        let mut failures = Failures::default();
        let mut digest = 0u64;
        let mut checked_ops = 0u64;

        // The oracle starts as the load phase's final state; built
        // outside every timed section.
        let mut oracle: FxHashMap<Vec<u8>, u64> = FxHashMap::default();
        for r in self.spec.load() {
            if let KvRequest::Put { key, value, .. } = r {
                oracle.insert(key, fnv(&value));
            }
        }

        let base_rss_mb = meta::reset_peak_rss();
        tr.enter("setup", 0);
        let t = host_clock();
        let mut store = tr.leaf("core.cluster.build", 0, || {
            KvStore::new(Cluster::ring(self.nodes, &config).expect("cluster"))
        });
        let build_s = t.elapsed().as_secs_f64();

        tr.enter("load", 0);
        let mut load = self.spec.load();
        let mut reqs = Vec::new();
        let mut load_batches_s = Vec::new();
        for b in 0.. {
            let t = host_clock();
            reqs.clear();
            tr.leaf("workloads.kvgen", b, || {
                reqs.extend(load.by_ref().take(WINDOW_BATCH))
            });
            if reqs.is_empty() {
                break;
            }
            tr.leaf("core.kvstore.submit", b, || submit(&mut store, &reqs));
            let done = tr.leaf("core.kvstore.drive", b, || store.drive());
            load_batches_s.push(t.elapsed().as_secs_f64());
            for c in &done {
                if let Some(e) = &c.error {
                    failures.add(|| format!("load put failed: {e}"));
                }
            }
            checked_ops += done.len() as u64;
        }
        tr.exit();
        tr.exit();

        let base = layers::counters(store.cluster(), Some(&store), self.spec.tenants);
        let wall0 = layers::wall(store.cluster());
        let sim0 = store.cluster().now();
        let mut reads_ps = Vec::new();
        let mut writes_ps = Vec::new();
        let mut measured_batches_s = Vec::new();
        let mut measured_ops = 0u64;
        let phases: [(Box<dyn Iterator<Item = KvRequest> + '_>, usize); 2] = [
            (Box::new(self.spec.churn()), self.batch),
            (Box::new(self.readback()), WINDOW_BATCH),
        ];
        let mut b = 0u64;
        tr.enter("measure", 0);
        for (mut stream, size) in phases {
            loop {
                let t = host_clock();
                tr.enter("batch", b);
                reqs.clear();
                tr.leaf("workloads.kvgen", b, || {
                    reqs.extend(stream.by_ref().take(size))
                });
                if reqs.is_empty() {
                    tr.exit();
                    break;
                }
                let first = tr.leaf("core.kvstore.submit", b, || submit(&mut store, &reqs));
                let done = tr.leaf("core.kvstore.drive", b, || store.drive());
                tr.exit();
                measured_batches_s.push(t.elapsed().as_secs_f64());
                measured_ops += done.len() as u64;
                checked_ops += done.len() as u64;
                tr.leaf("check", b, || {
                    let expect = expectations(&mut oracle, &reqs);
                    check(
                        expect,
                        first,
                        &done,
                        &mut failures,
                        &mut reads_ps,
                        &mut writes_ps,
                        &mut digest,
                    );
                });
                b += 1;
            }
        }
        tr.exit();
        let sim_elapsed_ps = (store.cluster().now() - sim0).as_ps();

        let audit = catch_unwind(AssertUnwindSafe(|| {
            store.assert_no_stranded_pages();
            store.cluster().assert_quiescent();
        }));
        if audit.is_err() {
            failures.add(|| "stranded-page or page-store audit failed".into());
        }
        let layers = layers::layers(store.cluster(), Some(&store), self.spec.tenants, &base);
        fold(
            &mut digest,
            &[layers.delta.events, store.cluster().now().as_ps()],
        );
        Rep {
            build_s,
            load_batches_s,
            measured_batches_s,
            base_rss_mb,
            measured_ops,
            checked_ops,
            failures,
            reads_ps,
            writes_ps,
            sim_elapsed_ps,
            digest,
            layers,
            wall: layers::wall(store.cluster()).since(wall0),
            tracer: tr,
        }
    }
}

/// Submit a batch in order; returns the first op id (ids are
/// consecutive).
fn submit(store: &mut KvStore, reqs: &[KvRequest]) -> u64 {
    let mut first = None;
    for r in reqs {
        let id = match r {
            KvRequest::Put { tenant, key, value } => store.submit_put(*tenant, key, value),
            KvRequest::Get {
                tenant,
                reader,
                key,
            } => store.submit_get(*tenant, *reader, key),
            KvRequest::Delete { tenant, key } => store.submit_delete(*tenant, key),
        };
        first.get_or_insert(id);
    }
    first.expect("non-empty batch")
}

/// Advance the oracle through a batch in submission order, returning
/// what each request must observe.
fn expectations(oracle: &mut FxHashMap<Vec<u8>, u64>, reqs: &[KvRequest]) -> Vec<Option<Expect>> {
    reqs.iter()
        .map(|r| {
            Some(match r {
                KvRequest::Put { key, value, .. } => {
                    oracle.insert(key.clone(), fnv(value));
                    Expect::Put
                }
                KvRequest::Delete { key, .. } => Expect::Delete {
                    found: oracle.remove(key).is_some(),
                },
                KvRequest::Get { key, .. } => Expect::Get {
                    value: oracle.get(key).copied(),
                },
            })
        })
        .collect()
}

/// Check each completion against its expectation (taken, so a second
/// completion for one op is caught) and record its latency.
fn check(
    mut expect: Vec<Option<Expect>>,
    first: u64,
    done: &[KvCompletion],
    failures: &mut Failures,
    reads_ps: &mut Vec<u64>,
    writes_ps: &mut Vec<u64>,
    digest: &mut u64,
) {
    if done.len() != expect.len() {
        failures.add(|| format!("{} completions for {} requests", done.len(), expect.len()));
    }
    for c in done {
        let value = c.value.as_deref().map(fnv);
        fold(
            digest,
            &[
                c.op,
                c.kind as u64,
                u64::from(c.found),
                value.unwrap_or(0),
                c.submitted.as_ps(),
                c.finished.as_ps(),
            ],
        );
        let Some(want) = expect
            .get_mut(c.op.wrapping_sub(first) as usize)
            .and_then(Option::take)
        else {
            failures.add(|| format!("unknown or repeated completion for op {}", c.op));
            continue;
        };
        if let Some(e) = &c.error {
            failures.add(|| format!("op {} ({:?}) failed: {e}", c.op, c.kind));
            continue;
        }
        let latency = (c.finished - c.submitted).as_ps();
        let ok = match (want, c.kind) {
            (Expect::Put, KvOpKind::Put) => {
                writes_ps.push(latency);
                true
            }
            (Expect::Delete { found }, KvOpKind::Delete) => c.found == found,
            (Expect::Get { value: want }, KvOpKind::Get) => {
                reads_ps.push(latency);
                c.found == want.is_some() && value == want
            }
            _ => false,
        };
        if !ok {
            failures.add(|| format!("op {} ({:?}) disagrees with the oracle", c.op, c.kind));
        }
    }
}
