//! `fabric_scatter`: all-to-all page reads across an 8×8 mesh on the
//! sharded engine.
//!
//! Set-up writes distinct seeded bytes to every page through the
//! simulated write path, in waves where each node writes a seeded number
//! of pages at one instant. Each measured round, every node reads pages
//! of other nodes, all injected at one simulated instant, and the round
//! runs to quiescence before the next (a closed loop). Even-numbered
//! readers consume their pages in-store; odd-numbered readers consume
//! them on the host, so those pages also cross PCIe and the read-buffer
//! pool. Every read must return data, and the bytes written to its page.

use bluedbm_core::node::Consume;
use bluedbm_core::{Cluster, ExecMode, GlobalPageAddr, NodeId, SystemConfig};
use bluedbm_net::topology::Topology;
use bluedbm_sim::Rng;

use crate::rep::{derive, fold, Failures, Rep};
use crate::spans::{host_clock, Tracer};
use crate::{layers, meta};

pub struct Scatter {
    side: usize,
    pages_per_node: usize,
    reads_per_node: usize,
    rounds: u64,
    seed: u64,
}

pub fn fabric_scatter(seed: u64) -> Scatter {
    Scatter {
        side: 8,
        pages_per_node: 160,
        reads_per_node: 8,
        rounds: 150,
        seed,
    }
}

impl Scatter {
    /// The bytes set-up writes to page `id` (the `i`-th page node `n`
    /// writes is `n * pages_per_node + i`), made again from the seed
    /// wherever they are needed, so the benchmark holds no copy of the
    /// stored data.
    fn page_contents(&self, id: usize, page: &mut [u8]) {
        Rng::new(derive(derive(self.seed, 0xda7a), id as u64)).fill_bytes(page);
    }

    pub fn run(&self, traced: bool) -> Rep {
        let mut config = SystemConfig::scaled_down();
        config.sim.shards = 2;
        config.sim.exec = ExecMode::Auto;
        config.sim.trace.wall_profile = traced;
        let nodes = self.side * self.side;
        let per_node = self.pages_per_node;
        let mut tr = Tracer::new(traced);
        let mut failures = Failures::default();
        let mut digest = 0u64;
        let mut checked_ops = 0u64;

        let page_bytes = config.flash.geometry.page_bytes;
        let base_rss_mb = meta::reset_peak_rss();
        tr.enter("setup", 0);
        let t = host_clock();
        let mut cluster = tr.leaf("core.cluster.build", 0, || {
            Cluster::new(Topology::mesh2d(self.side, self.side), &config).expect("cluster")
        });
        let build_s = t.elapsed().as_secs_f64();

        tr.enter("load", 0);
        let mut rng = Rng::new(derive(self.seed, 0x10ad));
        let mut addrs: Vec<Option<GlobalPageAddr>> = vec![None; nodes * per_node];
        let mut written = vec![0usize; nodes];
        let mut load_batches_s = Vec::new();
        let mut wave_pages: Vec<(usize, usize, Vec<u8>)> = Vec::new();
        let mut wave = 0u64;
        while written.iter().any(|&w| w < per_node) {
            // Choose and fill the wave's pages before its timer starts.
            wave_pages.clear();
            for (node, written) in written.iter_mut().enumerate() {
                let n = (rng.range(1, 17) as usize).min(per_node - *written);
                for _ in 0..n {
                    let id = node * per_node + *written;
                    *written += 1;
                    let mut bytes = vec![0u8; page_bytes];
                    self.page_contents(id, &mut bytes);
                    wave_pages.push((node, id, bytes));
                }
            }
            let t = host_clock();
            tr.enter("wave", wave);
            let mut ops = Vec::new();
            tr.leaf("core.cluster.inject", wave, || {
                for (node, id, bytes) in &wave_pages {
                    match cluster.inject_write(NodeId::from(*node), bytes) {
                        Ok((op, addr)) => {
                            addrs[*id] = Some(addr);
                            ops.push(op);
                        }
                        Err(e) => failures.add(|| format!("page write {id} refused: {e}")),
                    }
                }
            });
            tr.leaf("core.cluster.run", wave, || cluster.run_to_quiescence());
            let done = tr.leaf("core.cluster.harvest", wave, || {
                harvest(&mut cluster, nodes)
            });
            tr.exit();
            load_batches_s.push(t.elapsed().as_secs_f64());
            if done.len() != ops.len() {
                failures.add(|| {
                    format!(
                        "wave {wave}: {} completions for {} writes",
                        done.len(),
                        ops.len()
                    )
                });
            }
            for c in &done {
                fold(&mut digest, &[c.op_id, c.start.as_ps(), c.end.as_ps()]);
                if let Some(e) = &c.error {
                    failures.add(|| format!("page write op {} failed: {e}", c.op_id));
                }
            }
            checked_ops += ops.len() as u64;
            wave += 1;
        }
        drop(wave_pages);
        tr.exit();
        tr.exit();

        let base = layers::counters(&cluster, None, 0);
        let wall0 = layers::wall(&cluster);
        let sim0 = cluster.now();
        let mut rng = Rng::new(derive(self.seed, 0x5ca7));
        let mut plan: Vec<(usize, usize)> = Vec::new();
        let mut reads_ps = Vec::new();
        let mut measured_batches_s = Vec::new();
        let mut measured_ops = 0u64;
        let mut expected = vec![0u8; page_bytes];
        tr.enter("measure", 0);
        for round in 0..self.rounds {
            plan.clear();
            for reader in 0..nodes {
                for _ in 0..self.reads_per_node {
                    let mut target = rng.below(nodes as u64 - 1) as usize;
                    if target >= reader {
                        target += 1;
                    }
                    plan.push((
                        reader,
                        target * per_node + rng.below(per_node as u64) as usize,
                    ));
                }
            }
            let t = host_clock();
            tr.enter("round", round);
            let first = tr.leaf("core.cluster.inject", round, || {
                let mut first = None;
                for &(reader, id) in &plan {
                    let consume = if reader % 2 == 0 {
                        Consume::Isp
                    } else {
                        Consume::Host
                    };
                    let addr = addrs[id].expect("every page was written");
                    let op = cluster.inject_read(NodeId::from(reader), addr, consume);
                    first.get_or_insert(op);
                }
                first.expect("non-empty round")
            });
            tr.leaf("core.cluster.run", round, || cluster.run_to_quiescence());
            let done = tr.leaf("core.cluster.harvest", round, || {
                harvest(&mut cluster, nodes)
            });
            tr.exit();
            measured_batches_s.push(t.elapsed().as_secs_f64());
            measured_ops += done.len() as u64;
            checked_ops += plan.len() as u64;
            tr.leaf("check", round, || {
                let mut pending: Vec<Option<usize>> =
                    plan.iter().map(|&(_, id)| Some(id)).collect();
                if done.len() != plan.len() {
                    failures.add(|| {
                        format!(
                            "round {round}: {} completions for {} reads",
                            done.len(),
                            plan.len()
                        )
                    });
                }
                for c in &done {
                    fold(
                        &mut digest,
                        &[
                            c.op_id,
                            c.start.as_ps(),
                            c.end.as_ps(),
                            u64::from(c.data.is_some()),
                        ],
                    );
                    let Some(id) = pending
                        .get_mut(c.op_id.wrapping_sub(first) as usize)
                        .and_then(Option::take)
                    else {
                        failures.add(|| {
                            format!("unknown or repeated completion for read op {}", c.op_id)
                        });
                        continue;
                    };
                    if let Some(e) = &c.error {
                        failures.add(|| format!("read of page {id} failed: {e}"));
                        continue;
                    }
                    let Some(data) = &c.data else {
                        failures.add(|| format!("read of page {id} returned no data"));
                        continue;
                    };
                    self.page_contents(id, &mut expected);
                    if data[..] != expected[..] {
                        failures.add(|| format!("read of page {id} returned the wrong bytes"));
                        continue;
                    }
                    reads_ps.push((c.end - c.start).as_ps());
                }
            });
        }
        tr.exit();
        let sim_elapsed_ps = (cluster.now() - sim0).as_ps();
        let layers = layers::layers(&cluster, None, 0, &base);
        fold(&mut digest, &[layers.delta.events, cluster.now().as_ps()]);
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.assert_quiescent()))
            .is_err()
        {
            failures.add(|| "page-store audit failed".into());
        }
        Rep {
            build_s,
            load_batches_s,
            measured_batches_s,
            base_rss_mb,
            measured_ops,
            checked_ops,
            failures,
            reads_ps,
            writes_ps: Vec::new(),
            sim_elapsed_ps,
            digest,
            layers,
            wall: layers::wall(&cluster).since(wall0),
            tracer: tr,
        }
    }
}

fn harvest(cluster: &mut Cluster, nodes: usize) -> Vec<bluedbm_core::node::Completed> {
    (0..nodes)
        .flat_map(|n| cluster.harvest_node(NodeId::from(n)))
        .collect()
}
