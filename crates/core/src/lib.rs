//! # bluedbm-core
//!
//! The BlueDBM appliance itself: 20-node-class clusters of host servers,
//! each with a flash storage device carrying in-store processors and
//! integrated network ports (paper Figure 1/2).
//!
//! This crate composes the substrate crates into
//!
//! * [`config::SystemConfig`] — every calibration constant of the model,
//!   each traced to the paper sentence it comes from;
//! * [`cluster::Cluster`] — a DES world of N nodes: flash cards behind
//!   splitters, a node agent (the in-store processing fabric), the
//!   integrated network, and a PCIe link per node, with a synchronous
//!   facade for experiments, run on one or more simulator shards;
//! * [`paths`] — the four remote-access paths of Figure 12 (ISP-F, H-F,
//!   H-RH-F, H-D) with latency breakdowns;
//! * [`baselines`] — the comparison arms: host CPU model, off-the-shelf
//!   SSD, HDD, DRAM store and the RAM-cloud spill model (Figures 16–21);
//! * [`power`] — the Table 3 power model and the RAM-cloud comparison;
//! * [`scheduler`] — the FIFO accelerator scheduler of Section 4, the
//!   per-node simulated component ([`scheduler::AccelSched`]) gating
//!   in-store accelerator work;
//! * [`kvstore`] — the concurrent multi-tenant key-value workload
//!   engine: async op submission, per-key FIFO consistency, windowed
//!   injection, extent free-lists with a stranded-page audit;
//! * [`gc`] — the flash lifecycle inside the simulation: per-card
//!   mirror FTLs decide garbage collection and wear leveling, and a
//!   per-node [`gc::GcAgent`] executes the migration reads/programs and
//!   block erases as ordinary simulated commands, so GC pressure shows
//!   up in tenant tail latency and [`cluster::Cluster::gc_stats`]
//!   reports erase counts and write amplification.
//!
//! ## Example
//!
//! ```rust
//! use bluedbm_core::{Cluster, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::scaled_down();
//! let mut cluster = Cluster::ring(4, &config)?;
//! let page = vec![0xAB; config.flash.geometry.page_bytes];
//! let addr = cluster.write_page_local(0.into(), &page)?;
//! let read = cluster.read_page_remote(2.into(), addr)?;
//! assert_eq!(read.data, page);
//! assert!(read.latency.as_us() >= 50); // flash tR dominates
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod cluster;
pub mod config;
pub mod gc;
pub mod kvstore;
pub mod msg;
pub mod node;
pub mod paths;
pub mod power;
pub mod scheduler;

pub use cluster::{Cluster, CompletedRead, GlobalPageAddr};
pub use gc::{GcAgent, GcAgentStats, GcStats, LifecycleOp};
pub use msg::{Msg, NetBody};
pub use config::{GcConfig, SystemConfig};
pub use kvstore::{KvCompletion, KvOpId, KvOpKind, KvStore, TenantId, TenantStats};
pub use paths::{AccessPath, LatencyBreakdown};
pub use power::PowerModel;
pub use scheduler::{AccelSched, SchedStats};

// Re-export the node id type used throughout the public API, and the
// page-store types payload-bearing drivers stage data through.
pub use bluedbm_net::topology::NodeId;
pub use bluedbm_sim::{ExecMode, PageRef, PageStore, ShardLaneStats, ShardStats};
