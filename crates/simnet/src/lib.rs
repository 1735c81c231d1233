#![warn(missing_docs)]

//! # simnet — simulated RDMA-capable cluster fabric
//!
//! Models the communication hardware the paper's instrumented libraries ran
//! on: per-node NICs with serializing egress DMA engines, a switched fabric
//! with a latency + bandwidth cost model, two-sided *send* packets (consumed
//! by the remote host), and one-sided *RDMA Read / RDMA Write* operations
//! that move data between registered memory regions **without remote host
//! involvement** — the property that makes computation-communication overlap
//! possible in the first place.
//!
//! Host-visible outcomes (completion-queue entries and received packets) are
//! only observed when the host *polls*; data placement happens in background
//! virtual time. The split between "NIC did it" and "host noticed it" is
//! exactly what the paper's min/max overlap bounds are about.
//!
//! Every data operation is recorded with its physical `[start, end)` interval
//! so tests can compare the instrumentation's bounds against ground truth.

mod arena;
mod cluster;
mod config;
mod fault;
pub mod memory;
mod nic;
mod packet;
mod topology;
mod truth;
pub mod world;

pub use cluster::{Cluster, ClusterOutcome};
pub use config::NetConfig;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use memory::{Region, RegionId};
pub use nic::{CausalEdge, Completion, HwMsg, Matcher};
pub use packet::Packet;
pub use topology::{BackgroundJob, Hop, Topology, TopologySpec};
pub use truth::{TransferKind, TransferRecord};
pub use world::{SharedWorld, World, XferId};
