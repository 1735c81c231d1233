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

pub mod arena;
pub mod cluster;
pub mod config;
pub mod fault;
pub mod memory;
pub mod nic;
pub mod packet;
pub mod topology;
pub mod truth;
pub mod world;

pub use cluster::{Cluster, ClusterOutcome};
pub use config::NetConfig;
pub use fault::{FaultEvent, FaultKind, FaultPlan, LinkDegradation, NicStall};
pub use memory::{Region, RegionId};
pub use nic::{CausalEdge, Completion, WrId};
pub use packet::Packet;
pub use topology::{
    BackgroundJob, BackgroundJobBuilder, Dragonfly, FatTree, FlatCrossbar, Hop, Topology,
    TopologySpec, TrafficPattern, LINK_DEDICATED,
};
pub use truth::{TransferKind, TransferRecord};
pub use world::{NicStats, SharedWorld, World, XferId};
