//! Fabric cost-model configuration.

use simcore::{us, Duration};

use crate::fault::FaultPlan;
use crate::topology::{BackgroundJob, TopologySpec};

/// Parameters of the simulated interconnect and host interface.
///
/// The defaults approximate the paper's test platform: an 8 Gbit/s InfiniBand
/// network (Mellanox MT23108 on PCI-X) connecting dual-Xeon nodes, one MPI
/// process per node.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way wire latency between any two distinct nodes, ns.
    pub wire_latency: Duration,
    /// Loopback latency for self-sends, ns.
    pub loopback_latency: Duration,
    /// Egress DMA bandwidth, bytes per nanosecond (1.0 ≈ 8 Gbit/s).
    pub bandwidth_bytes_per_ns: f64,
    /// Wire size of a control packet (RTS/CTS/FIN/headers), bytes.
    pub ctrl_packet_bytes: usize,
    /// Host cost to post a work request to the NIC, ns.
    pub post_cost: Duration,
    /// Host cost of one completion-queue / rx-queue poll, ns.
    pub poll_cost: Duration,
    /// Host memcpy throughput for bounce-buffer copies, bytes per ns.
    pub copy_bytes_per_ns: f64,
    /// Base cost of registering (pinning) a memory region, ns.
    pub reg_base: Duration,
    /// Additional registration cost per page, ns.
    pub reg_per_page: Duration,
    /// Page size used for registration accounting, bytes.
    pub page_size: usize,
    /// Model receiver-side (ingress) serialization: concurrent transfers
    /// into one node queue on its ingress engine (switch-port / incast
    /// contention). Off by default — the paper's microbenchmarks are
    /// point-to-point, but the ablation harness uses this to study how
    /// contention loosens the framework's upper bound.
    pub model_ingress_contention: bool,
    /// Two-level topology: nodes are grouped onto leaf switches of this
    /// radix; messages that cross switches pay `inter_switch_extra` on top
    /// of the wire latency. `None` models a single full-crossbar switch
    /// (the paper's testbed).
    pub switch_radix: Option<usize>,
    /// Extra one-way latency for inter-switch hops, ns.
    pub inter_switch_extra: Duration,
    /// Fabric topology. [`TopologySpec::Flat`] (the default) is the ideal
    /// crossbar and reproduces the pre-topology model byte-identically;
    /// hierarchical specs route hop-by-hop over shared, contended links
    /// (see `docs/TOPOLOGY.md`).
    pub topology: TopologySpec,
    /// Per-hop propagation latency of hierarchical topologies, ns (unused
    /// by the flat crossbar, which keeps `wire_latency` end to end).
    pub hop_latency: Duration,
    /// Co-located tenant traffic sharing the fabric's links with the
    /// measured job. `None` (the default) models exclusive use; inert on
    /// the flat crossbar (no shared links).
    pub background: Option<BackgroundJob>,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] (the default)
    /// models a perfectly reliable fabric and changes no delivery behavior.
    pub faults: FaultPlan,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::infiniband_2006()
    }
}

impl NetConfig {
    /// Cost model approximating the paper's 2006 InfiniBand cluster.
    pub fn infiniband_2006() -> Self {
        NetConfig {
            wire_latency: us(5),
            loopback_latency: us(1) / 2,
            bandwidth_bytes_per_ns: 1.0,
            ctrl_packet_bytes: 64,
            post_cost: 200,
            poll_cost: 100,
            copy_bytes_per_ns: 3.0,
            reg_base: us(10),
            reg_per_page: 250,
            page_size: 4096,
            model_ingress_contention: false,
            switch_radix: None,
            inter_switch_extra: us(2),
            topology: TopologySpec::Flat,
            hop_latency: us(1),
            background: None,
            faults: FaultPlan::none(),
        }
    }

    /// A much faster fabric (for ablations): lower latency, 4x bandwidth.
    pub fn fast_fabric() -> Self {
        NetConfig {
            wire_latency: us(1),
            bandwidth_bytes_per_ns: 4.0,
            ..NetConfig::infiniband_2006()
        }
    }

    /// One-way latency between `src` and `dst` under the configured
    /// topology.
    pub fn latency_between(&self, src: usize, dst: usize) -> Duration {
        if src == dst {
            return self.loopback_latency;
        }
        match self.switch_radix {
            Some(radix) if src / radix != dst / radix => {
                self.wire_latency + self.inter_switch_extra
            }
            _ => self.wire_latency,
        }
    }

    /// Instantiate the configured topology for an `nnodes`-rank job. The
    /// spec is [`TopologySpec::fitted`] first, so a small spec grows to
    /// give every rank a port instead of panicking.
    pub fn build_topology(&self, nnodes: usize) -> std::sync::Arc<dyn crate::topology::Topology> {
        self.topology.fitted(nnodes).build(
            self.wire_latency,
            self.switch_radix,
            self.inter_switch_extra,
            self.hop_latency,
        )
    }

    /// Time for the NIC to serialize `bytes` onto the wire, ns.
    pub fn serialize(&self, bytes: usize) -> Duration {
        (bytes as f64 / self.bandwidth_bytes_per_ns).ceil() as Duration
    }

    /// Host cost of copying `bytes` through a bounce buffer, ns.
    pub fn copy_cost(&self, bytes: usize) -> Duration {
        (bytes as f64 / self.copy_bytes_per_ns).ceil() as Duration
    }

    /// Host cost of registering a `bytes`-sized region, ns.
    pub fn reg_cost(&self, bytes: usize) -> Duration {
        let pages = bytes.div_ceil(self.page_size) as u64;
        self.reg_base + pages * self.reg_per_page
    }

    /// End-to-end one-way time for a `bytes`-sized data transfer on an idle
    /// fabric: serialization plus wire latency. This is what a ping-pong
    /// microbenchmark (the paper's `perf_main`) observes per direction.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.serialize(bytes) + self.wire_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_scales_with_bandwidth() {
        let cfg = NetConfig::infiniband_2006();
        assert_eq!(cfg.serialize(1000), 1000);
        let fast = NetConfig::fast_fabric();
        assert_eq!(fast.serialize(1000), 250);
    }

    #[test]
    fn reg_cost_counts_pages() {
        let cfg = NetConfig::infiniband_2006();
        let one_page = cfg.reg_cost(1);
        let two_pages = cfg.reg_cost(4097);
        assert_eq!(two_pages - one_page, cfg.reg_per_page);
        assert!(one_page >= cfg.reg_base);
    }

    #[test]
    fn topology_latency() {
        let flat = NetConfig::infiniband_2006();
        assert_eq!(flat.latency_between(0, 5), flat.wire_latency);
        let tree = NetConfig {
            switch_radix: Some(4),
            ..NetConfig::infiniband_2006()
        };
        // Same leaf switch (0..3): base latency; across switches: extra hop.
        assert_eq!(tree.latency_between(0, 3), tree.wire_latency);
        assert_eq!(
            tree.latency_between(0, 4),
            tree.wire_latency + tree.inter_switch_extra
        );
        assert_eq!(tree.latency_between(2, 2), tree.loopback_latency);
    }

    #[test]
    fn transfer_time_monotonic_in_size() {
        let cfg = NetConfig::default();
        let mut prev = 0;
        for sz in [0usize, 64, 1024, 10_240, 1 << 20] {
            let t = cfg.transfer_time(sz);
            assert!(t >= prev);
            prev = t;
        }
    }
}
