//! Fabric topologies: hop-by-hop routing over shared links.
//!
//! The original fabric model (still the default) is a single ideal crossbar:
//! every node pair has a dedicated path and the only shared resources are
//! the two NIC engines (egress DMA, optional ingress). Datacenter fabrics
//! are not like that — messages cross a *hierarchy* of switches over links
//! shared with other flows, and the queuing on those links is where the
//! interesting wait time lives (see `docs/TOPOLOGY.md` for the full model
//! and a worked example).
//!
//! A [`Topology`] maps a `(src, dst)` node pair to one or more equal-cost
//! *routes*, each a sequence of [`Hop`]s. A hop is either **dedicated**
//! (crossbar-style, never contended — [`LINK_DEDICATED`]) or names a shared
//! directed link by index; the world serializes traffic on shared links
//! with per-link virtual-time reservations (virtual cut-through: the
//! message pays its serialization once, at the tail, and each hop adds its
//! propagation latency plus any queuing behind other flows).
//!
//! When a pair has more than one candidate route (ECMP in a fat-tree,
//! minimal-vs-Valiant in a dragonfly), the choice is a schedule-oracle
//! choice point (`ChoicePoint::Route`), so the explorer can search routing
//! nondeterminism exactly like event ties and fault jitter. Choice `0` is a
//! deterministic flow-hash pick, so canonical runs spread load but stay
//! byte-for-byte reproducible.
//!
//! Multi-tenant interference is modeled by a [`BackgroundJob`]: a fluid
//! traffic generator whose flows occupy shared links on a deterministic
//! periodic schedule without simulating any extra ranks (see the type docs).

use simcore::Duration;

/// Link index marking a dedicated (never-contended) hop: the crossbar
/// abstraction, also used for the final NIC-to-host leg of hierarchical
/// routes where the only contention is the ingress engine already modeled
/// by the NIC.
pub const LINK_DEDICATED: u32 = u32::MAX;

/// One hop of a route: a directed link (or [`LINK_DEDICATED`]) plus the
/// propagation latency added by traversing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Directed-link index in `0..Topology::links()`, or [`LINK_DEDICATED`].
    pub link: u32,
    /// Propagation latency of this hop, ns.
    pub latency: Duration,
}

/// A fabric topology: routes node pairs over (possibly shared) links.
///
/// Implementations must be pure: the same `(src, dst, choice)` always yields
/// the same route, and `path_latency` must equal the summed hop latency of
/// candidate `0` (the canonical route). Fat-tree ECMP candidates are all
/// equal-cost; a dragonfly's non-minimal (Valiant) candidates are longer —
/// exactly the trade adaptive routing makes.
///
/// # Examples
///
/// ```
/// use simnet::topology::{FatTree, Topology, LINK_DEDICATED};
///
/// let ft = FatTree::new(4, 1_000); // k=4: 16 hosts, 1 µs per hop
/// assert_eq!(ft.hosts(), 16);
/// // Hosts 0 and 1 share an edge switch: two links, no ECMP.
/// assert_eq!(ft.paths(0, 1), 1);
/// let mut route = Vec::new();
/// ft.route_into(0, 1, 0, &mut route);
/// assert_eq!(route.len(), 2);
/// assert!(route.iter().all(|h| h.link != LINK_DEDICATED));
/// // Crossing pods goes up to a core switch: (k/2)^2 = 4 candidates.
/// assert_eq!(ft.paths(0, 15), 4);
/// ft.route_into(0, 15, 0, &mut route);
/// assert_eq!(route.len(), 6);
/// ```
pub trait Topology: Send + Sync {
    /// Number of host endpoints the fabric wires up.
    fn hosts(&self) -> usize;

    /// Number of directed shared links (valid [`Hop::link`] indices).
    fn links(&self) -> usize;

    /// Number of equal-cost candidate routes from `src` to `dst` (≥ 1 for
    /// distinct in-range pairs; routing `src == dst` is the caller's
    /// loopback special case and never reaches the topology).
    fn paths(&self, src: usize, dst: usize) -> usize;

    /// Write candidate route `choice` (`0..self.paths(src, dst)`) for
    /// `src → dst` into `out`, clearing it first. Reuses the caller's
    /// buffer so steady-state routing allocates nothing.
    fn route_into(&self, src: usize, dst: usize, choice: usize, out: &mut Vec<Hop>);

    /// Total propagation latency of the canonical (choice `0`) route for
    /// `src → dst`, ns.
    fn path_latency(&self, src: usize, dst: usize) -> Duration;

    /// Endpoints `(from_switch_or_host, to_switch_or_host)` of a directed
    /// link, in a topology-private numbering — used by tests to validate
    /// route contiguity.
    fn link_ends(&self, link: u32) -> (usize, usize);

    /// Human-readable spec label, e.g. `"fat-tree:k=8"`.
    fn label(&self) -> String;
}

/// The ideal single-crossbar fabric: every pair has a dedicated path, so no
/// hop ever queues. This is the default topology and reproduces the
/// pre-topology cost model byte-identically (including the optional
/// two-level `switch_radix` latency penalty it absorbed).
#[derive(Debug, Clone)]
pub struct FlatCrossbar {
    wire_latency: Duration,
    switch_radix: Option<usize>,
    inter_switch_extra: Duration,
}

impl FlatCrossbar {
    /// Crossbar with the given one-way latency and optional two-level
    /// switch grouping (see `NetConfig::switch_radix`).
    pub fn new(
        wire_latency: Duration,
        switch_radix: Option<usize>,
        inter_switch_extra: Duration,
    ) -> Self {
        FlatCrossbar {
            wire_latency,
            switch_radix,
            inter_switch_extra,
        }
    }
}

impl Topology for FlatCrossbar {
    fn hosts(&self) -> usize {
        usize::MAX // any number of hosts fits a crossbar
    }

    fn links(&self) -> usize {
        0
    }

    fn paths(&self, _src: usize, _dst: usize) -> usize {
        1
    }

    fn route_into(&self, src: usize, dst: usize, _choice: usize, out: &mut Vec<Hop>) {
        out.clear();
        out.push(Hop {
            link: LINK_DEDICATED,
            latency: self.path_latency(src, dst),
        });
    }

    fn path_latency(&self, src: usize, dst: usize) -> Duration {
        match self.switch_radix {
            Some(radix) if src / radix != dst / radix => {
                self.wire_latency + self.inter_switch_extra
            }
            _ => self.wire_latency,
        }
    }

    fn link_ends(&self, _link: u32) -> (usize, usize) {
        (0, 0)
    }

    fn label(&self) -> String {
        "flat".into()
    }
}

/// A k-ary fat-tree (Clos): `k` pods of `k/2` edge and `k/2` aggregation
/// switches, `(k/2)^2` core switches, `k^3/4` hosts. Same-pod pairs have a
/// single minimal route; inter-pod pairs have `(k/2)^2` equal-cost routes
/// (one per core switch), the classic ECMP fan.
///
/// All switch-to-switch and host-to-switch links are shared, directed, and
/// individually contended. Route tables are flat precomputed `Vec`s indexed
/// by host/switch, shared across all ranks via the `Arc<dyn Topology>` the
/// world holds — per-rank routing state is just one reused hop buffer.
///
/// # Examples
///
/// ```
/// use simnet::topology::{FatTree, Topology};
///
/// let ft = FatTree::new(8, 1_000);
/// assert_eq!(ft.hosts(), 128); // k^3/4
/// assert_eq!(ft.paths(0, 127), 16); // (k/2)^2 core switches
/// // Equal-cost: every candidate has the same latency.
/// assert_eq!(ft.path_latency(0, 127), 6 * 1_000); // 6 hops, 1 µs each
/// ```
#[derive(Debug, Clone)]
pub struct FatTree {
    k: usize,
    hop_latency: Duration,
    /// Directed links, laid out in blocks (see `link index layout` below).
    nlinks: usize,
}

// Link index layout for FatTree (all blocks directed):
//   block 0: host -> edge            host h                    (H links)
//   block 1: edge -> host            host h                    (H links)
//   block 2: edge e -> agg j         e * (k/2) + j             (P*k/2*k/2)
//   block 3: agg -> edge             same index                (ditto)
//   block 4: agg a -> core slot j    a * (k/2) + j             (P*k/2*k/2)
//   block 5: core -> agg             same index                (ditto)
// where H = k^3/4, P = k (pods), edge/agg switches are numbered
// pod * (k/2) + i, and core switch c = i * (k/2) + j is reached from any
// pod's aggregation switch i via its j-th uplink.
impl FatTree {
    /// Build the `k`-ary fat-tree (`k` even, ≥ 2) with the given per-hop
    /// propagation latency in ns.
    ///
    /// # Panics
    /// Panics if `k` is odd or zero.
    pub fn new(k: usize, hop_latency: Duration) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity k must be even, got {k}"
        );
        let hosts = k * k * k / 4;
        let updown = k * (k / 2) * (k / 2); // edge<->agg one direction
        let nlinks = 2 * hosts + 2 * updown + 2 * updown;
        FatTree {
            k,
            hop_latency,
            nlinks,
        }
    }

    fn half(&self) -> usize {
        self.k / 2
    }

    /// Pod of a host.
    fn pod(&self, host: usize) -> usize {
        host / (self.half() * self.half())
    }

    /// Edge switch (global index `pod * k/2 + i`) of a host.
    fn edge_of(&self, host: usize) -> usize {
        host / self.half()
    }

    // Link-index helpers, one per block of the layout above.
    fn l_host_up(&self, host: usize) -> u32 {
        host as u32
    }
    fn l_host_down(&self, host: usize) -> u32 {
        (self.hosts() + host) as u32
    }
    fn l_edge_agg(&self, edge: usize, j: usize) -> u32 {
        (2 * self.hosts() + edge * self.half() + j) as u32
    }
    fn l_agg_edge(&self, edge: usize, j: usize) -> u32 {
        let updown = self.k * self.half() * self.half();
        (2 * self.hosts() + updown + edge * self.half() + j) as u32
    }
    fn l_agg_core(&self, agg: usize, j: usize) -> u32 {
        let updown = self.k * self.half() * self.half();
        (2 * self.hosts() + 2 * updown + agg * self.half() + j) as u32
    }
    fn l_core_agg(&self, agg: usize, j: usize) -> u32 {
        let updown = self.k * self.half() * self.half();
        (2 * self.hosts() + 3 * updown + agg * self.half() + j) as u32
    }

    fn hop(&self, link: u32) -> Hop {
        Hop {
            link,
            latency: self.hop_latency,
        }
    }
}

impl Topology for FatTree {
    fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    fn links(&self) -> usize {
        self.nlinks
    }

    fn paths(&self, src: usize, dst: usize) -> usize {
        if self.edge_of(src) == self.edge_of(dst) {
            1
        } else if self.pod(src) == self.pod(dst) {
            self.half() // one candidate per aggregation switch in the pod
        } else {
            self.half() * self.half() // one per core switch
        }
    }

    fn route_into(&self, src: usize, dst: usize, choice: usize, out: &mut Vec<Hop>) {
        out.clear();
        let h = self.half();
        let (se, de) = (self.edge_of(src), self.edge_of(dst));
        out.push(self.hop(self.l_host_up(src)));
        if se == de {
            // 2 hops: up to the shared edge switch, down to the host.
        } else if self.pod(src) == self.pod(dst) {
            // 4 hops via aggregation switch `choice` of the pod. Spread the
            // canonical pick with a flow hash so choice 0 is load-balanced.
            let j = spread(src, dst, choice, h);
            out.push(self.hop(self.l_edge_agg(se, j)));
            out.push(self.hop(self.l_agg_edge(de, j)));
        } else {
            // 6 hops via core switch (i, j): up-link j of aggregation
            // switch i in the source pod, down the mirror in the dest pod.
            let c = spread(src, dst, choice, h * h);
            let (i, j) = (c / h, c % h);
            let sa = self.pod(src) * h + i;
            let da = self.pod(dst) * h + i;
            out.push(self.hop(self.l_edge_agg(se, i)));
            out.push(self.hop(self.l_agg_core(sa, j)));
            out.push(self.hop(self.l_core_agg(da, j)));
            out.push(self.hop(self.l_agg_edge(de, i)));
        }
        out.push(self.hop(self.l_host_down(dst)));
    }

    fn path_latency(&self, src: usize, dst: usize) -> Duration {
        let hops = if self.edge_of(src) == self.edge_of(dst) {
            2
        } else if self.pod(src) == self.pod(dst) {
            4
        } else {
            6
        };
        hops * self.hop_latency
    }

    fn link_ends(&self, link: u32) -> (usize, usize) {
        // Topology-private node numbering: hosts, then edge switches,
        // then aggregation switches, then core switches.
        let l = link as usize;
        let hn = self.hosts();
        let h = self.half();
        let nsw = self.k * h; // edge (== agg) switch count
        let updown = self.k * h * h;
        let (edge0, agg0, core0) = (hn, hn + nsw, hn + 2 * nsw);
        if l < hn {
            (l, edge0 + l / h)
        } else if l < 2 * hn {
            let host = l - hn;
            (edge0 + host / h, host)
        } else if l < 2 * hn + updown {
            let i = l - 2 * hn;
            let (edge, j) = (i / h, i % h);
            (edge0 + edge, agg0 + (edge / h) * h + j)
        } else if l < 2 * hn + 2 * updown {
            let i = l - 2 * hn - updown;
            let (edge, j) = (i / h, i % h);
            (agg0 + (edge / h) * h + j, edge0 + edge)
        } else if l < 2 * hn + 3 * updown {
            let i = l - 2 * hn - 2 * updown;
            let (agg, j) = (i / h, i % h);
            (agg0 + agg, core0 + (agg % h) * h + j)
        } else {
            let i = l - 2 * hn - 3 * updown;
            let (agg, j) = (i / h, i % h);
            (core0 + (agg % h) * h + j, agg0 + agg)
        }
    }

    fn label(&self) -> String {
        format!("fat-tree:k={}", self.k)
    }
}

/// A dragonfly: `g = a*h + 1` groups of `a` routers, `p` hosts per router,
/// `h` global links per router, with the *consecutive* global-link
/// arrangement (router `r` of group `G`'s global channel `gc = r*h + t`
/// connects to group `(G + gc + 1) mod g`). Candidate `0` is the minimal
/// route (at most local→global→local); candidates beyond it detour through
/// Valiant intermediate groups (non-minimal adaptive routing), paying extra
/// hops to dodge contended global links — the trade the schedule oracle
/// gets to explore.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    a: usize,
    p: usize,
    h: usize,
    hop_latency: Duration,
    /// Extra propagation for a global (inter-group) hop, ns.
    global_extra: Duration,
}

// Link index layout for Dragonfly (directed):
//   block 0: host -> router        host                       (N links)
//   block 1: router -> host        host                       (N links)
//   block 2: local  r1 -> r2       group*a*(a-1) + ...        (g*a*(a-1))
//   block 3: global channel        group*a*h + router*h + t   (g*a*h)
// where N = g*a*p. Local links are a full mesh inside each group; the
// directed pair (r1, r2), r1 != r2, is indexed by r1*(a-1) + (r2 adjusted).
impl Dragonfly {
    /// Build a dragonfly with `a` routers per group, `p` hosts per router,
    /// `h` global links per router (so `a*h + 1` groups), and the given
    /// per-hop propagation latency (global hops pay 2x).
    ///
    /// # Panics
    /// Panics if any of `a`, `p`, `h` is zero.
    pub fn new(a: usize, p: usize, h: usize, hop_latency: Duration) -> Self {
        assert!(
            a > 0 && p > 0 && h > 0,
            "dragonfly a, p, h must be positive"
        );
        Dragonfly {
            a,
            p,
            h,
            hop_latency,
            global_extra: hop_latency,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.a * self.h + 1
    }

    fn router_of(&self, host: usize) -> usize {
        host / self.p // global router index
    }

    fn group_of_router(&self, router: usize) -> usize {
        router / self.a
    }

    fn l_host_up(&self, host: usize) -> u32 {
        host as u32
    }
    fn l_host_down(&self, host: usize) -> u32 {
        (self.hosts() + host) as u32
    }
    /// Local directed link router `r1 -> r2` (same group, local indices).
    fn l_local(&self, group: usize, r1: usize, r2: usize) -> u32 {
        debug_assert_ne!(r1, r2);
        let slot = if r2 > r1 { r2 - 1 } else { r2 };
        (2 * self.hosts() + group * self.a * (self.a - 1) + r1 * (self.a - 1) + slot) as u32
    }
    /// Global channel `gc = r*h + t` of `group` (one directed link; the
    /// reverse direction is the peer group's own channel).
    fn l_global(&self, group: usize, gc: usize) -> u32 {
        let nlocal = self.groups() * self.a * (self.a - 1);
        (2 * self.hosts() + nlocal + group * self.a * self.h + gc) as u32
    }

    /// Peer group of `group`'s global channel `gc` (consecutive arrangement).
    fn peer_group(&self, group: usize, gc: usize) -> usize {
        (group + gc + 1) % self.groups()
    }

    /// The channel of `dst_group` that connects back toward `src_group`,
    /// i.e. the inverse of [`Dragonfly::peer_group`].
    fn channel_to(&self, from_group: usize, to_group: usize) -> usize {
        let g = self.groups();
        (to_group + g - from_group - 1) % g
    }

    fn hop(&self, link: u32) -> Hop {
        Hop {
            link,
            latency: self.hop_latency,
        }
    }

    fn global_hop(&self, link: u32) -> Hop {
        Hop {
            link,
            latency: self.hop_latency + self.global_extra,
        }
    }

    /// Append the route segment crossing from `from_group` to `to_group`:
    /// optional local hop to the router owning the channel, then the global
    /// hop. `at_router` is the (global) router the head currently sits on;
    /// returns the router it arrives at.
    fn cross_groups(&self, at_router: usize, to_group: usize, out: &mut Vec<Hop>) -> usize {
        let from_group = self.group_of_router(at_router);
        debug_assert_ne!(from_group, to_group);
        let gc = self.channel_to(from_group, to_group);
        let owner_local = gc / self.h;
        let owner = from_group * self.a + owner_local;
        let cur_local = at_router % self.a;
        if owner != at_router {
            out.push(self.hop(self.l_local(from_group, cur_local, owner_local)));
        }
        out.push(self.global_hop(self.l_global(from_group, gc)));
        // Arrival router: the owner of the reverse channel in `to_group`.
        let back = self.channel_to(to_group, from_group);
        to_group * self.a + back / self.h
    }

    /// Append the local leg from `at_router` to `dst`'s router (if needed)
    /// and the host down-link.
    fn finish_local(&self, at_router: usize, dst: usize, out: &mut Vec<Hop>) {
        let dr = self.router_of(dst);
        if at_router != dr {
            let group = self.group_of_router(at_router);
            debug_assert_eq!(group, self.group_of_router(dr));
            out.push(self.hop(self.l_local(group, at_router % self.a, dr % self.a)));
        }
        out.push(self.hop(self.l_host_down(dst)));
    }

    /// Valiant intermediate group for candidate `choice` (1-based among the
    /// non-minimal candidates), skipping the endpoint groups.
    fn valiant_group(&self, sg: usize, dg: usize, choice: usize) -> usize {
        let g = self.groups();
        let mut vg = (sg + dg + choice) % g;
        while vg == sg || vg == dg {
            vg = (vg + 1) % g;
        }
        vg
    }
}

impl Topology for Dragonfly {
    fn hosts(&self) -> usize {
        self.groups() * self.a * self.p
    }

    fn links(&self) -> usize {
        2 * self.hosts() + self.groups() * self.a * (self.a - 1) + self.groups() * self.a * self.h
    }

    fn paths(&self, src: usize, dst: usize) -> usize {
        let (sg, dg) = (
            self.group_of_router(self.router_of(src)),
            self.group_of_router(self.router_of(dst)),
        );
        if sg == dg {
            1 // minimal local route only
        } else {
            // Minimal plus up to 3 Valiant detours (adaptive routing's
            // escape paths), bounded by the groups available to detour via.
            1 + self.groups().saturating_sub(2).min(3)
        }
    }

    fn route_into(&self, src: usize, dst: usize, choice: usize, out: &mut Vec<Hop>) {
        out.clear();
        let (sr, dr) = (self.router_of(src), self.router_of(dst));
        let (sg, dg) = (self.group_of_router(sr), self.group_of_router(dr));
        out.push(self.hop(self.l_host_up(src)));
        if sg == dg {
            self.finish_local(sr, dst, out);
            return;
        }
        let mut at = sr;
        if choice > 0 {
            at = self.cross_groups(at, self.valiant_group(sg, dg, choice), out);
        }
        at = self.cross_groups(at, dg, out);
        self.finish_local(at, dst, out);
    }

    fn path_latency(&self, src: usize, dst: usize) -> Duration {
        let (sr, dr) = (self.router_of(src), self.router_of(dst));
        let (sg, dg) = (self.group_of_router(sr), self.group_of_router(dr));
        if sg == dg {
            let local = if sr == dr { 0 } else { 1 };
            return (2 + local) * self.hop_latency;
        }
        // Mirror the minimal (choice-0) route: host up, optional local to
        // the channel owner, the global hop (2x), optional local to the
        // destination router, host down.
        let gc = self.channel_to(sg, dg);
        let owner = sg * self.a + gc / self.h;
        let arrival = dg * self.a + self.channel_to(dg, sg) / self.h;
        let locals = (owner != sr) as u64 + (arrival != dr) as u64;
        (3 + locals) * self.hop_latency + self.global_extra
    }

    fn link_ends(&self, link: u32) -> (usize, usize) {
        // Private numbering: hosts, then routers.
        let l = link as usize;
        let n = self.hosts();
        let r0 = n;
        if l < n {
            (l, r0 + self.router_of(l))
        } else if l < 2 * n {
            let host = l - n;
            (r0 + self.router_of(host), host)
        } else if l < 2 * n + self.groups() * self.a * (self.a - 1) {
            let i = l - 2 * n;
            let per_group = self.a * (self.a - 1);
            let (group, rest) = (i / per_group, i % per_group);
            let (r1, slot) = (rest / (self.a - 1), rest % (self.a - 1));
            let r2 = if slot >= r1 { slot + 1 } else { slot };
            (r0 + group * self.a + r1, r0 + group * self.a + r2)
        } else {
            let i = l - 2 * n - self.groups() * self.a * (self.a - 1);
            let per_group = self.a * self.h;
            let (group, gc) = (i / per_group, i % per_group);
            let peer = self.peer_group(group, gc);
            let back = self.channel_to(peer, group);
            (
                r0 + group * self.a + gc / self.h,
                r0 + peer * self.a + back / self.h,
            )
        }
    }

    fn label(&self) -> String {
        format!("dragonfly:a={},p={},h={}", self.a, self.p, self.h)
    }
}

/// Map candidate index `choice` onto a physical alternative, rotating by a
/// deterministic flow hash of `(src, dst)` so the canonical choice 0 spreads
/// different flows across alternatives (static ECMP) while staying
/// reproducible.
fn spread(src: usize, dst: usize, choice: usize, n: usize) -> usize {
    debug_assert!(n > 0);
    (flow_hash(src as u64, dst as u64) as usize + choice) % n
}

/// splitmix64-style mix of the flow endpoints.
fn flow_hash(src: u64, dst: u64) -> u64 {
    mix64(src << 32 | dst)
}

/// splitmix64 as a stateless hash — shared by flow hashing and the
/// background tenant's per-link schedule de-phasing.
pub(crate) fn mix64(mut x: u64) -> u64 {
    simcore::oracle::splitmix64(&mut x)
}

/// Parsed topology selection, storable in a `NetConfig` and buildable into
/// a concrete [`Topology`]. `Flat` is the default and reproduces the
/// pre-topology fabric byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// Ideal crossbar (the paper's testbed model).
    #[default]
    Flat,
    /// k-ary fat-tree.
    FatTree {
        /// Arity (ports per switch); even, ≥ 2. Hosts = `k^3/4`.
        k: usize,
    },
    /// Dragonfly with `a` routers/group, `p` hosts/router, `h` global
    /// links/router.
    Dragonfly {
        /// Routers per group.
        a: usize,
        /// Hosts per router.
        p: usize,
        /// Global links per router.
        h: usize,
    },
}

impl TopologySpec {
    /// Parse a CLI spec: `flat`, `fat-tree:k=8`, or
    /// `dragonfly:a=4,p=2,h=2`. Returns a one-line error message on any
    /// unknown family or malformed parameter.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (family, params) = match s.split_once(':') {
            Some((f, p)) => (f, Some(p)),
            None => (s, None),
        };
        let kv = |params: &str| -> Result<Vec<(String, usize)>, String> {
            params
                .split(',')
                .map(|pair| {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("malformed topology parameter {pair:?}"))?;
                    let v: usize = v
                        .parse()
                        .map_err(|_| format!("topology parameter {k}={v:?} is not a number"))?;
                    Ok((k.to_string(), v))
                })
                .collect()
        };
        match family {
            "flat" => {
                if params.is_some() {
                    return Err("topology 'flat' takes no parameters".into());
                }
                Ok(TopologySpec::Flat)
            }
            "fat-tree" => {
                let params = kv(params.ok_or("fat-tree needs k, e.g. fat-tree:k=8")?)?;
                let [(ref key, k)] = params[..] else {
                    return Err("fat-tree takes exactly one parameter k".into());
                };
                if key != "k" {
                    return Err(format!("unknown fat-tree parameter {key:?} (expected k)"));
                }
                if k < 2 || !k.is_multiple_of(2) {
                    return Err(format!("fat-tree k must be even and >= 2, got {k}"));
                }
                Ok(TopologySpec::FatTree { k })
            }
            "dragonfly" => {
                let params =
                    kv(params.ok_or("dragonfly needs a,p,h, e.g. dragonfly:a=4,p=2,h=2")?)?;
                let (mut a, mut p, mut h) = (None, None, None);
                for (key, v) in &params {
                    match key.as_str() {
                        "a" => a = Some(*v),
                        "p" => p = Some(*v),
                        "h" => h = Some(*v),
                        other => {
                            return Err(format!(
                                "unknown dragonfly parameter {other:?} (expected a, p, h)"
                            ))
                        }
                    }
                }
                match (a, p, h) {
                    (Some(a), Some(p), Some(h)) if a > 0 && p > 0 && h > 0 => {
                        Ok(TopologySpec::Dragonfly { a, p, h })
                    }
                    (Some(_), Some(_), Some(_)) => {
                        Err("dragonfly a, p, h must all be positive".into())
                    }
                    _ => Err("dragonfly needs all of a, p, h".into()),
                }
            }
            other => Err(format!(
                "unknown topology {other:?} (expected flat, fat-tree:k=N, or dragonfly:a=A,p=P,h=H)"
            )),
        }
    }

    /// The spec in its canonical parseable form.
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::Flat => "flat".into(),
            TopologySpec::FatTree { k } => format!("fat-tree:k={k}"),
            TopologySpec::Dragonfly { a, p, h } => format!("dragonfly:a={a},p={p},h={h}"),
        }
    }

    /// Grow the family's parameters until the fabric fits `nranks` hosts
    /// (e.g. `fat-tree:k=8` holds 128 hosts; asked for 4096 it becomes
    /// `fat-tree:k=32`). Flat always fits. This is what lets one CLI spec
    /// apply across harnesses of very different scale without panicking.
    pub fn fitted(&self, nranks: usize) -> Self {
        match *self {
            TopologySpec::Flat => TopologySpec::Flat,
            TopologySpec::FatTree { mut k } => {
                while k * k * k / 4 < nranks {
                    k += 2;
                }
                TopologySpec::FatTree { k }
            }
            TopologySpec::Dragonfly { a, p, mut h } => {
                // Grow the global-link count (group count scales with a*h).
                while (a * h + 1) * a * p < nranks {
                    h += 1;
                }
                TopologySpec::Dragonfly { a, p, h }
            }
        }
    }

    /// Number of hosts the spec'd fabric wires up (`usize::MAX` for flat).
    pub fn hosts(&self) -> usize {
        match *self {
            TopologySpec::Flat => usize::MAX,
            TopologySpec::FatTree { k } => k * k * k / 4,
            TopologySpec::Dragonfly { a, p, h } => (a * h + 1) * a * p,
        }
    }

    /// Instantiate the topology. `flat_latency`, `switch_radix`, and
    /// `inter_switch_extra` configure the crossbar (they reproduce
    /// `NetConfig::latency_between`); `hop_latency` is the per-hop
    /// propagation of the hierarchical families.
    pub fn build(
        &self,
        flat_latency: Duration,
        switch_radix: Option<usize>,
        inter_switch_extra: Duration,
        hop_latency: Duration,
    ) -> std::sync::Arc<dyn Topology> {
        match *self {
            TopologySpec::Flat => std::sync::Arc::new(FlatCrossbar::new(
                flat_latency,
                switch_radix,
                inter_switch_extra,
            )),
            TopologySpec::FatTree { k } => std::sync::Arc::new(FatTree::new(k, hop_latency)),
            TopologySpec::Dragonfly { a, p, h } => {
                std::sync::Arc::new(Dragonfly::new(a, p, h, hop_latency))
            }
        }
    }
}

/// Spatial pattern of a background tenant's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every rank injects at unit rate to uniformly spread destinations.
    Uniform,
    /// Every rank sends to one victim rank (switch-port hotspot).
    Incast {
        /// The hotspot destination rank.
        victim: usize,
    },
    /// Rank `i` sends to rank `(i + n/2) mod n` (bisection-stressing
    /// shift permutation).
    Permutation,
}

impl TrafficPattern {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Incast { .. } => "incast",
            TrafficPattern::Permutation => "permutation",
        }
    }
}

/// A co-located tenant's traffic, modeled as fluid link occupancy: every
/// source injects `msg_bytes` once per `period_ns` along the pattern's
/// canonical routes (so per-source offered load is independent of job
/// size), and every shared link a flow crosses replays those injections
/// lazily — O(1) state per link, no simulated ranks, fully deterministic.
/// The measured job's messages queue behind the background occupancy
/// exactly as they queue behind each other; a finite per-link buffer drops
/// tenant injections past a bounded backlog, so an oversubscribing tenant
/// saturates a link rather than queuing without limit.
///
/// On the flat crossbar there are no shared links, so a background job is
/// inert there (the crossbar is contention-free by construction).
///
/// # Examples
///
/// ```
/// use simnet::topology::{BackgroundJob, TrafficPattern};
///
/// let job = BackgroundJob::builder(TrafficPattern::Uniform)
///     .msg_bytes(8 * 1024)
///     .period_ns(50_000)
///     .seed(7)
///     .build();
/// assert_eq!(job.pattern.label(), "uniform");
/// assert_eq!(job.msg_bytes, 8 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundJob {
    /// Who sends to whom.
    pub pattern: TrafficPattern,
    /// Bytes per injected message.
    pub msg_bytes: usize,
    /// Injection period per flow, ns.
    pub period_ns: u64,
    /// Seed de-phasing the per-link injection schedules.
    pub seed: u64,
}

impl BackgroundJob {
    /// Start building a background job with the given pattern. Defaults:
    /// 4 KiB messages every 100 µs per flow, seed 1.
    pub fn builder(pattern: TrafficPattern) -> BackgroundJobBuilder {
        BackgroundJobBuilder {
            job: BackgroundJob {
                pattern,
                msg_bytes: 4096,
                period_ns: 100_000,
                seed: 1,
            },
        }
    }
}

/// Builder for [`BackgroundJob`] (see [`BackgroundJob::builder`]).
#[derive(Debug, Clone)]
pub struct BackgroundJobBuilder {
    job: BackgroundJob,
}

impl BackgroundJobBuilder {
    /// Bytes per injected message.
    pub fn msg_bytes(mut self, bytes: usize) -> Self {
        self.job.msg_bytes = bytes;
        self
    }

    /// Injection period per flow, ns (smaller = heavier load).
    pub fn period_ns(mut self, ns: u64) -> Self {
        self.job.period_ns = ns.max(1);
        self
    }

    /// Seed de-phasing the per-link schedules.
    pub fn seed(mut self, seed: u64) -> Self {
        self.job.seed = seed;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> BackgroundJob {
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every hop of every candidate route must form a contiguous walk from
    /// src to dst in the topology's private node numbering, and the
    /// canonical candidate must cost exactly `path_latency`.
    fn check_routes(topo: &dyn Topology, nhosts: usize) {
        let mut route = Vec::new();
        for src in 0..nhosts {
            for dst in 0..nhosts {
                if src == dst {
                    continue;
                }
                let lat = topo.path_latency(src, dst);
                for c in 0..topo.paths(src, dst) {
                    topo.route_into(src, dst, c, &mut route);
                    assert!(!route.is_empty());
                    let total: u64 = route.iter().map(|h| h.latency).sum();
                    if c == 0 {
                        assert_eq!(total, lat, "canonical {src}->{dst} != path_latency");
                    } else {
                        assert!(
                            total >= lat,
                            "candidate {c} of {src}->{dst} undercuts minimal"
                        );
                    }
                    let mut at = src;
                    for hop in &route {
                        assert!(
                            hop.link != LINK_DEDICATED,
                            "hierarchical routes share links"
                        );
                        assert!((hop.link as usize) < topo.links());
                        let (from, to) = topo.link_ends(hop.link);
                        assert_eq!(from, at, "route {src}->{dst} candidate {c} not contiguous");
                        at = to;
                    }
                    assert_eq!(at, dst, "route {src}->{dst} candidate {c} ends elsewhere");
                }
            }
        }
    }

    #[test]
    fn fat_tree_k4_routes_are_valid_walks() {
        let ft = FatTree::new(4, 1000);
        check_routes(&ft, ft.hosts());
    }

    #[test]
    fn fat_tree_k8_spot_routes_are_valid_walks() {
        let ft = FatTree::new(8, 1000);
        // Full 128x128 is slow in debug; a host subset crossing every tier
        // (same edge, same pod, inter-pod) covers all code paths.
        let picks = [0usize, 1, 3, 5, 17, 31, 64, 127];
        let mut route = Vec::new();
        for &src in &picks {
            for &dst in &picks {
                if src == dst {
                    continue;
                }
                for c in 0..ft.paths(src, dst) {
                    ft.route_into(src, dst, c, &mut route);
                    let mut at = src;
                    for hop in &route {
                        let (from, to) = ft.link_ends(hop.link);
                        assert_eq!(from, at);
                        at = to;
                    }
                    assert_eq!(at, dst);
                }
            }
        }
    }

    #[test]
    fn fat_tree_hop_counts() {
        let ft = FatTree::new(4, 500);
        assert_eq!(ft.path_latency(0, 1), 2 * 500); // same edge
        assert_eq!(ft.path_latency(0, 2), 4 * 500); // same pod
        assert_eq!(ft.path_latency(0, 4), 6 * 500); // inter-pod
        assert_eq!(ft.paths(0, 1), 1);
        assert_eq!(ft.paths(0, 2), 2);
        assert_eq!(ft.paths(0, 4), 4);
    }

    #[test]
    fn fat_tree_ecmp_candidates_are_distinct() {
        let ft = FatTree::new(4, 1000);
        let mut seen = std::collections::HashSet::new();
        let mut route = Vec::new();
        for c in 0..ft.paths(0, 15) {
            ft.route_into(0, 15, c, &mut route);
            let key: Vec<u32> = route.iter().map(|h| h.link).collect();
            assert!(seen.insert(key), "candidate {c} duplicates another");
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn dragonfly_routes_are_valid_walks() {
        let df = Dragonfly::new(2, 2, 1, 1000); // 3 groups, 12 hosts
        check_routes(&df, df.hosts());
        let df = Dragonfly::new(4, 2, 2, 1000); // 9 groups, 72 hosts
        let picks = [0usize, 1, 7, 8, 15, 31, 40, 71];
        let mut route = Vec::new();
        for &src in &picks {
            for &dst in &picks {
                if src == dst {
                    continue;
                }
                for c in 0..df.paths(src, dst) {
                    df.route_into(src, dst, c, &mut route);
                    let mut at = src;
                    for hop in &route {
                        let (from, to) = df.link_ends(hop.link);
                        assert_eq!(from, at, "{src}->{dst} c{c}");
                        at = to;
                    }
                    assert_eq!(at, dst);
                }
            }
        }
    }

    #[test]
    fn dragonfly_global_wiring_is_a_permutation() {
        let df = Dragonfly::new(4, 2, 2, 1000);
        let g = df.groups();
        for group in 0..g {
            let mut peers: Vec<usize> = (0..df.a * df.h)
                .map(|gc| df.peer_group(group, gc))
                .collect();
            peers.sort_unstable();
            let expected: Vec<usize> = (0..g).filter(|&x| x != group).collect();
            assert_eq!(
                peers, expected,
                "group {group} must reach every other group once"
            );
            for gc in 0..df.a * df.h {
                let peer = df.peer_group(group, gc);
                assert_eq!(df.peer_group(peer, df.channel_to(peer, group)), group);
            }
        }
    }

    #[test]
    fn flat_crossbar_reproduces_latency_between() {
        let flat = FlatCrossbar::new(5000, Some(4), 2000);
        assert_eq!(flat.path_latency(0, 3), 5000);
        assert_eq!(flat.path_latency(0, 4), 7000);
        assert_eq!(flat.paths(0, 9), 1);
        let mut route = Vec::new();
        flat.route_into(0, 4, 0, &mut route);
        assert_eq!(route.len(), 1);
        assert_eq!(route[0].link, LINK_DEDICATED);
        assert_eq!(route[0].latency, 7000);
    }

    #[test]
    fn spec_parses_and_round_trips() {
        for s in ["flat", "fat-tree:k=8", "dragonfly:a=4,p=2,h=2"] {
            let spec = TopologySpec::parse(s).unwrap();
            assert_eq!(spec.label(), s);
        }
        for bad in [
            "bogus",
            "fat-tree",
            "fat-tree:k=7",
            "fat-tree:k=x",
            "fat-tree:q=8",
            "dragonfly:a=4",
            "dragonfly:a=0,p=2,h=2",
            "flat:k=2",
        ] {
            assert!(TopologySpec::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn spec_fitting_grows_to_rank_count() {
        let spec = TopologySpec::parse("fat-tree:k=8").unwrap();
        assert_eq!(spec.fitted(128), TopologySpec::FatTree { k: 8 });
        assert_eq!(spec.fitted(129), TopologySpec::FatTree { k: 10 });
        assert_eq!(spec.fitted(4096), TopologySpec::FatTree { k: 26 });
        let df = TopologySpec::parse("dragonfly:a=4,p=2,h=2").unwrap();
        assert!(df.fitted(500).hosts() >= 500);
        assert_eq!(TopologySpec::Flat.fitted(1 << 20), TopologySpec::Flat);
    }

    #[test]
    fn route_buffers_do_not_allocate_after_first_use() {
        let ft = FatTree::new(8, 1000);
        let mut route = Vec::with_capacity(8);
        let cap0 = {
            ft.route_into(0, 127, 0, &mut route);
            route.capacity()
        };
        for c in 0..ft.paths(0, 127) {
            ft.route_into(0, 127, c, &mut route);
        }
        assert_eq!(route.capacity(), cap0, "route_into must reuse the buffer");
    }
}
