//! Registered memory regions.
//!
//! RDMA operations move bytes between *registered* regions, mirroring the
//! pinned-memory requirement of real user-level NICs. Each node owns a set of
//! regions addressed by [`RegionId`]; the communication libraries place user
//! buffers and landing buffers here so the simulation delivers real bytes end
//! to end (payloads are checksum-verified by the NAS kernels).
//!
//! A region is one of three things ([`Region`]). A **read-only** region *is*
//! the sender's payload — a `Bytes` registered by a rendezvous send — and an
//! RDMA Read of it replies with a `Bytes::slice` of that same allocation: the
//! receiver ends up holding the sender's buffer, and nothing is copied on the
//! host. A **landing** region is a pipelined receive buffer that remembers
//! what was written into it by reference: while each write continues the
//! run so far in the same allocation (the sender's fragments, in order) the
//! run just grows, and a region whose run covers it deregisters as the
//! sender's buffer. Any other write turns it, once, into the zero-filled
//! owned buffer it stands for. A **writable** region is that owned
//! `Vec<u8>`, which remote operations mutate in place (ARMCI windows, and
//! landing regions after the fallback); a read of one copies the range out,
//! because a later put may change it. Writing into a read-only region is a
//! bug in the caller and fails loudly. None of this costs virtual time:
//! `NetConfig::copy_cost` and `reg_cost` are charged by the libraries,
//! whatever the host does.

use std::collections::HashMap;

use bytes::Bytes;

/// Identifier of a registered memory region on some node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

/// Contents of one registered region (see the module docs).
#[derive(Debug)]
pub enum Region {
    /// An immutable payload, shared by reference with whoever reads it.
    ReadOnly(Bytes),
    /// Owned memory that remote writes mutate in place.
    Writable(Vec<u8>),
    /// A `len`-byte receive buffer whose bytes are `run`, then zeros.
    Landing {
        /// What the writes so far have tiled from offset 0, by reference.
        run: Bytes,
        /// The region's length.
        len: usize,
    },
}

impl From<Bytes> for Region {
    fn from(b: Bytes) -> Self {
        Region::ReadOnly(b)
    }
}

impl From<Vec<u8>> for Region {
    fn from(v: Vec<u8>) -> Self {
        Region::Writable(v)
    }
}

impl Region {
    /// The region's bytes in place. Nothing reads a landing region before
    /// its writes have tiled it, so one that has a gap panics.
    fn as_slice(&self) -> &[u8] {
        match self {
            Region::ReadOnly(b) => b,
            Region::Writable(v) => v,
            Region::Landing { run, len } => {
                assert_eq!(run.len(), *len, "landing region read before it was filled");
                run
            }
        }
    }
}

/// The owned buffer a landing region stands for: `run`, zero-filled to `len`.
fn zero_filled(run: &Bytes, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[..run.len()].copy_from_slice(run);
    v
}

/// Registered memory of one node.
#[derive(Debug, Default)]
pub struct NodeMemory {
    regions: HashMap<u64, Region>,
}

impl NodeMemory {
    pub(crate) fn new() -> Self {
        NodeMemory::default()
    }

    pub(crate) fn insert(&mut self, id: RegionId, data: Region) {
        let prev = self.regions.insert(id.0, data);
        assert!(prev.is_none(), "region id reused");
    }

    /// Unpin a region and hand its contents over: free for every kind but
    /// a landing region its writes did not cover, which is zero-filled.
    pub(crate) fn remove(&mut self, id: RegionId) -> Option<Bytes> {
        Some(match self.regions.remove(&id.0)? {
            Region::ReadOnly(b) => b,
            Region::Writable(v) => Bytes::from(v),
            Region::Landing { run, len } if run.len() == len => run,
            Region::Landing { run, len } => Bytes::from(zero_filled(&run, len)),
        })
    }

    /// Point a read-only registration at a new payload of the same length
    /// (a registration-cache hit: the pin is reused, the buffer is not).
    pub fn replace(&mut self, id: RegionId, data: Bytes) {
        match self.regions.get_mut(&id.0) {
            Some(Region::ReadOnly(old)) if old.len() == data.len() => *old = data,
            _ => panic!("region {} is not a read-only {} B pin", id.0, data.len()),
        }
    }

    /// Read access to a region.
    pub fn get(&self, id: RegionId) -> Option<&[u8]> {
        self.regions.get(&id.0).map(Region::as_slice)
    }

    /// What an RDMA Read of `off..off + len` returns: a slice of the shared
    /// payload for a read-only or landing region, a snapshot copy for a
    /// writable one.
    pub(crate) fn read(&self, id: RegionId, off: usize, len: usize) -> Option<Bytes> {
        Some(match self.regions.get(&id.0)? {
            Region::ReadOnly(b) | Region::Landing { run: b, .. } => b.slice(off..off + len),
            Region::Writable(v) => Bytes::copy_from_slice(&v[off..off + len]),
        })
    }

    /// Place an RDMA Write of `data` at `off` (see the module docs for what
    /// a landing region keeps by reference). Panics on a read-only region:
    /// nothing may change a payload that receivers hold by reference.
    pub(crate) fn write(&mut self, id: RegionId, off: usize, data: &Bytes) {
        let region = self
            .regions
            .get_mut(&id.0)
            .expect("RDMA write to unknown region");
        if let Region::Landing { run, len } = region {
            if off == run.len() && off + data.len() <= *len {
                if let Some(joined) = run.try_unsplit(data) {
                    *run = joined;
                    return;
                }
            }
            *region = Region::Writable(zero_filled(run, *len));
        }
        match region {
            Region::Writable(v) => v[off..off + data.len()].copy_from_slice(data),
            _ => panic!(
                "region {} is read-only (registered from Bytes): an RDMA write \
                 needs a writable Vec<u8> region",
                id.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut mem = NodeMemory::new();
        mem.insert(RegionId(1), vec![1, 2, 3].into());
        assert_eq!(mem.get(RegionId(1)), Some(&[1u8, 2, 3][..]));
        let data = mem.remove(RegionId(1)).unwrap();
        assert_eq!(data, vec![1, 2, 3]);
        assert!(mem.get(RegionId(1)).is_none());
    }

    #[test]
    fn write_mutates_a_writable_region_in_place() {
        let mut mem = NodeMemory::new();
        mem.insert(RegionId(7), vec![0; 4].into());
        mem.write(RegionId(7), 2, &Bytes::from(vec![9u8]));
        assert_eq!(mem.get(RegionId(7)).unwrap(), &[0, 0, 9, 0]);
    }

    #[test]
    #[should_panic(expected = "region id reused")]
    fn duplicate_region_id_panics() {
        let mut mem = NodeMemory::new();
        mem.insert(RegionId(1), vec![].into());
        mem.insert(RegionId(1), vec![].into());
    }

    #[test]
    fn read_only_region_is_read_by_reference_and_replaced_in_place() {
        let mut mem = NodeMemory::new();
        let payload = Bytes::from(vec![4u8; 64]);
        mem.insert(RegionId(2), payload.clone().into());
        let got = mem.read(RegionId(2), 16, 32).unwrap();
        assert_eq!(got.as_ptr(), payload[16..].as_ptr(), "no copy");
        let next = Bytes::from(vec![5u8; 64]);
        mem.replace(RegionId(2), next.clone());
        assert_eq!(
            mem.read(RegionId(2), 0, 64).unwrap().as_ptr(),
            next.as_ptr()
        );
        // The earlier reader still holds the earlier payload.
        assert_eq!(&got[..], &[4u8; 32][..]);
        assert_eq!(mem.remove(RegionId(2)).unwrap().as_ptr(), next.as_ptr());
    }

    #[test]
    fn writable_region_reads_are_snapshots() {
        let mut mem = NodeMemory::new();
        mem.insert(RegionId(3), vec![1u8; 8].into());
        let before = mem.read(RegionId(3), 0, 8).unwrap();
        mem.write(RegionId(3), 0, &Bytes::from(vec![9u8]));
        assert_eq!(before[0], 1);
        assert_eq!(mem.read(RegionId(3), 0, 8).unwrap()[0], 9);
    }

    #[test]
    #[should_panic(expected = "region 4 is read-only")]
    fn read_only_region_refuses_writes() {
        let mut mem = NodeMemory::new();
        mem.insert(RegionId(4), Bytes::from(vec![0u8; 8]).into());
        mem.write(RegionId(4), 0, &Bytes::from(vec![1u8]));
    }

    /// A pipelined send's payload: 40 distinct bytes, fragments of 10.
    fn payload() -> Bytes {
        Bytes::from((1u8..=40).collect::<Vec<u8>>())
    }

    /// Land `writes` (offset, fragment) in a region that starts as
    /// `payload[..10]`; return what deregistering it hands over.
    fn land(writes: &[(usize, Bytes)]) -> Bytes {
        let p = payload();
        let mut mem = NodeMemory::new();
        mem.insert(
            RegionId(5),
            Region::Landing {
                run: p.slice(..10),
                len: 40,
            },
        );
        for (off, data) in writes {
            mem.write(RegionId(5), *off, data);
        }
        mem.remove(RegionId(5)).unwrap()
    }

    /// What today's zero-filled copy path gives for the same writes: a
    /// `vec![0; 40]` with fragment 1 and then every write copied in.
    fn copied(writes: &[(usize, Bytes)]) -> Vec<u8> {
        let mut v = vec![0u8; 40];
        v[..10].copy_from_slice(&payload()[..10]);
        for (off, data) in writes {
            v[*off..off + data.len()].copy_from_slice(data);
        }
        v
    }

    #[test]
    fn fragments_that_tile_the_payload_in_order_land_as_the_senders_allocation() {
        let p = payload();
        let mut mem = NodeMemory::new();
        mem.insert(
            RegionId(6),
            Region::Landing {
                run: p.slice(..10),
                len: 40,
            },
        );
        for off in [10, 20, 30] {
            mem.write(RegionId(6), off, &p.slice(off..off + 10));
        }
        assert_eq!(mem.get(RegionId(6)).unwrap(), &p[..]);
        assert_eq!(
            mem.read(RegionId(6), 5, 10).unwrap().as_ptr(),
            p[5..].as_ptr()
        );
        let out = mem.remove(RegionId(6)).unwrap();
        assert_eq!(out.as_ptr(), p.as_ptr(), "no landing buffer, no copy");
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn every_other_write_gives_the_bytes_of_the_zero_filled_copy_path() {
        let p = payload();
        let twin = payload(); // same bytes, another allocation
        let other = Bytes::from(vec![0xAAu8; 10]);
        let cases: Vec<(&str, Vec<(usize, Bytes)>)> = vec![
            (
                "out of order",
                vec![
                    (30, p.slice(30..)),
                    (10, p.slice(10..20)),
                    (20, p.slice(20..30)),
                ],
            ),
            (
                "another allocation",
                vec![
                    (10, twin.slice(10..20)),
                    (20, p.slice(20..30)),
                    (30, p.slice(30..)),
                ],
            ),
            (
                "foreign bytes",
                vec![
                    (10, other.clone()),
                    (20, p.slice(20..30)),
                    (30, p.slice(30..)),
                ],
            ),
            (
                "duplicate",
                vec![
                    (10, p.slice(10..20)),
                    (10, p.slice(10..20)),
                    (20, p.slice(20..)),
                ],
            ),
            (
                "overlapping",
                vec![
                    (10, p.slice(10..25)),
                    (20, p.slice(20..30)),
                    (30, p.slice(30..)),
                ],
            ),
            ("deregistered early", vec![(10, p.slice(10..20))]),
            ("gap", vec![(10, p.slice(10..20)), (30, p.slice(30..))]),
        ];
        for (name, writes) in cases {
            assert_eq!(land(&writes), copied(&writes), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "landing region read before it was filled")]
    fn a_landing_region_with_a_gap_is_not_readable_in_place() {
        let mut mem = NodeMemory::new();
        mem.insert(
            RegionId(8),
            Region::Landing {
                run: payload().slice(..10),
                len: 40,
            },
        );
        mem.get(RegionId(8));
    }
}
