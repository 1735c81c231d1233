//! Registered memory regions.
//!
//! RDMA operations move bytes between *registered* regions, mirroring the
//! pinned-memory requirement of real user-level NICs. Each node owns a set of
//! regions addressed by [`RegionId`]; the communication libraries place user
//! buffers and landing buffers here so the simulation delivers real bytes end
//! to end (payloads are checksum-verified by the NAS kernels).
//!
//! A region is one of two things ([`Region`]). A **read-only** region *is*
//! the sender's payload — a `Bytes` registered by a rendezvous send — and an
//! RDMA Read of it replies with a `Bytes::slice` of that same allocation: the
//! receiver ends up holding the sender's buffer, and nothing is copied on the
//! host. A **writable** region is an owned `Vec<u8>` that remote operations
//! mutate in place (pipelined landing buffers, ARMCI windows); a read of one
//! copies the range out, because a later put may change it. Writing into a
//! read-only region is a bug in the caller and fails loudly. None of this
//! costs virtual time: `NetConfig::copy_cost` and `reg_cost` are charged by
//! the libraries, whatever the host does.

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
    fn as_slice(&self) -> &[u8] {
        match self {
            Region::ReadOnly(b) => b,
            Region::Writable(v) => v,
        }
    }
}

/// Registered memory of one node.
#[derive(Debug, Default)]
pub struct NodeMemory {
    regions: HashMap<u64, Region>,
    pinned_bytes: usize,
}

impl NodeMemory {
    pub(crate) fn new() -> Self {
        NodeMemory::default()
    }

    pub(crate) fn insert(&mut self, id: RegionId, data: Region) {
        self.pinned_bytes += data.as_slice().len();
        let prev = self.regions.insert(id.0, data);
        assert!(prev.is_none(), "region id reused");
    }

    /// Unpin a region and hand its contents over (free for either kind).
    pub(crate) fn remove(&mut self, id: RegionId) -> Option<Bytes> {
        let data = self.regions.remove(&id.0)?;
        self.pinned_bytes -= data.as_slice().len();
        Some(match data {
            Region::ReadOnly(b) => b,
            Region::Writable(v) => Bytes::from(v),
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
    /// payload for a read-only region, a snapshot copy for a writable one.
    pub fn read(&self, id: RegionId, off: usize, len: usize) -> Option<Bytes> {
        Some(match self.regions.get(&id.0)? {
            Region::ReadOnly(b) => b.slice(off..off + len),
            Region::Writable(v) => Bytes::copy_from_slice(&v[off..off + len]),
        })
    }

    /// Write access to a region. Panics on a read-only one: nothing may
    /// change a payload that receivers hold by reference.
    pub fn get_mut(&mut self, id: RegionId) -> Option<&mut [u8]> {
        match self.regions.get_mut(&id.0)? {
            Region::Writable(v) => Some(v.as_mut_slice()),
            Region::ReadOnly(_) => panic!(
                "region {} is read-only (registered from Bytes): an RDMA write \
                 needs a writable Vec<u8> region",
                id.0
            ),
        }
    }

    /// Total bytes currently pinned on this node.
    pub fn pinned_bytes(&self) -> usize {
        self.pinned_bytes
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
        assert_eq!(mem.pinned_bytes(), 3);
        let data = mem.remove(RegionId(1)).unwrap();
        assert_eq!(data, vec![1, 2, 3]);
        assert_eq!(mem.pinned_bytes(), 0);
        assert!(mem.get(RegionId(1)).is_none());
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut mem = NodeMemory::new();
        mem.insert(RegionId(7), vec![0; 4].into());
        mem.get_mut(RegionId(7)).unwrap()[2] = 9;
        assert_eq!(mem.get(RegionId(7)).unwrap()[2], 9);
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
        assert_eq!(mem.pinned_bytes(), 64);
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
        mem.get_mut(RegionId(3)).unwrap()[0] = 9;
        assert_eq!(before[0], 1);
        assert_eq!(mem.read(RegionId(3), 0, 8).unwrap()[0], 9);
    }

    #[test]
    #[should_panic(expected = "region 4 is read-only")]
    fn read_only_region_refuses_writes() {
        let mut mem = NodeMemory::new();
        mem.insert(RegionId(4), Bytes::from(vec![0u8; 8]).into());
        mem.get_mut(RegionId(4));
    }
}
