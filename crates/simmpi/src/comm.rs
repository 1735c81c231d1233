//! Communicators: process subgroups with their own rank numbering and
//! collective scope (the `MPI_Comm_split` subset real NAS codes use for
//! row/column communicators).

/// A communicator: an ordered subgroup of world ranks. Obtained from
/// [`crate::Mpi::comm_world`] or [`crate::Mpi::comm_split`]; passed to the
/// `*_comm` collective variants. The member list is behind an `Arc`, so
/// cloning a communicator (every `comm_world()` call, every collective) is
/// a refcount bump, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comm {
    /// Unique id, agreed across members (scopes collective tags).
    pub(crate) id: u64,
    /// Member world ranks in communicator order.
    pub(crate) ranks: std::sync::Arc<[usize]>,
    /// This process's rank within the communicator.
    pub(crate) my_idx: usize,
}

impl Comm {
    /// The world communicator over `ranks`, the identity list `0..nranks`
    /// that the harness builds once per run and every rank shares.
    pub(crate) fn world(ranks: std::sync::Arc<[usize]>, my_rank: usize) -> Self {
        Comm {
            id: 0,
            ranks,
            my_idx: my_rank,
        }
    }

    /// Number of member processes.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// World rank of communicator member `idx`.
    pub fn world_rank(&self, idx: usize) -> usize {
        self.ranks[idx]
    }

    /// All member world ranks in communicator order.
    pub fn members(&self) -> &[usize] {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_comm_is_identity() {
        let c = Comm::world((0..4).collect(), 2);
        assert_eq!(c.size(), 4);
        assert_eq!(c.rank(), 2);
        assert_eq!(c.world_rank(3), 3);
        assert_eq!(c.members(), &[0, 1, 2, 3]);
    }
}
