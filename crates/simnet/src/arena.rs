//! A free-list slab arena for in-flight fabric work.
//!
//! Every message the fabric has accepted but not yet delivered lives in one
//! of these slabs, addressed by a dense `usize` key that doubles as the
//! engine's scheduling token. Vacated slots are chained into a free list and
//! reused, so at steady state posting a message performs **zero heap
//! allocations**: the slab's backing vector stops growing once it covers the
//! peak number of simultaneously in-flight operations.

/// A slab allocator handing out dense `usize` keys with O(1) insert/remove
/// and slot reuse via an intrusive free list.
pub(crate) struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: usize,
}

enum Entry<T> {
    Occupied(T),
    /// Index of the next vacant slot (`usize::MAX` terminates the list).
    Vacant(usize),
}

impl<T> Slab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: usize::MAX,
        }
    }

    /// Store `value`, returning its key. Reuses a vacant slot when one
    /// exists; grows the backing vector otherwise.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        if self.free_head != usize::MAX {
            let key = self.free_head;
            match std::mem::replace(&mut self.entries[key], Entry::Occupied(value)) {
                Entry::Vacant(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list pointed at an occupied slot"),
            }
            key
        } else {
            self.entries.push(Entry::Occupied(value));
            self.entries.len() - 1
        }
    }

    /// Remove and return the value at `key`, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if `key` is vacant or out of bounds — a token must be redeemed
    /// exactly once.
    pub(crate) fn remove(&mut self, key: usize) -> T {
        match std::mem::replace(&mut self.entries[key], Entry::Vacant(self.free_head)) {
            Entry::Occupied(value) => {
                self.free_head = key;
                value
            }
            Entry::Vacant(next) => {
                // Restore the list before panicking so the slab stays valid.
                self.entries[key] = Entry::Vacant(next);
                panic!("slab key {key} redeemed twice");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupied<T>(s: &Slab<T>) -> usize {
        s.entries
            .iter()
            .filter(|e| matches!(e, Entry::Occupied(_)))
            .count()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = Slab::new();
        let k1 = s.insert(10);
        let k2 = s.insert(20);
        let k3 = s.insert(30);
        assert_eq!(occupied(&s), 3);
        assert_eq!(s.remove(k2), 20);
        assert_eq!(s.remove(k1), 10);
        assert_eq!(occupied(&s), 1);
        assert_eq!(s.remove(k3), 30);
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut s = Slab::new();
        let k1 = s.insert("a");
        let k2 = s.insert("b");
        s.remove(k1);
        s.remove(k2);
        // Most recently freed first.
        assert_eq!(s.insert("c"), k2);
        assert_eq!(s.insert("d"), k1);
        assert_eq!(s.entries.len(), 2, "no growth after reuse");
    }

    #[test]
    fn capacity_tracks_peak_not_total() {
        let mut s = Slab::new();
        for round in 0..100 {
            let k = s.insert(round);
            assert!(k < 2, "steady state must reuse the same slots");
            let k2 = s.insert(round);
            s.remove(k);
            s.remove(k2);
        }
        assert_eq!(s.entries.len(), 2);
        assert_eq!(occupied(&s), 0);
    }

    #[test]
    #[should_panic(expected = "redeemed twice")]
    fn double_remove_panics() {
        let mut s = Slab::new();
        let k = s.insert(1);
        s.remove(k);
        s.remove(k);
    }
}
