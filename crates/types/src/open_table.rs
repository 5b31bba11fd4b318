//! A reusable open-addressing hash table for `u64`-keyed hot paths.
//!
//! [`OpenTable`] maps non-adversarial `u64` keys to small plain-data
//! entries, never removes keys, and is probed millions of times per run:
//! FxHash-style mixing ([`crate::hash`]), power-of-two capacity, linear
//! probing, growth at ¾ load. Entries are never removed, which keeps
//! probe chains tombstone-free.
//!
//! It serves two callers. The unbounded predictor tables of `dsp-core`
//! key on PCs and macroblock numbers, which are sparse. The coherence
//! tracker of `dsp-coherence` keys its page directory on
//! `block >> 8`: block numbers are nearly dense, so the tracker indexes
//! block state directly within 256-block pages and hashes only the page
//! number, a table a few hundred times smaller than one keyed per block.

use crate::hash::mix64;

/// One slot: the key, its entry, and whether the slot is occupied.
///
/// An explicit flag (rather than a reserved sentinel key) keeps every
/// `u64` usable as a key.
#[derive(Clone, Debug)]
struct Slot<V> {
    key: u64,
    used: bool,
    value: V,
}

/// Open-addressing hash table mapping `u64` keys to `V` entries.
///
/// Power-of-two capacity, linear probing, grows at ¾ load, no removal.
/// `V: Clone + Default` because growth relocates slots and vacant slots
/// are eagerly default-initialized (plain-data entries make both free).
///
/// # Example
///
/// ```
/// use dsp_types::OpenTable;
///
/// let mut table: OpenTable<u32> = OpenTable::new();
/// assert_eq!(table.get(42), None);
/// let (entry, inserted) = table.get_or_insert_default(42);
/// assert!(inserted);
/// *entry = 7;
/// assert_eq!(table.get(42), Some(&7));
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct OpenTable<V> {
    slots: Vec<Slot<V>>,
    len: usize,
}

impl<V: Clone + Default> OpenTable<V> {
    /// Creates an empty table (no slots are allocated until the first
    /// insertion).
    pub fn new() -> Self {
        OpenTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of live keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of `key`'s slot: either the slot holding it or the first
    /// empty slot of its probe chain. Requires a non-empty slot array
    /// with at least one free slot (guaranteed by the ¾ load cap).
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut idx = mix64(key) as usize & mask;
        loop {
            let slot = &self.slots[idx];
            if !slot.used || slot.key == key {
                return idx;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The entry for `key`, if it was ever inserted.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[self.probe(key)];
        slot.used.then_some(&slot.value)
    }

    /// Mutable entry for `key`, if it was ever inserted.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        let idx = self.probe(key);
        let slot = &mut self.slots[idx];
        slot.used.then_some(&mut slot.value)
    }

    /// The combined lookup: returns `key`'s entry, inserting the default
    /// first if absent, plus whether the insertion happened. One hash,
    /// one probe chain — this is the only operation on the per-miss
    /// paths built over this table.
    #[inline]
    pub fn get_or_insert_default(&mut self, key: u64) -> (&mut V, bool) {
        // Grow at ¾ load, *before* probing, so the probe index stays
        // valid and a free slot always terminates the chain.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let idx = self.probe(key);
        let slot = &mut self.slots[idx];
        let inserted = !slot.used;
        if inserted {
            slot.key = key;
            slot.used = true;
            slot.value = V::default();
            self.len += 1;
        }
        (&mut slot.value, inserted)
    }

    /// Like [`OpenTable::get_or_insert_default`], but a missing entry
    /// is initialized with `init` instead of `V::default()`.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, init: impl FnOnce() -> V) -> (&mut V, bool) {
        let (entry, inserted) = self.get_or_insert_default(key);
        if inserted {
            *entry = init();
        }
        (entry, inserted)
    }

    /// Iterates over `(key, &entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.used)
            .map(|s| (s.key, &s.value))
    }

    /// Doubles the slot array (from a 1024-slot floor, so building a
    /// typical multi-thousand-key working set pays only a handful of
    /// rehashes) and reinserts every occupied slot.
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(1024);
        let empty = Slot {
            key: 0,
            used: false,
            value: V::default(),
        };
        let old = std::mem::replace(&mut self.slots, vec![empty; new_cap]);
        let mask = new_cap - 1;
        for slot in old.into_iter().filter(|s| s.used) {
            let mut idx = mix64(slot.key) as usize & mask;
            while self.slots[idx].used {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = slot;
        }
    }
}

impl<V: Clone + Default> Default for OpenTable<V> {
    fn default() -> Self {
        OpenTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_reads_none() {
        let t: OpenTable<u32> = OpenTable::new();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(u64::MAX), None);
        assert!(t.is_empty());
    }

    #[test]
    fn get_mut_on_empty_is_none() {
        let mut t: OpenTable<u32> = OpenTable::new();
        assert_eq!(t.get_mut(9), None);
    }

    #[test]
    fn insert_then_read_back() {
        let mut t: OpenTable<u32> = OpenTable::new();
        let (v, inserted) = t.get_or_insert_default(7);
        assert!(inserted);
        *v = 70;
        assert_eq!(t.get(7), Some(&70));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_is_idempotent_and_preserves_entry() {
        let mut t: OpenTable<u32> = OpenTable::new();
        *t.get_or_insert_default(7).0 = 70;
        let (v, inserted) = t.get_or_insert_default(7);
        assert!(!inserted, "second combined lookup must not re-insert");
        assert_eq!(*v, 70);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn extreme_keys_are_usable() {
        let mut t: OpenTable<u64> = OpenTable::new();
        for key in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            *t.get_or_insert_default(key).0 = key ^ 0xff;
        }
        for key in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            assert_eq!(t.get(key), Some(&(key ^ 0xff)));
        }
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut t: OpenTable<u64> = OpenTable::new();
        // Sequential and stride-poisoned keys, well past several grows.
        for i in 0..10_000u64 {
            *t.get_or_insert_default(i << 6).0 = i;
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get(i << 6), Some(&i));
        }
        assert_eq!(t.get(10_000 << 6), None);
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut t: OpenTable<u64> = OpenTable::new();
        for i in 0..100u64 {
            *t.get_or_insert_default(i).0 = i * 2;
        }
        let mut pairs: Vec<(u64, u64)> = t.iter().map(|(k, v)| (k, *v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, (0..100).map(|i| (i, i * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn matches_std_hashmap_on_mixed_operations() {
        use std::collections::HashMap;
        let mut table: OpenTable<u64> = OpenTable::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random walk over a colliding key space.
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 512; // force reuse and collisions
            match step % 3 {
                0 => {
                    *table.get_or_insert_default(key).0 = x;
                    *reference.entry(key).or_default() = x;
                }
                1 => {
                    assert_eq!(table.get(key), reference.get(&key));
                }
                _ => {
                    let ours = table.get_mut(key).map(|v| {
                        *v = v.wrapping_add(step);
                        *v
                    });
                    let theirs = reference.get_mut(&key).map(|v| {
                        *v = v.wrapping_add(step);
                        *v
                    });
                    assert_eq!(ours, theirs);
                }
            }
            assert_eq!(table.len(), reference.len());
        }
    }
}
