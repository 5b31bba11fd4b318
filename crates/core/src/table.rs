//! Tagged, set-associative (or unbounded) predictor storage.
//!
//! The finite configuration is a [`dsp_types::SetAssoc`] store, the
//! same set-associative LRU structure behind the L2 cache model; the
//! unbounded idealization lives in [`dsp_types::OpenTable`], the same
//! open-addressing core behind `dsp-coherence`'s page directory. The
//! seed `HashMap` + `Vec<Vec<_>>` implementation survives as the oracle
//! of `tests/table_equivalence.rs`, which pins observational
//! equivalence (lookup/train results, eviction choices, and
//! [`TableStats`]) between the two.

use serde::{Deserialize, Serialize};

use dsp_types::{OpenTable, SetAssoc};

/// Capacity of a predictor table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Capacity {
    /// One entry per distinct key, never evicted — the idealized
    /// configuration the paper's sensitivity analysis compares against.
    Unbounded,
    /// A tagged, set-associative table with LRU replacement.
    Finite {
        /// Total entries (the paper evaluates 8 192 and 32 768).
        entries: usize,
        /// Associativity; `entries` must be divisible by it.
        ways: usize,
    },
}

impl Capacity {
    /// The paper's headline configuration: 8 192 entries, 4-way.
    pub const ISCA03: Capacity = Capacity::Finite {
        entries: 8192,
        ways: 4,
    };
}

/// Hit/allocation statistics of a [`PredictorTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// Lookup calls.
    pub lookups: u64,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Entries allocated.
    pub allocations: u64,
    /// Entries evicted to make room (finite tables only).
    pub evictions: u64,
}

/// The backing store of a [`PredictorTable`].
#[derive(Clone, Debug)]
enum Store<E> {
    Unbounded(OpenTable<E>),
    Finite(SetAssoc<E>),
}

/// Key-indexed storage for predictor entries.
///
/// Finite tables are tagged and set-associative with LRU replacement —
/// "Predictors are tagged, set-associative, and (by default) indexed by
/// data block address" (§3.1). Unbounded tables model the idealized
/// infinite predictor of the sensitivity study.
///
/// Allocation is explicit: [`PredictorTable::train`] only creates an
/// entry when the caller asks it to, implementing the paper's
/// allocate-on-insufficient-minimal-set policy at the policy layer.
/// Both lookups and training accesses refresh an entry's LRU position.
#[derive(Clone, Debug)]
pub struct PredictorTable<E> {
    store: Store<E>,
    stats: TableStats,
}

impl<E: Clone + Default> PredictorTable<E> {
    /// Creates a table with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if a finite capacity has zero entries/ways or `entries` is
    /// not divisible by `ways`.
    pub fn new(capacity: Capacity) -> Self {
        let store = match capacity {
            Capacity::Unbounded => Store::Unbounded(OpenTable::new()),
            Capacity::Finite { entries, ways } => {
                assert!(
                    entries > 0 && ways > 0,
                    "finite tables need entries and ways"
                );
                assert!(
                    entries % ways == 0,
                    "entries ({entries}) must be divisible by ways ({ways})"
                );
                Store::Finite(SetAssoc::new(entries / ways, ways))
            }
        };
        PredictorTable {
            store,
            stats: TableStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Capacity {
        match &self.store {
            Store::Unbounded(_) => Capacity::Unbounded,
            Store::Finite(t) => Capacity::Finite {
                entries: t.sets() * t.ways(),
                ways: t.ways(),
            },
        }
    }

    /// Lookup for prediction: returns the live entry for `key`, if any,
    /// refreshing its LRU position.
    pub fn lookup(&mut self, key: u64) -> Option<&E> {
        self.stats.lookups += 1;
        let hit = match &mut self.store {
            Store::Unbounded(t) => t.get(key),
            Store::Finite(t) => t.get(key).map(|e| &*e),
        };
        self.stats.hits += u64::from(hit.is_some());
        hit
    }

    /// Training access: applies `update` to the entry for `key`.
    ///
    /// If the entry is absent it is created (default-initialized) only
    /// when `allocate` is true; otherwise the event is dropped. Returns
    /// whether an entry was updated.
    pub fn train<F: FnOnce(&mut E)>(&mut self, key: u64, allocate: bool, update: F) -> bool {
        match &mut self.store {
            Store::Unbounded(t) => {
                if allocate {
                    let (entry, inserted) = t.get_or_insert_default(key);
                    self.stats.allocations += u64::from(inserted);
                    update(entry);
                    true
                } else if let Some(entry) = t.get_mut(key) {
                    update(entry);
                    true
                } else {
                    false
                }
            }
            Store::Finite(t) => {
                if let Some(entry) = t.get(key) {
                    update(entry);
                    return true;
                }
                if !allocate {
                    return false;
                }
                let mut entry = E::default();
                update(&mut entry);
                self.stats.allocations += 1;
                self.stats.evictions += u64::from(t.insert(key, entry).is_some());
                true
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Unbounded(t) => t.len(),
            Store::Finite(t) => t.len(),
        }
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Tag bits stored per entry for this configuration (0 when
    /// unbounded). Keys are treated as 42-bit values (a 48-bit physical
    /// address space of 64-byte blocks); the tag is `key / sets`, which
    /// needs `42 - floor(log2(sets))` bits for any set count.
    pub fn tag_bits(&self) -> u64 {
        match &self.store {
            Store::Unbounded(_) => 0,
            Store::Finite(t) => 42u64.saturating_sub(u64::from(t.sets().ilog2())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Table = PredictorTable<u32>;

    #[test]
    fn unbounded_never_evicts() {
        let mut t = Table::new(Capacity::Unbounded);
        for k in 0..10_000 {
            t.train(k, true, |e| *e = k as u32);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.stats().evictions, 0);
        assert_eq!(t.lookup(1234), Some(&1234));
    }

    #[test]
    fn finite_capacity_bounded() {
        let mut t = Table::new(Capacity::Finite {
            entries: 64,
            ways: 4,
        });
        for k in 0..1000 {
            t.train(k, true, |e| *e = k as u32);
        }
        assert!(t.len() <= 64);
        assert!(t.stats().evictions > 0);
    }

    #[test]
    fn no_allocation_without_flag() {
        let mut t = Table::new(Capacity::Finite {
            entries: 64,
            ways: 4,
        });
        assert!(!t.train(5, false, |e| *e = 1));
        assert!(t.is_empty());
        assert!(t.train(5, true, |e| *e = 1));
        assert!(
            t.train(5, false, |e| *e = 2),
            "existing entries train without allocate"
        );
        assert_eq!(t.lookup(5), Some(&2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways: keys map to the same set by construction.
        let mut t = Table::new(Capacity::Finite {
            entries: 2,
            ways: 2,
        });
        t.train(0, true, |e| *e = 10);
        t.train(1, true, |e| *e = 11);
        // Touch key 0 so key 1 is LRU.
        assert_eq!(t.lookup(0), Some(&10));
        t.train(2, true, |e| *e = 12);
        assert_eq!(t.lookup(0), Some(&10), "recently used survives");
        assert_eq!(t.lookup(1), None, "LRU evicted");
        assert_eq!(t.lookup(2), Some(&12));
    }

    #[test]
    fn tags_disambiguate_same_set() {
        let mut t = Table::new(Capacity::Finite {
            entries: 8,
            ways: 4,
        });
        // Keys 3 and 3 + num_sets (=2) share a set but differ in tag.
        t.train(3, true, |e| *e = 3);
        t.train(5, true, |e| *e = 5);
        assert_eq!(t.lookup(3), Some(&3));
        assert_eq!(t.lookup(5), Some(&5));
    }

    #[test]
    fn stats_track_hits() {
        let mut t = Table::new(Capacity::Unbounded);
        t.train(1, true, |e| *e = 1);
        let _ = t.lookup(1);
        let _ = t.lookup(2);
        let s = t.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.allocations, 1);
    }

    #[test]
    fn tag_bits_reasonable() {
        let t = Table::new(Capacity::Finite {
            entries: 8192,
            ways: 4,
        });
        // 2048 sets -> 11 index bits -> 31 tag bits of a 42-bit key.
        assert_eq!(t.tag_bits(), 31);
        assert_eq!(Table::new(Capacity::Unbounded).tag_bits(), 0);
        // Non-power-of-two set counts: `key / sets` of a 42-bit key needs
        // 42 - floor(log2(sets)) bits (24 sets -> 38, 5 sets -> 40).
        let bits = |entries, ways| Table::new(Capacity::Finite { entries, ways }).tag_bits();
        assert_eq!(bits(96, 4), 38);
        assert_eq!(bits(15, 3), 40);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_geometry() {
        let _ = Table::new(Capacity::Finite {
            entries: 10,
            ways: 4,
        });
    }

    /// A clone copies the LRU state, so its eviction decisions match
    /// the original's from the moment of the clone.
    #[test]
    fn clone_preserves_lru_state() {
        let mut t = Table::new(Capacity::Finite {
            entries: 2,
            ways: 2,
        });
        t.train(0, true, |e| *e = 10);
        t.train(1, true, |e| *e = 11);
        let _ = t.lookup(0); // key 1 is now LRU
        let mut clone = t.clone();
        clone.train(2, true, |e| *e = 12);
        t.train(2, true, |e| *e = 12);
        assert_eq!(t.lookup(1), None);
        assert_eq!(clone.lookup(1), None, "clone evicted the same victim");
        assert_eq!(clone.stats(), t.stats());
    }
}
