//! Tagged, set-associative (or unbounded) predictor storage.
//!
//! Rebuilt on the workspace's shared storage family: the finite
//! configuration keeps its tags, LRU stamps, and entries in flat
//! per-set arrays (no per-set `Vec` indirection — one cache line of
//! tags per 4-way set instead of a pointer chase), and the unbounded
//! idealization lives in [`dsp_types::OpenTable`], the same
//! open-addressing core behind `dsp-coherence`'s page directory.
//! The seed `HashMap` + `Vec<Vec<_>>` implementation survives as the
//! oracle of `tests/table_equivalence.rs`, which pins observational
//! equivalence (lookup/train results, eviction choices, and
//! [`TableStats`]) between the two.
//!
//! A key splits into a set index and a tag the way hardware splits an
//! address: when the set count is a power of two (both tagged
//! geometries the paper evaluates, 8 192 × 4 and 32 768 × 4, are) the
//! index is the key's low `log2(sets)` bits and the tag the bits above
//! them, a mask and a shift. Other set counts fall back to `key % sets`
//! and `key / sets`, which give the same split on powers of two; the
//! choice is made once, from the geometry, in [`PredictorTable::new`].

use serde::{Deserialize, Serialize};

use dsp_types::OpenTable;

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
///
/// # LRU tick overflow and `clone`
///
/// Recency is tracked by one `u64` tick shared across all sets,
/// incremented on every `lookup`/`train` call. At 10⁸ accesses per
/// second that counter lasts ~5 800 years, but the wrap story is still
/// defined rather than assumed away: when the tick reaches `u64::MAX`
/// the table renormalizes every live `last_use` stamp to its recency
/// rank (preserving the exact LRU order) and restarts the tick above
/// the highest rank, so eviction decisions are identical across the
/// wrap. Cloning copies the tick along with the stamps; each clone then
/// advances independently, which keeps every clone's LRU order
/// internally consistent (ticks are compared only within one table, so
/// cross-instance reuse needs no reset).
///
/// # Storage
///
/// Finite sets are materialized *lazily from one growable arena*. The
/// only full-size structures are two small per-set arrays (`set_base`,
/// the 1-based base of the set's arena block with 0 = "never
/// allocated into", and `set_len`, the occupied prefix length); a
/// set's block of `ways` contiguous slots — parallel
/// `tags`/`stamps`/`entries` arena entries — is appended on the set's
/// first allocation. Within a block, occupied slots form a prefix
/// (allocation appends, eviction replaces in place).
///
/// The layout exists for construction cost: the timing simulator
/// builds one predictor (often two tables) per node per run, and
/// default-initializing the paper's 8 192-entry geometry per table
/// was a measurable slice of short runs. With the arena, construction
/// is two allocator-zeroed 4-byte-per-set arrays, cost scales with the
/// sets a run actually touches, a lookup in an untouched set is a
/// single load, and a set probe scans ≤ `ways` adjacent tags.
#[derive(Clone, Debug)]
pub struct PredictorTable<E> {
    capacity: Capacity,
    unbounded: OpenTable<E>,
    /// Per set: 1 + the base slot of its arena block, 0 = not yet
    /// materialized.
    set_base: Vec<u32>,
    /// Occupied-prefix length per set.
    set_len: Vec<u32>,
    /// Per-way tags (meaningful only inside a set's occupied prefix).
    tags: Vec<u64>,
    /// Per-way LRU stamps (same validity).
    stamps: Vec<u64>,
    /// Per-way payloads (same validity).
    entries: Vec<E>,
    live: usize,
    num_sets: usize,
    /// `log2(num_sets)` when the set count is a power of two (the key
    /// then splits by mask and shift), `None` otherwise.
    index_bits: Option<u32>,
    ways: usize,
    tick: u64,
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
        let (num_sets, ways) = match capacity {
            Capacity::Unbounded => (0, 0),
            Capacity::Finite { entries, ways } => {
                assert!(
                    entries > 0 && ways > 0,
                    "finite tables need entries and ways"
                );
                assert!(
                    entries % ways == 0,
                    "entries ({entries}) must be divisible by ways ({ways})"
                );
                (entries / ways, ways)
            }
        };
        assert!(
            (num_sets as u64 * ways as u64) < u32::MAX as u64,
            "table geometry exceeds the arena index range"
        );
        PredictorTable {
            capacity,
            unbounded: OpenTable::new(),
            set_base: vec![0; num_sets],
            set_len: vec![0; num_sets],
            tags: Vec::new(),
            stamps: Vec::new(),
            entries: Vec::new(),
            live: 0,
            num_sets,
            index_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            ways,
            tick: 0,
            stats: TableStats::default(),
        }
    }

    /// The arena block of `set_idx`, materializing it on demand.
    #[inline]
    fn materialize(&mut self, set_idx: usize) -> usize {
        match self.set_base[set_idx] {
            0 => {
                let base = self.tags.len();
                self.tags.resize(base + self.ways, 0);
                self.stamps.resize(base + self.ways, 0);
                self.entries.resize_with(base + self.ways, E::default);
                self.set_base[set_idx] = (base + 1) as u32;
                base
            }
            b => b as usize - 1,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Advances the access tick, renormalizing the LRU stamps first if
    /// the counter is about to wrap (see the type docs).
    #[inline]
    fn bump_tick(&mut self) -> u64 {
        if self.tick == u64::MAX {
            self.renormalize_ticks();
        }
        self.tick += 1;
        self.tick
    }

    /// Compresses every live `last_use` stamp to its recency rank
    /// (1-based, oldest first) and restarts the tick just above the
    /// highest rank. Relative recency — the only thing eviction ever
    /// compares — is exactly preserved.
    #[cold]
    fn renormalize_ticks(&mut self) {
        let mut live_stamps: Vec<(u64, usize)> = Vec::with_capacity(self.live);
        for set in 0..self.num_sets {
            let Some(base) = self.set_base[set].checked_sub(1) else {
                continue;
            };
            for way in 0..self.set_len[set] as usize {
                let slot = base as usize + way;
                live_stamps.push((self.stamps[slot], slot));
            }
        }
        live_stamps.sort_unstable();
        for (rank, &(_, slot)) in live_stamps.iter().enumerate() {
            self.stamps[slot] = rank as u64 + 1;
        }
        self.tick = live_stamps.len() as u64;
    }

    /// The slot of `key` within its set's occupied prefix, if present
    /// (`None` without a scan when the set was never allocated into).
    #[inline]
    fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
        let base = match self.set_base[set_idx] {
            0 => return None,
            b => b as usize - 1,
        };
        let len = self.set_len[set_idx] as usize;
        self.tags[base..base + len]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    /// Lookup for prediction: returns the live entry for `key`, if any,
    /// refreshing its LRU position.
    pub fn lookup(&mut self, key: u64) -> Option<&E> {
        self.stats.lookups += 1;
        let tick = self.bump_tick();
        match self.capacity {
            Capacity::Unbounded => {
                let hit = self.unbounded.get(key);
                if hit.is_some() {
                    self.stats.hits += 1;
                }
                hit
            }
            Capacity::Finite { .. } => {
                let (set_idx, tag) = self.locate(key);
                match self.find(set_idx, tag) {
                    Some(slot) => {
                        self.stamps[slot] = tick;
                        self.stats.hits += 1;
                        Some(&self.entries[slot])
                    }
                    None => None,
                }
            }
        }
    }

    /// Training access: applies `update` to the entry for `key`.
    ///
    /// If the entry is absent it is created (default-initialized) only
    /// when `allocate` is true; otherwise the event is dropped. Returns
    /// whether an entry was updated.
    pub fn train<F: FnOnce(&mut E)>(&mut self, key: u64, allocate: bool, update: F) -> bool {
        let tick = self.bump_tick();
        match self.capacity {
            Capacity::Unbounded => {
                if allocate {
                    let (entry, inserted) = self.unbounded.get_or_insert_default(key);
                    self.stats.allocations += u64::from(inserted);
                    update(entry);
                    true
                } else if let Some(entry) = self.unbounded.get_mut(key) {
                    update(entry);
                    true
                } else {
                    false
                }
            }
            Capacity::Finite { .. } => {
                let (set_idx, tag) = self.locate(key);
                if let Some(slot) = self.find(set_idx, tag) {
                    self.stamps[slot] = tick;
                    update(&mut self.entries[slot]);
                    return true;
                }
                if !allocate {
                    return false;
                }
                self.stats.allocations += 1;
                let base = self.materialize(set_idx);
                let len = self.set_len[set_idx] as usize;
                let slot = if len >= self.ways {
                    // Evict the least recently used way. Stamps are
                    // unique (each comes from a distinct tick), so the
                    // minimum — and hence the victim — is unambiguous.
                    let victim = self.stamps[base..base + len]
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &stamp)| stamp)
                        .map(|(way, _)| base + way)
                        .expect("set is non-empty");
                    self.stats.evictions += 1;
                    victim
                } else {
                    self.set_len[set_idx] += 1;
                    self.live += 1;
                    base + len
                };
                let mut entry = E::default();
                update(&mut entry);
                self.tags[slot] = tag;
                self.stamps[slot] = tick;
                self.entries[slot] = entry;
                true
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match self.capacity {
            Capacity::Unbounded => self.unbounded.len(),
            Capacity::Finite { .. } => self.live,
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
        match self.capacity {
            Capacity::Unbounded => 0,
            Capacity::Finite { .. } => 42u64.saturating_sub(u64::from(self.num_sets.ilog2())),
        }
    }

    /// Splits `key` into its set index and tag: the low `log2(sets)`
    /// bits and the bits above them for a power-of-two set count,
    /// `key % sets` and `key / sets` otherwise (the same split, computed
    /// by division).
    #[inline]
    fn locate(&self, key: u64) -> (usize, u64) {
        match self.index_bits {
            Some(bits) => ((key & (self.num_sets as u64 - 1)) as usize, key >> bits),
            None => {
                let sets = self.num_sets as u64;
                ((key % sets) as usize, key / sets)
            }
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

    /// Regression test for the LRU tick overflow story: a tick at the
    /// wrap boundary renormalizes the recency stamps instead of
    /// overflowing, and the LRU order across the wrap is untouched.
    #[test]
    fn tick_wrap_preserves_lru_order() {
        // 1 set, 4 ways: every key shares the set.
        let mut t = Table::new(Capacity::Finite {
            entries: 4,
            ways: 4,
        });
        for k in 0..4 {
            t.train(k, true, |e| *e = k as u32);
        }
        // Refresh 0 and 2 so the recency order is 1 < 3 < 0 < 2.
        let _ = t.lookup(0);
        let _ = t.lookup(2);
        // Force the wrap on the very next access.
        t.tick = u64::MAX;
        // This train allocates key 4 (set is full): the victim must be
        // key 1, the LRU way — decided *across* the renormalization.
        t.train(4, true, |e| *e = 40);
        assert_eq!(t.lookup(1), None, "LRU key evicted across the wrap");
        assert_eq!(t.lookup(3), Some(&3));
        // Next eviction takes key 3, still in pre-wrap recency order...
        // except the lookup above refreshed it; the stale key is now 0.
        t.train(5, true, |e| *e = 50);
        assert_eq!(t.lookup(0), None, "post-wrap recency keeps ordering");
        assert_eq!(t.lookup(2), Some(&2));
        assert!(t.tick > 0 && t.tick < 100, "tick restarted after the wrap");
    }

    /// Cloning copies the tick with the stamps, so a clone's LRU
    /// decisions match the original's from the moment of the clone.
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
