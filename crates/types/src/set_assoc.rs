//! A tagged, set-associative, LRU store for `u64`-keyed entries.
//!
//! [`SetAssoc`] is the one implementation of the structure the paper
//! builds twice: the L2 cache of every node (Table 4: 4 MB, 4-way, LRU)
//! and the finite destination-set predictor tables ("tagged,
//! set-associative", §3.1). `dsp-cache` keeps block presence in it and
//! `dsp-core`'s `PredictorTable` keeps predictor entries in it.

/// A set-associative store with LRU replacement.
///
/// A key splits into a set index and a tag the way hardware splits an
/// address: when the set count is a power of two the index is the
/// key's low `log2(sets)` bits and the tag the bits above them, a mask
/// and a shift. Other set counts take `key % sets` and `key / sets`,
/// which give the same split on powers of two.
///
/// Recency is one `u64` tick, advanced on every hit and insertion, so
/// LRU stamps are unique and the victim of a full set (its minimum
/// stamp) is unambiguous. At 10⁸ accesses per second the tick lasts
/// about 5,800 years.
///
/// # Storage
///
/// Ways are materialized *lazily, per set, from one growable arena*.
/// The only full-size structure is `set_base`, one allocator-zeroed
/// `u32` per set (0 = "never inserted into"); a set's block of `ways`
/// contiguous ways is appended to the arena on its first insertion.
/// The timing simulator builds an L2 (16,384 sets) and one or two
/// predictor tables per node per run, so construction is one zeroed
/// allocation, cost scales with the sets a run touches, a probe of an
/// untouched set is one load, and a probe of a touched set scans
/// `ways` adjacent tags. Tags, LRU stamps and values are parallel
/// arrays, so the probe reads no stamp unless a tag matches. Stamp 0
/// marks an empty way, so every `u64` key (and every tag) stays usable.
///
/// # Example
///
/// ```
/// use dsp_types::SetAssoc;
///
/// // One set of two ways: the third key evicts the least recently used.
/// let mut store: SetAssoc<u32> = SetAssoc::new(1, 2);
/// assert_eq!(store.insert(10, 1), None);
/// assert_eq!(store.insert(11, 2), None);
/// assert_eq!(store.get(10), Some(&mut 1)); // 11 is now the LRU way
/// assert_eq!(store.insert(12, 3), Some(11));
/// assert!(store.contains(10) && !store.contains(11));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssoc<V> {
    sets: u64,
    ways: usize,
    /// `log2(sets)` when the set count is a power of two (the key then
    /// splits by mask and shift), `None` otherwise.
    index_bits: Option<u32>,
    /// Per set: 1 + the base slot of its arena block, 0 = not yet
    /// materialized.
    set_base: Vec<u32>,
    /// Tag per materialized way.
    tags: Vec<u64>,
    /// LRU stamp per materialized way; 0 = empty.
    stamps: Vec<u64>,
    /// Entry per materialized way (meaningful where the stamp is
    /// non-zero).
    values: Vec<V>,
    len: usize,
    tick: u64,
}

impl<V: Default> SetAssoc<V> {
    /// Creates an empty store of `sets` × `ways`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the geometry does not fit
    /// the `u32` arena index.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "a store needs sets and ways");
        assert!(
            (sets as u64).saturating_mul(ways as u64) < u64::from(u32::MAX),
            "store geometry exceeds the arena index range"
        );
        SetAssoc {
            sets: sets as u64,
            ways,
            index_bits: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            set_base: vec![0; sets],
            tags: Vec::new(),
            stamps: Vec::new(),
            values: Vec::new(),
            len: 0,
            tick: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets as usize
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Splits `key` into its set index and tag.
    #[inline]
    fn locate(&self, key: u64) -> (usize, u64) {
        match self.index_bits {
            Some(bits) => ((key & (self.sets - 1)) as usize, key >> bits),
            None => ((key % self.sets) as usize, key / self.sets),
        }
    }

    /// The arena slot of `key`, if live (`None` without a scan when its
    /// set was never inserted into).
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let (set, tag) = self.locate(key);
        let base = self.set_base[set].checked_sub(1)? as usize;
        let ways = base..base + self.ways;
        self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .position(|(&t, &stamp)| t == tag && stamp != 0)
            .map(|way| base + way)
    }

    /// Whether `key` is live, without touching its recency.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// The entry of `key`, if live, made the most recently used of its
    /// set.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<&mut V> {
        let slot = self.find(key)?;
        self.tick += 1;
        self.stamps[slot] = self.tick;
        Some(&mut self.values[slot])
    }

    /// Inserts `key` as the most recently used entry of its set. Fills
    /// the set's first empty way, or else replaces its least recently
    /// used way and returns the evicted key.
    ///
    /// `key` must not be live (look it up with [`SetAssoc::get`]
    /// first).
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<u64> {
        debug_assert!(!self.contains(key), "insert of a live key");
        let (set, tag) = self.locate(key);
        let base = match self.set_base[set] {
            0 => {
                let base = self.tags.len();
                self.tags.resize(base + self.ways, 0);
                self.stamps.resize(base + self.ways, 0);
                self.values.resize_with(base + self.ways, V::default);
                self.set_base[set] = (base + 1) as u32;
                base
            }
            b => b as usize - 1,
        };
        // The first empty way (stamp 0) if there is one, else the LRU
        // way (stamps are unique, so the minimum is unambiguous).
        let stamps = &self.stamps[base..base + self.ways];
        let way = stamps.iter().position(|&s| s == 0).unwrap_or_else(|| {
            stamps
                .iter()
                .enumerate()
                .min_by_key(|(_, &s)| s)
                .map(|(way, _)| way)
                .expect("ways > 0")
        });
        let slot = base + way;
        let victim = if self.stamps[slot] == 0 {
            self.len += 1;
            None
        } else {
            Some(self.tags[slot] * self.sets + set as u64)
        };
        self.tick += 1;
        self.tags[slot] = tag;
        self.stamps[slot] = self.tick;
        self.values[slot] = value;
        victim
    }

    /// Removes `key`, returning whether it was live.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(slot) = self.find(key) else {
            return false;
        };
        self.stamps[slot] = 0;
        self.len -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_holds_nothing() {
        let mut s: SetAssoc<u32> = SetAssoc::new(4, 2);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.get(u64::MAX), None);
        assert!(!s.remove(3));
    }

    #[test]
    fn lru_victim_within_a_set() {
        // 4 sets: keys 0, 4, 8 share set 0.
        let mut s: SetAssoc<u32> = SetAssoc::new(4, 2);
        assert_eq!(s.insert(0, 0), None);
        assert_eq!(s.insert(4, 4), None);
        assert_eq!(s.insert(1, 1), None, "other sets are independent");
        assert!(s.get(0).is_some()); // 4 is now the LRU way
        assert_eq!(s.insert(8, 8), Some(4));
        assert_eq!(s.get(0), Some(&mut 0));
        assert_eq!(s.get(8), Some(&mut 8));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn removal_frees_a_way_without_eviction() {
        let mut s: SetAssoc<u32> = SetAssoc::new(1, 2);
        s.insert(1, 10);
        s.insert(2, 20);
        assert!(s.remove(1));
        assert!(!s.contains(1));
        assert_eq!(s.insert(3, 30), None, "the freed way is reused");
        assert_eq!(s.insert(4, 40), Some(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn contains_does_not_refresh_recency() {
        let mut s: SetAssoc<()> = SetAssoc::new(1, 2);
        s.insert(1, ());
        s.insert(2, ());
        assert!(s.contains(1));
        assert_eq!(s.insert(3, ()), Some(1));
    }

    #[test]
    fn victims_reconstruct_their_full_key() {
        // Power-of-two (mask/shift) and odd (div/mod) set counts.
        for sets in [4, 6] {
            let mut s: SetAssoc<()> = SetAssoc::new(sets, 1);
            let key = 1_000_003 * sets as u64 + 3;
            s.insert(key, ());
            assert_eq!(s.insert(3, ()), Some(key), "{sets} sets");
        }
    }

    #[test]
    fn extreme_keys_are_usable() {
        // One set: the tag is the whole key, u64::MAX included.
        let mut s: SetAssoc<u64> = SetAssoc::new(1, 4);
        for key in [0, 1, u64::MAX, u64::MAX - 1] {
            assert_eq!(s.insert(key, key ^ 0xff), None);
        }
        for key in [0, 1, u64::MAX, u64::MAX - 1] {
            assert_eq!(s.get(key), Some(&mut (key ^ 0xff)));
        }
        // 0 is now the LRU way.
        assert_eq!(s.insert(7, 7), Some(0));
        let mut odd: SetAssoc<()> = SetAssoc::new(3, 1);
        odd.insert(u64::MAX, ());
        assert_eq!(odd.insert(u64::MAX - 3, ()), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "needs sets and ways")]
    fn rejects_zero_ways() {
        let _: SetAssoc<()> = SetAssoc::new(4, 0);
    }
}
