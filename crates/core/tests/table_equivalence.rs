//! Property tests pinning the rebuilt [`PredictorTable`] to the seed
//! implementation (`ReferencePredictorTable`, kept here as the oracle).
//!
//! The rebuilt table stores finite sets in the shared set-associative
//! store and unbounded entries in the shared open-addressing table; the
//! seed used per-set `Vec`s and a `HashMap`. These tests drive both through
//! identical operation sequences — the lookup/train mix every policy
//! layer produces — and require identical observable behavior: lookup
//! results, train outcomes, entry contents, live counts, eviction
//! choices (visible through which keys survive), and [`TableStats`] to
//! the last counter.

use std::collections::HashMap;

use proptest::prelude::*;

use dsp_core::{Capacity, PredictorTable, TableStats};

/// The seed implementation of [`PredictorTable`]: a `HashMap` for the
/// unbounded case and per-set `Vec<Way>` lists for the finite one.
///
/// The oracle of the equivalence properties below, which pin the
/// production table's lookups, stats and evictions to it.
#[derive(Clone, Debug)]
struct ReferencePredictorTable<E> {
    capacity: Capacity,
    unbounded: HashMap<u64, E>,
    sets: Vec<Vec<ReferenceWay<E>>>,
    num_sets: usize,
    ways: usize,
    tick: u64,
    stats: TableStats,
}

#[derive(Clone, Debug)]
struct ReferenceWay<E> {
    tag: u64,
    last_use: u64,
    entry: E,
}

impl<E: Clone + Default> ReferencePredictorTable<E> {
    /// Creates a table with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics under the same geometry conditions as
    /// [`PredictorTable::new`].
    fn new(capacity: Capacity) -> Self {
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
        ReferencePredictorTable {
            capacity,
            unbounded: HashMap::new(),
            sets: if num_sets > 0 {
                vec![Vec::new(); num_sets]
            } else {
                Vec::new()
            },
            num_sets,
            ways,
            tick: 0,
            stats: TableStats::default(),
        }
    }

    /// Lookup for prediction (see [`PredictorTable::lookup`]).
    fn lookup(&mut self, key: u64) -> Option<&E> {
        self.stats.lookups += 1;
        self.tick += 1;
        match self.capacity {
            Capacity::Unbounded => {
                let hit = self.unbounded.get(&key);
                if hit.is_some() {
                    self.stats.hits += 1;
                }
                hit
            }
            Capacity::Finite { .. } => {
                let (set_idx, tag) = self.locate(key);
                let tick = self.tick;
                let set = &mut self.sets[set_idx];
                if let Some(way) = set.iter_mut().find(|w| w.tag == tag) {
                    way.last_use = tick;
                    self.stats.hits += 1;
                    Some(&way.entry)
                } else {
                    None
                }
            }
        }
    }

    /// Training access (see [`PredictorTable::train`]).
    fn train<F: FnOnce(&mut E)>(&mut self, key: u64, allocate: bool, update: F) -> bool {
        self.tick += 1;
        match self.capacity {
            Capacity::Unbounded => {
                if allocate {
                    self.stats.allocations += u64::from(!self.unbounded.contains_key(&key));
                    update(self.unbounded.entry(key).or_default());
                    true
                } else if let Some(entry) = self.unbounded.get_mut(&key) {
                    update(entry);
                    true
                } else {
                    false
                }
            }
            Capacity::Finite { .. } => {
                let (set_idx, tag) = self.locate(key);
                let tick = self.tick;
                let ways = self.ways;
                let set = &mut self.sets[set_idx];
                if let Some(way) = set.iter_mut().find(|w| w.tag == tag) {
                    way.last_use = tick;
                    update(&mut way.entry);
                    return true;
                }
                if !allocate {
                    return false;
                }
                self.stats.allocations += 1;
                if set.len() >= ways {
                    // Evict the least recently used way.
                    let victim = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.last_use)
                        .map(|(i, _)| i)
                        .expect("set is non-empty");
                    set.swap_remove(victim);
                    self.stats.evictions += 1;
                }
                let mut entry = E::default();
                update(&mut entry);
                set.push(ReferenceWay {
                    tag,
                    last_use: tick,
                    entry,
                });
                true
            }
        }
    }

    /// Number of live entries.
    fn len(&self) -> usize {
        match self.capacity {
            Capacity::Unbounded => self.unbounded.len(),
            Capacity::Finite { .. } => self.sets.iter().map(Vec::len).sum(),
        }
    }

    /// Accumulated statistics.
    fn stats(&self) -> TableStats {
        self.stats
    }

    fn locate(&self, key: u64) -> (usize, u64) {
        let set_idx = (key % self.num_sets as u64) as usize;
        let tag = key / self.num_sets as u64;
        (set_idx, tag)
    }
}

/// The reference table mirrors the seed behavior the fast table is
/// tested against (spot-check; the proptests do the heavy lifting).
#[test]
fn reference_table_basic_agreement() {
    let mut fast = PredictorTable::<u32>::new(Capacity::ISCA03);
    let mut seed = ReferencePredictorTable::<u32>::new(Capacity::ISCA03);
    for k in 0..20_000u64 {
        let key = (k * 37) % 9000;
        assert_eq!(
            fast.train(key, k % 3 != 0, |e| *e = k as u32),
            seed.train(key, k % 3 != 0, |e| *e = k as u32)
        );
        assert_eq!(fast.lookup(key ^ 1), seed.lookup(key ^ 1));
    }
    assert_eq!(fast.stats(), seed.stats());
    assert_eq!(fast.len(), seed.len());
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup { key: u64 },
    Train { key: u64, allocate: bool, val: u32 },
}

fn ops(key_space: u64) -> impl Strategy<Value = Vec<Op>> {
    ops_from(move || 0..key_space)
}

/// Like [`ops`], but each key is drawn from either end of the `u64`
/// range, `key_space` wide at each: a table has no reserved key, and a
/// one-set table's tag is the whole key.
fn ops_hi(key_space: u64) -> impl Strategy<Value = Vec<Op>> {
    ops_from(move || prop_oneof![0..key_space, (0..key_space).prop_map(|k| u64::MAX - k)])
}

/// Lookups and trainings whose keys each come from a `keys()` strategy.
fn ops_from<S: Strategy<Value = u64> + 'static>(
    keys: impl Fn() -> S,
) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            keys().prop_map(|key| Op::Lookup { key }),
            (keys(), any::<bool>(), any::<u32>()).prop_map(|(key, allocate, val)| Op::Train {
                key,
                allocate,
                val
            }),
        ],
        1..400,
    )
}

/// Drives both tables through `ops` and asserts equivalence after every
/// step; returns the final stats for a final cross-check.
fn check_equivalence(capacity: Capacity, ops: &[Op]) -> TableStats {
    let mut fast: PredictorTable<u32> = PredictorTable::new(capacity);
    let mut seed: ReferencePredictorTable<u32> = ReferencePredictorTable::new(capacity);
    for op in ops {
        match *op {
            Op::Lookup { key } => {
                assert_eq!(fast.lookup(key), seed.lookup(key), "lookup({key})");
            }
            Op::Train { key, allocate, val } => {
                let a = fast.train(key, allocate, |e| *e = e.wrapping_add(val));
                let b = seed.train(key, allocate, |e| *e = e.wrapping_add(val));
                assert_eq!(a, b, "train({key}, allocate={allocate})");
            }
        }
        assert_eq!(fast.len(), seed.len());
        assert_eq!(fast.stats(), seed.stats());
    }
    // Every key of the space reads identically at the end — this checks
    // the *eviction victims* matched, not just the counts, and that no
    // key the ops never drew reads as present. The space is the low range
    // up to the largest low key drawn plus the high range from the
    // smallest high key drawn up to `u64::MAX`.
    let keys = ops.iter().map(|op| match op {
        Op::Lookup { key } | Op::Train { key, .. } => *key,
    });
    const HIGH: u64 = 1 << 63;
    let low_max = keys.clone().filter(|&k| k < HIGH).max();
    let high_min = keys.filter(|&k| k >= HIGH).min();
    let low = low_max.map(|max| 0..=max);
    let high = high_min.map(|min| min..=u64::MAX);
    for key in low.into_iter().flatten().chain(high.into_iter().flatten()) {
        assert_eq!(fast.lookup(key), seed.lookup(key), "final lookup({key})");
    }
    assert_eq!(fast.stats(), seed.stats());
    fast.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unbounded storage: the open-addressing table matches the seed
    /// `HashMap` byte for byte in observable behavior.
    #[test]
    fn unbounded_matches_seed(ops in ops(512)) {
        check_equivalence(Capacity::Unbounded, &ops);
    }

    /// A tiny single-set table maximizes eviction pressure: every
    /// allocation past 4 live keys picks an LRU victim, so any
    /// divergence in recency bookkeeping or victim choice surfaces
    /// immediately. Keys come from both ends of the `u64` range, so the one-set
    /// table stores tags up to `u64::MAX` itself.
    #[test]
    fn single_set_eviction_storm_matches_seed(ops in ops_hi(24)) {
        let stats = check_equivalence(
            Capacity::Finite { entries: 4, ways: 4 },
            &ops,
        );
        // The key space is 12x the capacity; long sequences must evict.
        if ops.len() > 100 {
            prop_assert!(stats.evictions > 0);
        }
    }

    /// Multi-set geometry with colliding tags (key space well above the
    /// set count) exercises tag disambiguation and per-set LRU at once;
    /// keys near `u64::MAX` split into the largest tags.
    #[test]
    fn set_associative_matches_seed(ops in ops_hi(256)) {
        check_equivalence(
            Capacity::Finite { entries: 32, ways: 4 },
            &ops,
        );
    }

    /// Direct-mapped (1-way) tables evict on every conflicting
    /// allocation — the degenerate LRU case.
    #[test]
    fn direct_mapped_matches_seed(ops in ops(128)) {
        check_equivalence(
            Capacity::Finite { entries: 16, ways: 1 },
            &ops,
        );
    }

    /// A non-power-of-two set count (6 sets) takes the `%`/`/` key
    /// split instead of mask-and-shift; every other geometry here has a
    /// power-of-two set count, so this pins the fallback path.
    #[test]
    fn non_power_of_two_sets_match_seed(ops in ops(256)) {
        check_equivalence(
            Capacity::Finite { entries: 24, ways: 4 },
            &ops,
        );
    }
}
