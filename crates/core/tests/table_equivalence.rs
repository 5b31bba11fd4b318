//! Property tests pinning the rebuilt [`PredictorTable`] to the seed
//! implementation ([`ReferencePredictorTable`]).
//!
//! The rebuilt table stores finite sets in flat tag/stamp/entry arrays
//! and unbounded entries in the shared open-addressing table; the seed
//! used per-set `Vec`s and a `HashMap`. These tests drive both through
//! identical operation sequences — the lookup/train mix every policy
//! layer produces — and require identical observable behavior: lookup
//! results, train outcomes, entry contents, live counts, eviction
//! choices (visible through which keys survive), and [`TableStats`] to
//! the last counter.

use proptest::prelude::*;

use dsp_core::{Capacity, PredictorTable, ReferencePredictorTable, TableStats};

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup { key: u64 },
    Train { key: u64, allocate: bool, val: u32 },
}

fn ops(key_space: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..key_space).prop_map(|key| Op::Lookup { key }),
            (0..key_space, any::<bool>(), any::<u32>())
                .prop_map(|(key, allocate, val)| Op::Train { key, allocate, val }),
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
    // the *eviction victims* matched, not just the counts.
    let space = ops
        .iter()
        .map(|op| match op {
            Op::Lookup { key } | Op::Train { key, .. } => *key,
        })
        .max()
        .unwrap_or(0);
    for key in 0..=space {
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
    /// immediately.
    #[test]
    fn single_set_eviction_storm_matches_seed(ops in ops(24)) {
        let stats = check_equivalence(
            Capacity::Finite { entries: 4, ways: 4 },
            &ops,
        );
        // The key space is 6x the capacity; long sequences must evict.
        if ops.len() > 100 {
            prop_assert!(stats.lookups + stats.allocations > 0);
        }
    }

    /// Multi-set geometry with colliding tags (key space well above the
    /// set count) exercises tag disambiguation and per-set LRU at once.
    #[test]
    fn set_associative_matches_seed(ops in ops(256)) {
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
