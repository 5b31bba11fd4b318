//! Property tests pinning [`WheelQueue`]'s pop order to the seed
//! [`ReferenceQueue`] (the oracle pattern: the replaced implementation
//! survives, here in the test, as the equivalence baseline).
//!
//! Both queues order by (time, push-sequence); these tests drive both
//! through identical push/pop interleavings and require identical pop
//! sequences, covering the regimes the wheel handles differently:
//! dense equal-time bursts inside one bucket, events beyond the wheel
//! horizon (overflow parking + promotion on cursor advance), cursor
//! jumps across many empty horizons, and pushes behind the cursor.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use dsp_sim::{Event, WheelQueue};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Queued {
    time: u64,
    seq: u64,
    event: Event,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The seed time-ordered event queue with FIFO tie-breaking: a
/// `BinaryHeap` over `(time, push sequence)`. Every pop pays an
/// O(log n) sift, which is exactly the cost the timing wheel removes.
#[derive(Debug, Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Queued>,
    seq: u64,
}

impl ReferenceQueue {
    fn push(&mut self, time: u64, event: Event) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Queued { time, seq, event });
    }

    fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|q| (q.time, q.event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Wheel horizon (mirrors `WHEEL_SLOTS` in the implementation): the
/// strategies below straddle it deliberately.
const HORIZON: u64 = 4096;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Push `event` at `last_popped_time + delta` (simulator-like
    /// monotone-ish pushes when deltas are small, far-future when
    /// large).
    Push { delta: u64, event: Event },
    /// Pop one event from both queues and compare.
    Pop,
}

/// Every [`Event`] variant, with fields reaching the boundaries of
/// their types as the simulator fills them: any `u32` pending-slot or
/// training-group index (exactly `u32::MAX` one draw in eight; the rest
/// stay mostly distinct, so a FIFO slip shows), node and owner indices
/// up to 255 (the widest machine), every attempt number, both retry
/// flags.
fn event_strategy() -> impl Strategy<Value = Event> {
    let req = || (0..=u32::MAX, 0u8..8).prop_map(|(req, k)| if k == 0 { u32::MAX } else { req });
    let node = || 0u32..=255;
    let attempt = || 1u8..=3;
    prop_oneof![
        node().prop_map(|node| Event::CpuIssue { node }),
        req().prop_map(|req| Event::Inject { req }),
        (req(), attempt()).prop_map(|(req, attempt)| Event::Ordered { req, attempt }),
        (req(), req(), any::<bool>()).prop_map(|(req, group, retry)| Event::RequestArrive {
            req,
            group,
            retry
        }),
        (req(), attempt()).prop_map(|(req, attempt)| Event::HomeReady { req, attempt }),
        (req(), node()).prop_map(|(req, owner)| Event::OwnerReady { req, owner }),
        req().prop_map(|req| Event::Complete { req }),
    ]
}

fn op_strategy(max_delta: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..=max_delta, event_strategy()).prop_map(|(delta, event)| Op::Push { delta, event }),
        (0..=max_delta, event_strategy()).prop_map(|(delta, event)| Op::Push { delta, event }),
        Just(Op::Pop),
    ]
}

/// Replays `ops` against both queues, anchoring push times to the last
/// *popped* time plus the op's delta (like the simulator scheduling
/// from `now`), and asserts every pop matches. Returns how many pops
/// produced an event.
fn check_equivalence(ops: &[Op]) -> usize {
    let mut wheel = WheelQueue::new();
    let mut heap = ReferenceQueue::default();
    let mut now = 0u64;
    let mut popped = 0usize;
    for op in ops {
        match *op {
            Op::Push { delta, event } => {
                let time = now.saturating_add(delta);
                wheel.push(time, event);
                heap.push(time, event);
            }
            Op::Pop => {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "pop diverged after {popped} agreeing pops");
                if let Some((t, _)) = a {
                    now = t;
                    popped += 1;
                }
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.is_empty(), heap.is_empty());
    }
    // Drain both: the full residual order must agree too.
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
        popped += 1;
    }
    popped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulator-like schedules: deltas within the protocol's latency
    /// range, always inside the wheel horizon.
    #[test]
    fn near_horizon_schedules_match(ops in proptest::collection::vec(op_strategy(500), 1..600)) {
        check_equivalence(&ops);
    }

    /// Dense equal-time bursts: many pushes with delta 0 land in the
    /// same bucket and must drain in push order.
    #[test]
    fn equal_time_bursts_match(ops in proptest::collection::vec(op_strategy(2), 1..600)) {
        check_equivalence(&ops);
    }

    /// Deltas straddling the horizon: events park in the overflow heap
    /// and must promote into the wheel in (time, seq) order as the
    /// cursor advances.
    #[test]
    fn far_future_promotion_matches(
        ops in proptest::collection::vec(op_strategy(HORIZON * 3), 1..400)
    ) {
        check_equivalence(&ops);
    }

    /// Sparse, huge jumps: the wheel empties repeatedly and the cursor
    /// leaps across many whole horizons.
    #[test]
    fn sparse_horizon_jumps_match(
        ops in proptest::collection::vec(op_strategy(HORIZON * 1000), 1..200)
    ) {
        check_equivalence(&ops);
    }
}

/// The oracle itself: time order, FIFO among equal times, and its
/// length bookkeeping.
#[test]
fn reference_queue_pops_in_time_then_push_order() {
    let mut q = ReferenceQueue::default();
    assert!(q.is_empty());
    q.push(30, Event::CpuIssue { node: 3 });
    q.push(5, Event::CpuIssue { node: 0 });
    q.push(5, Event::CpuIssue { node: 1 });
    q.push(20, Event::CpuIssue { node: 2 });
    assert_eq!(q.len(), 4);
    let order: Vec<(u64, Event)> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        order,
        vec![
            (5, Event::CpuIssue { node: 0 }),
            (5, Event::CpuIssue { node: 1 }),
            (20, Event::CpuIssue { node: 2 }),
            (30, Event::CpuIssue { node: 3 }),
        ]
    );
    assert!(q.is_empty());
    assert_eq!(q.pop(), None);
}

/// Deterministic interleaving that forces every wheel regime in one
/// run: warmup misses at dense times, a far-future tail, then drain.
#[test]
fn mixed_regimes_fixed_trace() {
    let mut ops = Vec::new();
    for i in 0..200usize {
        ops.push(Op::Push {
            delta: (i as u64 * 37) % 90,
            event: Event::Complete { req: i as u32 },
        });
        if i % 3 == 0 {
            ops.push(Op::Pop);
        }
        if i % 11 == 0 {
            ops.push(Op::Push {
                delta: HORIZON + (i as u64 * 131) % (HORIZON * 4),
                event: Event::Complete {
                    req: 10_000 + i as u32,
                },
            });
        }
    }
    let popped = check_equivalence(&ops);
    assert!(popped > 200, "trace exercised both levels ({popped} pops)");
}
