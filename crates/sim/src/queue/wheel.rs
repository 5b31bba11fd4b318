//! The hierarchical timing-wheel event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::{Event, QueueCounters};

/// Near-horizon wheel span in time units (one slot per nanosecond).
/// Power of two so slot lookup is a mask. 4096 ns covers the
/// protocol latencies of the paper's 16-node crossbar (≤ ~500 ns end to
/// end), where only the exponential tail of CPU computation gaps
/// overflows to the far heap: a traced `timing-16` benchmark run
/// promotes 1,584 events. It does not cover wide or degraded machines:
/// a traced `timing-wide` run (256-node crossbar plus a 64-node mesh
/// under severe toxics) promotes 409,253.
const WHEEL_SLOTS: usize = 4096;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Occupancy bitmap words (one bit per slot).
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// One wheel bucket: the events of a single timestamp in push order.
/// `head` marks the next event to pop; storage is reused across wheel
/// rotations (the `Vec` keeps its capacity when cleared).
#[derive(Clone, Debug, Default)]
struct SlotBuf {
    head: usize,
    items: Vec<(u64, Event)>, // (push sequence, event)
}

/// A far-future (or late/past) event parked in the overflow heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Far {
    time: u64,
    seq: u64,
    event: Event,
}

impl Ord for Far {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with FIFO tie-breaking, built as a
/// two-level timing wheel.
///
/// The near level is a `WHEEL_SLOTS`-entry array of per-nanosecond
/// buckets covering `[cursor, cursor + WHEEL_SLOTS)`; push appends to a
/// bucket (O(1), no comparisons) and pop finds the next non-empty
/// bucket with a 64-slots-per-instruction bitmap scan. Events beyond
/// the horizon wait in an overflow binary heap — the far level — and
/// are promoted into the wheel when the cursor reaches within a horizon
/// of them. In the simulator's steady state nearly every event lands
/// and pops in the near level, replacing the seed `BinaryHeap`'s
/// O(log n) pointer-chasing sift per operation (see
/// [`super::ReferenceQueue`]) with bucket appends and word scans over
/// slot storage that is recycled every wheel rotation.
///
/// Pop order is exactly the reference queue's: time, then push
/// sequence — property tests in `tests/queue_equivalence.rs` pin the
/// two queues' pop sequences against each other, including dense
/// equal-time bursts and far-future promotion.
#[derive(Debug)]
pub struct WheelQueue {
    /// Fixed-size (boxed) slot array: indexing with `time & SLOT_MASK`
    /// is provably in-bounds, so the per-push/per-pop bucket accesses
    /// compile without bounds checks.
    slots: Box<[SlotBuf; WHEEL_SLOTS]>,
    occupied: [u64; BITMAP_WORDS],
    /// Lower bound of every wheel-resident timestamp; advances to each
    /// popped event's time (never backwards).
    cursor: u64,
    overflow: BinaryHeap<Far>,
    seq: u64,
    len: usize,
    counters: QueueCounters,
}

impl Default for WheelQueue {
    fn default() -> Self {
        WheelQueue::new()
    }
}

impl WheelQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        WheelQueue {
            slots: vec![SlotBuf::default(); WHEEL_SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("exactly WHEEL_SLOTS slots"),
            occupied: [0; BITMAP_WORDS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
            counters: QueueCounters::default(),
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: u64, event: Event) {
        self.push_at(time, self.seq + 1, event);
    }

    /// Schedules `event` at absolute time `time` with a caller-assigned
    /// tie-break sequence.
    ///
    /// `seq` must exceed every sequence previously seen by this queue
    /// (pushes and `push_at` calls share one counter). This lets a
    /// caller interleave queued events with records it keeps *outside*
    /// the queue — the simulator's lazy training inboxes — under one
    /// total (time, seq) order: the caller draws all sequence numbers
    /// from its own counter and compares popped entries against
    /// buffered records directly.
    pub fn push_at(&mut self, time: u64, seq: u64, event: Event) {
        debug_assert!(seq > self.seq, "sequence numbers must increase");
        self.seq = seq;
        self.len += 1;
        self.counters.pushed += 1;
        // In-horizon events go straight to their bucket; everything
        // else — far-future, or behind the cursor (a push earlier than
        // the last pop, which the simulator never does but the heap
        // semantics allow) — parks in the overflow heap.
        if time >= self.cursor && time - self.cursor < WHEEL_SLOTS as u64 {
            self.slot_push(time, seq, event);
        } else {
            self.overflow.push(Far { time, seq, event });
        }
    }

    /// Pops the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.pop_entry().map(|(time, _, event)| (time, event))
    }

    /// Pops the earliest event along with its tie-break sequence.
    pub fn pop_entry(&mut self) -> Option<(u64, u64, Event)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.counters.popped += 1;
        // Late events (behind the cursor) are strictly earlier than all
        // wheel content and sort first in the overflow heap.
        if let Some(top) = self.overflow.peek() {
            if top.time < self.cursor {
                let f = self.overflow.pop().expect("peeked");
                return Some((f.time, f.seq, f.event));
            }
        }
        loop {
            if let Some(offset) = self.next_occupied_offset() {
                let time = self.cursor + offset as u64;
                if offset > 0 {
                    // The cursor moves: the horizon now covers newly
                    // reachable far-future times, whose events must be
                    // promoted *before* any later push can append to
                    // their buckets (preserving FIFO seq order). All
                    // promoted times exceed `time`, so the event we are
                    // about to pop stays the earliest.
                    self.cursor = time;
                    self.promote_overflow();
                }
                let (seq, event) = self.slot_pop(time);
                return Some((time, seq, event));
            }
            // Wheel empty: jump the cursor to the earliest far event
            // (one exists — len > 0) and promote a batch.
            let top_time = self.overflow.peek().expect("len > 0").time;
            debug_assert!(top_time >= self.cursor);
            self.cursor = top_time;
            self.promote_overflow();
        }
    }

    /// Lifetime occupancy counters (pushes, pops, promotions), with
    /// `remaining` snapshotting the current queue length so
    /// `pushed == popped + remaining` reconciles at any point.
    pub fn counters(&self) -> QueueCounters {
        QueueCounters {
            remaining: self.len as u64,
            ..self.counters
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends to the bucket of `time` (which must be in horizon).
    #[inline]
    fn slot_push(&mut self, time: u64, seq: u64, event: Event) {
        let idx = (time & SLOT_MASK) as usize;
        self.slots[idx].items.push((seq, event));
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    /// Pops the front of `time`'s bucket, recycling the bucket storage
    /// and clearing its occupancy bit when it empties.
    #[inline]
    fn slot_pop(&mut self, time: u64) -> (u64, Event) {
        let idx = (time & SLOT_MASK) as usize;
        let slot = &mut self.slots[idx];
        let (seq, event) = slot.items[slot.head];
        slot.head += 1;
        if slot.head == slot.items.len() {
            slot.items.clear();
            slot.head = 0;
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        (seq, event)
    }

    /// Distance (in slots, hence nanoseconds) from the cursor to the
    /// next occupied bucket, scanning the bitmap circularly from the
    /// cursor's slot.
    #[inline]
    fn next_occupied_offset(&self) -> Option<usize> {
        let start = (self.cursor & SLOT_MASK) as usize;
        let (start_word, start_bit) = (start / 64, start % 64);
        // The start word's bits at/above the cursor, the remaining
        // words in circular order, then the start word's low bits.
        let mut word_idx = start_word;
        let mut word = self.occupied[word_idx] & (u64::MAX << start_bit);
        for step in 0..=BITMAP_WORDS {
            if word != 0 {
                let bit = word_idx * 64 + word.trailing_zeros() as usize;
                return Some((bit + WHEEL_SLOTS - start) & (WHEEL_SLOTS - 1));
            }
            if step == BITMAP_WORDS {
                break;
            }
            word_idx = (word_idx + 1) % BITMAP_WORDS;
            word = self.occupied[word_idx];
            if word_idx == start_word {
                // Wrapped around: only the bits below the cursor remain.
                word &= !(u64::MAX << start_bit);
            }
        }
        None
    }

    /// Moves every overflow event the horizon now covers into its
    /// bucket. Heap order is (time, seq), so equal-time events are
    /// appended in push order — FIFO is preserved across promotion.
    fn promote_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            debug_assert!(top.time >= self.cursor, "past events pop before promotion");
            if top.time - self.cursor >= WHEEL_SLOTS as u64 {
                break;
            }
            let f = self.overflow.pop().expect("peeked");
            self.counters.promoted += 1;
            self.slot_push(f.time, f.seq, f.event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut WheelQueue) -> Vec<(u64, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = WheelQueue::new();
        q.push(30, Event::CpuIssue { node: 3 });
        q.push(10, Event::CpuIssue { node: 1 });
        q.push(20, Event::CpuIssue { node: 2 });
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = WheelQueue::new();
        for node in 0..5 {
            q.push(5, Event::CpuIssue { node });
        }
        let order: Vec<usize> = drain(&mut q)
            .into_iter()
            .map(|(_, e)| match e {
                Event::CpuIssue { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = WheelQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::Complete { req: 0 });
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_promote_in_fifo_order() {
        let mut q = WheelQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        // Two equal-time events pushed while far out of horizon...
        q.push(far, Event::CpuIssue { node: 0 });
        q.push(far, Event::CpuIssue { node: 1 });
        // ...an in-horizon event to advance the cursor...
        q.push(10, Event::CpuIssue { node: 9 });
        assert_eq!(q.pop(), Some((10, Event::CpuIssue { node: 9 })));
        // ...then a *direct* push at the same far time once the cursor
        // jump promotes the first two: seq order must survive.
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| {
                assert_eq!(t, far);
                match e {
                    Event::CpuIssue { node } => node,
                    _ => unreachable!(),
                }
            })
            .collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn cursor_jump_spans_multiple_horizons() {
        let mut q = WheelQueue::new();
        let times = [
            0u64,
            WHEEL_SLOTS as u64 - 1,
            WHEEL_SLOTS as u64,
            WHEEL_SLOTS as u64 * 10,
            WHEEL_SLOTS as u64 * 1000 + 5,
            u64::MAX - 3,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, Event::Complete { req: i });
        }
        let popped: Vec<u64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(popped, times.to_vec());
    }

    #[test]
    fn late_pushes_behind_the_cursor_pop_first() {
        let mut q = WheelQueue::new();
        q.push(100, Event::Complete { req: 0 });
        assert_eq!(q.pop(), Some((100, Event::Complete { req: 0 })));
        // The simulator never does this, but heap semantics allow it:
        // a push earlier than the last pop still pops before anything
        // later.
        q.push(40, Event::Complete { req: 1 });
        q.push(40, Event::Complete { req: 2 });
        q.push(120, Event::Complete { req: 3 });
        let popped: Vec<(u64, Event)> = drain(&mut q);
        assert_eq!(
            popped,
            vec![
                (40, Event::Complete { req: 1 }),
                (40, Event::Complete { req: 2 }),
                (120, Event::Complete { req: 3 }),
            ]
        );
    }

    #[test]
    fn external_sequences_order_ties_and_pop_returns_them() {
        let mut q = WheelQueue::new();
        q.push_at(5, 10, Event::CpuIssue { node: 0 });
        q.push_at(5, 12, Event::CpuIssue { node: 1 });
        q.push_at(3, 20, Event::CpuIssue { node: 2 });
        assert_eq!(q.pop_entry(), Some((3, 20, Event::CpuIssue { node: 2 })));
        assert_eq!(q.pop_entry(), Some((5, 10, Event::CpuIssue { node: 0 })));
        assert_eq!(q.pop_entry(), Some((5, 12, Event::CpuIssue { node: 1 })));
        assert_eq!(q.pop_entry(), None);
    }

    #[test]
    fn counters_track_pushes_pops_and_promotions() {
        let mut q = WheelQueue::new();
        q.push(10, Event::CpuIssue { node: 0 });
        q.push(WHEEL_SLOTS as u64 * 2, Event::CpuIssue { node: 1 });
        assert_eq!(q.counters().pushed, 2);
        assert_eq!(q.counters().popped, 0);
        drain(&mut q);
        let c = q.counters();
        assert_eq!(c.popped, 2);
        assert_eq!(c.promoted, 1, "the far event promoted on cursor jump");
    }

    #[test]
    fn counters_reconcile_mid_run() {
        let mut q = WheelQueue::new();
        for t in 0..10 {
            q.push(t, Event::Complete { req: t as usize });
        }
        let _ = q.pop();
        let _ = q.pop();
        let c = q.counters();
        assert_eq!(c.remaining, 8);
        c.assert_reconciled();
    }

    #[test]
    fn dense_wrap_around_reuses_slots() {
        let mut q = WheelQueue::new();
        // Three full wheel rotations of interleaved push/pop at full
        // density: every slot is filled, emptied, and refilled.
        let mut expect = Vec::new();
        for t in 0..(WHEEL_SLOTS as u64 * 3) {
            q.push(t, Event::Complete { req: t as usize });
            expect.push(t);
            if t % 2 == 0 {
                let (pt, _) = q.pop().expect("non-empty");
                assert_eq!(pt, expect.remove(0));
            }
        }
        let rest: Vec<u64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(rest, expect);
    }
}
