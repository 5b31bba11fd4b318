//! The hierarchical timing-wheel event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::{Event, QueueCounters};

/// Near-horizon wheel span in time units (one slot per nanosecond).
/// Power of two so slot lookup is a mask. 4096 ns covers the
/// protocol latencies of the paper's 16-node crossbar (≤ ~500 ns end to
/// end), where only the exponential tail of CPU computation gaps
/// overflows to the far heap: a traced `timing-16` benchmark run
/// promotes 1,584 of its 29.2 M events. It does not cover wide or
/// degraded machines: a traced `timing-wide` run (256-node crossbar
/// plus a 64-node mesh under severe toxics) promotes 831,810 of its
/// 9.9 M events. Promotions are counted but cheap: a 16,384-slot
/// horizon removed every one of them on `timing-wide` yet left its
/// `misses_per_s` at parity (4 pairs of 20 s runs, medians within
/// 0.3 %, measured when each request arrival was an event of its own),
/// so the horizon stays at 4096.
const WHEEL_SLOTS: usize = 4096;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Occupancy bitmap words (one bit per slot).
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;
/// The null node index: the end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// One wheel-resident event in the node arena. `next` links it into
/// its slot's FIFO list while queued, or into the free list once
/// popped. A node needs no sequence number: its place in the list is
/// its place in push order.
#[derive(Debug)]
struct Node {
    event: Event,
    next: u32,
}

// The layout the arena's cache footprint is sized by.
const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// One wheel bucket: the ends of the arena list holding the events of
/// a single timestamp in push order. `head == NIL` means empty (`tail`
/// is then stale).
#[derive(Clone, Copy, Debug)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

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
/// buckets covering `[cursor, cursor + WHEEL_SLOTS)`; pop finds the
/// next non-empty bucket with a 64-slots-per-instruction bitmap scan.
/// A bucket is an intrusive FIFO list (Varghese & Lauck's hashed
/// timing wheel): the slot array holds only `{head, tail}` node
/// indices (32 KB), and every wheel-resident event lives in one shared
/// `Vec<Node>` arena. Push takes the most recently freed node — still
/// in cache from the pop that freed it — and links it at the bucket's
/// tail; pop unlinks the bucket's head and returns the node to a LIFO
/// free list. The arena grows only to the peak wheel population and is
/// recycled for the rest of the run, so the steady state allocates
/// nothing and touches a working set of a few cache lines per event
/// instead of one buffer per bucket.
///
/// Events beyond the horizon wait in an overflow binary heap — the far
/// level — and are promoted into the wheel when the cursor reaches
/// within a horizon of them. In the simulator's steady state nearly
/// every event lands and pops in the near level, replacing the seed
/// `BinaryHeap`'s O(log n) sift per operation with list links and word
/// scans.
///
/// Pop order is exactly the seed heap's: time, then push sequence —
/// property tests in `tests/queue_equivalence.rs` pin the wheel's pop
/// sequences against a `BinaryHeap` oracle kept there, including dense
/// equal-time bursts and far-future promotion.
#[derive(Debug)]
pub struct WheelQueue {
    /// Fixed-size (boxed) slot array: indexing with `time & SLOT_MASK`
    /// is provably in-bounds, so the per-push/per-pop bucket accesses
    /// compile without bounds checks.
    slots: Box<[Slot; WHEEL_SLOTS]>,
    occupied: [u64; BITMAP_WORDS],
    /// Storage of every wheel-resident event; never shrinks.
    nodes: Vec<Node>,
    /// Head of the LIFO free list threaded through `Node::next`.
    free: u32,
    /// Lower bound of every wheel-resident timestamp; advances to each
    /// popped event's time (never backwards).
    cursor: u64,
    overflow: BinaryHeap<Far>,
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
            slots: Box::new([EMPTY_SLOT; WHEEL_SLOTS]),
            occupied: [0; BITMAP_WORDS],
            nodes: Vec::new(),
            free: NIL,
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            counters: QueueCounters::default(),
        }
    }

    /// Schedules `event` at absolute time `time`. Equal-time events pop
    /// in push order: the push count is the overflow heap's tie-break,
    /// and a bucket list is already in push order.
    pub fn push(&mut self, time: u64, event: Event) {
        self.len += 1;
        self.counters.pushed += 1;
        let seq = self.counters.pushed;
        // In-horizon events go straight to their bucket; everything
        // else — far-future, or behind the cursor (a push earlier than
        // the last pop, which the simulator never does but the heap
        // semantics allow) — parks in the overflow heap.
        if time >= self.cursor && time - self.cursor < WHEEL_SLOTS as u64 {
            self.slot_push(time, event);
        } else {
            self.overflow.push(Far { time, seq, event });
        }
    }

    /// Pops the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.counters.popped += 1;
        let entry = self.pop_earliest();
        debug_assert!(
            self.len > 0 || self.free_nodes() == self.nodes.len(),
            "an empty queue leaves every arena node on the free list"
        );
        Some(entry)
    }

    /// Removes the earliest event of a non-empty queue.
    #[inline]
    fn pop_earliest(&mut self) -> (u64, Event) {
        // Late events (behind the cursor) are strictly earlier than all
        // wheel content and sort first in the overflow heap.
        if let Some(top) = self.overflow.peek() {
            if top.time < self.cursor {
                let f = self.overflow.pop().expect("peeked");
                return (f.time, f.event);
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
                return (time, self.slot_pop(time));
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

    /// Links a node holding `event` at the tail of `time`'s
    /// bucket (which must be in horizon).
    #[inline]
    fn slot_push(&mut self, time: u64, event: Event) {
        let node = Node { event, next: NIL };
        let n = if self.free == NIL {
            self.grow(node)
        } else {
            let n = self.free;
            let free = &mut self.nodes[n as usize];
            self.free = free.next;
            *free = node;
            n
        };
        let idx = (time & SLOT_MASK) as usize;
        let slot = &mut self.slots[idx];
        if slot.head == NIL {
            slot.head = n;
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            self.nodes[slot.tail as usize].next = n;
        }
        slot.tail = n;
    }

    /// Appends `node` to the arena (the free list is empty) and
    /// returns its index.
    #[cold]
    fn grow(&mut self, node: Node) -> u32 {
        assert!(
            self.nodes.len() < NIL as usize,
            "wheel arena holds fewer than u32::MAX events"
        );
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Unlinks the head of `time`'s bucket onto the free list, clearing
    /// the bucket's occupancy bit when it empties.
    #[inline]
    fn slot_pop(&mut self, time: u64) -> Event {
        let idx = (time & SLOT_MASK) as usize;
        let slot = &mut self.slots[idx];
        let n = slot.head;
        let node = &mut self.nodes[n as usize];
        let (event, next) = (node.event, node.next);
        node.next = self.free;
        self.free = n;
        slot.head = next;
        if next == NIL {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        event
    }

    /// Length of the free list (walked, so it also checks the list is
    /// well formed). Debug checks and tests only.
    fn free_nodes(&self) -> usize {
        let mut count = 0;
        let mut n = self.free;
        while n != NIL {
            count += 1;
            assert!(count <= self.nodes.len(), "free list cycles");
            n = self.nodes[n as usize].next;
        }
        count
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
            self.slot_push(f.time, f.event);
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
        let order: Vec<u32> = drain(&mut q)
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
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
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
            q.push(t, Event::Complete { req: i as u32 });
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
            q.push(t, Event::Complete { req: t as u32 });
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
            q.push(t, Event::Complete { req: t as u32 });
            expect.push(t);
            if t % 2 == 0 {
                let (pt, _) = q.pop().expect("non-empty");
                assert_eq!(pt, expect.remove(0));
            }
        }
        let rest: Vec<u64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(rest, expect);
    }

    #[test]
    fn arena_is_bounded_by_peak_length_and_fully_recycled() {
        let mut q = WheelQueue::new();
        let mut peak = 0;
        // Three full rotations of interleaved push and pop: 0–3 pushes
        // spread over several slots, then 1–2 pops, so the backlog
        // swings and nodes are freed and reused in shifting orders.
        for t in 0..(WHEEL_SLOTS as u64 * 3) {
            for k in 0..(t % 4) {
                q.push(t + k * 7, Event::Complete { req: t as u32 });
            }
            peak = peak.max(q.len());
            assert!(q.nodes.len() <= peak, "arena outgrew the queue");
            for _ in 0..1 + t % 2 {
                let _ = q.pop();
            }
        }
        assert!(peak > 0);
        drain(&mut q);
        assert!(q.nodes.len() <= peak);
        assert_eq!(q.free_nodes(), q.nodes.len(), "every node is free");
    }
}
