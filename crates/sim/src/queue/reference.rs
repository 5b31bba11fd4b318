//! The seed event queue: a binary heap with a sequence tie-breaker.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::Event;

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
/// `BinaryHeap` over `(time, seq)`.
///
/// Kept as the oracle of the pop-order equivalence property tests
/// (`tests/queue_equivalence.rs`), which drive it and
/// [`super::WheelQueue`] through identical push/pop interleavings. Every
/// pop pays an O(log n) sift with pointer-chasing comparisons, which is
/// exactly the cost the timing wheel removes.
#[derive(Debug, Default)]
pub struct ReferenceQueue {
    heap: BinaryHeap<Queued>,
    seq: u64,
}

impl ReferenceQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceQueue::default()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: u64, event: Event) {
        self.push_at(time, self.seq + 1, event);
    }

    /// Schedules `event` with a caller-assigned tie-break sequence,
    /// which must exceed every sequence this queue has seen (mirrors
    /// [`super::WheelQueue::push_at`]).
    pub fn push_at(&mut self, time: u64, seq: u64, event: Event) {
        debug_assert!(seq > self.seq, "sequence numbers must increase");
        self.seq = seq;
        self.heap.push(Queued { time, seq, event });
    }

    /// Pops the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|q| (q.time, q.event))
    }

    /// Pops the earliest event along with its tie-break sequence.
    pub fn pop_entry(&mut self) -> Option<(u64, u64, Event)> {
        self.heap.pop().map(|q| (q.time, q.seq, q.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = ReferenceQueue::new();
        q.push(30, Event::CpuIssue { node: 3 });
        q.push(10, Event::CpuIssue { node: 1 });
        q.push(20, Event::CpuIssue { node: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = ReferenceQueue::new();
        q.push(5, Event::CpuIssue { node: 0 });
        q.push(5, Event::CpuIssue { node: 1 });
        q.push(5, Event::CpuIssue { node: 2 });
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::CpuIssue { node } => node,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = ReferenceQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::Complete { req: 0 });
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
