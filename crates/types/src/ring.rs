//! A FIFO ring with inline storage and amortized-allocation-free spill.

use std::fmt;

/// A first-in-first-out queue whose steady state lives entirely in a
/// fixed inline ring of `N` slots, spilling to a `Vec` only when a
/// burst overflows the ring.
///
/// The simulator's lazy training inboxes (one per node) motivate the
/// shape: each inbox absorbs a bounded burst of records between two
/// predictor observations, is drained from the front, and usually
/// returns to empty. `InlineRing` keeps that cycle allocation-free —
/// pushes land in the inline ring, pops consume from its head, and the
/// spill `Vec` (used only while a burst exceeds `N`) retains its
/// capacity across bursts, so even overflowing inboxes stop allocating
/// after warmup.
///
/// Ordering invariant: every element in the inline ring precedes every
/// element in the spill. A push goes to the ring only while the spill
/// is empty; once the queue fully drains, the spill resets and the ring
/// takes over again.
///
/// `T: Copy + Default` because the backing array initializes eagerly
/// and elements move out by value.
///
/// # Example
///
/// ```
/// use dsp_types::InlineRing;
///
/// let mut r: InlineRing<u64, 4> = InlineRing::new();
/// for v in 0..6 {
///     r.push_back(v); // 4 inline, 2 spilled
/// }
/// assert_eq!(r.len(), 6);
/// assert_eq!(r.front(), Some(&0));
/// let drained: Vec<u64> = std::iter::from_fn(|| r.pop_front()).collect();
/// assert_eq!(drained, vec![0, 1, 2, 3, 4, 5]);
/// assert!(r.is_empty());
/// ```
#[derive(Clone)]
pub struct InlineRing<T, const N: usize> {
    ring: [T; N],
    /// Index of the front element in `ring`.
    head: usize,
    /// Elements currently in the inline ring.
    ring_len: usize,
    /// Overflow storage; `spill[spill_head..]` are the live elements.
    spill: Vec<T>,
    /// Consumed prefix of `spill` (reset when the queue empties).
    spill_head: usize,
}

impl<T: Copy + Default, const N: usize> InlineRing<T, N> {
    /// Creates an empty ring.
    pub fn new() -> Self {
        InlineRing {
            ring: [T::default(); N],
            head: 0,
            ring_len: 0,
            spill: Vec::new(),
            spill_head: 0,
        }
    }

    /// The inline capacity `N` (the spill is unbounded).
    #[inline]
    pub const fn inline_capacity(&self) -> usize {
        N
    }

    /// Number of queued elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + (self.spill.len() - self.spill_head)
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.spill.len() == self.spill_head
    }

    /// Number of elements currently held in the spill `Vec` (0 in the
    /// allocation-free steady state).
    #[inline]
    pub fn spilled(&self) -> usize {
        self.spill.len() - self.spill_head
    }

    /// Appends an element at the back.
    #[inline]
    pub fn push_back(&mut self, item: T) {
        // The ring may only grow while nothing is spilled, otherwise
        // FIFO order would interleave the two storages.
        if self.ring_len < N && self.spill.len() == self.spill_head {
            let idx = (self.head + self.ring_len) % N;
            self.ring[idx] = item;
            self.ring_len += 1;
        } else {
            self.spill.push(item);
        }
    }

    /// The front element, if any.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        if self.ring_len > 0 {
            Some(&self.ring[self.head])
        } else {
            self.spill.get(self.spill_head)
        }
    }

    /// The back element (the most recently pushed), if any.
    #[inline]
    pub fn back(&self) -> Option<&T> {
        if self.spill.len() > self.spill_head {
            self.spill.last()
        } else if self.ring_len > 0 {
            Some(&self.ring[(self.head + self.ring_len - 1) % N])
        } else {
            None
        }
    }

    /// Removes and returns the front element.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.ring_len > 0 {
            let item = self.ring[self.head];
            self.head = (self.head + 1) % N;
            self.ring_len -= 1;
            if self.ring_len == 0 && self.spill.len() == self.spill_head {
                self.reset_storage();
            }
            return Some(item);
        }
        if self.spill_head < self.spill.len() {
            let item = self.spill[self.spill_head];
            self.spill_head += 1;
            if self.spill_head == self.spill.len() {
                self.reset_storage();
            } else if self.spill_head * 2 >= self.spill.len() {
                // Reclaim the consumed prefix once it reaches half the
                // buffer, so a queue that is continuously fed while
                // draining (and thus never empties) keeps its spill
                // proportional to the *live* backlog instead of
                // append-logging the whole stream. Each element moves
                // at most once per halving — amortized O(1).
                self.spill.drain(..self.spill_head);
                self.spill_head = 0;
            }
            return Some(item);
        }
        None
    }

    /// Removes all elements, keeping the spill capacity.
    pub fn clear(&mut self) {
        self.ring_len = 0;
        self.reset_storage();
    }

    /// Returns the storage to its allocation-free home position: the
    /// spill keeps its capacity but holds nothing, and the next pushes
    /// land in the inline ring.
    #[inline]
    fn reset_storage(&mut self) {
        self.head = 0;
        self.spill.clear();
        self.spill_head = 0;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineRing<T, N> {
    fn default() -> Self {
        InlineRing::new()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineRing<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        for i in 0..self.ring_len {
            list.entry(&self.ring[(self.head + i) % N]);
        }
        list.entries(&self.spill[self.spill_head..]);
        list.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let r: InlineRing<u32, 4> = InlineRing::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.front(), None);
        assert_eq!(r.inline_capacity(), 4);
    }

    #[test]
    fn fifo_within_ring() {
        let mut r: InlineRing<u32, 4> = InlineRing::new();
        r.push_back(1);
        r.push_back(2);
        assert_eq!(r.front(), Some(&1));
        assert_eq!(r.pop_front(), Some(1));
        assert_eq!(r.pop_front(), Some(2));
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn overflow_spills_and_preserves_order() {
        let mut r: InlineRing<u32, 2> = InlineRing::new();
        for v in 0..7 {
            r.push_back(v);
        }
        assert_eq!(r.len(), 7);
        assert_eq!(r.spilled(), 5);
        let drained: Vec<u32> = std::iter::from_fn(|| r.pop_front()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(r.is_empty());
    }

    #[test]
    fn back_tracks_the_newest_across_the_spill_boundary() {
        let mut r: InlineRing<u32, 2> = InlineRing::new();
        assert_eq!(r.back(), None);
        r.push_back(1);
        assert_eq!(r.back(), Some(&1));
        r.push_back(2); // ring full
        assert_eq!(r.back(), Some(&2));
        r.push_back(3); // first spilled element
        assert_eq!(r.back(), Some(&3));
        assert_eq!(r.pop_front(), Some(1));
        assert_eq!(r.pop_front(), Some(2));
        // Ring drained, spill still live: the back is the spill's last.
        assert_eq!(r.back(), Some(&3));
        assert_eq!(r.front(), Some(&3));
        assert_eq!(r.pop_front(), Some(3));
        assert_eq!(r.back(), None);
        // Wrapped ring: the back sits before the head in storage.
        for v in 4..6 {
            r.push_back(v);
        }
        assert_eq!(r.pop_front(), Some(4));
        r.push_back(6);
        assert_eq!(r.spilled(), 0);
        assert_eq!(r.back(), Some(&6));
    }

    #[test]
    fn pushes_while_spilled_stay_in_order() {
        let mut r: InlineRing<u32, 2> = InlineRing::new();
        for v in 0..3 {
            r.push_back(v); // 0,1 inline; 2 spilled
        }
        assert_eq!(r.pop_front(), Some(0));
        // The ring has a free slot but the spill is non-empty: the new
        // element must queue behind the spilled one.
        r.push_back(3);
        let drained: Vec<u32> = std::iter::from_fn(|| r.pop_front()).collect();
        assert_eq!(drained, vec![1, 2, 3]);
    }

    #[test]
    fn drains_return_to_inline_storage() {
        let mut r: InlineRing<u32, 2> = InlineRing::new();
        for cycle in 0..5u32 {
            for v in 0..6 {
                r.push_back(cycle * 10 + v);
            }
            let drained: Vec<u32> = std::iter::from_fn(|| r.pop_front()).collect();
            assert_eq!(drained.len(), 6);
            assert!(r.is_empty());
            // After a full drain the next burst starts inline again.
            r.push_back(99);
            assert_eq!(r.spilled(), 0);
            assert_eq!(r.pop_front(), Some(99));
        }
    }

    #[test]
    fn wrap_around_reuses_slots() {
        let mut r: InlineRing<u32, 3> = InlineRing::new();
        for v in 0..100u32 {
            r.push_back(v);
            if v % 2 == 1 {
                // Pop one of the two queued: head circulates through
                // every slot many times.
                let front = *r.front().expect("non-empty");
                assert_eq!(r.pop_front(), Some(front));
            }
        }
        let mut rest: Vec<u32> = std::iter::from_fn(|| r.pop_front()).collect();
        let mut expect: Vec<u32> = (0..100).collect();
        expect.drain(..50);
        rest.sort_unstable();
        expect.sort_unstable();
        assert_eq!(rest, expect);
    }

    #[test]
    fn continuous_feed_keeps_spill_bounded() {
        // Push 2, pop 1 forever: the queue never empties, so without
        // prefix compaction the spill would grow with the whole stream.
        let mut r: InlineRing<u32, 4> = InlineRing::new();
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        for _ in 0..10_000 {
            r.push_back(next_push);
            r.push_back(next_push + 1);
            next_push += 2;
            assert_eq!(r.pop_front(), Some(next_pop));
            next_pop += 1;
        }
        assert_eq!(r.len(), 10_000);
        // Live backlog is 10k elements; the spill buffer must stay
        // proportional to it (≤ ~2× between compactions), not to the
        // 20k elements pushed overall.
        assert!(
            r.spill.len() <= 2 * r.len() + 4,
            "spill holds {} slots for {} live elements",
            r.spill.len(),
            r.len()
        );
        for _ in 0..10_000 {
            assert_eq!(r.pop_front(), Some(next_pop));
            next_pop += 1;
        }
        assert!(r.is_empty());
    }

    #[test]
    fn clear_keeps_working() {
        let mut r: InlineRing<u32, 2> = InlineRing::new();
        for v in 0..5 {
            r.push_back(v);
        }
        r.clear();
        assert!(r.is_empty());
        r.push_back(7);
        assert_eq!(r.spilled(), 0, "cleared ring starts inline again");
        assert_eq!(r.pop_front(), Some(7));
    }

    #[test]
    fn debug_lists_in_order() {
        let mut r: InlineRing<u32, 2> = InlineRing::new();
        for v in [4u32, 5, 6] {
            r.push_back(v);
        }
        assert_eq!(format!("{r:?}"), "[4, 5, 6]");
    }
}
