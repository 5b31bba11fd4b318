//! Lazy per-node predictor-training inboxes.
//!
//! The paper's multicast protocols train every destination's predictor
//! on each request arrival, and the eager simulation path models that
//! literally: one queued [`crate::Event::RequestArrive`] per
//! destination per miss, existing *only* to call `train`. At 256 nodes
//! a broadcast-class miss costs up to 255 timing-wheel pushes and pops
//! whose sole observable effect is predictor state.
//!
//! Training, however, is only *observable* at a predictor's next call:
//! its own prediction, its `DataResponse`/`Reissue` training, or
//! end-of-run state. So arrivals can be buffered — `(arrival time,
//! virtual sequence, payload)` records in a per-node
//! [`InlineRing`] — and drained immediately before the node's next
//! observation, in exactly the (time, seq) order the eager event loop
//! would have applied. The virtual sequence is drawn from the same
//! counter the simulator uses for real queue pushes
//! ([`crate::WheelQueue::push_at`]), so ties between a buffered record
//! and a queued event resolve identically in both modes; property tests
//! in `tests/train_equivalence.rs` pin the equivalence.
//!
//! Only *observed* deliveries are buffered: when no predictor can
//! learn from another node's request of a given type
//! ([`DestSetPredictor::observes_other`] is `false`, e.g. requests for
//! shared under every shipped policy), the simulator skips those
//! deliveries in both modes, so the eager path queues no event for them
//! and the lazy path stores no record.
//!
//! Request-class arrival times at one node are non-decreasing in send
//! order (the crossbar's ordering point is monotone and each
//! destination link only fills forward), so each inbox is naturally
//! sorted and drains from the front; a debug assertion checks each
//! append against the newest record.

use dsp_core::{DestSetPredictor, TrainEvent};
use dsp_types::{BlockAddr, InlineRing, NodeId, ReqType};

/// Inline inbox slots per node. Bursts beyond this (broadcast storms on
/// large machines) spill to a capacity-retaining `Vec`, so the steady
/// state stays allocation-free either way.
const INBOX_INLINE: usize = 16;

/// One deferred `OtherRequest` training record. Only initial
/// request-class arrivals are buffered — retries keep their eager
/// events (they are rare, and the requester's `Reissue` training reads
/// request state at arrival time) — so the payload is the fixed-at-send
/// `(block, requester, req)` triple.
#[derive(Clone, Copy, Debug)]
struct BufferedTrain {
    time: u64,
    vseq: u64,
    block: BlockAddr,
    requester: NodeId,
    req: ReqType,
}

impl Default for BufferedTrain {
    fn default() -> Self {
        BufferedTrain {
            time: 0,
            vseq: 0,
            block: BlockAddr::new(0),
            requester: NodeId::new(0),
            req: ReqType::GetShared,
        }
    }
}

/// The per-node training inboxes plus the reusable drain scratch.
#[derive(Debug)]
pub(crate) struct TrainBuffers<const W: usize = 4> {
    inboxes: Vec<InlineRing<BufferedTrain, INBOX_INLINE>>,
    /// Reused batch buffer handed to `train_batch`.
    scratch: Vec<TrainEvent<W>>,
}

impl<const W: usize> Default for TrainBuffers<W> {
    fn default() -> Self {
        TrainBuffers {
            inboxes: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl<const W: usize> TrainBuffers<W> {
    /// Inboxes for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        TrainBuffers {
            inboxes: (0..n).map(|_| InlineRing::new()).collect(),
            scratch: Vec::new(),
        }
    }

    /// Records an `OtherRequest` training that the eager path would
    /// have applied at `(time, vseq)`.
    #[inline]
    pub(crate) fn buffer(
        &mut self,
        node: usize,
        time: u64,
        vseq: u64,
        block: BlockAddr,
        requester: NodeId,
        req: ReqType,
    ) {
        let inbox = &mut self.inboxes[node];
        debug_assert!(
            inbox
                .back()
                .is_none_or(|b| (b.time, b.vseq) <= (time, vseq)),
            "inbox records must arrive in (time, seq) order"
        );
        inbox.push_back(BufferedTrain {
            time,
            vseq,
            block,
            requester,
            req,
        });
    }

    /// Whether `node` has no pending records (the drain fast path).
    #[inline]
    pub(crate) fn is_empty(&self, node: usize) -> bool {
        self.inboxes[node].is_empty()
    }

    /// Number of records pending for `node`.
    #[inline]
    pub(crate) fn len(&self, node: usize) -> usize {
        self.inboxes[node].len()
    }

    /// Applies every record of `node` that the eager path would have
    /// dispatched strictly before the event at `(limit_time,
    /// limit_seq)`, in that order, via the predictor's batch entry
    /// point.
    pub(crate) fn drain(
        &mut self,
        node: usize,
        limit_time: u64,
        limit_seq: u64,
        predictor: &mut dyn DestSetPredictor<W>,
    ) {
        let inbox = &mut self.inboxes[node];
        while let Some(front) = inbox.front() {
            if (front.time, front.vseq) >= (limit_time, limit_seq) {
                break;
            }
            let rec = inbox.pop_front().expect("front exists");
            self.scratch.push(TrainEvent::OtherRequest {
                block: rec.block,
                requester: rec.requester,
                req: rec.req,
            });
        }
        if !self.scratch.is_empty() {
            predictor.train_batch(&self.scratch);
            self.scratch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_core::{PredictQuery, TrainEvent};
    use dsp_types::DestSet;

    /// Minimal predictor that logs training order.
    #[derive(Debug, Default)]
    struct Log {
        seen: Vec<TrainEvent>,
        batches: usize,
    }

    impl DestSetPredictor for Log {
        fn predict(&mut self, query: &PredictQuery) -> DestSet {
            query.minimal
        }
        fn train(&mut self, event: &TrainEvent) {
            self.seen.push(*event);
        }
        fn train_batch(&mut self, events: &[TrainEvent]) {
            self.batches += 1;
            for e in events {
                self.train(e);
            }
        }
        fn name(&self) -> String {
            "Log".to_string()
        }
        fn entry_payload_bits(&self) -> u64 {
            0
        }
        fn storage_bits(&self) -> u64 {
            0
        }
    }

    fn rec(i: u64) -> (BlockAddr, NodeId, ReqType) {
        (BlockAddr::new(i), NodeId::new((i % 4) as usize), {
            if i.is_multiple_of(2) {
                ReqType::GetShared
            } else {
                ReqType::GetExclusive
            }
        })
    }

    #[test]
    fn drains_strictly_below_the_limit_in_order() {
        let mut buf = TrainBuffers::new(2);
        for (t, v) in [(10u64, 1u64), (10, 3), (20, 5)] {
            let (b, r, q) = rec(v);
            buf.buffer(0, t, v, b, r, q);
        }
        let mut p = Log::default();
        // Limit (10, 3): only the (10, 1) record is strictly earlier.
        buf.drain(0, 10, 3, &mut p);
        assert_eq!(p.seen.len(), 1);
        assert_eq!(p.seen[0].block(), BlockAddr::new(1));
        // Limit (20, 99): the rest follows, in order, as one batch.
        buf.drain(0, 20, 99, &mut p);
        assert_eq!(p.seen.len(), 3);
        assert_eq!(p.seen[1].block(), BlockAddr::new(3));
        assert_eq!(p.seen[2].block(), BlockAddr::new(5));
        assert_eq!(p.batches, 2, "each drain applies one batch");
        assert!(buf.is_empty(0));
    }

    #[test]
    fn nodes_are_independent_and_bursts_spill() {
        let mut buf = TrainBuffers::new(2);
        for v in 0..(INBOX_INLINE as u64 * 3) {
            let (b, r, q) = rec(v);
            buf.buffer(1, 100, v + 1, b, r, q);
        }
        assert!(buf.is_empty(0));
        assert!(!buf.is_empty(1));
        let mut p = Log::default();
        buf.drain(1, u64::MAX, u64::MAX, &mut p);
        assert_eq!(p.seen.len(), INBOX_INLINE * 3);
        // FIFO across the inline/spill boundary.
        for (i, e) in p.seen.iter().enumerate() {
            assert_eq!(e.block(), BlockAddr::new(i as u64));
        }
    }

    #[test]
    fn empty_drain_is_a_no_op() {
        let mut buf = TrainBuffers::new(1);
        let mut p = Log::default();
        buf.drain(0, u64::MAX, u64::MAX, &mut p);
        assert_eq!(p.batches, 0, "no batch call without records");
    }
}
