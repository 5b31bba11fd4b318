//! The scheduling core: simulation events and the queue that orders
//! them.
//!
//! Every simulated miss flows through about six queued events on the
//! paper's 16-node machine. Request training adds one event per
//! distinct arrival time of a send's observed destinations, not one per
//! destination, so a 255-way request on a free crossbar is one event,
//! and only congested links and faulty meshes spread a send over
//! several. The event queue is one of the simulator's per-miss hot
//! paths. The production queue is [`WheelQueue`], a hierarchical timing
//! wheel:
//!
//! * a near-horizon array of per-nanosecond slots, found by a bitmap
//!   scan instead of heap sifting. Each slot is only the two ends of an
//!   intrusive FIFO list; the events themselves live in one node arena
//!   shared by all slots, recycled through a LIFO free list, so a push
//!   reuses the node the last pop just freed;
//! * an overflow binary heap for far-future events, which are promoted
//!   into the wheel as the cursor approaches them.
//!
//! [`Event`] keeps its indices as `u32` so an arena node is 16 bytes.
//! The wheel pops in the seed `BinaryHeap` queue's order: time, then
//! push sequence (FIFO among equal times). That heap survives as the
//! oracle of the pop-order equivalence property tests
//! (`tests/queue_equivalence.rs`), which keep their own copy of it.

mod wheel;

pub use wheel::WheelQueue;

/// Cheap occupancy counters a [`WheelQueue`] maintains over its
/// lifetime. The benchmark in `perfbench/` reports `popped` as
/// `sim.events` and `promoted` as `sim.queue_promoted`, so
/// queue-pressure changes (such as the training fan-out, one
/// [`Event::RequestArrive`] per distinct arrival time of a request's
/// observed destinations) are visible without re-profiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Events pushed (wheel buckets and overflow heap combined).
    pub pushed: u64,
    /// Events popped.
    pub popped: u64,
    /// Events still pending when the counters were read — a finished
    /// run leaves the events scheduled after its last completion
    /// undrained, so `pushed == popped + remaining` is the
    /// reconciliation every consumer asserts.
    pub remaining: u64,
    /// Far-future events promoted from the overflow heap into the
    /// wheel as the cursor advanced.
    pub promoted: u64,
}

impl QueueCounters {
    /// Asserts the push/pop/remaining books balance.
    ///
    /// # Panics
    ///
    /// Panics if `pushed != popped + remaining` — an event was lost or
    /// double-counted somewhere in the scheduling core.
    pub fn assert_reconciled(&self) {
        assert_eq!(
            self.pushed,
            self.popped + self.remaining,
            "queue counters must reconcile: {self:?}"
        );
    }
}

/// Events driving the simulation. `req` indexes the pending-request
/// table, `group` the simulator's table of training groups; `node` and
/// `owner` are node indices. All are `u32` to keep the event at 12
/// bytes (the simulator checks each table's length where it hands out
/// a new index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A node is ready to issue its next miss (subject to its window).
    CpuIssue {
        /// Node index.
        node: u32,
    },
    /// The L2 detected the miss; the request enters the interconnect.
    Inject {
        /// Pending-request index.
        req: u32,
    },
    /// A request (attempt `attempt`) passed the ordering point.
    Ordered {
        /// Pending-request index.
        req: u32,
        /// 1 = initial multicast, 2 = first reissue, 3 = broadcast.
        attempt: u8,
    },
    /// A request-class message arrived at a group of nodes at one
    /// time, and each node's predictor trains on it, in ascending node
    /// order. This is the simulator's only way to deliver request
    /// training: a send schedules one per distinct arrival time of its
    /// destinations, if the predictors observe its type (initial
    /// requests) or always (retries).
    RequestArrive {
        /// Pending-request index.
        req: u32,
        /// Index of the receiving nodes' set, captured at the send.
        group: u32,
        /// Whether this was a directory reissue.
        retry: bool,
    },
    /// The home directory is ready to forward / respond / reissue.
    HomeReady {
        /// Pending-request index.
        req: u32,
        /// Attempt being processed.
        attempt: u8,
    },
    /// The cache owner is ready to inject the data response.
    OwnerReady {
        /// Pending-request index.
        req: u32,
        /// The owner node injecting the response.
        owner: u32,
    },
    /// The data (or upgrade ack) arrived at the requester.
    Complete {
        /// Pending-request index.
        req: u32,
    },
}
