//! The crossbar switch model.

use serde::{Deserialize, Serialize};

use dsp_types::{DestSet, MessageClass, NodeId};

use crate::error::InterconnectError;
use crate::stats::TrafficStats;

/// Link and switch timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InterconnectConfig {
    /// Full-duplex per-node link bandwidth, bytes per nanosecond
    /// (10 GB/s = 10 B/ns in Table 4).
    pub link_bytes_per_ns: f64,
    /// End-to-end traversal latency in ns (50 in Table 4), split evenly
    /// between the source→switch and switch→destination halves.
    pub traversal_ns: u64,
}

impl InterconnectConfig {
    /// Paper Table 4: 10 GB/s links, 50 ns traversal.
    pub fn isca03() -> Self {
        InterconnectConfig {
            link_bytes_per_ns: 10.0,
            traversal_ns: 50,
        }
    }

    /// Sets the per-node link bandwidth in bytes/ns (builder style).
    #[must_use]
    pub fn bandwidth(mut self, bytes_per_ns: f64) -> Self {
        self.link_bytes_per_ns = bytes_per_ns;
        self
    }

    /// Sets the end-to-end traversal latency in ns (builder style).
    #[must_use]
    pub fn traversal(mut self, ns: u64) -> Self {
        self.traversal_ns = ns;
        self
    }

    /// Rejects parameters that would otherwise surface downstream as a
    /// div-by-zero serialization delay or a degenerate zero-latency
    /// network.
    pub fn validate(&self) -> Result<(), InterconnectError> {
        if !self.link_bytes_per_ns.is_finite() || self.link_bytes_per_ns <= 0.0 {
            return Err(InterconnectError::NonPositiveBandwidth(
                self.link_bytes_per_ns,
            ));
        }
        if self.traversal_ns == 0 {
            return Err(InterconnectError::ZeroTraversal);
        }
        Ok(())
    }
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig::isca03()
    }
}

/// One message to inject: source, destination set, and class (the class
/// determines the wire size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message<const W: usize = 4> {
    /// Injecting node.
    pub src: NodeId,
    /// Endpoint destinations (may include or exclude the source; the
    /// crossbar delivers exactly what is asked).
    pub dests: DestSet<W>,
    /// Message class, fixing its size and accounting bucket.
    pub class: MessageClass,
}

/// The outcome of injecting a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// When the message passed the switch's ordering point. All
    /// messages are totally ordered by this time (ties broken by
    /// injection sequence, which the simulator preserves).
    pub order_time: u64,
    /// Arrival time at each destination, in destination index order.
    pub arrivals: Vec<(NodeId, u64)>,
}

impl Delivery {
    /// Pairs each destination with its slot of `arrive`, as filled by a
    /// `send_into` of the same message.
    pub(crate) fn gather<const W: usize>(
        order_time: u64,
        dests: DestSet<W>,
        arrive: &[u64],
    ) -> Self {
        Delivery {
            order_time,
            arrivals: dests.iter().map(|d| (d, arrive[d.index()])).collect(),
        }
    }
}

/// Calls `deliver(d)` once per member `d` of `dests`, in ascending
/// order, and returns the number of calls. Walks the set's words
/// directly (lowest set bit, then clear it), the one destination loop
/// behind every send path.
#[inline(always)]
pub(crate) fn for_each_dest<const W: usize>(
    dests: DestSet<W>,
    mut deliver: impl FnMut(usize),
) -> u64 {
    let mut delivered = 0;
    for (i, mut w) in dests.words().into_iter().enumerate() {
        while w != 0 {
            deliver(i * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
            delivered += 1;
        }
    }
    delivered
}

/// A single totally-ordered crossbar connecting `n` nodes.
///
/// Contention model: each node has one outgoing and one incoming link;
/// a message occupies its source link for `size / bandwidth` ns (queuing
/// behind earlier messages), passes the ordering point after half the
/// traversal, then occupies each destination's incoming link in turn.
/// Multicasts pay source serialization once but per-destination delivery
/// — the endpoint-bandwidth cost structure that motivates destination-set
/// prediction.
#[derive(Clone, Debug)]
pub struct Crossbar {
    config: InterconnectConfig,
    /// Serialization delay per message class, precomputed at
    /// construction so the send path never touches floating point.
    pub(crate) ser_ns: [u64; MessageClass::COUNT],
    pub(crate) src_free_at: Vec<u64>,
    pub(crate) dst_free_at: Vec<u64>,
    pub(crate) last_order_time: u64,
    pub(crate) stats: TrafficStats,
}

impl Crossbar {
    /// Creates a crossbar for `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics on a config [`Crossbar::try_new`] rejects.
    pub fn new(config: InterconnectConfig, num_nodes: usize) -> Self {
        Crossbar::try_new(config, num_nodes).expect("invalid interconnect config")
    }

    /// Creates a crossbar for `num_nodes` nodes, rejecting zero nodes,
    /// non-positive bandwidth, and zero traversal with a typed error.
    pub fn try_new(
        config: InterconnectConfig,
        num_nodes: usize,
    ) -> Result<Self, InterconnectError> {
        if num_nodes == 0 {
            return Err(InterconnectError::ZeroNodes);
        }
        config.validate()?;
        let mut ser_ns = [0u64; MessageClass::COUNT];
        for class in MessageClass::ALL {
            ser_ns[class.index()] =
                ((class.bytes() as f64 / config.link_bytes_per_ns).ceil() as u64).max(1);
        }
        Ok(Crossbar {
            config,
            ser_ns,
            src_free_at: vec![0; num_nodes],
            dst_free_at: vec![0; num_nodes],
            last_order_time: 0,
            stats: TrafficStats::default(),
        })
    }

    /// The configured timing parameters.
    pub fn config(&self) -> InterconnectConfig {
        self.config
    }

    /// Serialization delay of `class`-sized messages on one link, in ns
    /// (rounded up, minimum 1).
    #[inline]
    pub fn serialization_ns(&self, class: MessageClass) -> u64 {
        self.ser_ns[class.index()]
    }

    /// Injects `msg` at time `now`, writing each destination `d`'s
    /// arrival time into `arrive[d]` and returning the ordering time,
    /// updating link occupancy and traffic statistics.
    ///
    /// `arrive` is indexed by node and needs a slot per node. Exactly
    /// the slots of `msg.dests` are written; every other slot keeps its
    /// value, so a caller may reuse one array across sends without
    /// clearing it. This is the hot-path entry point: it neither
    /// allocates nor copies. [`Crossbar::send`] wraps it for callers
    /// that prefer an owned [`Delivery`].
    ///
    /// # Panics
    ///
    /// Panics if `arrive` has fewer slots than nodes, or if a source or
    /// destination is not a node of this crossbar.
    pub fn send_into<const W: usize>(
        &mut self,
        now: u64,
        msg: &Message<W>,
        arrive: &mut [u64],
    ) -> u64 {
        self.send_counted(now, msg, arrive).0
    }

    /// [`Crossbar::send_into`], also returning how many deliveries its
    /// destination loop made (the delivered side of
    /// [`crate::LinkStats`]).
    pub(crate) fn send_counted<const W: usize>(
        &mut self,
        now: u64,
        msg: &Message<W>,
        arrive: &mut [u64],
    ) -> (u64, u64) {
        let ser = self.serialization_ns(msg.class);
        let half = self.config.traversal_ns / 2;
        // Source link: queue behind earlier injections from this node.
        let start = now.max(self.src_free_at[msg.src.index()]);
        self.src_free_at[msg.src.index()] = start + ser;
        // Ordering point: monotonically non-decreasing across the switch.
        let order_time = (start + ser + half).max(self.last_order_time);
        self.last_order_time = order_time;
        // Destination links.
        let n = self.dst_free_at.len();
        let (free, arrive) = (&mut self.dst_free_at[..n], &mut arrive[..n]);
        let delivered = for_each_dest(msg.dests, |d| {
            let d_start = order_time.max(free[d]);
            free[d] = d_start + ser;
            arrive[d] = d_start + ser + half;
        });
        self.stats.record(msg.class, delivered);
        (order_time, delivered)
    }

    /// Injects `msg` at time `now`; returns the ordering time and
    /// per-destination arrival times as an owned [`Delivery`].
    pub fn send<const W: usize>(&mut self, now: u64, msg: &Message<W>) -> Delivery {
        let mut arrive = vec![0; self.dst_free_at.len()];
        let order_time = self.send_into(now, msg, &mut arrive);
        Delivery::gather(order_time, msg.dests, &arrive)
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Clears the traffic statistics (e.g. after warmup) without
    /// resetting link occupancy.
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> Crossbar {
        Crossbar::new(InterconnectConfig::isca03(), 16)
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn uncontended_latency_is_traversal_plus_serialization() {
        let mut x = xbar();
        let msg: Message = Message {
            src: n(0),
            dests: DestSet::single(n(5)),
            class: MessageClass::Request,
        };
        let d = x.send(0, &msg);
        // 8B at 10B/ns -> 1ns serialization; 25 + 25 traversal halves.
        // src: 0..1, order at 26, dst: 26..27, arrive 27 + 25 = 52.
        assert_eq!(d.order_time, 26);
        assert_eq!(d.arrivals, vec![(n(5), 52)]);
    }

    #[test]
    fn data_responses_serialize_longer() {
        let mut x = xbar();
        let req = x.send(
            0,
            &Message::<4> {
                src: n(0),
                dests: DestSet::single(n(1)),
                class: MessageClass::Request,
            },
        );
        let mut x2 = xbar();
        let data = x2.send(
            0,
            &Message::<4> {
                src: n(0),
                dests: DestSet::single(n(1)),
                class: MessageClass::DataResponse,
            },
        );
        assert!(
            data.arrivals[0].1 > req.arrivals[0].1,
            "72B serializes slower than 8B"
        );
    }

    #[test]
    fn source_link_queues_back_to_back_sends() {
        let mut x = xbar();
        let msg: Message = Message {
            src: n(0),
            dests: DestSet::single(n(1)),
            class: MessageClass::DataResponse, // 8ns serialization
        };
        let first = x.send(0, &msg);
        let second = x.send(0, &msg);
        assert!(
            second.order_time >= first.order_time + 8,
            "second send queues"
        );
    }

    #[test]
    fn destination_link_contention_staggers_arrivals() {
        let mut x = xbar();
        // Two different sources target the same destination at once.
        let a = x.send(
            0,
            &Message::<4> {
                src: n(0),
                dests: DestSet::single(n(9)),
                class: MessageClass::DataResponse,
            },
        );
        let b = x.send(
            0,
            &Message::<4> {
                src: n(1),
                dests: DestSet::single(n(9)),
                class: MessageClass::DataResponse,
            },
        );
        assert!(
            b.arrivals[0].1 >= a.arrivals[0].1 + 8,
            "incoming link serializes"
        );
    }

    #[test]
    fn order_times_are_totally_ordered() {
        let mut x = xbar();
        let mut last = 0;
        for i in 0..50 {
            let d = x.send(
                i * 3,
                &Message::<4> {
                    src: n((i % 16) as usize),
                    dests: DestSet::broadcast(16),
                    class: MessageClass::Request,
                },
            );
            assert!(d.order_time >= last, "ordering point must be monotone");
            last = d.order_time;
        }
    }

    #[test]
    fn multicast_delivers_to_every_destination() {
        let mut x = xbar();
        let dests = DestSet::from_iter([n(1), n(4), n(9)]);
        let d = x.send(
            100,
            &Message::<4> {
                src: n(0),
                dests,
                class: MessageClass::Request,
            },
        );
        assert_eq!(d.arrivals.len(), 3);
        let stats = x.stats();
        assert_eq!(stats.class(MessageClass::Request).deliveries, 3);
        assert_eq!(stats.class(MessageClass::Request).messages, 1);
    }

    #[test]
    fn empty_destination_set_is_a_no_op_delivery() {
        let mut x = xbar();
        let d = x.send(
            5,
            &Message::<4> {
                src: n(0),
                dests: DestSet::empty(),
                class: MessageClass::Control,
            },
        );
        assert!(d.arrivals.is_empty());
        assert_eq!(x.stats().class(MessageClass::Control).deliveries, 0);
        assert_eq!(x.stats().class(MessageClass::Control).messages, 1);
    }

    #[test]
    fn reset_stats_keeps_link_state() {
        let mut x = xbar();
        let msg: Message = Message {
            src: n(0),
            dests: DestSet::single(n(1)),
            class: MessageClass::Request,
        };
        x.send(0, &msg);
        x.reset_stats();
        assert_eq!(x.stats().total_messages(), 0);
        let d = x.send(0, &msg);
        assert!(d.order_time > 26, "link occupancy survived the stats reset");
    }

    #[test]
    fn config_builders_and_validation() {
        let cfg = InterconnectConfig::isca03().bandwidth(2.5).traversal(80);
        assert_eq!(cfg.link_bytes_per_ns, 2.5);
        assert_eq!(cfg.traversal_ns, 80);
        assert!(cfg.validate().is_ok());
        assert_eq!(
            InterconnectConfig::isca03().bandwidth(0.0).validate(),
            Err(InterconnectError::NonPositiveBandwidth(0.0))
        );
        assert!(InterconnectConfig::isca03()
            .bandwidth(f64::NAN)
            .validate()
            .is_err());
        assert_eq!(
            InterconnectConfig::isca03().traversal(0).validate(),
            Err(InterconnectError::ZeroTraversal)
        );
        assert_eq!(
            Crossbar::try_new(InterconnectConfig::isca03(), 0).err(),
            Some(InterconnectError::ZeroNodes)
        );
        assert!(Crossbar::try_new(InterconnectConfig::isca03(), 16).is_ok());
    }

    #[test]
    fn broadcast_costs_n_deliveries() {
        let mut x = xbar();
        x.send(
            0,
            &Message::<4> {
                src: n(0),
                dests: DestSet::broadcast(16).without(n(0)),
                class: MessageClass::Request,
            },
        );
        assert_eq!(x.stats().request_deliveries(), 15);
    }

    /// The slot contract `send_into` callers rely on (the simulator
    /// reuses one array per miss without clearing it): a send writes the
    /// slot of exactly each destination, on the crossbar fast path and
    /// on the modeled path alike, across every word of a 256-node set.
    #[test]
    fn send_into_writes_exactly_the_destination_slots() {
        use crate::topology::{Topology, TopologySpec};
        use crate::toxic::{Toxic, ToxicSpec};

        const SENTINEL: u64 = u64::MAX;
        let cfg = InterconnectConfig::isca03();
        let mesh = TopologySpec::Mesh2d {
            cols: 16,
            link_ns: 10,
            hop_ns: 5,
        };
        let jitter = ToxicSpec::none().with(Toxic::LatencyJitter { max_ns: 30 });
        let mut xbar = Crossbar::new(cfg, 256);
        let mut modeled = Topology::new(cfg, 256, &mesh, &jitter, 7);
        let first: DestSet = DestSet::from_iter([0, 63, 64, 127, 128, 255].map(n));
        let second: DestSet = DestSet::from_iter([1, 62, 65, 200].map(n));
        let mut slots = [vec![SENTINEL; 256], vec![SENTINEL; 256]];
        for (now, dests) in [(0, first), (10, second)] {
            let msg = Message {
                src: n(100),
                dests,
                class: MessageClass::Request,
            };
            let before = slots.clone();
            xbar.send_into(now, &msg, &mut slots[0]);
            modeled.send_into(now, &msg, &mut slots[1]);
            for (after, before) in slots.iter().zip(&before) {
                for d in 0..256 {
                    assert_eq!(after[d] != before[d], dests.contains(n(d)), "slot {d}");
                }
            }
        }
        // Slots the second send skipped still hold the first's times.
        for d in first {
            assert!(slots.iter().all(|s| s[d.index()] != SENTINEL));
        }
    }
}
