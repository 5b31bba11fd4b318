//! Property-based tests of the crossbar timing model and the
//! fault-injection topology layer wrapped around it.

use proptest::prelude::*;

use dsp_interconnect::{
    Crossbar, InterconnectConfig, Message, ReferenceCrossbar, Topology, TopologySpec, Toxic,
    ToxicSpec,
};
use dsp_types::{DestSet, MessageClass, NodeId};

const NODES: usize = 16;
/// The widest machine: four-word destination sets.
const WIDE: usize = 256;
/// The first and last node of each word of a [`WIDE`]-node set.
const WORD_EDGES: [usize; 6] = [0, 63, 64, 127, 128, 255];

/// Renders one delivery as a text record, the unit of byte-identical
/// comparison between the seed model and the current crossbar.
fn render_delivery(order_time: u64, arrivals: &[(NodeId, u64)]) -> String {
    let mut line = format!("@{order_time}:");
    for (node, t) in arrivals {
        line.push_str(&format!(" {node}={t}"));
    }
    line
}

#[derive(Clone, Debug)]
struct Send {
    src: usize,
    dest_words: [u64; 4],
    class_idx: u8,
    gap: u64,
}

impl Send {
    /// The destination set at word width `W`.
    fn dests<const W: usize>(&self) -> DestSet<W> {
        DestSet::<4>::from_words(self.dest_words).resize()
    }
}

fn class_of(idx: u8) -> MessageClass {
    match idx % 6 {
        0 => MessageClass::Request,
        1 => MessageClass::Forward,
        2 => MessageClass::Retry,
        3 => MessageClass::DataResponse,
        4 => MessageClass::Control,
        _ => MessageClass::Writeback,
    }
}

/// Destination sets over `nodes` nodes. Up to 64 nodes every subset
/// is equally likely. Wider sets are built to cross word boundaries:
/// each word is independently random or empty, and each of
/// [`WORD_EDGES`] is independently forced in, so empty words between
/// members, edge-only sets and dense broadcasts all occur.
fn dest_words(nodes: usize) -> impl Strategy<Value = [u64; 4]> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
    )
        .prop_map(move |(a, b, c, d, pick)| {
            let mut words = [a, b, c, d];
            if nodes > 64 {
                for (i, w) in words.iter_mut().enumerate() {
                    if pick >> (WORD_EDGES.len() + i) & 1 == 0 {
                        *w = 0;
                    }
                }
                for (j, e) in WORD_EDGES.into_iter().enumerate() {
                    if pick >> j & 1 == 1 {
                        words[e / 64] |= 1 << (e % 64);
                    }
                }
            }
            (DestSet::from_words(words) & DestSet::broadcast(nodes)).words()
        })
}

fn sends_on(nodes: usize) -> impl Strategy<Value = Vec<Send>> {
    proptest::collection::vec(
        (0..nodes, dest_words(nodes), any::<u8>(), 0u64..100).prop_map(
            |(src, dest_words, class_idx, gap)| Send {
                src,
                dest_words,
                class_idx,
                gap,
            },
        ),
        1..200,
    )
}

fn sends() -> impl Strategy<Value = Vec<Send>> {
    sends_on(NODES)
}

/// A trace on the paper's [`NODES`]-node machine or on the [`WIDE`]
/// one, paired with its node count.
fn traces() -> impl Strategy<Value = (usize, Vec<Send>)> {
    prop_oneof![
        sends_on(NODES).prop_map(|ops| (NODES, ops)),
        sends_on(WIDE).prop_map(|ops| (WIDE, ops)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ordering-point times are monotone in send order (total order),
    /// and every arrival happens strictly after the ordering point.
    #[test]
    fn total_order_and_causality(ops in sends()) {
        let mut xbar = Crossbar::new(InterconnectConfig::isca03(), NODES);
        let mut now = 0u64;
        let mut last_order = 0u64;
        for op in &ops {
            now += op.gap;
            let msg: Message = Message {
                src: NodeId::new(op.src),
                dests: op.dests(),
                class: class_of(op.class_idx),
            };
            let d = xbar.send(now, &msg);
            prop_assert!(d.order_time >= last_order, "ordering point went backwards");
            prop_assert!(d.order_time > now, "ordering cannot precede injection");
            last_order = d.order_time;
            for (_, t) in &d.arrivals {
                prop_assert!(*t > d.order_time, "arrival before ordering");
            }
        }
    }

    /// A node's incoming link delivers at most one message per
    /// serialization window: consecutive arrivals at the same node are
    /// spaced by at least the smaller message's serialization time.
    #[test]
    fn per_link_delivery_spacing(ops in sends()) {
        let mut xbar = Crossbar::new(InterconnectConfig::isca03(), NODES);
        let mut now = 0u64;
        let mut arrivals_per_node: Vec<Vec<(u64, u64)>> = vec![Vec::new(); NODES];
        for op in &ops {
            now += op.gap;
            let class = class_of(op.class_idx);
            let ser = xbar.serialization_ns(class);
            let msg: Message = Message {
                src: NodeId::new(op.src),
                dests: op.dests(),
                class,
            };
            for (node, t) in xbar.send(now, &msg).arrivals {
                arrivals_per_node[node.index()].push((t, ser));
            }
        }
        for node in arrivals_per_node {
            let mut sorted = node.clone();
            sorted.sort_unstable();
            for pair in sorted.windows(2) {
                let ((t1, _), (t2, s2)) = (pair[0], pair[1]);
                // The later arrival needed its own serialization slot.
                prop_assert!(t2 >= t1 + s2.min(pair[0].1), "link overcommitted: {t1} then {t2}");
            }
        }
    }

    /// Traffic accounting matches what was sent: deliveries equal the
    /// destination-set sizes and bytes equal deliveries times the class
    /// size.
    #[test]
    fn traffic_accounting_is_exact(trace in traces()) {
        let (nodes, ops) = trace;
        let mut xbar = Crossbar::new(InterconnectConfig::isca03(), nodes);
        let mut expect_deliveries = 0u64;
        let mut expect_bytes = 0u64;
        let mut now = 0;
        for op in &ops {
            now += op.gap;
            let class = class_of(op.class_idx);
            let dests = op.dests();
            expect_deliveries += dests.len() as u64;
            expect_bytes += dests.len() as u64 * class.bytes();
            xbar.send(now, &Message::<4> { src: NodeId::new(op.src), dests, class });
        }
        let stats = xbar.stats();
        let total_deliveries: u64 = [
            MessageClass::Request,
            MessageClass::Forward,
            MessageClass::Retry,
            MessageClass::DataResponse,
            MessageClass::Control,
            MessageClass::Writeback,
        ]
        .iter()
        .map(|c| stats.class(*c).deliveries)
        .sum();
        prop_assert_eq!(total_deliveries, expect_deliveries);
        prop_assert_eq!(stats.total_bytes(), expect_bytes);
        prop_assert_eq!(stats.total_messages(), ops.len() as u64);
    }

    /// The refactored crossbar (precomputed serialization, per-node
    /// arrival slots, word-walking destination loop) is byte-identical
    /// to the seed model on arbitrary traces: same ordering times, same
    /// arrivals in the same order, under non-default bandwidths too
    /// (exercising the float-`ceil` precomputation), on 16 nodes and on
    /// 256 (sets crossing every word boundary).
    #[test]
    fn deliveries_match_seed_model(trace in traces(), bw_tenths in 1u32..200) {
        let (nodes, ops) = trace;
        let config = InterconnectConfig {
            link_bytes_per_ns: bw_tenths as f64 / 10.0,
            traversal_ns: 50,
        };
        let mut xbar = Crossbar::new(config, nodes);
        let mut seed = ReferenceCrossbar::new(config, nodes);
        let mut now = 0u64;
        for op in &ops {
            now += op.gap;
            let class = class_of(op.class_idx);
            prop_assert_eq!(xbar.serialization_ns(class), seed.serialization_ns(class));
            let msg: Message = Message {
                src: NodeId::new(op.src),
                dests: op.dests(),
                class,
            };
            let d = xbar.send(now, &msg);
            let (seed_order, seed_arrivals) = seed.send(now, &msg);
            prop_assert_eq!(
                render_delivery(d.order_time, &d.arrivals),
                render_delivery(seed_order, &seed_arrivals)
            );
        }
    }

    /// Uncontended single messages always arrive within serialization +
    /// traversal of their injection.
    #[test]
    fn uncontended_latency_bound(src in 0usize..NODES, dst in 0usize..NODES, class_idx in 0u8..6) {
        let mut xbar = Crossbar::new(InterconnectConfig::isca03(), NODES);
        let class = class_of(class_idx);
        let msg: Message = Message {
            src: NodeId::new(src),
            dests: DestSet::single(NodeId::new(dst)),
            class,
        };
        let d = xbar.send(1_000, &msg);
        let bound = 1_000 + 2 * xbar.serialization_ns(class) + 50;
        prop_assert!(d.arrivals[0].1 <= bound, "{} > {bound}", d.arrivals[0].1);
    }
}

/// A random (possibly empty) toxic chain: each fault model is present
/// or absent independently, with parameters drawn from their valid
/// ranges (derate ≥ 50% and burst ≤ period keep every chain
/// constructible).
fn toxic_chain() -> impl Strategy<Value = ToxicSpec> {
    (
        proptest::option::of(1u64..60),
        proptest::option::of(50u32..100),
        proptest::option::of((1_000u64..20_000, 100u64..900, 2u32..8)),
        proptest::option::of((5_000u64..50_000, 100u64..4_000)),
    )
        .prop_map(|(jitter, derate, congestion, outage)| {
            let mut spec = ToxicSpec::none();
            if let Some(max_ns) = jitter {
                spec = spec.with(Toxic::LatencyJitter { max_ns });
            }
            if let Some(percent) = derate {
                spec = spec.with(Toxic::BandwidthDerate { percent });
            }
            if let Some((period_ns, burst_ns, slowdown)) = congestion {
                spec = spec.with(Toxic::CongestionBurst {
                    period_ns,
                    burst_ns,
                    slowdown,
                });
            }
            if let Some((period_ns, down_ns)) = outage {
                spec = spec.with(Toxic::Outage { period_ns, down_ns });
            }
            spec
        })
}

/// Either network shape, with fixed mesh parameters (the property
/// tests care about the routing structure, not the constants).
fn topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::Crossbar),
        Just(TopologySpec::Mesh2d {
            cols: 4,
            link_ns: 10,
            hop_ns: 5,
        }),
    ]
}

/// Replays `ops` through a fresh [`Topology`] and renders every
/// delivery, asserting the per-link conservation ledger on the way out.
fn run_stream<const W: usize>(
    nodes: usize,
    topo_spec: &TopologySpec,
    toxics: &ToxicSpec,
    seed: u64,
    ops: &[Send],
) -> String {
    let mut topo = Topology::new(InterconnectConfig::isca03(), nodes, topo_spec, toxics, seed);
    let mut now = 0u64;
    let mut out = String::new();
    for op in ops {
        now += op.gap;
        let msg: Message<W> = Message {
            src: NodeId::new(op.src),
            dests: op.dests(),
            class: class_of(op.class_idx),
        };
        let d = topo.send(now, &msg);
        out.push_str(&render_delivery(d.order_time, &d.arrivals));
        out.push('\n');
    }
    topo.assert_conserved();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fault injection is deterministic under seed — re-running the
    /// same trace through a fresh topology with the same seed yields a
    /// byte-identical delivery stream — and the compile-time set width
    /// is a pure representation: `Message<1>` and `Message<4>` produce
    /// the same stream (destination masks fit 16 bits, so both widths
    /// express every set).
    #[test]
    fn toxic_streams_are_seeded_and_width_invariant(
        ops in sends(),
        topo in topology(),
        toxics in toxic_chain(),
        seed in any::<u64>(),
    ) {
        let first = run_stream::<1>(NODES, &topo, &toxics, seed, &ops);
        let again = run_stream::<1>(NODES, &topo, &toxics, seed, &ops);
        prop_assert_eq!(&first, &again, "same seed must replay byte-identically");
        let wide = run_stream::<4>(NODES, &topo, &toxics, seed, &ops);
        prop_assert_eq!(first, wide, "set width changed delivery timing");
    }

    /// No toxic chain reorders a destination link: arrivals at each
    /// node are monotone in send order even when jitter, congestion,
    /// and outages stretch individual deliveries — faults delay
    /// messages, they never overtake them.
    #[test]
    fn toxics_preserve_per_destination_fifo(
        ops in sends(),
        topo in topology(),
        toxics in toxic_chain(),
        seed in any::<u64>(),
    ) {
        let mut net = Topology::new(InterconnectConfig::isca03(), NODES, &topo, &toxics, seed);
        let mut now = 0u64;
        let mut last = [0u64; NODES];
        for op in &ops {
            now += op.gap;
            let msg: Message = Message {
                src: NodeId::new(op.src),
                dests: op.dests(),
                class: class_of(op.class_idx),
            };
            for (node, t) in &net.send(now, &msg).arrivals {
                prop_assert!(
                    *t >= last[node.index()],
                    "link to {node} reordered: {t} after {}",
                    last[node.index()]
                );
                last[node.index()] = *t;
            }
        }
        net.assert_conserved();
    }

    /// A mesh whose hop latencies sum to the crossbar's 50 ns traversal
    /// (25 ns injection half + 0 ns per hop on each side) is the
    /// crossbar: the modeled path with uniform halves must be
    /// byte-identical to the direct fast path, whatever the aspect
    /// ratio of the grid, on 16 nodes and on 256.
    #[test]
    fn flat_mesh_is_the_crossbar(trace in traces(), cols in 1u32..9, seed in any::<u64>()) {
        let (nodes, ops) = trace;
        let mesh = TopologySpec::Mesh2d { cols, link_ns: 25, hop_ns: 0 };
        let none = ToxicSpec::none();
        let direct = run_stream::<4>(nodes, &TopologySpec::Crossbar, &none, seed, &ops);
        let modeled = run_stream::<4>(nodes, &mesh, &none, seed, &ops);
        prop_assert_eq!(direct, modeled, "degenerate mesh diverged from the crossbar");
    }
}

/// A fixed golden trace, rendered and pinned byte for byte: a unicast
/// request, a contended broadcast, a data response on a busy link, and
/// an empty destination set.
#[test]
fn golden_trace_is_pinned() {
    let mut xbar = Crossbar::new(InterconnectConfig::isca03(), 4);
    let steps = [
        (0u64, 0usize, 0b0010u64, MessageClass::Request),
        (5, 1, 0b1111, MessageClass::Request),
        (6, 0, 0b0010, MessageClass::DataResponse),
        (6, 2, 0b0000, MessageClass::Control),
        (7, 3, 0b0101, MessageClass::Writeback),
    ];
    let mut rendered = String::new();
    for (now, src, mask, class) in steps {
        let d = xbar.send(
            now,
            &Message::<4> {
                src: NodeId::new(src),
                dests: DestSet::from_bits(mask),
                class,
            },
        );
        rendered.push_str(&render_delivery(d.order_time, &d.arrivals));
        rendered.push('\n');
    }
    // Recorded from the seed implementation (ReferenceCrossbar
    // reproduces it; see deliveries_match_seed_model for the general
    // case).
    let mut seed = ReferenceCrossbar::new(InterconnectConfig::isca03(), 4);
    let mut expected = String::new();
    for (now, src, mask, class) in steps {
        let (order, arrivals) = seed.send(
            now,
            &Message::<4> {
                src: NodeId::new(src),
                dests: DestSet::from_bits(mask),
                class,
            },
        );
        expected.push_str(&render_delivery(order, &arrivals));
        expected.push('\n');
    }
    assert_eq!(rendered, expected);
    assert_eq!(
        rendered,
        "@26: P1=52\n\
         @31: P0=57 P1=57 P2=57 P3=57\n\
         @39: P1=72\n\
         @39:\n\
         @40: P0=73 P2=73\n"
    );
}
