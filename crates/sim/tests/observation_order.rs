//! Pins the exact sequence of predictor observations every node makes.
//!
//! A recording wrapper (installed with [`System::instrument_predictors`])
//! folds each node's full `predict`/`train` call sequence, arguments
//! and predictions included, into an FNV-1a digest. The digests below
//! were recorded when every request arrival was a wheel event of its
//! own; grouping a send's arrivals by time must deliver the same
//! observations to every node in the same order. Any change to when
//! or in which order a node observes a request shows up here even
//! where the reports happen to agree.
//!
//! The cases span both set widths: 16 and 256 nodes on the crossbar,
//! and a 64-node mesh under a severe fault chain with the detailed
//! CPU, where jitter spreads one send's arrivals over many times and a
//! retry can overwrite the miss's arrival slots while the arrivals of
//! its earlier attempt are still queued. The random predictor forces
//! many such retries.

use std::sync::{Arc, Mutex};

use dsp_core::{DestSetPredictor, Indexing, PredictQuery, PredictorConfig, TrainEvent};
use dsp_sim::{
    CpuModel, ProtocolKind, SimConfig, SimReport, System, TargetSystem, TopologySpec, Toxic,
    ToxicSpec,
};
use dsp_trace::{Workload, WorkloadSpec};
use dsp_types::{DestSet, Owner, ReqType, SystemConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a fold over 64-bit words: stable across Rust releases,
/// unlike `DefaultHasher`.
#[derive(Clone, Copy, Debug)]
struct Digest {
    hash: u64,
    calls: u64,
}

impl Digest {
    const fn new() -> Self {
        Digest {
            hash: FNV_OFFSET,
            calls: 0,
        }
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    fn set<const W: usize>(&mut self, set: DestSet<W>) {
        // Width-independent: a set is folded as its member list.
        self.word(set.len() as u64);
        for node in set {
            self.word(node.index() as u64);
        }
    }
}

fn req_word(req: ReqType) -> u64 {
    u64::from(req.is_exclusive())
}

fn owner_word(owner: Owner) -> u64 {
    match owner {
        Owner::Memory => u64::MAX,
        Owner::Node(node) => node.index() as u64,
    }
}

/// Delegates every call to `inner` and folds it into this node's
/// digest.
#[derive(Debug)]
struct Recording<const W: usize> {
    inner: Box<dyn DestSetPredictor<W>>,
    digest: Arc<Mutex<Digest>>,
}

impl<const W: usize> DestSetPredictor<W> for Recording<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let predicted = self.inner.predict(query);
        let mut d = self.digest.lock().expect("digest lock");
        d.calls += 1;
        d.word(0);
        d.word(query.block.number());
        d.word(query.pc.raw());
        d.word(query.requester.index() as u64);
        d.word(req_word(query.req));
        d.set(query.minimal);
        d.set(predicted);
        predicted
    }

    fn train(&mut self, event: &TrainEvent<W>) {
        self.inner.train(event);
        let mut d = self.digest.lock().expect("digest lock");
        d.calls += 1;
        match *event {
            TrainEvent::DataResponse {
                block,
                pc,
                responder,
                req,
                minimal_sufficient,
            } => {
                d.word(1);
                d.word(block.number());
                d.word(pc.raw());
                d.word(owner_word(responder));
                d.word(req_word(req));
                d.word(u64::from(minimal_sufficient));
            }
            TrainEvent::OtherRequest {
                block,
                requester,
                req,
            } => {
                d.word(2);
                d.word(block.number());
                d.word(requester.index() as u64);
                d.word(req_word(req));
            }
            TrainEvent::Reissue { block, corrected } => {
                d.word(3);
                d.word(block.number());
                d.set(corrected);
            }
        }
    }

    fn observes_other(&self, req: ReqType) -> bool {
        self.inner.observes_other(req)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn entry_payload_bits(&self) -> u64 {
        self.inner.entry_payload_bits()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

/// Runs one simulation with every node recording, and returns the fold
/// of the nodes' digests (in node order) with the total call count.
fn record<const W: usize>(sys: &SystemConfig, sim: SimConfig) -> (Digest, SimReport) {
    let spec = WorkloadSpec::preset(Workload::Oltp, sys).scaled(1.0 / 256.0);
    let mut system = System::<W>::new(sys, TargetSystem::isca03_default(), &spec, sim);
    let digests: Vec<Arc<Mutex<Digest>>> = (0..sys.num_nodes())
        .map(|_| Arc::new(Mutex::new(Digest::new())))
        .collect();
    system.instrument_predictors(|node, inner| {
        Box::new(Recording {
            inner,
            digest: Arc::clone(&digests[node]),
        })
    });
    let report = system.run();
    let mut all = Digest::new();
    for (node, d) in digests.iter().enumerate() {
        let d = *d.lock().expect("digest lock");
        all.word(node as u64);
        all.word(d.hash);
        all.word(d.calls);
        all.calls += d.calls;
    }
    (all, report)
}

fn nodes(n: usize) -> SystemConfig {
    SystemConfig::builder()
        .num_nodes(n)
        .build()
        .expect("valid node count")
}

/// The protocols every case runs: the two predictors the timing
/// figures feature, at 1024-byte macroblocks, and a random predictor
/// whose wrong guesses force retries.
fn protocols() -> [ProtocolKind; 3] {
    let mb = Indexing::Macroblock { bytes: 1024 };
    [
        ProtocolKind::Multicast(PredictorConfig::owner_group().indexing(mb)),
        ProtocolKind::Multicast(PredictorConfig::broadcast_if_shared().indexing(mb)),
        ProtocolKind::Multicast(PredictorConfig::random(0x0b5e_47e5)),
    ]
}

/// The `severe` fault chain of the `degraded` experiment.
fn severe() -> ToxicSpec {
    ToxicSpec::none()
        .with(Toxic::LatencyJitter { max_ns: 50 })
        .with(Toxic::BandwidthDerate { percent: 50 })
        .with(Toxic::CongestionBurst {
            period_ns: 10_000,
            burst_ns: 2_500,
            slowdown: 8,
        })
        .with(Toxic::Outage {
            period_ns: 50_000,
            down_ns: 5_000,
        })
}

/// Asserts each protocol's observations against its recorded
/// `(digest, calls)` and that the random predictor retried.
fn check(
    label: &str,
    expected: [(u64, u64); 3],
    run: impl Fn(ProtocolKind) -> (Digest, SimReport),
) {
    for (protocol, (digest, calls)) in protocols().into_iter().zip(expected) {
        let (observed, report) = run(protocol);
        assert_eq!(
            (observed.hash, observed.calls),
            (digest, calls),
            "{label} / {}: observation sequence changed",
            protocol.label()
        );
        if protocol.label().contains("Random") {
            assert!(
                report.retries * 10 > report.measured_misses,
                "{label}: the random predictor retried too rarely"
            );
        }
    }
}

#[test]
fn crossbar_16_nodes() {
    let sys = nodes(16);
    check(
        "crossbar/16",
        [
            (0xd2a9_01d9_ae57_2de7, 13_793),
            (0x764b_1f8e_0387_e061, 20_349),
            (0x30e9_0033_107f_b59c, 9_836),
        ],
        |protocol| record::<1>(&sys, SimConfig::new(protocol).misses(50, 200).seed(3)),
    );
}

#[test]
fn crossbar_256_nodes() {
    let sys = nodes(256);
    check(
        "crossbar/256",
        [
            (0xcd28_0155_170a_d910, 68_178),
            (0xdf9f_8389_a543_3215, 564_697),
            (0x274a_c790_e022_f979, 47_517),
        ],
        |protocol| record::<4>(&sys, SimConfig::new(protocol).misses(10, 40).seed(5)),
    );
}

#[test]
fn severe_mesh_64_nodes_detailed_cpu() {
    let sys = nodes(64);
    check(
        "mesh8x8/64 severe",
        [
            (0x7e85_583e_07a5_e552, 33_807),
            (0x05a6_a2a6_95c0_7999, 84_651),
            (0x966f_25a9_efbd_af94, 23_676),
        ],
        |protocol| {
            let sim = SimConfig::new(protocol)
                .cpu(CpuModel::Detailed { max_outstanding: 4 })
                .toxics(severe())
                .topology(TopologySpec::Mesh2d {
                    cols: 8,
                    link_ns: 15,
                    hop_ns: 5,
                })
                .misses(20, 80)
                .seed(7);
            record::<1>(&sys, sim)
        },
    );
}
