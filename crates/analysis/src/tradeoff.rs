//! Trace-driven latency/bandwidth tradeoff evaluation (Figures 5 and 6).
//!
//! Replays a miss trace against per-node destination-set predictors and
//! the multicast snooping message-accounting rules, producing one
//! `(request messages per miss, % indirections)` point per predictor
//! configuration — the two axes of the paper's Figures 5 and 6.
//!
//! Training fan-out is faithful to the hardware: a node's predictor
//! observes an external request **only if that node was in the
//! request's delivered destination set** (initial multicast or reissue),
//! and the requester trains from the data response's sender identity.
//! As in the timing simulator, deliveries of a request type that no
//! predictor observes (`DestSetPredictor::observes_other`) are skipped.
//!
//! The evaluator runs at the timing simulator's set width: machines of
//! at most 64 nodes replay on single-word `DestSet<1>` trackers and
//! predictors, larger ones on `DestSet<4>` (see [`SetWidth`]); the width
//! is invisible in the points. Each replayed record makes one tracker
//! probe.

use serde::{Deserialize, Serialize};

use dsp_coherence::{multicast, CoherenceTracker};
use dsp_core::{DestSetPredictor, PredictQuery, PredictorConfig, TrainEvent};
use dsp_sim::SetWidth;
use dsp_trace::TraceRecord;
use dsp_types::{ReqType, SystemConfig};

/// One point in the latency/bandwidth plane.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Configuration label (e.g. `"Group, 1024B macroblock, 8192 entries"`).
    pub label: String,
    /// Measured misses.
    pub misses: u64,
    /// Endpoint deliveries of request-class messages.
    pub request_messages: u64,
    /// Misses that indirected (3-hop for the directory baseline;
    /// reissued for multicast).
    pub indirections: u64,
    /// Misses whose first destination set was insufficient.
    pub insufficient_first: u64,
    /// Cache-to-cache misses in the window (workload property).
    pub cache_to_cache: u64,
    /// Total predictor storage across all nodes, in bits.
    pub predictor_storage_bits: u64,
}

impl TradeoffPoint {
    /// The x-axis of Figures 5/6.
    pub fn request_messages_per_miss(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.request_messages as f64 / self.misses as f64
        }
    }

    /// The y-axis of Figures 5/6.
    pub fn indirection_pct(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            100.0 * self.indirections as f64 / self.misses as f64
        }
    }
}

/// Trace-driven evaluator: replays misses through predictors and the
/// protocol accounting.
///
/// # Example
///
/// ```
/// use dsp_analysis::TradeoffEvaluator;
/// use dsp_core::PredictorConfig;
/// use dsp_trace::{Workload, WorkloadSpec};
/// use dsp_types::SystemConfig;
///
/// let config = SystemConfig::isca03();
/// let spec = WorkloadSpec::preset(Workload::Oltp, &config).scaled(1.0 / 256.0);
/// let trace: Vec<_> = spec.generator(1).take(10_000).collect();
/// let eval = TradeoffEvaluator::new(&config).warmup(2_000);
/// let point = eval.run(trace.iter().copied(), &PredictorConfig::owner());
/// assert!(point.request_messages_per_miss() > 1.0);
/// assert!(point.indirection_pct() <= 100.0);
/// ```
#[derive(Clone, Debug)]
pub struct TradeoffEvaluator {
    config: SystemConfig,
    warmup: usize,
}

impl TradeoffEvaluator {
    /// Creates an evaluator with no warmup.
    pub fn new(config: &SystemConfig) -> Self {
        TradeoffEvaluator {
            config: *config,
            warmup: 0,
        }
    }

    /// Sets how many leading misses train without being measured (the
    /// paper warms predictors with its first million misses).
    #[must_use]
    pub fn warmup(mut self, misses: usize) -> Self {
        self.warmup = misses;
        self
    }

    /// Evaluates one predictor configuration over `trace`.
    ///
    /// Runs at the destination-set width [`SetWidth`] picks for the
    /// machine (one word up to 64 nodes, four beyond); the point is the
    /// same at either width.
    pub fn run<I>(&self, trace: I, predictor: &PredictorConfig) -> TradeoffPoint
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        match SetWidth.words(self.config.num_nodes()) {
            1 => self.run_width::<1, _>(trace, predictor),
            _ => self.run_width::<4, _>(trace, predictor),
        }
    }

    /// Evaluates the broadcast snooping and directory protocol
    /// endpoints over `trace`, returning `(snooping, directory)`.
    pub fn run_baselines<I>(&self, trace: I) -> (TradeoffPoint, TradeoffPoint)
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        match SetWidth.words(self.config.num_nodes()) {
            1 => self.run_baselines_width::<1, _>(trace),
            _ => self.run_baselines_width::<4, _>(trace),
        }
    }

    /// [`TradeoffEvaluator::run`] at set width `W`.
    ///
    /// Each record probes the tracker once: `access` returns the miss
    /// classification of the pre-state and applies the transition, and
    /// the next state never depends on the prediction.
    fn run_width<const W: usize, I>(&self, trace: I, predictor: &PredictorConfig) -> TradeoffPoint
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let predictors = (0..self.config.num_nodes())
            .map(|_| predictor.build_width::<W>(&self.config))
            .collect();
        self.replay(trace, predictor.label(), predictors)
    }

    /// Replays `trace` through one predictor per node, labeling the
    /// point `label`.
    fn replay<const W: usize, I>(
        &self,
        trace: I,
        label: String,
        mut predictors: Vec<Box<dyn DestSetPredictor<W>>>,
    ) -> TradeoffPoint
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        // Deliveries of a request type no predictor observes would train
        // nothing (the `observes_other` contract), so they are skipped.
        let observes_other = [ReqType::GetShared, ReqType::GetExclusive]
            .map(|req| predictors.iter().any(|p| p.observes_other(req)));
        let mut tracker = CoherenceTracker::<W>::new(&self.config);
        let mut point = TradeoffPoint {
            label,
            misses: 0,
            request_messages: 0,
            indirections: 0,
            insufficient_first: 0,
            cache_to_cache: 0,
            predictor_storage_bits: 0,
        };
        for (i, rec) in trace.into_iter().enumerate() {
            let info = tracker.access(rec.requester, rec.request(), rec.block());
            let query = PredictQuery {
                block: rec.block(),
                pc: rec.pc,
                requester: rec.requester,
                req: rec.request(),
                minimal: info.minimal_set(),
            };
            let predicted = predictors[rec.requester.index()].predict(&query);
            let outcome = multicast::evaluate(&info, predicted);
            let measured = i >= self.warmup;
            if measured {
                point.misses += 1;
                point.request_messages += outcome.request_messages;
                point.indirections += u64::from(outcome.indirection);
                point.insufficient_first += u64::from(!outcome.sufficient_first);
                point.cache_to_cache += u64::from(info.is_cache_to_cache());
            }
            // Deliveries: the initial multicast reaches the predicted ∪
            // minimal set; an insufficient request is reissued by the
            // home to the corrected set.
            let initial = (predicted | info.minimal_set()).without(rec.requester);
            let mut delivered = initial;
            if !outcome.sufficient_first {
                let corrected = info.sufficient_set();
                delivered |= corrected.without(info.home);
                // The requester observes the reissue's corrected set.
                predictors[rec.requester.index()].train(&TrainEvent::Reissue {
                    block: rec.block(),
                    corrected,
                });
            }
            if observes_other[usize::from(rec.request().is_exclusive())] {
                let external = TrainEvent::OtherRequest {
                    block: rec.block(),
                    requester: rec.requester,
                    req: rec.request(),
                };
                for node in delivered.without(rec.requester) {
                    predictors[node.index()].train(&external);
                }
            }
            predictors[rec.requester.index()].train(&TrainEvent::DataResponse {
                block: rec.block(),
                pc: rec.pc,
                responder: info.owner_before,
                req: rec.request(),
                minimal_sufficient: info.is_sufficient(info.minimal_set()),
            });
        }
        point.predictor_storage_bits = predictors.iter().map(|p| p.storage_bits()).sum();
        point
    }

    /// [`TradeoffEvaluator::run_baselines`] at set width `W`.
    fn run_baselines_width<const W: usize, I>(&self, trace: I) -> (TradeoffPoint, TradeoffPoint)
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let n = self.config.num_nodes();
        let mut tracker = CoherenceTracker::<W>::new(&self.config);
        let mut snoop = TradeoffPoint {
            label: "Broadcast Snooping".to_string(),
            misses: 0,
            request_messages: 0,
            indirections: 0,
            insufficient_first: 0,
            cache_to_cache: 0,
            predictor_storage_bits: 0,
        };
        let mut dir = TradeoffPoint {
            label: "Directory".to_string(),
            ..snoop.clone()
        };
        for (i, rec) in trace.into_iter().enumerate() {
            let info = tracker.access(rec.requester, rec.request(), rec.block());
            if i < self.warmup {
                continue;
            }
            let s = multicast::snooping(&info, n);
            let d = multicast::directory(&info);
            snoop.misses += 1;
            snoop.request_messages += s.request_messages;
            snoop.indirections += u64::from(s.indirection);
            snoop.cache_to_cache += u64::from(info.is_cache_to_cache());
            dir.misses += 1;
            dir.request_messages += d.request_messages;
            dir.indirections += u64::from(d.indirection);
            dir.cache_to_cache += u64::from(info.is_cache_to_cache());
        }
        (snoop, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_core::{Capacity, Indexing};
    use dsp_trace::{Workload, WorkloadSpec};

    fn trace(w: Workload, len: usize) -> Vec<TraceRecord> {
        let config = SystemConfig::isca03();
        WorkloadSpec::preset(w, &config)
            .scaled(1.0 / 128.0)
            .generator(3)
            .take(len)
            .collect()
    }

    fn eval() -> TradeoffEvaluator {
        TradeoffEvaluator::new(&SystemConfig::isca03()).warmup(5_000)
    }

    #[test]
    fn snooping_endpoint_matches_broadcast_predictor() {
        let t = trace(Workload::Oltp, 20_000);
        let (snoop, _) = eval().run_baselines(t.iter().copied());
        let broadcast = eval().run(t.iter().copied(), &PredictorConfig::always_broadcast());
        assert_eq!(snoop.request_messages, broadcast.request_messages);
        assert_eq!(broadcast.indirections, 0);
        assert_eq!(snoop.indirections, 0);
        assert!((snoop.request_messages_per_miss() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn directory_endpoint_bandwidth_is_multicast_floor() {
        // A perfect predictor would match directory bandwidth; the
        // minimal predictor pays reissues, so it uses MORE messages but
        // the directory's count stays the floor for sufficient sets.
        let t = trace(Workload::Oltp, 20_000);
        let (_, dir) = eval().run_baselines(t.iter().copied());
        let minimal = eval().run(t.iter().copied(), &PredictorConfig::always_minimal());
        assert!(minimal.request_messages >= dir.request_messages);
        // The minimal set {requester, home} already covers misses whose
        // owner is the home node's own cache, so the minimal multicast
        // indirects at most as often as the directory — and nearly so.
        assert!(minimal.indirections <= dir.indirections);
        assert!(
            minimal.indirections as f64 > 0.9 * dir.indirections as f64,
            "minimal multicast should retry on almost every directory indirection: {} vs {}",
            minimal.indirections,
            dir.indirections
        );
    }

    #[test]
    fn predictors_dominate_the_endpoints() {
        // Every real predictor sits inside the rectangle spanned by the
        // two endpoints: fewer messages than snooping, fewer
        // indirections than the directory.
        let t = trace(Workload::Oltp, 30_000);
        let (snoop, dir) = eval().run_baselines(t.iter().copied());
        for config in [
            PredictorConfig::owner().indexing(Indexing::Macroblock { bytes: 1024 }),
            PredictorConfig::broadcast_if_shared().indexing(Indexing::Macroblock { bytes: 1024 }),
            PredictorConfig::group().indexing(Indexing::Macroblock { bytes: 1024 }),
            PredictorConfig::owner_group().indexing(Indexing::Macroblock { bytes: 1024 }),
        ] {
            let p = eval().run(t.iter().copied(), &config);
            assert!(
                p.request_messages < snoop.request_messages,
                "{}: {} vs snooping {}",
                p.label,
                p.request_messages,
                snoop.request_messages
            );
            assert!(
                p.indirections < dir.indirections,
                "{}: {} vs directory {}",
                p.label,
                p.indirections,
                dir.indirections
            );
        }
    }

    #[test]
    fn owner_uses_least_bandwidth_bis_fewest_indirections() {
        let t = trace(Workload::Apache, 30_000);
        let mb = Indexing::Macroblock { bytes: 1024 };
        let owner = eval().run(t.iter().copied(), &PredictorConfig::owner().indexing(mb));
        let bis = eval().run(
            t.iter().copied(),
            &PredictorConfig::broadcast_if_shared().indexing(mb),
        );
        let group = eval().run(t.iter().copied(), &PredictorConfig::group().indexing(mb));
        assert!(owner.request_messages <= group.request_messages);
        assert!(group.request_messages <= bis.request_messages);
        assert!(bis.indirections <= group.indirections);
        assert!(group.indirections <= owner.indirections);
    }

    #[test]
    fn broadcast_if_shared_keeps_indirections_low() {
        // Paper: "keeping indirections to less than 6% of misses for
        // all of our benchmarks".
        for w in [Workload::Apache, Workload::Oltp, Workload::Slashcode] {
            let t = trace(w, 30_000);
            let p = eval().run(
                t.iter().copied(),
                &PredictorConfig::broadcast_if_shared()
                    .indexing(Indexing::Macroblock { bytes: 1024 }),
            );
            assert!(
                p.indirection_pct() < 10.0,
                "{w:?}: {:.1}%",
                p.indirection_pct()
            );
        }
    }

    #[test]
    fn storage_accounting_reported() {
        let t = trace(Workload::Oltp, 5_000);
        let p = eval().run(
            t.iter().copied(),
            &PredictorConfig::group().entries(Capacity::ISCA03),
        );
        // 16 nodes × 8192 entries × (37 payload + tag) bits.
        assert!(p.predictor_storage_bits > 16 * 8192 * 37);
    }

    #[test]
    fn warmup_excludes_leading_misses() {
        let t = trace(Workload::Oltp, 10_000);
        let all = TradeoffEvaluator::new(&SystemConfig::isca03())
            .run(t.iter().copied(), &PredictorConfig::owner());
        let warm = TradeoffEvaluator::new(&SystemConfig::isca03())
            .warmup(4_000)
            .run(t.iter().copied(), &PredictorConfig::owner());
        assert_eq!(all.misses, 10_000);
        assert_eq!(warm.misses, 6_000);
    }

    /// Delegates to a policy but claims to observe every external
    /// request, so the replay delivers every `OtherRequest` to it.
    #[derive(Debug)]
    struct ObservesAll(Box<dyn DestSetPredictor<1>>);

    impl DestSetPredictor<1> for ObservesAll {
        fn predict(&mut self, query: &PredictQuery<1>) -> dsp_types::DestSet<1> {
            self.0.predict(query)
        }

        fn train(&mut self, event: &TrainEvent<1>) {
            self.0.train(event);
        }

        fn name(&self) -> String {
            self.0.name()
        }

        fn entry_payload_bits(&self) -> u64 {
            self.0.entry_payload_bits()
        }

        fn storage_bits(&self) -> u64 {
            self.0.storage_bits()
        }
    }

    /// Skipping the deliveries a policy does not observe gives the same
    /// point as delivering all of them.
    #[test]
    fn skipping_unobserved_deliveries_keeps_the_point() {
        let config = SystemConfig::isca03();
        let t = trace(Workload::Oltp, 20_000);
        let eval = eval();
        let mut skipped_some = false;
        for predictor in [
            PredictorConfig::owner().indexing(Indexing::Macroblock { bytes: 1024 }),
            PredictorConfig::broadcast_if_shared(),
            PredictorConfig::group().indexing(Indexing::ProgramCounter),
            PredictorConfig::owner_group(),
            PredictorConfig::two_level_owner(),
        ] {
            let built: Vec<_> = (0..config.num_nodes())
                .map(|_| predictor.build_width::<1>(&config))
                .collect();
            skipped_some |= !built[0].observes_other(ReqType::GetShared);
            let wrapped = (0..config.num_nodes())
                .map(|_| {
                    Box::new(ObservesAll(predictor.build_width::<1>(&config)))
                        as Box<dyn DestSetPredictor<1>>
                })
                .collect();
            let label = predictor.label();
            assert_eq!(
                eval.replay(t.iter().copied(), label.clone(), built),
                eval.replay(t.iter().copied(), label, wrapped),
                "{}",
                predictor.label()
            );
        }
        assert!(skipped_some, "no policy skips any delivery");
    }

    /// The one- and four-word bodies return identical points, storage
    /// included, for every policy and both baselines: the replay twin of
    /// the timing simulator's width-equivalence suite.
    #[test]
    fn widths_agree_for_every_policy() {
        let mb = Indexing::Macroblock { bytes: 1024 };
        let configs = [
            PredictorConfig::owner().indexing(mb),
            PredictorConfig::broadcast_if_shared().indexing(mb),
            PredictorConfig::group().indexing(mb),
            PredictorConfig::owner_group().indexing(mb),
            PredictorConfig::two_level_owner(),
            PredictorConfig::sticky_spatial(1),
            PredictorConfig::random(7),
            PredictorConfig::always_broadcast(),
            PredictorConfig::always_minimal(),
        ];
        for nodes in [4, 16, 64] {
            let config = SystemConfig::builder()
                .num_nodes(nodes)
                .build()
                .expect("valid node count");
            let t: Vec<TraceRecord> = WorkloadSpec::preset(Workload::Oltp, &config)
                .scaled(1.0 / 128.0)
                .generator(3)
                .take(8_000)
                .collect();
            let eval = TradeoffEvaluator::new(&config).warmup(2_000);
            for predictor in &configs {
                let narrow = eval.run_width::<1, _>(t.iter().copied(), predictor);
                let wide = eval.run_width::<4, _>(t.iter().copied(), predictor);
                assert_eq!(narrow, wide, "{}/{nodes} nodes", predictor.label());
                assert_eq!(narrow, eval.run(t.iter().copied(), predictor));
            }
            let narrow = eval.run_baselines_width::<1, _>(t.iter().copied());
            let wide = eval.run_baselines_width::<4, _>(t.iter().copied());
            assert_eq!(narrow, wide, "baselines/{nodes} nodes");
            assert_eq!(narrow, eval.run_baselines(t.iter().copied()));
        }
    }
}
