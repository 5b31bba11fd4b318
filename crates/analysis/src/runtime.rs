//! Execution-driven runtime evaluation (Figures 7 and 8).

use serde::{Deserialize, Serialize};

use dsp_sim::{
    simulate_with_partition, CpuModel, ProtocolKind, SimConfig, SimReport, TargetSystem,
    TopologySpec, ToxicSpec, TracePartition,
};
use dsp_trace::WorkloadSpec;
use dsp_types::SystemConfig;

/// One protocol's runtime/traffic point, normalized the way the paper
/// plots Figures 7 and 8: runtime relative to the directory protocol
/// (= 100) and traffic per miss relative to broadcast snooping (= 100).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuntimePoint {
    /// Protocol/predictor label.
    pub label: String,
    /// Raw simulation report.
    pub report: SimReport,
    /// Runtime, directory = 100.
    pub normalized_runtime: f64,
    /// Traffic bytes per miss, snooping = 100.
    pub normalized_traffic: f64,
}

/// Runs the timing simulator across a set of protocols for one workload
/// and normalizes the results.
///
/// # Example
///
/// ```
/// use dsp_analysis::RuntimeEvaluator;
/// use dsp_core::PredictorConfig;
/// use dsp_sim::ProtocolKind;
/// use dsp_trace::{Workload, WorkloadSpec};
/// use dsp_types::SystemConfig;
///
/// let config = SystemConfig::isca03();
/// let spec = WorkloadSpec::preset(Workload::Apache, &config).scaled(1.0 / 256.0);
/// let points = RuntimeEvaluator::new(&config)
///     .misses(50, 200)
///     .run(&spec, &[ProtocolKind::Multicast(PredictorConfig::owner_group())]);
/// // points[0] = snooping, points[1] = directory, then the extras.
/// assert_eq!(points.len(), 3);
/// assert!((points[1].normalized_runtime - 100.0).abs() < 1e-9);
/// assert!((points[0].normalized_traffic - 100.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct RuntimeEvaluator {
    config: SystemConfig,
    target: TargetSystem,
    cpu: CpuModel,
    warmup: usize,
    measured: usize,
    seed: u64,
    runs: usize,
    toxics: ToxicSpec,
    topology: TopologySpec,
}

impl RuntimeEvaluator {
    /// Creates an evaluator with the paper's target system, the simple
    /// CPU model, and small default run lengths.
    pub fn new(config: &SystemConfig) -> Self {
        RuntimeEvaluator {
            config: *config,
            target: TargetSystem::isca03_default(),
            cpu: CpuModel::Simple,
            warmup: 200,
            measured: 1_000,
            seed: 1,
            runs: 1,
            toxics: ToxicSpec::none(),
            topology: TopologySpec::Crossbar,
        }
    }

    /// Selects the CPU model (Figure 7 uses `Simple`, Figure 8
    /// `Detailed`).
    #[must_use]
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Overrides the simulated machine (latencies, link bandwidth,
    /// cache geometry) — e.g. for bandwidth-constrained design points.
    #[must_use]
    pub fn target(mut self, target: TargetSystem) -> Self {
        self.target = target;
        self
    }

    /// Sets warmup/measured misses per node.
    #[must_use]
    pub fn misses(mut self, warmup: usize, measured: usize) -> Self {
        self.warmup = warmup;
        self.measured = measured;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Simulates each design point `runs` times with perturbed seeds and
    /// averages, following the paper's workload-variability methodology
    /// (Alameldeen et al.).
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Sets the interconnect fault-injection chain every simulated
    /// protocol (baselines included) runs under. Empty by default, which
    /// keeps the crossbar on its untouched fast path.
    #[must_use]
    pub fn toxics(mut self, toxics: ToxicSpec) -> Self {
        self.toxics = toxics;
        self
    }

    /// Selects the network shape (the paper's crossbar by default).
    #[must_use]
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Builds the per-run trace partitions every protocol of this
    /// evaluator replays: one per perturbed-seed repetition.
    ///
    /// The partition depends only on the workload, the seed, the node
    /// count, and the miss quota — not on the protocol — so [`run`]
    /// builds this set once and shares it across the baselines and
    /// every extra protocol. Sweep harnesses evaluating several
    /// protocol sets over one workload can build it themselves and call
    /// [`run_partitioned`] to also share it across cells.
    ///
    /// [`run`]: RuntimeEvaluator::run
    /// [`run_partitioned`]: RuntimeEvaluator::run_partitioned
    pub fn partitions(&self, spec: &WorkloadSpec) -> Vec<TracePartition> {
        (0..self.runs)
            .map(|r| {
                TracePartition::build(
                    spec,
                    self.seed + r as u64 * 7919,
                    self.config.num_nodes(),
                    self.warmup + self.measured,
                )
            })
            .collect()
    }

    fn simulate(
        &self,
        spec: &WorkloadSpec,
        protocol: ProtocolKind,
        partitions: &[TracePartition],
    ) -> SimReport {
        let mut total = SimReport::default();
        for (r, partition) in partitions.iter().enumerate() {
            let sim = SimConfig::new(protocol)
                .cpu(self.cpu)
                .misses(self.warmup, self.measured)
                .seed(self.seed + r as u64 * 7919)
                .toxics(self.toxics.clone())
                .topology(self.topology);
            let rep =
                simulate_with_partition(&self.config, self.target, spec, sim, partition.clone());
            total.runtime_ns += rep.runtime_ns;
            total.measured_misses += rep.measured_misses;
            total.instructions += rep.instructions;
            total.traffic.merge(&rep.traffic);
            total.indirections += rep.indirections;
            total.retries += rep.retries;
            total.broadcast_fallbacks += rep.broadcast_fallbacks;
            total.cache_to_cache += rep.cache_to_cache;
            total.total_miss_latency_ns += rep.total_miss_latency_ns;
            total.latency_histogram.merge(&rep.latency_histogram);
            total.class_counts.merge(&rep.class_counts);
        }
        total.runtime_ns /= self.runs as u64;
        total
    }

    /// Runs snooping, directory, and every protocol in `extra`,
    /// returning normalized points in that order.
    pub fn run(&self, spec: &WorkloadSpec, extra: &[ProtocolKind]) -> Vec<RuntimePoint> {
        self.run_partitioned(spec, extra, &self.partitions(spec))
    }

    /// [`run`](RuntimeEvaluator::run) over precomputed per-run trace
    /// partitions (from [`partitions`](RuntimeEvaluator::partitions),
    /// possibly shared with other evaluations of the same workload).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` does not hold exactly one partition per
    /// configured repetition.
    pub fn run_partitioned(
        &self,
        spec: &WorkloadSpec,
        extra: &[ProtocolKind],
        partitions: &[TracePartition],
    ) -> Vec<RuntimePoint> {
        assert_eq!(
            partitions.len(),
            self.runs,
            "need one trace partition per repetition"
        );
        let snoop = self.simulate(spec, ProtocolKind::Snooping, partitions);
        let dir = self.simulate(spec, ProtocolKind::Directory, partitions);
        let dir_runtime = dir.runtime_ns.max(1) as f64;
        let snoop_traffic = snoop.bytes_per_miss().max(1e-9);
        let mk = |label: String, report: SimReport| RuntimePoint {
            normalized_runtime: 100.0 * report.runtime_ns as f64 / dir_runtime,
            normalized_traffic: 100.0 * report.bytes_per_miss() / snoop_traffic,
            label,
            report,
        };
        let mut points = vec![
            mk(ProtocolKind::Snooping.label(), snoop),
            mk(ProtocolKind::Directory.label(), dir),
        ];
        for protocol in extra {
            let rep = self.simulate(spec, *protocol, partitions);
            points.push(mk(protocol.label(), rep));
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_core::{Indexing, PredictorConfig};
    use dsp_trace::Workload;

    fn spec(w: Workload) -> WorkloadSpec {
        WorkloadSpec::preset(w, &SystemConfig::isca03()).scaled(1.0 / 256.0)
    }

    fn eval() -> RuntimeEvaluator {
        RuntimeEvaluator::new(&SystemConfig::isca03())
            .misses(100, 400)
            .seed(5)
    }

    #[test]
    fn normalization_anchors() {
        let points = eval().run(&spec(Workload::Oltp), &[]);
        assert_eq!(points.len(), 2);
        assert!(
            (points[0].normalized_traffic - 100.0).abs() < 1e-9,
            "snooping traffic = 100"
        );
        assert!(
            (points[1].normalized_runtime - 100.0).abs() < 1e-9,
            "directory runtime = 100"
        );
    }

    #[test]
    fn snooping_outperforms_directory_on_oltp() {
        // Figure 7: high-miss-rate commercial workloads gain most.
        let points = eval().run(&spec(Workload::Oltp), &[]);
        let snoop = &points[0];
        assert!(
            snoop.normalized_runtime < 85.0,
            "snooping runtime {:.0} should be well under directory",
            snoop.normalized_runtime
        );
        // Directory uses roughly half of snooping's bandwidth.
        assert!(
            points[1].normalized_traffic < 75.0,
            "directory traffic {:.0}",
            points[1].normalized_traffic
        );
    }

    #[test]
    fn predictor_lands_between_endpoints() {
        let protocol = ProtocolKind::Multicast(
            PredictorConfig::owner_group().indexing(Indexing::Macroblock { bytes: 1024 }),
        );
        let points = eval().run(&spec(Workload::Oltp), &[protocol]);
        let (snoop, dir, pred) = (&points[0], &points[1], &points[2]);
        assert!(pred.normalized_traffic < snoop.normalized_traffic);
        assert!(pred.normalized_runtime < dir.normalized_runtime);
        assert!(pred.normalized_runtime >= snoop.normalized_runtime * 0.95);
        assert!(pred.report.measured_misses > 0);
        let _ = dir;
    }

    #[test]
    fn shared_partitions_match_fresh_run() {
        let e = eval().runs(2);
        let spec = spec(Workload::Oltp);
        let parts = e.partitions(&spec);
        assert_eq!(parts.len(), 2, "one partition per repetition");
        let fresh = e.run(&spec, &[]);
        let shared = e.run_partitioned(&spec, &[], &parts);
        assert_eq!(fresh, shared, "shared partitions must change nothing");
    }

    #[test]
    fn multiple_runs_average() {
        let e = eval().runs(2);
        let points = e.run(&spec(Workload::Apache), &[]);
        assert!(
            points[0].report.measured_misses > 400 * 16,
            "two runs accumulate misses"
        );
    }
}
