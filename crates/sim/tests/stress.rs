//! Stress and conservation tests of the timing simulator.

use proptest::prelude::*;

use dsp_core::{Capacity, Indexing, PredictorConfig};
use dsp_sim::{CpuModel, ProtocolKind, SimConfig, System, TargetSystem};
use dsp_trace::{Workload, WorkloadSpec};
use dsp_types::SystemConfig;

fn spec(w: Workload) -> WorkloadSpec {
    WorkloadSpec::preset(w, &SystemConfig::isca03()).scaled(1.0 / 512.0)
}

fn run(protocol: ProtocolKind, cpu: CpuModel, seed: u64) -> dsp_sim::SimReport {
    let sys = SystemConfig::isca03();
    let sim = SimConfig::new(protocol).cpu(cpu).misses(20, 150).seed(seed);
    System::<4>::new(
        &sys,
        TargetSystem::isca03_default(),
        &spec(Workload::Apache),
        sim,
    )
    .run()
}

/// Every protocol × CPU-model combination completes exactly the
/// configured number of misses — conservation, no deadlock, no
/// double-completion. The 256-node cases fan requests and their
/// training events out over all four `DestSet` words, so the debug
/// build's wheel free-list and delivered-count assertions run at full
/// width.
#[test]
fn conservation_across_all_protocols() {
    let protocols = [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Multicast(PredictorConfig::group()),
        ProtocolKind::Multicast(PredictorConfig::always_minimal()),
        ProtocolKind::Multicast(PredictorConfig::always_broadcast()),
        ProtocolKind::Multicast(PredictorConfig::sticky_spatial(1)),
        ProtocolKind::DirectoryPredicted(PredictorConfig::owner()),
    ];
    for protocol in protocols {
        for cpu in [CpuModel::Simple, CpuModel::Detailed { max_outstanding: 4 }] {
            let label = protocol.label();
            let r = run(protocol, cpu, 7);
            assert_eq!(r.measured_misses, 150 * 16, "{label} / {cpu:?}");
            assert!(r.runtime_ns > 0, "{label} / {cpu:?}");
        }
    }
    let wide = SystemConfig::builder()
        .num_nodes(256)
        .build()
        .expect("valid");
    let spec = WorkloadSpec::preset(Workload::Oltp, &wide).scaled(1.0 / 256.0);
    for protocol in [
        ProtocolKind::Multicast(PredictorConfig::group()),
        ProtocolKind::Multicast(PredictorConfig::always_broadcast()),
        ProtocolKind::DirectoryPredicted(PredictorConfig::owner()),
    ] {
        let label = protocol.label();
        let sim = SimConfig::new(protocol).misses(10, 60).seed(7);
        let r = System::<4>::new(&wide, TargetSystem::isca03_default(), &spec, sim).run();
        assert_eq!(r.measured_misses, 60 * 256, "{label} / 256 nodes");
        assert!(r.runtime_ns > 0, "{label} / 256 nodes");
    }
}

/// Simulations are deterministic: identical config + seed => identical
/// report.
#[test]
fn simulation_is_deterministic() {
    let mk = || {
        run(
            ProtocolKind::Multicast(
                PredictorConfig::owner_group().indexing(Indexing::Macroblock { bytes: 1024 }),
            ),
            CpuModel::Detailed { max_outstanding: 4 },
            99,
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b);
}

/// Latency accounting is self-consistent: total latency >= misses ×
/// the cheapest possible service latency.
#[test]
fn latency_floor_holds() {
    let r = run(ProtocolKind::Snooping, CpuModel::Simple, 3);
    let target = TargetSystem::isca03_default();
    let floor = target.cache_direct_latency_ns() * r.measured_misses;
    assert!(
        r.total_miss_latency_ns >= floor,
        "{} < {floor}",
        r.total_miss_latency_ns
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chaos monkey: random predictors with arbitrary seeds never stall
    /// the protocol, and always finish with bounded retries (at most 2
    /// per miss thanks to the broadcast fallback).
    #[test]
    fn random_predictions_always_complete(seed in any::<u64>()) {
        let r = run(
            ProtocolKind::Multicast(PredictorConfig::random(seed)),
            CpuModel::Detailed { max_outstanding: 2 },
            seed ^ 0xf00d,
        );
        prop_assert_eq!(r.measured_misses, 150 * 16);
        prop_assert!(r.retries <= 2 * r.measured_misses);
    }

    /// Tiny predictor tables (heavy eviction pressure) and odd
    /// associativities still complete and stay between the endpoints on
    /// traffic.
    #[test]
    fn degenerate_tables_complete(entries_log2 in 3u32..10, ways in 1usize..4) {
        let entries = 1usize << entries_log2;
        let ways = ways.min(entries);
        let entries = entries - (entries % ways);
        let cfg = PredictorConfig::group()
            .indexing(Indexing::Macroblock { bytes: 1024 })
            .entries(Capacity::Finite { entries: entries.max(ways), ways });
        let r = run(ProtocolKind::Multicast(cfg), CpuModel::Simple, 5);
        prop_assert_eq!(r.measured_misses, 150 * 16);
    }
}
