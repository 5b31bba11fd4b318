//! Property tests pinning the single-word set width to the four-word
//! one.
//!
//! Machines of at most 64 nodes run `System::<1>` (one-word
//! `DestSet`s); `System::<4>` covers up to 256 nodes. The width is a
//! pure performance representation, so these tests simulate the same
//! configuration at both widths and require identical [`SimReport`]s,
//! across protocols, predictor policies, system sizes from 4 to 64
//! nodes, and both CPU models.

use proptest::prelude::*;

use dsp_core::{Capacity, Indexing, PredictorConfig};
use dsp_sim::{CpuModel, ProtocolKind, SimConfig, SimReport, System, TargetSystem};
use dsp_trace::{Workload, WorkloadSpec};
use dsp_types::SystemConfig;

/// Runs one configuration at width `W`.
fn run<const W: usize>(
    nodes: usize,
    protocol: ProtocolKind,
    cpu: CpuModel,
    seed: u64,
    measured: usize,
) -> SimReport {
    let sys = SystemConfig::builder()
        .num_nodes(nodes)
        .build()
        .expect("valid node count");
    let spec = WorkloadSpec::preset(Workload::Apache, &sys).scaled(1.0 / 512.0);
    let sim = SimConfig::new(protocol)
        .cpu(cpu)
        .misses(5, measured)
        .seed(seed);
    System::<W>::new(&sys, TargetSystem::isca03_default(), &spec, sim).run()
}

/// Asserts the one- and four-word systems report identically for one
/// configuration.
fn assert_widths_agree(
    nodes: usize,
    protocol: ProtocolKind,
    cpu: CpuModel,
    seed: u64,
    measured: usize,
) {
    let narrow = run::<1>(nodes, protocol, cpu, seed, measured);
    let wide = run::<4>(nodes, protocol, cpu, seed, measured);
    assert_eq!(
        narrow,
        wide,
        "{}/{nodes} nodes/{cpu:?}: reports diverged between widths",
        protocol.label()
    );
}

fn protocols() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Snooping),
        Just(ProtocolKind::Directory),
        Just(ProtocolKind::Multicast(PredictorConfig::group())),
        Just(ProtocolKind::Multicast(PredictorConfig::owner_group())),
        Just(ProtocolKind::Multicast(PredictorConfig::always_minimal())),
        Just(ProtocolKind::Multicast(PredictorConfig::always_broadcast())),
        Just(ProtocolKind::Multicast(PredictorConfig::sticky_spatial(1))),
        Just(ProtocolKind::DirectoryPredicted(PredictorConfig::owner())),
    ]
}

fn cpus() -> impl Strategy<Value = CpuModel> {
    prop_oneof![
        Just(CpuModel::Simple),
        Just(CpuModel::Detailed { max_outstanding: 4 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every system that fits one word reports identically at both
    /// widths.
    #[test]
    fn narrow_and_wide_reports_agree(
        protocol in protocols(),
        cpu in cpus(),
        nodes in prop_oneof![Just(4usize), Just(16), Just(64)],
        seed in 0u64..1_000,
        measured in 10usize..40,
    ) {
        assert_widths_agree(nodes, protocol, cpu, seed, measured);
    }
}

/// Deterministic paper-scale spot check kept out of proptest so a
/// regression names itself without shrinking: the Figure 7/8 protocol
/// set (both baselines plus multicast snooping with the four standout
/// predictors) on the ISCA-03 16-node target, under both CPU models.
#[test]
fn figure_protocols_agree_at_paper_scale() {
    let mb = Indexing::Macroblock { bytes: 1024 };
    let mut protocols = vec![ProtocolKind::Snooping, ProtocolKind::Directory];
    protocols.extend(
        [
            PredictorConfig::owner(),
            PredictorConfig::broadcast_if_shared(),
            PredictorConfig::group(),
            PredictorConfig::owner_group(),
        ]
        .map(|p| ProtocolKind::Multicast(p.indexing(mb).entries(Capacity::ISCA03))),
    );
    for protocol in protocols {
        for cpu in [CpuModel::Simple, CpuModel::Detailed { max_outstanding: 4 }] {
            assert_widths_agree(16, protocol, cpu, 42, 60);
        }
    }
}
