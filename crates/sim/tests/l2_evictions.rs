//! Pins the L2 eviction path of the timing simulator.
//!
//! At the paper's 4 MB L2 the standard runs evict a few hundred lines
//! out of millions of misses, and most quick runs evict none, so the
//! golden outputs barely reach this path. Here each node's L2 is shrunk
//! to 16 kB (64 sets × 4 ways) and the workload runs at full footprint,
//! so capacity evictions, and the writebacks of the dirty victims among
//! them, happen in every case.
//!
//! Every case's [`SimReport`] is folded into an FNV-1a digest recorded
//! with the seed cache model, which kept a MOSI state per line. The
//! cases cover the four protocol families, both CPU models, and both
//! set widths (16 nodes run `System::<1>`, 128 nodes `System::<4>`).
//! Any change to which way an L2 fill evicts, or to when the tracker
//! sees an eviction, changes the digests.

use dsp_cache::CacheConfig;
use dsp_coherence::LatencyClass;
use dsp_core::PredictorConfig;
use dsp_sim::{CpuModel, ProtocolKind, SimConfig, SimReport, System, TargetSystem};
use dsp_trace::{Workload, WorkloadSpec};
use dsp_types::{MessageClass, SystemConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `words`: stable across Rust
/// releases, unlike `DefaultHasher`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Every counter of `report`, in a fixed order.
fn digest(report: &SimReport) -> u64 {
    let mut words = vec![
        report.runtime_ns,
        report.measured_misses,
        report.instructions,
        report.indirections,
        report.retries,
        report.broadcast_fallbacks,
        report.cache_to_cache,
        report.total_miss_latency_ns,
    ];
    for class in MessageClass::ALL {
        let t = report.traffic.class(class);
        words.extend([t.messages, t.deliveries, t.bytes]);
    }
    words.extend((0..16).map(|i| report.latency_histogram.bucket(i)));
    words.extend(
        [
            LatencyClass::Memory,
            LatencyClass::CacheDirect,
            LatencyClass::CacheIndirect,
            LatencyClass::MemoryIndirect,
        ]
        .map(|class| report.class_counts.get(class)),
    );
    fnv(words)
}

fn run<const W: usize>(nodes: usize, protocol: ProtocolKind, cpu: CpuModel) -> SimReport {
    let sys = SystemConfig::builder()
        .num_nodes(nodes)
        .build()
        .expect("valid node count");
    let spec = WorkloadSpec::preset(Workload::Oltp, &sys);
    let target = TargetSystem {
        l2: CacheConfig::new(16 << 10, 4, 64),
        ..TargetSystem::isca03_default()
    };
    let sim = SimConfig::new(protocol).cpu(cpu).misses(40, 160).seed(11);
    System::<W>::new(&sys, target, &spec, sim).run()
}

/// The four protocol families, each under both CPU models.
fn cases() -> Vec<(ProtocolKind, CpuModel)> {
    let protocols = [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Multicast(PredictorConfig::group()),
        ProtocolKind::DirectoryPredicted(PredictorConfig::owner()),
    ];
    let cpus = [CpuModel::Simple, CpuModel::Detailed { max_outstanding: 4 }];
    protocols
        .into_iter()
        .flat_map(|p| cpus.map(move |cpu| (p, cpu)))
        .collect()
}

/// Runs every case and checks its digest and its writeback traffic,
/// listing all mismatches at once.
fn check(nodes: usize, expected: [u64; 8], run: impl Fn(ProtocolKind, CpuModel) -> SimReport) {
    let mut failures = Vec::new();
    for ((protocol, cpu), want) in cases().into_iter().zip(expected) {
        let report = run(protocol, cpu);
        let label = format!("{nodes} nodes / {} / {cpu:?}", protocol.label());
        assert!(
            report.traffic.class(MessageClass::Writeback).messages > 0,
            "{label}: the tiny L2 wrote nothing back"
        );
        let got = digest(&report);
        if got != want {
            failures.push(format!(
                "{label}: digest {got:#018x}, expected {want:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "L2 eviction path changed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn sixteen_nodes() {
    check(
        16,
        [
            0xd5a0_c790_0003_c452,
            0xf4ea_ccdf_3f06_13d0,
            0x4ac6_2a15_6220_da22,
            0xa684_9341_59df_4af6,
            0xde10_e124_eb78_50fb,
            0xa296_f299_b070_809e,
            0x6b29_a6df_7a90_7ac4,
            0x3249_9cdc_9155_a68f,
        ],
        |p, cpu| run::<1>(16, p, cpu),
    );
}

#[test]
fn one_hundred_twenty_eight_nodes() {
    check(
        128,
        [
            0x3841_f50d_e674_ecb4,
            0x9163_a040_21dc_15d2,
            0x1d1d_5331_5722_a240,
            0xf7ac_0cdf_6f1d_f9db,
            0xf93d_de91_ec58_4cff,
            0x1b6e_e005_71f4_aaae,
            0x69f6_6f2b_ba21_82b5,
            0xa2fe_2142_6f85_384f,
        ],
        |p, cpu| run::<4>(128, p, cpu),
    );
}
