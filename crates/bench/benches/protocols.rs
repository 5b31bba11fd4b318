//! End-to-end timing-simulator throughput per protocol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dsp_core::{Indexing, PredictorConfig};
use dsp_sim::{ProtocolKind, SimConfig, System, TargetSystem};
use dsp_trace::{Workload, WorkloadSpec};
use dsp_types::SystemConfig;

fn bench_protocols(c: &mut Criterion) {
    let sys = SystemConfig::isca03();
    let spec = WorkloadSpec::preset(Workload::Oltp, &sys).scaled(1.0 / 64.0);
    let misses_per_node = 500usize;
    let protocols = [
        ("snooping", ProtocolKind::Snooping),
        ("directory", ProtocolKind::Directory),
        (
            "multicast-owner-group",
            ProtocolKind::Multicast(
                PredictorConfig::owner_group().indexing(Indexing::Macroblock { bytes: 1024 }),
            ),
        ),
        (
            "multicast-minimal",
            ProtocolKind::Multicast(PredictorConfig::always_minimal()),
        ),
    ];
    let mut group = c.benchmark_group("protocol_sim");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.throughput(Throughput::Elements((misses_per_node * 16) as u64));
    for (name, protocol) in protocols {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let sim = SimConfig::new(protocol).misses(0, misses_per_node).seed(11);
                let report =
                    System::<4>::new(&sys, TargetSystem::isca03_default(), &spec, sim).run();
                std::hint::black_box(report.runtime_ns)
            })
        });
    }
    group.finish();
}

fn bench_crossbar(c: &mut Criterion) {
    use dsp_interconnect::{Arrivals, Crossbar, InterconnectConfig, Message};
    use dsp_types::{DestSet, MessageClass, NodeId};
    let mut group = c.benchmark_group("crossbar");
    group.throughput(Throughput::Elements(1));
    group.bench_function("unicast_send", |b| {
        let mut xbar = Crossbar::new(InterconnectConfig::isca03(), 16);
        let mut arrivals = Arrivals::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            let msg: Message = Message {
                src: NodeId::new((t % 16) as usize),
                dests: DestSet::single(NodeId::new(((t + 7) % 16) as usize)),
                class: MessageClass::DataResponse,
            };
            let order = xbar.send_into(t, &msg, &mut arrivals);
            std::hint::black_box((order, arrivals.len()))
        })
    });
    group.bench_function("broadcast_send", |b| {
        let mut xbar = Crossbar::new(InterconnectConfig::isca03(), 16);
        let mut arrivals = Arrivals::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            let msg: Message = Message {
                src: NodeId::new((t % 16) as usize),
                dests: DestSet::broadcast(16),
                class: MessageClass::Request,
            };
            let order = xbar.send_into(t, &msg, &mut arrivals);
            std::hint::black_box((order, arrivals.len()))
        })
    });
    group.finish();
}

/// Steady-state miss-classification throughput of the open-addressing
/// tracker vs the seed HashMap-backed reference, on a warmed OLTP
/// access stream.
fn bench_tracker(c: &mut Criterion) {
    use dsp_bench::experiments::SEED;
    use dsp_coherence::{CoherenceTracker, ReferenceTracker};
    use dsp_trace::TraceRecord;

    let sys = SystemConfig::isca03();
    let spec = WorkloadSpec::preset(Workload::Oltp, &sys).scaled(1.0 / 64.0);
    let accesses: Vec<TraceRecord> = spec.generator(SEED).take(25_000).collect();
    let mut group = c.benchmark_group("tracker_access");
    group.throughput(Throughput::Elements(accesses.len() as u64));
    group.bench_function("block_state_table", |b| {
        let mut t: CoherenceTracker = CoherenceTracker::new(&sys);
        for rec in &accesses {
            t.access(rec.requester, rec.request(), rec.block());
        }
        b.iter(|| {
            let mut acc = 0u64;
            for rec in &accesses {
                let info = t.access(rec.requester, rec.request(), rec.block());
                acc = acc.wrapping_add(info.sharers_before.bits());
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("hashmap_reference", |b| {
        let mut t: ReferenceTracker = ReferenceTracker::new(&sys);
        for rec in &accesses {
            t.access(rec.requester, rec.request(), rec.block());
        }
        b.iter(|| {
            let mut acc = 0u64;
            for rec in &accesses {
                let info = t.access(rec.requester, rec.request(), rec.block());
                acc = acc.wrapping_add(info.sharers_before.bits());
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_protocols, bench_crossbar, bench_tracker);
criterion_main!(benches);
