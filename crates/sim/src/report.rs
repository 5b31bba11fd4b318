//! Simulation results.

use serde::{Deserialize, Serialize};

use dsp_coherence::LatencyClass;
use dsp_interconnect::TrafficStats;

/// A log₂-bucketed histogram of miss latencies in nanoseconds.
///
/// Bucket `i` counts latencies in `[2^i, 2^(i+1))` ns; bucket 0 absorbs
/// sub-nanosecond values and the last bucket absorbs everything ≥ 2^15
/// ns. Uncontended misses land in buckets 6–7 (64–255 ns, covering the
/// 112/180/242 ns protocol paths); higher buckets indicate queuing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; 16],
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(15);
        self.buckets[bucket] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Samples in bucket `i` (latencies in `[2^i, 2^(i+1))` ns).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Upper-bound estimate of the p-th percentile latency (the upper
    /// edge of the bucket containing it), `p` in 0..=100; 0 for an empty
    /// histogram. p = 0 reads the bucket of the smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside 0..=100 (NaN included).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // At least one sample, so the target never reads an empty bucket.
        let target = ((total as f64 * (p / 100.0)).ceil() as u64).max(1);
        let mut seen = 0;
        let bucket = self
            .buckets
            .iter()
            .position(|&b| {
                seen += b;
                seen >= target
            })
            .expect("the target is at most the sample count");
        1 << (bucket + 1)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Per-latency-class miss counts (memory / direct / indirect paths).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    counts: [u64; 4],
}

impl ClassCounts {
    fn index(class: LatencyClass) -> usize {
        match class {
            LatencyClass::Memory => 0,
            LatencyClass::CacheDirect => 1,
            LatencyClass::CacheIndirect => 2,
            LatencyClass::MemoryIndirect => 3,
        }
    }

    /// Increments the count of `class`.
    pub fn record(&mut self, class: LatencyClass) {
        self.counts[Self::index(class)] += 1;
    }

    /// Count of misses serviced in `class`.
    pub fn get(&self, class: LatencyClass) -> u64 {
        self.counts[Self::index(class)]
    }

    /// Total misses recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another counter block into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// The measured outcome of one timing-simulation run.
///
/// All counters cover only the *measurement window* (after per-node
/// warmup); the runtime is the wall-clock span of that window in
/// simulated nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated nanoseconds from the end of warmup to completion.
    pub runtime_ns: u64,
    /// Misses completed in the measurement window.
    pub measured_misses: u64,
    /// Instructions executed in the measurement window (computation
    /// gaps between misses).
    pub instructions: u64,
    /// Endpoint traffic attributed to measured misses.
    pub traffic: TrafficStats,
    /// Misses that suffered an indirection (3-hop directory transfer or
    /// multicast reissue).
    pub indirections: u64,
    /// Multicast reissues (attempts beyond the first); 0 for the base
    /// protocols.
    pub retries: u64,
    /// Misses that fell back to the guaranteed broadcast (3rd attempt).
    pub broadcast_fallbacks: u64,
    /// Misses serviced by another cache (data supplied cache-to-cache).
    pub cache_to_cache: u64,
    /// Sum of individual miss latencies (ns) for averaging.
    pub total_miss_latency_ns: u64,
    /// Distribution of measured miss latencies.
    pub latency_histogram: LatencyHistogram,
    /// Measured misses by service path (memory / direct / indirect).
    pub class_counts: ClassCounts,
}

impl SimReport {
    /// Mean latency of measured misses in ns.
    pub fn avg_miss_latency_ns(&self) -> f64 {
        if self.measured_misses == 0 {
            0.0
        } else {
            self.total_miss_latency_ns as f64 / self.measured_misses as f64
        }
    }

    /// Endpoint traffic bytes per measured miss (the x-axis of the
    /// paper's Figures 7 and 8 before normalization).
    pub fn bytes_per_miss(&self) -> f64 {
        if self.measured_misses == 0 {
            0.0
        } else {
            self.traffic.total_bytes() as f64 / self.measured_misses as f64
        }
    }

    /// Request-class message deliveries per measured miss (the x-axis of
    /// Figures 5 and 6).
    pub fn request_messages_per_miss(&self) -> f64 {
        if self.measured_misses == 0 {
            0.0
        } else {
            self.traffic.request_deliveries() as f64 / self.measured_misses as f64
        }
    }

    /// Fraction of measured misses that indirected, as a percentage.
    pub fn indirection_pct(&self) -> f64 {
        if self.measured_misses == 0 {
            0.0
        } else {
            100.0 * self.indirections as f64 / self.measured_misses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_types::MessageClass;

    #[test]
    fn ratios_guard_against_zero_misses() {
        let r = SimReport::default();
        assert_eq!(r.avg_miss_latency_ns(), 0.0);
        assert_eq!(r.bytes_per_miss(), 0.0);
        assert_eq!(r.request_messages_per_miss(), 0.0);
        assert_eq!(r.indirection_pct(), 0.0);
    }

    #[test]
    fn derived_ratios() {
        let mut traffic = TrafficStats::default();
        traffic.record(MessageClass::Request, 15);
        traffic.record(MessageClass::DataResponse, 1);
        let r = SimReport {
            runtime_ns: 1000,
            measured_misses: 2,
            instructions: 500,
            traffic,
            indirections: 1,
            retries: 1,
            broadcast_fallbacks: 0,
            cache_to_cache: 1,
            total_miss_latency_ns: 300,
            latency_histogram: LatencyHistogram::default(),
            class_counts: ClassCounts::default(),
        };
        assert_eq!(r.avg_miss_latency_ns(), 150.0);
        assert_eq!(r.bytes_per_miss(), (15.0 * 8.0 + 72.0) / 2.0);
        assert_eq!(r.request_messages_per_miss(), 7.5);
        assert_eq!(r.indirection_pct(), 50.0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::default();
        h.record(100); // bucket 6 (64..128)
        h.record(180); // bucket 7 (128..256)
        h.record(242); // bucket 7
        h.record(1); // bucket 0
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket(6), 1);
        assert_eq!(h.bucket(7), 2);
        assert_eq!(h.bucket(0), 1);
    }

    #[test]
    fn histogram_percentiles_monotone() {
        let mut h = LatencyHistogram::default();
        for ns in [100u64, 120, 150, 200, 300, 500, 3000] {
            h.record(ns);
        }
        let p50 = h.percentile_ns(50.0);
        let p99 = h.percentile_ns(99.0);
        assert!(p50 <= p99);
        assert!((128..=512).contains(&p50), "{p50}");
        assert!(p99 >= 2048, "{p99}");
        assert_eq!(LatencyHistogram::default().percentile_ns(50.0), 0);
    }

    fn ten_samples_of_100ns() -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for _ in 0..10 {
            h.record(100);
        }
        h
    }

    /// p = 0 reads the first non-empty bucket, not the empty bucket 0.
    #[test]
    fn zeroth_percentile_is_the_first_sample_bucket() {
        let h = ten_samples_of_100ns();
        assert_eq!(h.percentile_ns(0.0), 128);
        assert_eq!(h.percentile_ns(100.0), 128);
    }

    #[test]
    #[should_panic(expected = "outside 0..=100")]
    fn percentile_rejects_nan() {
        ten_samples_of_100ns().percentile_ns(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside 0..=100")]
    fn percentile_rejects_above_100() {
        ten_samples_of_100ns().percentile_ns(150.0);
    }

    #[test]
    fn histogram_saturates_extremes() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(15), 1);
    }

    #[test]
    fn class_counts_roundtrip() {
        let mut c = ClassCounts::default();
        c.record(LatencyClass::Memory);
        c.record(LatencyClass::CacheDirect);
        c.record(LatencyClass::CacheDirect);
        assert_eq!(c.get(LatencyClass::CacheDirect), 2);
        assert_eq!(c.get(LatencyClass::Memory), 1);
        assert_eq!(c.get(LatencyClass::MemoryIndirect), 0);
        assert_eq!(c.total(), 3);
        let mut d = ClassCounts::default();
        d.record(LatencyClass::CacheIndirect);
        c.merge(&d);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = LatencyHistogram::default();
        a.record(100);
        let mut b = LatencyHistogram::default();
        b.record(100);
        b.record(5000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(6), 2);
    }
}
