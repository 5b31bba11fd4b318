//! The host-speed reference: how much slower than nominal the host runs
//! ordinary code right now.
//!
//! On a shared host the same binary's speed drifts by 1.5x and more,
//! within seconds and over minutes, as neighbours load the caches and
//! memory system. A run samples the slowdown every [`SAMPLE_EVERY`]
//! between plan cells, on the thread that runs them, and divides each
//! repetition's times by the mean slowdown sampled over it, so the
//! end-to-end times read as seconds on a host at nominal speed.
//!
//! The reference kernels use only the standard library and this file, so
//! no change to the code under test moves them. Their buffers are
//! allocated once and kept for the whole run (about 10 MiB, counted in
//! `peak_rss_mb`), so sampling frees no large block that would move the
//! allocator's mmap threshold under the measured code.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds each kernel of [`Reference::kernel_times`] takes on the
/// nominal host: a 2.1 GHz Intel Xeon vCPU at its unloaded speed.
const NOMINAL_S: [f64; 4] = [0.0010, 0.0023, 0.0045, 0.0095];
/// Least host time between two samples taken with [`Reference::sample_if_due`].
pub const SAMPLE_EVERY: Duration = Duration::from_millis(250);

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn seconds(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The reference kernels' inputs and buffers, and the samples taken.
pub struct Reference {
    /// 64 Ki pseudo-random words to sort.
    unsorted: Vec<u64>,
    sorted: Vec<u64>,
    /// 8 MiB of pseudo-random words to chase.
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    round: u64,
    last: Instant,
    samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let unsorted: Vec<u64> = (0..1u64 << 16).map(mix64).collect();
        Reference {
            sorted: Vec::with_capacity(unsorted.len()),
            unsorted,
            table: (0..1u64 << 20).map(mix64).collect(),
            map: HashMap::with_capacity(1 << 15),
            round: 0,
            last: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Sorts the words: branchy, cache-resident.
    fn sort(&mut self) -> f64 {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.unsorted);
        let start = Instant::now();
        self.sorted.sort_unstable();
        black_box(&self.sorted);
        seconds(start)
    }

    /// Fills the `HashMap` with 32 Ki keys, then looks each up four times.
    fn hash(&mut self) -> f64 {
        let seed = self.round;
        let start = Instant::now();
        self.map.clear();
        for i in 0..1u64 << 15 {
            self.map.insert(mix64(i ^ seed), i);
        }
        let mut acc = 0u64;
        for i in 0..1u64 << 17 {
            acc = acc.wrapping_add(self.map[&mix64((i & 0x7fff) ^ seed)]);
        }
        black_box(acc);
        seconds(start)
    }

    /// Fills a `BTreeMap` with 16 Ki keys, then looks each up twice:
    /// pointer chasing through small allocations.
    fn btree(&self) -> f64 {
        let seed = self.round;
        let start = Instant::now();
        let mut map = BTreeMap::new();
        for i in 0..1u64 << 14 {
            map.insert(mix64(i ^ seed), i);
        }
        let mut acc = 0u64;
        for i in 0..1u64 << 15 {
            acc = acc.wrapping_add(map[&mix64((i & 0x3fff) ^ seed)]);
        }
        black_box(acc);
        seconds(start)
    }

    /// 100 Ki dependent random reads over the table: cache misses.
    fn chase(&self) -> f64 {
        let mask = self.table.len() as u64 - 1;
        let start = Instant::now();
        let mut x = self.round;
        for i in 0..100_000u64 {
            x = mix64(self.table[((x ^ i) & mask) as usize].wrapping_add(x >> 7));
        }
        black_box(x);
        seconds(start)
    }

    /// Seconds each kernel takes, once.
    pub fn kernel_times(&mut self) -> [f64; 4] {
        self.round += 1;
        [self.sort(), self.hash(), self.btree(), self.chase()]
    }

    /// Takes one sample: the geometric mean of each kernel's time over
    /// its nominal time.
    pub fn sample(&mut self) {
        let times = self.kernel_times();
        let log_sum: f64 = times
            .iter()
            .zip(NOMINAL_S)
            .map(|(t, nominal)| (t / nominal).ln())
            .sum();
        self.samples.push((log_sum / times.len() as f64).exp());
        self.last = Instant::now();
    }

    /// Takes a sample if [`SAMPLE_EVERY`] has passed since the last one.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
    }

    /// The number of samples taken so far.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The mean slowdown over the samples taken since `mark`, plus the
    /// last one before it (the sample that opened the interval).
    pub fn mean_since(&self, mark: usize) -> f64 {
        let window = &self.samples[mark.saturating_sub(1)..];
        window.iter().sum::<f64>() / window.len() as f64
    }
}
