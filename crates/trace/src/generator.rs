//! The synthetic miss-stream generator. Its state is direct-indexed by
//! pool, macroblock and block offset, never hashed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dsp_types::{AccessKind, Address, BlockAddr, NodeId, Pc};

use crate::holders::{HolderTable, Holders};
use crate::record::TraceRecord;
use crate::spec::{SharingClass, WorkloadSpec};
use crate::zipf::ZipfSampler;

/// Block-number stride separating class pools (2^34 blocks = 1 TiB of
/// address space per pool), so pools never collide.
const POOL_STRIDE_BLOCKS: u64 = 1 << 34;

/// Base of the synthetic text segment PCs, one 16 MiB region per class.
const PC_REGION_BASE: u64 = 0x0040_0000;
const PC_REGION_STRIDE: u64 = 1 << 24;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(dsp_types::hash::FX_MIX);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Probability that a migratory datum returns to its *previous* holder
/// (lock ping-pong between an active pair), versus advancing around the
/// sharing ring or jumping to a random member. Real contended locks are
/// dominated by short-term pairwise exchange — the pattern the paper's
/// Owner policy is designed for — with the contention set drifting over
/// time.
const MIGRATORY_PINGPONG_P: f64 = 0.70;
const MIGRATORY_ADVANCE_P: f64 = 0.22;

/// Probability that a producer-consumer buffer changes producer after a
/// full produce/consume round. Work-sharing buffers rotate the writer
/// role frequently (whoever finishes a task publishes the next one).
const PRODUCER_ROTATE_P: f64 = 0.80;

/// Probability that a read-write-shared unit's current writer hands the
/// role to another group member on a write episode. Writers are sticky
/// at the unit level (a transaction updates several fields of one
/// record before another thread takes over).
const RW_WRITER_ROTATE_P: f64 = 0.18;

/// Per-*macroblock* state of a migratory datum. Migratory structures
/// (connection state, transaction records, lock+data) span several
/// contiguous blocks and migrate as a unit, which is precisely the
/// spatial correlation macroblock-indexed predictors exploit (paper
/// §3.4). `pending_store_off` remembers which block of the unit awaits
/// the store half of its read-modify-write.
#[derive(Clone, Copy, Debug, Default)]
struct MigratoryState {
    holder_slot: u8,
    prev_slot: u8,
    pending_store_off: Option<u8>,
}

/// Per-macroblock state of a producer–consumer buffer.
#[derive(Clone, Copy, Debug)]
enum PcPhase {
    Producing { next_block: u8 },
    Consuming { consumer_slot: u8, next_block: u8 },
}

impl Default for PcPhase {
    fn default() -> Self {
        PcPhase::Producing { next_block: 0 }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct ProducerConsumerState {
    producer_slot: u8,
    phase: PcPhase,
}

/// Runtime state of one class pool. `base` is the holder-table index of
/// its first block; the `Vec`s are indexed by macroblock (`group_start`
/// is each sharing ring's first node), and empty for other idioms.
#[derive(Debug)]
struct ClassState {
    mb_zipf: ZipfSampler,
    pc_zipf: ZipfSampler,
    base: usize,
    group_start: Vec<u16>,
    migratory: Vec<MigratoryState>,
    prodcons: Vec<ProducerConsumerState>,
    rw_writer: Vec<u8>,
    cold_cursor: u64,
}

/// Deterministic, infinite iterator of [`TraceRecord`]s for one
/// [`WorkloadSpec`].
///
/// The generator keeps a MOSI view of the [`Holders`] of every block it
/// emits so the stream is coherence-consistent, and drives one state
/// machine per migratory / producer-consumer macroblock so idioms
/// interleave realistically instead of appearing in long bursts.
///
/// # Example
///
/// ```
/// use dsp_trace::{Workload, WorkloadSpec};
/// use dsp_types::SystemConfig;
///
/// let spec = WorkloadSpec::preset(Workload::Ocean, &SystemConfig::isca03()).scaled(0.01);
/// let a: Vec<_> = spec.generator(1).take(100).collect();
/// let b: Vec<_> = spec.generator(1).take(100).collect();
/// assert_eq!(a, b, "same seed, same stream");
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    rng: SmallRng,
    class_cdf: Vec<f64>,
    classes: Vec<ClassState>,
    holders: HolderTable,
    emitted: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec` seeded with `seed`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let total_weight: f64 = spec.classes().iter().map(|c| c.miss_weight).sum();
        let mut acc = 0.0;
        let class_cdf = spec
            .classes()
            .iter()
            .map(|c| {
                acc += c.miss_weight / total_weight;
                acc
            })
            .collect();
        let n = spec.num_nodes();
        let mut blocks = 0;
        let classes: Vec<_> = (spec.classes().iter().enumerate())
            .map(|(ci, c)| {
                let (g, mbs) = (c.group_size, 0..c.macroblocks as u64);
                let only = |class| if c.class == class { c.macroblocks } else { 0 };
                let (base, prev_slot) = (blocks, (1 % g) as u8);
                blocks += c.macroblocks * spec.blocks_per_macroblock() as usize;
                ClassState {
                    mb_zipf: ZipfSampler::new(c.macroblocks, c.zipf_exponent),
                    pc_zipf: ZipfSampler::new(c.pcs, 0.7),
                    base,
                    group_start: (mbs.clone())
                        .map(|mb| (splitmix64(seed ^ ((ci as u64) << 48) ^ mb) as usize % n) as u16)
                        .collect(),
                    migratory: vec![
                        MigratoryState {
                            prev_slot,
                            ..Default::default()
                        };
                        only(SharingClass::Migratory)
                    ],
                    prodcons: vec![Default::default(); only(SharingClass::ProducerConsumer)],
                    rw_writer: (mbs.take(only(SharingClass::ReadWriteShared)))
                        .map(|mb| (splitmix64(seed ^ 0x5f5f ^ mb) as usize % g) as u8)
                        .collect(),
                    cold_cursor: 0,
                }
            })
            .collect();
        TraceGenerator {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0xd5f0_7a6c_2f1b_9e33),
            class_cdf,
            classes,
            holders: HolderTable::new(blocks, n),
            emitted: 0,
        }
    }

    /// The workload this generator realizes.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The generator's view of the current holders of `block`
    /// (memory-owned if the generator never emitted it).
    pub fn holders_of(&self, block: BlockAddr) -> Holders {
        let ci = (block.number() / POOL_STRIDE_BLOCKS) as usize;
        let local = block.number() % POOL_STRIDE_BLOCKS;
        let bpm = self.spec.blocks_per_macroblock();
        match self.spec.classes().get(ci.wrapping_sub(1)) {
            Some(c) if local < c.macroblocks as u64 * bpm => {
                self.holders.get(self.classes[ci - 1].base + local as usize)
            }
            _ => Holders::default(),
        }
    }

    /// Number of records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The sharing-group member in `slot` for macroblock `mb` of class
    /// `class_idx`: groups are contiguous rings starting at a
    /// pseudo-random node derived from the macroblock identity, so
    /// blocks within a macroblock share their group (spatial locality)
    /// and groups are spread evenly over the machine.
    fn group_member(&self, class_idx: usize, mb: usize, slot: usize) -> NodeId {
        let n = self.spec.num_nodes();
        debug_assert!(slot < n, "group slot {slot} on {n} nodes");
        let member = usize::from(self.classes[class_idx].group_start[mb]) + slot;
        NodeId::new(if member >= n { member - n } else { member })
    }

    /// Index of block `off` of macroblock `mb` of pool `class_idx` in
    /// the holder table, where the pools lie end to end.
    fn block_index(&self, class_idx: usize, mb: usize, off: u64) -> usize {
        let bpm = self.spec.blocks_per_macroblock();
        debug_assert!(
            off < bpm && mb < self.spec.classes()[class_idx].macroblocks,
            "block {off} of macroblock {mb} outside pool {class_idx}"
        );
        self.classes[class_idx].base + (mb as u64 * bpm + off) as usize
    }

    /// Synthetic PC for class `class_idx`, Zipf-distributed over the
    /// class's static instructions.
    fn pick_pc(&mut self, class_idx: usize) -> Pc {
        let rank = self.classes[class_idx].pc_zipf.sample(&mut self.rng) as u64;
        Pc::new(PC_REGION_BASE + class_idx as u64 * PC_REGION_STRIDE + rank * 4)
    }

    fn pick_class(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        match self
            .class_cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite weights"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.class_cdf.len() - 1),
        }
    }

    fn emit(
        &mut self,
        class_idx: usize,
        requester: NodeId,
        kind: AccessKind,
        mb: usize,
        off: u64,
    ) -> TraceRecord {
        let pc = self.pick_pc(class_idx);
        self.holders
            .apply(self.block_index(class_idx, mb, off), requester, kind);
        let local = mb as u64 * self.spec.blocks_per_macroblock() + off;
        let block = BlockAddr::new((class_idx as u64 + 1) * POOL_STRIDE_BLOCKS + local);
        self.emitted += 1;
        // Spread accesses across the four 16-byte words of the block so
        // data addresses are not all block-aligned.
        let offset = (splitmix64(self.emitted) % 4) * 16;
        TraceRecord::new(
            requester,
            kind,
            Address::new(block.base().raw() + offset),
            pc,
        )
    }

    fn step_private(&mut self, ci: usize) -> TraceRecord {
        let spec = &self.spec.classes()[ci];
        let bpm = self.spec.blocks_per_macroblock();
        let mb = self.classes[ci].mb_zipf.sample(&mut self.rng);
        let off = self.rng.gen_range(0..bpm);
        let owner = self.group_member(ci, mb, 0);
        let kind = if self.rng.gen_bool(spec.write_frac) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        self.emit(ci, owner, kind, mb, off)
    }

    fn step_cold(&mut self, ci: usize) -> TraceRecord {
        let spec = &self.spec.classes()[ci];
        let bpm = self.spec.blocks_per_macroblock();
        let total_blocks = spec.macroblocks as u64 * bpm;
        let write_frac = spec.write_frac;
        let cursor = self.classes[ci].cold_cursor;
        self.classes[ci].cold_cursor = cursor.wrapping_add(1);
        let linear = cursor % total_blocks;
        let (mb, off) = ((linear / bpm) as usize, linear % bpm);
        let requester = self.group_member(ci, mb, 0);
        let kind = if self.rng.gen_bool(write_frac) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        self.emit(ci, requester, kind, mb, off)
    }

    fn step_read_shared(&mut self, ci: usize) -> TraceRecord {
        let bpm = self.spec.blocks_per_macroblock();
        let g = self.spec.classes()[ci].group_size;
        let mb = self.classes[ci].mb_zipf.sample(&mut self.rng);
        let off = self.rng.gen_range(0..bpm);
        let slot = self.rng.gen_range(0..g);
        let requester = self.group_member(ci, mb, slot);
        self.emit(ci, requester, AccessKind::Load, mb, off)
    }

    fn step_migratory(&mut self, ci: usize) -> TraceRecord {
        let bpm = self.spec.blocks_per_macroblock();
        let g = self.spec.classes()[ci].group_size;
        let mb = self.classes[ci].mb_zipf.sample(&mut self.rng);
        let mut state = self.classes[ci].migratory[mb];
        let (slot, kind, off) = if let Some(off) = state.pending_store_off.take() {
            (state.holder_slot, AccessKind::Store, off)
        } else {
            // A new read-modify-write episode: pick the unit's next
            // holder with pairwise (ping-pong) affinity, occasionally
            // advancing around the ring or jumping.
            let u: f64 = self.rng.gen();
            let cur = state.holder_slot;
            let next = if g == 1 {
                cur
            } else if u < MIGRATORY_PINGPONG_P && state.prev_slot != cur {
                state.prev_slot
            } else if u < MIGRATORY_PINGPONG_P + MIGRATORY_ADVANCE_P {
                ((cur as usize + 1) % g) as u8
            } else {
                self.rng.gen_range(0..g) as u8
            };
            if next != cur {
                state.prev_slot = cur;
            }
            state.holder_slot = next;
            // Migration means reading what the previous holder wrote:
            // prefer a block of the unit currently owned by the holder
            // being taken over from (a few redraws suffice on a
            // 16-block unit); fall back to any block not already owned
            // by the new holder.
            let holder = self.group_member(ci, mb, next as usize);
            let from = self.group_member(ci, mb, cur as usize);
            let mut off = self.rng.gen_range(0..bpm) as u8;
            let mut fallback = off;
            for _ in 0..6 {
                let owner = self.holders.owner(self.block_index(ci, mb, off as u64));
                if owner == Some(from) && from != holder {
                    break;
                }
                if owner != Some(holder) {
                    fallback = off;
                }
                off = self.rng.gen_range(0..bpm) as u8;
                if off == fallback {
                    off = (off + 1) % bpm as u8;
                }
            }
            let candidate = self.block_index(ci, mb, off as u64);
            if self.holders.owner(candidate) != Some(from) || from == holder {
                off = fallback;
            }
            state.pending_store_off = Some(off);
            (next, AccessKind::Load, off)
        };
        self.classes[ci].migratory[mb] = state;
        let requester = self.group_member(ci, mb, slot as usize);
        self.emit(ci, requester, kind, mb, off as u64)
    }

    fn step_producer_consumer(&mut self, ci: usize) -> TraceRecord {
        let bpm = self.spec.blocks_per_macroblock() as u8;
        let g = self.spec.classes()[ci].group_size;
        let mb = self.classes[ci].mb_zipf.sample(&mut self.rng);
        let rotate_producer = self.rng.gen_bool(PRODUCER_ROTATE_P);
        let state = &mut self.classes[ci].prodcons[mb];
        let (slot, kind, off) = match state.phase {
            PcPhase::Producing { next_block } => {
                let off = next_block;
                if next_block + 1 >= bpm {
                    state.phase = if g > 1 {
                        PcPhase::Consuming {
                            consumer_slot: 1,
                            next_block: 0,
                        }
                    } else {
                        state.producer_slot = ((state.producer_slot as usize + 1) % g) as u8;
                        PcPhase::Producing { next_block: 0 }
                    };
                } else {
                    state.phase = PcPhase::Producing {
                        next_block: next_block + 1,
                    };
                }
                (state.producer_slot, AccessKind::Store, off)
            }
            PcPhase::Consuming {
                consumer_slot,
                next_block,
            } => {
                let off = next_block;
                let slot = ((state.producer_slot as usize + consumer_slot as usize) % g) as u8;
                if next_block + 1 >= bpm {
                    if (consumer_slot as usize) + 1 >= g {
                        // Round finished: producers are mostly stable;
                        // occasionally the role moves on.
                        if rotate_producer {
                            state.producer_slot = ((state.producer_slot as usize + 1) % g) as u8;
                        }
                        state.phase = PcPhase::Producing { next_block: 0 };
                    } else {
                        state.phase = PcPhase::Consuming {
                            consumer_slot: consumer_slot + 1,
                            next_block: 0,
                        };
                    }
                } else {
                    state.phase = PcPhase::Consuming {
                        consumer_slot,
                        next_block: next_block + 1,
                    };
                }
                (slot, AccessKind::Load, off)
            }
        };
        let requester = self.group_member(ci, mb, slot as usize);
        self.emit(ci, requester, kind, mb, off as u64)
    }

    fn step_read_write_shared(&mut self, ci: usize) -> TraceRecord {
        let spec_wf = self.spec.classes()[ci].write_frac;
        let bpm = self.spec.blocks_per_macroblock();
        let g = self.spec.classes()[ci].group_size;
        let mb = self.classes[ci].mb_zipf.sample(&mut self.rng);
        let off = self.rng.gen_range(0..bpm);
        let kind = if self.rng.gen_bool(spec_wf) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let slot = if kind == AccessKind::Store {
            // Writes come from the unit's sticky writer, which
            // occasionally hands the role over.
            let rotate = self.rng.gen_bool(RW_WRITER_ROTATE_P);
            let fresh = self.rng.gen_range(0..g) as u8;
            let writer = &mut self.classes[ci].rw_writer[mb];
            if rotate {
                *writer = fresh;
            }
            *writer as usize
        } else {
            // Prefer a reader that does not already hold the block so
            // the emission really is a miss; two tries is enough bias.
            let mut slot = self.rng.gen_range(0..g);
            let (block, member) = (
                self.block_index(ci, mb, off),
                self.group_member(ci, mb, slot),
            );
            if self.holders.can_read(block, member) {
                slot = self.rng.gen_range(0..g);
            }
            slot
        };
        let requester = self.group_member(ci, mb, slot);
        self.emit(ci, requester, kind, mb, off)
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let ci = self.pick_class();
        let class = self.spec.classes()[ci].class;
        Some(match class {
            SharingClass::Private => self.step_private(ci),
            SharingClass::ColdFootprint => self.step_cold(ci),
            SharingClass::ReadShared => self.step_read_shared(ci),
            SharingClass::Migratory => self.step_migratory(ci),
            SharingClass::ProducerConsumer => self.step_producer_consumer(ci),
            SharingClass::ReadWriteShared => self.step_read_write_shared(ci),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClassSpec, Workload};
    use dsp_types::SystemConfig;
    use std::collections::HashSet;

    fn spec_of(class: SharingClass, group: usize, wf: f64) -> WorkloadSpec {
        WorkloadSpec::new(
            "unit",
            16,
            16,
            5.0,
            vec![ClassSpec {
                class,
                miss_weight: 1.0,
                macroblocks: 8,
                group_size: group,
                write_frac: wf,
                zipf_exponent: 0.8,
                pcs: 16,
            }],
        )
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = SystemConfig::isca03();
        let spec = WorkloadSpec::preset(Workload::Apache, &cfg).scaled(0.01);
        let a: Vec<_> = spec.generator(99).take(5_000).collect();
        let b: Vec<_> = spec.generator(99).take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SystemConfig::isca03();
        let spec = WorkloadSpec::preset(Workload::Apache, &cfg).scaled(0.01);
        let a: Vec<_> = spec.generator(1).take(1_000).collect();
        let b: Vec<_> = spec.generator(2).take(1_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn private_blocks_have_one_requester_each() {
        let spec = spec_of(SharingClass::Private, 1, 0.3);
        let mut per_block: std::collections::HashMap<u64, HashSet<usize>> = Default::default();
        for rec in spec.generator(5).take(20_000) {
            per_block
                .entry(rec.block().number())
                .or_default()
                .insert(rec.requester.index());
        }
        for (block, reqs) in per_block {
            assert_eq!(reqs.len(), 1, "private block {block} touched by {reqs:?}");
        }
    }

    #[test]
    fn migratory_emits_load_store_pairs_by_same_node() {
        let spec = spec_of(SharingClass::Migratory, 4, 0.5);
        // Track last op per block: a store must follow a load by the same requester.
        let mut last_load: std::collections::HashMap<u64, NodeId> = Default::default();
        for rec in spec.generator(3).take(20_000) {
            match rec.kind {
                AccessKind::Load => {
                    last_load.insert(rec.block().number(), rec.requester);
                }
                AccessKind::Store => {
                    let loader = last_load.get(&rec.block().number());
                    assert_eq!(loader, Some(&rec.requester), "store by non-loader");
                }
            }
        }
    }

    #[test]
    fn migratory_rotates_over_group() {
        let spec = spec_of(SharingClass::Migratory, 4, 0.5);
        let mut per_block: std::collections::HashMap<u64, HashSet<usize>> = Default::default();
        for rec in spec.generator(3).take(40_000) {
            per_block
                .entry(rec.block().number())
                .or_default()
                .insert(rec.requester.index());
        }
        let multi = per_block.values().filter(|s| s.len() >= 3).count();
        assert!(
            multi > per_block.len() / 2,
            "migratory blocks should rotate over their group"
        );
        for reqs in per_block.values() {
            assert!(reqs.len() <= 4, "migratory group bounded by group_size");
        }
    }

    #[test]
    fn read_shared_is_load_only() {
        let spec = spec_of(SharingClass::ReadShared, 16, 0.0);
        assert!(spec
            .generator(1)
            .take(5_000)
            .all(|r| r.kind == AccessKind::Load));
    }

    #[test]
    fn producer_consumer_alternates_phases() {
        let spec = spec_of(SharingClass::ProducerConsumer, 4, 0.0);
        // Consumers read data most recently written by the producer:
        // every load must hit a block previously stored.
        let mut stored: HashSet<u64> = Default::default();
        let mut loads = 0usize;
        let mut stores = 0usize;
        for rec in spec.generator(9).take(30_000) {
            match rec.kind {
                AccessKind::Store => {
                    stored.insert(rec.block().number());
                    stores += 1;
                }
                AccessKind::Load => {
                    assert!(
                        stored.contains(&rec.block().number()),
                        "load before any store"
                    );
                    loads += 1;
                }
            }
        }
        // Group of 4: one producing pass, three consuming passes.
        let ratio = loads as f64 / stores as f64;
        assert!((2.0..4.0).contains(&ratio), "load/store ratio {ratio}");
    }

    #[test]
    fn rw_shared_respects_group_membership() {
        let spec = spec_of(SharingClass::ReadWriteShared, 4, 0.3);
        let mut per_mb: std::collections::HashMap<u64, HashSet<usize>> = Default::default();
        for rec in spec.generator(11).take(30_000) {
            per_mb
                .entry(rec.block().number() / 16)
                .or_default()
                .insert(rec.requester.index());
        }
        for (mb, reqs) in per_mb {
            assert!(
                reqs.len() <= 4,
                "macroblock {mb} touched by {} nodes",
                reqs.len()
            );
        }
    }

    #[test]
    fn cold_walks_unique_blocks() {
        let spec = spec_of(SharingClass::ColdFootprint, 1, 0.0);
        let blocks: HashSet<u64> = spec
            .generator(1)
            .take(128)
            .map(|r| r.block().number())
            .collect();
        // 8 macroblocks * 16 blocks = 128 distinct blocks in one sweep.
        assert_eq!(blocks.len(), 128);
    }

    #[test]
    fn pcs_are_bounded_per_class() {
        let spec = spec_of(SharingClass::Migratory, 4, 0.5);
        let pcs: HashSet<u64> = spec.generator(1).take(10_000).map(|r| r.pc.raw()).collect();
        assert!(
            pcs.len() <= 16,
            "observed {} PCs, spec allows 16",
            pcs.len()
        );
    }

    #[test]
    fn addresses_fall_in_pool_regions() {
        let cfg = SystemConfig::isca03();
        let spec = WorkloadSpec::preset(Workload::SpecJbb, &cfg).scaled(0.002);
        for rec in spec.generator(1).take(5_000) {
            let pool = rec.block().number() / POOL_STRIDE_BLOCKS;
            assert!(
                (1..=spec.classes().len() as u64).contains(&pool),
                "block outside any pool region"
            );
        }
    }

    #[test]
    fn all_presets_generate() {
        let cfg = SystemConfig::isca03();
        for w in Workload::ALL {
            let spec = WorkloadSpec::preset(w, &cfg).scaled(0.002);
            let count = spec.generator(7).take(2_000).count();
            assert_eq!(count, 2_000, "{w}");
        }
    }
}
