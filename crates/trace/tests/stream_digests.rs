//! Pins the exact record stream of every preset generator.
//!
//! Each case folds the first 20,000 records of one preset (requester,
//! access kind, data address and PC of every record) into an FNV-1a
//! digest. The digests were recorded from the generator that kept its
//! holder and per-macroblock state in hash maps; any change to the
//! generator's storage must leave every stream byte-identical.
//!
//! The node counts cover both sharer-row widths of the generator's
//! holder table (16 and 64 nodes fit one word, 256 nodes need four)
//! and the group-size clamp of the presets. Paper-scale footprints
//! cover the full pools; at the quick scale (1/64) blocks recur within
//! the 20,000 records, so the streams depend on the holder state.

use dsp_trace::{Workload, WorkloadSpec};
use dsp_types::{AccessKind, SystemConfig};

const RECORDS: usize = 20_000;
const NODES: [usize; 3] = [16, 64, 256];
/// The experiments' default seed.
const EXPERIMENT_SEED: u64 = 365_568_003;
const SEEDS: [u64; 2] = [1, EXPERIMENT_SEED];
/// Paper-scale and quick-scale footprints.
const PAPER: f64 = 1.0;
const QUICK: f64 = 1.0 / 64.0;
const SCALES: [f64; 2] = [PAPER, QUICK];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of each word: stable across Rust
/// releases, unlike `DefaultHasher`.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn digest(workload: Workload, scale: f64, nodes: usize, seed: u64) -> u64 {
    let config = SystemConfig::builder()
        .num_nodes(nodes)
        .build()
        .expect("valid node count");
    let mut hash = FNV_OFFSET;
    for rec in WorkloadSpec::preset(workload, &config)
        .scaled(scale)
        .generator(seed)
        .take(RECORDS)
    {
        fold(&mut hash, rec.requester.index() as u64);
        fold(&mut hash, u64::from(rec.kind == AccessKind::Store));
        fold(&mut hash, rec.addr.raw());
        fold(&mut hash, rec.pc.raw());
    }
    hash
}

/// `(workload, scale, nodes, seed, digest)` for every case.
#[rustfmt::skip]
const GOLDEN: [(Workload, f64, usize, u64, u64); 72] = [
    (Workload::Apache, PAPER, 16, 1, 0xf6b9_9afe_12e1_accf),
    (Workload::Apache, PAPER, 16, EXPERIMENT_SEED, 0x2e52_08a3_404e_1de3),
    (Workload::Apache, PAPER, 64, 1, 0x3905_2885_fccd_c4af),
    (Workload::Apache, PAPER, 64, EXPERIMENT_SEED, 0x8c9b_dab7_3be1_4323),
    (Workload::Apache, PAPER, 256, 1, 0x8734_49b8_6597_eb6f),
    (Workload::Apache, PAPER, 256, EXPERIMENT_SEED, 0x5cad_12b6_b222_d6a3),
    (Workload::BarnesHut, PAPER, 16, 1, 0x623e_1654_7906_f5aa),
    (Workload::BarnesHut, PAPER, 16, EXPERIMENT_SEED, 0xcfec_7927_d562_98f5),
    (Workload::BarnesHut, PAPER, 64, 1, 0x6b34_7cb8_84ab_df0a),
    (Workload::BarnesHut, PAPER, 64, EXPERIMENT_SEED, 0x64d2_eaaf_224e_05c5),
    (Workload::BarnesHut, PAPER, 256, 1, 0x9a6e_2d20_d673_628a),
    (Workload::BarnesHut, PAPER, 256, EXPERIMENT_SEED, 0x76ab_3d27_e6e4_7785),
    (Workload::Ocean, PAPER, 16, 1, 0x1846_d57f_6af4_b38f),
    (Workload::Ocean, PAPER, 16, EXPERIMENT_SEED, 0xb24e_5f27_3b31_7287),
    (Workload::Ocean, PAPER, 64, 1, 0x06d1_b0e0_be75_6dbf),
    (Workload::Ocean, PAPER, 64, EXPERIMENT_SEED, 0xe4a7_2c36_cb89_3297),
    (Workload::Ocean, PAPER, 256, 1, 0x9e9b_0074_726a_193f),
    (Workload::Ocean, PAPER, 256, EXPERIMENT_SEED, 0x43ad_54bc_9fd4_9c17),
    (Workload::Oltp, PAPER, 16, 1, 0xb393_7fab_afcf_b75d),
    (Workload::Oltp, PAPER, 16, EXPERIMENT_SEED, 0x5891_f4de_253d_07a7),
    (Workload::Oltp, PAPER, 64, 1, 0x7ede_bdfc_fb09_240d),
    (Workload::Oltp, PAPER, 64, EXPERIMENT_SEED, 0x67e5_255c_b485_2ea7),
    (Workload::Oltp, PAPER, 256, 1, 0x408e_31d0_0522_bbcd),
    (Workload::Oltp, PAPER, 256, EXPERIMENT_SEED, 0xd4d9_731b_a613_7d67),
    (Workload::Slashcode, PAPER, 16, 1, 0x736e_c2a2_fc7a_9bcb),
    (Workload::Slashcode, PAPER, 16, EXPERIMENT_SEED, 0x6986_c921_8375_1162),
    (Workload::Slashcode, PAPER, 64, 1, 0xa496_2173_4cc6_892b),
    (Workload::Slashcode, PAPER, 64, EXPERIMENT_SEED, 0x7c71_ea04_a2a6_cc42),
    (Workload::Slashcode, PAPER, 256, 1, 0xd72e_8977_c2dd_4bab),
    (Workload::Slashcode, PAPER, 256, EXPERIMENT_SEED, 0xf610_a2a3_7304_d942),
    (Workload::SpecJbb, PAPER, 16, 1, 0xc827_5f22_05ad_e67e),
    (Workload::SpecJbb, PAPER, 16, EXPERIMENT_SEED, 0xca24_5c93_3c58_17da),
    (Workload::SpecJbb, PAPER, 64, 1, 0x0a93_28c1_667b_aa8e),
    (Workload::SpecJbb, PAPER, 64, EXPERIMENT_SEED, 0x00bd_a7d5_fc0c_0a9a),
    (Workload::SpecJbb, PAPER, 256, 1, 0xbdeb_d33f_2e77_8cce),
    (Workload::SpecJbb, PAPER, 256, EXPERIMENT_SEED, 0x860a_0be1_1e6c_311a),
    (Workload::Apache, QUICK, 16, 1, 0xf9df_1fc5_146d_b998),
    (Workload::Apache, QUICK, 16, EXPERIMENT_SEED, 0x57b7_7d23_8327_aa5a),
    (Workload::Apache, QUICK, 64, 1, 0x7d34_d56c_f39c_b6b8),
    (Workload::Apache, QUICK, 64, EXPERIMENT_SEED, 0x8999_99f7_3fdb_b97a),
    (Workload::Apache, QUICK, 256, 1, 0xbcfa_3efa_ba90_04f8),
    (Workload::Apache, QUICK, 256, EXPERIMENT_SEED, 0x3589_fd0e_786a_6bfa),
    (Workload::BarnesHut, QUICK, 16, 1, 0xd916_aec7_0a16_96c8),
    (Workload::BarnesHut, QUICK, 16, EXPERIMENT_SEED, 0xa94e_da62_9c01_66a0),
    (Workload::BarnesHut, QUICK, 64, 1, 0x37de_211e_08ce_4598),
    (Workload::BarnesHut, QUICK, 64, EXPERIMENT_SEED, 0x5f46_066b_48fe_3bb0),
    (Workload::BarnesHut, QUICK, 256, 1, 0xfe3e_a5d7_4c44_5858),
    (Workload::BarnesHut, QUICK, 256, EXPERIMENT_SEED, 0xb0a3_4232_9aea_47f0),
    (Workload::Ocean, QUICK, 16, 1, 0xc9aa_b0d2_1688_1e2f),
    (Workload::Ocean, QUICK, 16, EXPERIMENT_SEED, 0x60ba_b8b3_51db_3696),
    (Workload::Ocean, QUICK, 64, 1, 0x162f_4c6c_5604_8dcf),
    (Workload::Ocean, QUICK, 64, EXPERIMENT_SEED, 0x8645_df1c_104a_3216),
    (Workload::Ocean, QUICK, 256, 1, 0x6947_d5aa_bc37_d58f),
    (Workload::Ocean, QUICK, 256, EXPERIMENT_SEED, 0xd393_3639_06af_9356),
    (Workload::Oltp, QUICK, 16, 1, 0xf25c_c57d_5595_ad9a),
    (Workload::Oltp, QUICK, 16, EXPERIMENT_SEED, 0xa91e_5417_1af2_b32b),
    (Workload::Oltp, QUICK, 64, 1, 0x1efb_4b9c_9942_2a0a),
    (Workload::Oltp, QUICK, 64, EXPERIMENT_SEED, 0x4c74_8d57_3655_11fb),
    (Workload::Oltp, QUICK, 256, 1, 0x4934_5d2c_f18c_b40a),
    (Workload::Oltp, QUICK, 256, EXPERIMENT_SEED, 0x3730_2dd4_3d63_233b),
    (Workload::Slashcode, QUICK, 16, 1, 0xf506_e1f8_d2e2_2b8f),
    (Workload::Slashcode, QUICK, 16, EXPERIMENT_SEED, 0x0de3_30c1_355d_98b2),
    (Workload::Slashcode, QUICK, 64, 1, 0x65b2_01ed_f8af_8e1f),
    (Workload::Slashcode, QUICK, 64, EXPERIMENT_SEED, 0x8cb4_90b6_fc54_1a12),
    (Workload::Slashcode, QUICK, 256, 1, 0x5cda_0924_fae0_a6df),
    (Workload::Slashcode, QUICK, 256, EXPERIMENT_SEED, 0xf33c_fb7f_7e63_8052),
    (Workload::SpecJbb, QUICK, 16, 1, 0x94b5_846c_ea71_8d80),
    (Workload::SpecJbb, QUICK, 16, EXPERIMENT_SEED, 0x4c02_b7bb_84b8_8b1f),
    (Workload::SpecJbb, QUICK, 64, 1, 0x0027_54c0_23eb_a650),
    (Workload::SpecJbb, QUICK, 64, EXPERIMENT_SEED, 0x5c38_ee4e_01ec_5fcf),
    (Workload::SpecJbb, QUICK, 256, 1, 0xb5e4_4d64_719a_25d0),
    (Workload::SpecJbb, QUICK, 256, EXPERIMENT_SEED, 0x73d1_d85b_a047_95cf),
];

#[test]
fn golden_covers_every_case() {
    let mut cases = Vec::new();
    for scale in SCALES {
        for workload in Workload::ALL {
            for nodes in NODES {
                for seed in SEEDS {
                    cases.push((workload, scale, nodes, seed));
                }
            }
        }
    }
    let pinned: Vec<_> = GOLDEN.iter().map(|&(w, f, n, s, _)| (w, f, n, s)).collect();
    assert_eq!(pinned, cases);
}

#[test]
fn preset_streams_are_pinned() {
    let mut mismatches = Vec::new();
    for &(workload, scale, nodes, seed, want) in &GOLDEN {
        let got = digest(workload, scale, nodes, seed);
        if got != want {
            mismatches.push(format!(
                "({workload:?}, {scale}, {nodes}, {seed}): 0x{got:016x}, want 0x{want:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} streams changed:\n{}",
        mismatches.len(),
        GOLDEN.len(),
        mismatches.join("\n")
    );
}
