//! The workspace's one integer hash mixer.
//!
//! Every open-addressing table in the stack (the coherence tracker's
//! page directory in `dsp-coherence`, unbounded predictor storage in
//! `dsp-core`) keys on page, block or macroblock numbers —
//! sequential-ish `u64`s that are not attacker-controlled, so
//! SipHash's DoS resistance is pure overhead.
//! They all hash through this module so the constant and the fold live
//! in exactly one place.

/// Multiplicative mixer constant (2^64 / φ, the same odd constant
/// FxHash-style hashers use).
pub const FX_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes `key` into a table-index-ready hash: one multiply for high-bit
/// avalanche, then a fold of the high half into the low half so
/// power-of-two masking sees the mixed bits.
#[inline]
pub const fn mix64(key: u64) -> u64 {
    let h = key.wrapping_mul(FX_MIX);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sequential_keys_apart() {
        // Sequential block numbers must not land in sequential slots of
        // a power-of-two table (the whole point of the mixer).
        let mask = 1023u64;
        let mut same_delta = 0;
        for k in 0..1000u64 {
            let a = mix64(k) & mask;
            let b = mix64(k + 1) & mask;
            if b.wrapping_sub(a) == 1 {
                same_delta += 1;
            }
        }
        assert!(same_delta < 50, "mixer left {same_delta} sequential pairs");
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(0), mix64(1));
        assert_eq!(mix64(0), 0, "zero maps to zero (harmless fixed point)");
    }
}
