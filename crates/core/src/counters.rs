//! Small saturating counters used by the prediction policies.

use serde::{Deserialize, Serialize};

/// A 2-bit saturating counter (0..=3).
///
/// The paper's Broadcast-If-Shared and Group policies treat values above
/// 1 (i.e. 2 or 3) as "predict", giving hysteresis in both directions.
/// Broadcast-If-Shared (and Two-Level Owner's confidence) store this
/// type. Group keeps N such counters per entry and stores them
/// bit-sliced, as two N-bit planes (see [`crate::policies::GroupPredictor`]);
/// this type is the reference its tests check those planes against.
///
/// # Example
///
/// ```
/// use dsp_core::SatCounter2;
///
/// let mut c = SatCounter2::default();
/// assert!(!c.is_confident());
/// c.increment();
/// c.increment();
/// assert!(c.is_confident());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SatCounter2(u8);

impl SatCounter2 {
    /// Maximum value of the counter.
    pub const MAX: u8 = 3;

    /// Current value (0..=3).
    #[inline]
    pub fn get(self) -> u8 {
        self.0
    }

    /// Saturating increment.
    #[inline]
    pub fn increment(&mut self) {
        if self.0 < Self::MAX {
            self.0 += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn decrement(&mut self) {
        self.0 = self.0.saturating_sub(1);
    }

    /// The paper's prediction threshold: `Counter > 1`.
    #[inline]
    pub fn is_confident(self) -> bool {
        self.0 > 1
    }
}

/// A wrapping rollover counter of `BITS` bits (the Group policy uses 5).
///
/// Incrementing past the maximum wraps to zero and reports the rollover,
/// which the Group policy uses as its "train down" trigger: on rollover
/// every per-node 2-bit counter in the entry is decremented, eventually
/// aging inactive processors out of the predicted set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RolloverCounter<const BITS: u32>(u16);

impl<const BITS: u32> RolloverCounter<BITS> {
    /// Number of increments per rollover.
    pub const PERIOD: u16 = 1 << BITS;

    /// Current value (0..PERIOD).
    #[inline]
    pub fn get(self) -> u16 {
        self.0
    }

    /// Increments; returns `true` when the counter rolled over.
    #[inline]
    pub fn increment(&mut self) -> bool {
        self.0 = (self.0 + 1) % Self::PERIOD;
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat2_saturates_high() {
        let mut c = SatCounter2::default();
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn sat2_saturates_low() {
        let mut c = SatCounter2::default();
        c.decrement();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn sat2_threshold_is_above_one() {
        let mut c = SatCounter2::default();
        assert!(!c.is_confident());
        c.increment();
        assert!(!c.is_confident(), "1 is not confident");
        c.increment();
        assert!(c.is_confident(), "2 is confident");
        c.decrement();
        assert!(!c.is_confident());
    }

    #[test]
    fn rollover_period() {
        let mut r = RolloverCounter::<5>::default();
        let mut rollovers = 0;
        for _ in 0..64 {
            if r.increment() {
                rollovers += 1;
            }
        }
        assert_eq!(rollovers, 2, "5-bit counter rolls over every 32 increments");
        assert_eq!(RolloverCounter::<5>::PERIOD, 32);
    }

    #[test]
    fn rollover_reports_exactly_at_wrap() {
        let mut r = RolloverCounter::<2>::default();
        assert!(!r.increment()); // 1
        assert!(!r.increment()); // 2
        assert!(!r.increment()); // 3
        assert!(r.increment()); // 0 -> rolled
        assert_eq!(r.get(), 0);
    }
}
