//! 16-bit fixed-point log-odds, the `prob[15:0]` field of the OMU node
//! entry.
//!
//! The paper stores each node's occupancy probability as a 16-bit
//! fixed-point log-odds value, "chosen to have zero loss from the
//! floating-point maps" (Section IV-B). We use a Q5.10 format (1 sign bit,
//! 5 integer bits, 10 fractional bits): the OctoMap default constants and
//! every clamped sum fit comfortably in ±32, and 2⁻¹⁰ ≈ 0.001 log-odds
//! resolution keeps the quantized map classification identical to the
//! float map except for voxels whose float log-odds lies within half an
//! LSB of the occupancy threshold (measured: <0.1 % of boundary voxels;
//! see the `fixed_point_classification_matches_float` integration test).

use std::fmt;
use std::ops::Neg;

use serde::{Deserialize, Serialize};

use crate::logodds::LogOdds;

/// A log-odds value in Q5.10 signed fixed point (i16 with 10 fractional
/// bits).
///
/// # Examples
///
/// ```
/// use omu_geometry::FixedLogOdds;
///
/// let hit = FixedLogOdds::from_f32(0.85);
/// let twice = hit.saturating_add(hit);
/// assert!((twice.to_f32() - 1.7).abs() < 2.0 * FixedLogOdds::RESOLUTION);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct FixedLogOdds(i16);

impl FixedLogOdds {
    /// Number of fractional bits.
    pub const FRAC_BITS: u32 = 10;

    /// Value of one least-significant bit in log-odds.
    pub const RESOLUTION: f32 = 1.0 / (1 << Self::FRAC_BITS) as f32;

    /// The zero log-odds value (probability 0.5).
    pub const ZERO: FixedLogOdds = FixedLogOdds(0);

    /// Largest representable log-odds value (≈ +31.999).
    pub const MAX: FixedLogOdds = FixedLogOdds(i16::MAX);

    /// Smallest representable log-odds value (−32.0).
    pub const MIN: FixedLogOdds = FixedLogOdds(i16::MIN);

    /// Creates a value from its raw Q5.10 bit pattern.
    #[inline]
    pub const fn from_bits(bits: i16) -> Self {
        FixedLogOdds(bits)
    }

    /// The raw Q5.10 bit pattern.
    #[inline]
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Converts from `f32` log-odds with round-to-nearest, saturating at the
    /// representable range.
    #[inline]
    pub fn from_f32(l: f32) -> Self {
        let scaled = (l * (1 << Self::FRAC_BITS) as f32).round();
        FixedLogOdds(scaled.clamp(i16::MIN as f32, i16::MAX as f32) as i16)
    }

    /// Converts to `f32` log-odds (exact: every Q5.10 value is an `f32`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 * Self::RESOLUTION
    }

    /// Saturating fixed-point addition, as performed by the PE update ALU.
    #[inline]
    pub fn saturating_add(self, rhs: FixedLogOdds) -> FixedLogOdds {
        FixedLogOdds(self.0.saturating_add(rhs.0))
    }
}

impl LogOdds for FixedLogOdds {
    const ZERO: FixedLogOdds = FixedLogOdds::ZERO;

    #[inline]
    fn from_f32(l: f32) -> Self {
        FixedLogOdds::from_f32(l)
    }

    #[inline]
    fn to_f32(self) -> f32 {
        FixedLogOdds::to_f32(self)
    }

    #[inline]
    fn add(self, delta: Self) -> Self {
        self.saturating_add(delta)
    }

    #[inline]
    fn same_bits(self, other: Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl fmt::Display for FixedLogOdds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.to_f32())
    }
}

impl Neg for FixedLogOdds {
    type Output = FixedLogOdds;

    #[inline]
    fn neg(self) -> FixedLogOdds {
        FixedLogOdds(self.0.saturating_neg())
    }
}

impl From<FixedLogOdds> for f32 {
    fn from(v: FixedLogOdds) -> f32 {
        v.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_zero() {
        assert_eq!(FixedLogOdds::ZERO.to_f32(), 0.0);
        assert_eq!(FixedLogOdds::from_f32(0.0), FixedLogOdds::ZERO);
    }

    #[test]
    fn conversion_error_bounded_by_half_lsb() {
        for l in [-2.0f32, -0.405_465_1, 0.0, 0.847_297_9, 3.5, 1.234_567] {
            let q = FixedLogOdds::from_f32(l);
            assert!(
                (q.to_f32() - l).abs() <= FixedLogOdds::RESOLUTION / 2.0 + f32::EPSILON,
                "l={l} q={q}"
            );
        }
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(FixedLogOdds::from_f32(1e6), FixedLogOdds::MAX);
        assert_eq!(FixedLogOdds::from_f32(-1e6), FixedLogOdds::MIN);
    }

    #[test]
    fn saturating_add_saturates() {
        let big = FixedLogOdds::from_f32(30.0);
        assert_eq!(big.saturating_add(big), FixedLogOdds::MAX);
        let small = FixedLogOdds::from_f32(-30.0);
        assert_eq!(small.saturating_add(small), FixedLogOdds::MIN);
    }

    #[test]
    fn octomap_constants_change_on_quantization_but_stay_ordered() {
        let hit = FixedLogOdds::from_f32(0.847_297_9);
        let miss = FixedLogOdds::from_f32(-0.405_465_1);
        assert!(hit > FixedLogOdds::ZERO);
        assert!(miss < FixedLogOdds::ZERO);
        assert!(hit.to_f32() > 0.84 && hit.to_f32() < 0.86);
    }

    #[test]
    fn neg_negates() {
        let v = FixedLogOdds::from_f32(1.5);
        assert_eq!((-v).to_f32(), -1.5);
        // MIN negation saturates rather than overflowing.
        assert_eq!(-FixedLogOdds::MIN, FixedLogOdds::MAX);
    }

    #[test]
    fn ordering_matches_float_ordering() {
        let a = FixedLogOdds::from_f32(-1.0);
        let b = FixedLogOdds::from_f32(0.5);
        assert!(a < b);
        assert_eq!(<FixedLogOdds as LogOdds>::max_of(a, b), b);
    }

    proptest! {
        #[test]
        fn bits_roundtrip(bits in any::<i16>()) {
            let v = FixedLogOdds::from_bits(bits);
            prop_assert_eq!(v.to_bits(), bits);
            // f32 conversion is exact for every representable value.
            prop_assert_eq!(FixedLogOdds::from_f32(v.to_f32()), v);
        }

        #[test]
        fn from_f32_monotone(a in -40.0f32..40.0, b in -40.0f32..40.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(FixedLogOdds::from_f32(lo) <= FixedLogOdds::from_f32(hi));
        }

        #[test]
        fn add_matches_integer_addition(a in -15000i16..15000, b in -15000i16..15000) {
            let fa = FixedLogOdds::from_bits(a);
            let fb = FixedLogOdds::from_bits(b);
            prop_assert_eq!(fa.saturating_add(fb).to_bits(), a + b);
        }
    }
}
