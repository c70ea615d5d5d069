//! The probabilistic occupancy model: log-odds values, the sensor update
//! parameters, and occupancy classification.
//!
//! OctoMap stores the occupancy probability `P(n)` of a voxel `n` as its
//! log-odds `L(n) = log(P / (1 - P))` (eq. 1 of the OMU paper), so a
//! measurement update is a single addition (eq. 2) and the parent policy is
//! a maximum over children (eq. 3). Values are clamped to
//! `[clamp_min, clamp_max]`, which both bounds confidence and makes pruning
//! effective (saturated values become exactly equal).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Converts a probability in `(0, 1)` to log-odds.
///
/// # Examples
///
/// ```
/// use omu_geometry::prob_to_logodds;
/// assert!((prob_to_logodds(0.5)).abs() < 1e-7);
/// assert!(prob_to_logodds(0.7) > 0.0);
/// ```
#[inline]
pub fn prob_to_logodds(p: f64) -> f32 {
    (p / (1.0 - p)).ln() as f32
}

/// Converts a log-odds value back to a probability in `(0, 1)`.
///
/// # Examples
///
/// ```
/// use omu_geometry::{logodds_to_prob, prob_to_logodds};
/// let p = 0.7;
/// assert!((logodds_to_prob(prob_to_logodds(p)) - p).abs() < 1e-6);
/// ```
#[inline]
pub fn logodds_to_prob(l: f32) -> f64 {
    1.0 - 1.0 / (1.0 + (l as f64).exp())
}

/// Occupancy state of a voxel as reported by map queries.
///
/// Mirrors the three query outcomes of the OMU voxel query unit (and the
/// 2-bit child status tags minus the `inner` encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Occupancy {
    /// The voxel has been observed and its occupancy probability is at or
    /// above the occupancy threshold.
    Occupied,
    /// The voxel has been observed and its occupancy probability is below
    /// the occupancy threshold.
    Free,
    /// The voxel has never been observed.
    Unknown,
}

impl fmt::Display for Occupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Occupancy::Occupied => "occupied",
            Occupancy::Free => "free",
            Occupancy::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// A log-odds value representation.
///
/// The software baseline stores log-odds as `f32` (like OctoMap); the OMU
/// accelerator stores them as 16-bit fixed point
/// ([`FixedLogOdds`](crate::FixedLogOdds)). The occupancy octree is generic
/// over this trait so that the same algorithm can be verified bit-for-bit
/// against the accelerator model.
///
/// This trait is sealed against downstream implementations: the equivalence
/// guarantees in `omu-octree` and `omu-core` only hold for the two provided
/// representations.
pub trait LogOdds:
    Copy + PartialEq + PartialOrd + fmt::Debug + Send + Sync + private::Sealed + 'static
{
    /// The log-odds value 0 (probability 0.5).
    const ZERO: Self;

    /// Converts from an `f32` log-odds value (rounding if lossy).
    fn from_f32(l: f32) -> Self;

    /// Converts to an `f32` log-odds value.
    fn to_f32(self) -> f32;

    /// Adds `delta`, saturating at the representation's limits.
    fn add(self, delta: Self) -> Self;

    /// Bit-for-bit equality. Unlike `==` it tells `+0.0` from `-0.0` and
    /// finds a NaN equal to itself, so it says exactly when an update left
    /// a stored value unchanged.
    fn same_bits(self, other: Self) -> bool;

    /// Clamps into `[min, max]`.
    #[inline]
    fn clamp_to(self, min: Self, max: Self) -> Self {
        if self < min {
            min
        } else if self > max {
            max
        } else {
            self
        }
    }

    /// The larger of `a` and `b` (the OctoMap parent occupancy policy).
    #[inline]
    fn max_of(a: Self, b: Self) -> Self {
        if a >= b {
            a
        } else {
            b
        }
    }
}

impl LogOdds for f32 {
    const ZERO: f32 = 0.0;

    #[inline]
    fn from_f32(l: f32) -> f32 {
        l
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn add(self, delta: f32) -> f32 {
        self + delta
    }

    #[inline]
    fn same_bits(self, other: f32) -> bool {
        self.to_bits() == other.to_bits()
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for crate::fixed::FixedLogOdds {}
}

/// Sensor-model parameters of a probabilistic occupancy map.
///
/// The defaults are OctoMap's: `P(hit) = 0.7`, `P(miss) = 0.4`, clamping to
/// probabilities `[0.1192, 0.971]` (log-odds `[-2, 3.5]`) and an occupancy
/// threshold of `P = 0.5` (log-odds 0).
///
/// # Examples
///
/// ```
/// use omu_geometry::OccupancyParams;
///
/// let p = OccupancyParams::default();
/// assert!(p.hit > 0.0 && p.miss < 0.0);
/// assert!(p.clamp_min < p.occupancy_threshold);
/// assert!(p.clamp_max > p.occupancy_threshold);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancyParams {
    /// Log-odds added when a voxel is observed occupied (endpoint of a ray).
    pub hit: f32,
    /// Log-odds added when a voxel is observed free (traversed by a ray);
    /// negative.
    pub miss: f32,
    /// Lower clamping bound for stored log-odds.
    pub clamp_min: f32,
    /// Upper clamping bound for stored log-odds.
    pub clamp_max: f32,
    /// Voxels with log-odds at or above this value classify as occupied.
    pub occupancy_threshold: f32,
}

impl Default for OccupancyParams {
    fn default() -> Self {
        OccupancyParams {
            hit: prob_to_logodds(0.7),
            miss: prob_to_logodds(0.4),
            clamp_min: -2.0,
            clamp_max: 3.5,
            occupancy_threshold: 0.0,
        }
    }
}

impl OccupancyParams {
    /// Builds parameters from hit/miss *probabilities* instead of log-odds.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are outside `(0, 1)`, if `p_hit <= 0.5`,
    /// or if `p_miss >= 0.5` — such values would invert the sensor model.
    pub fn from_probabilities(p_hit: f64, p_miss: f64) -> Self {
        assert!(
            p_hit > 0.5 && p_hit < 1.0,
            "p_hit must be in (0.5, 1), got {p_hit}"
        );
        assert!(
            p_miss > 0.0 && p_miss < 0.5,
            "p_miss must be in (0, 0.5), got {p_miss}"
        );
        OccupancyParams {
            hit: prob_to_logodds(p_hit),
            miss: prob_to_logodds(p_miss),
            ..Self::default()
        }
    }

    /// Resolves the parameters into a concrete log-odds representation.
    ///
    /// Quantizing the parameters once (rather than every update) is what
    /// makes the fixed-point accelerator map exactly reproducible on the
    /// quantized software baseline.
    pub fn resolve<V: LogOdds>(&self) -> ResolvedParams<V> {
        ResolvedParams {
            hit: V::from_f32(self.hit),
            miss: V::from_f32(self.miss),
            clamp_min: V::from_f32(self.clamp_min),
            clamp_max: V::from_f32(self.clamp_max),
            occupancy_threshold: V::from_f32(self.occupancy_threshold),
        }
    }

    /// Classifies a raw `f32` log-odds value of an *observed* voxel.
    #[inline]
    pub fn classify(&self, logodds: f32) -> Occupancy {
        if logodds >= self.occupancy_threshold {
            Occupancy::Occupied
        } else {
            Occupancy::Free
        }
    }
}

/// [`OccupancyParams`] converted into a concrete [`LogOdds`] representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedParams<V> {
    /// Log-odds increment for an occupied observation.
    pub hit: V,
    /// Log-odds increment for a free observation.
    pub miss: V,
    /// Lower clamping bound.
    pub clamp_min: V,
    /// Upper clamping bound.
    pub clamp_max: V,
    /// Occupancy classification threshold.
    pub occupancy_threshold: V,
}

impl<V: LogOdds> ResolvedParams<V> {
    /// Applies one measurement update: add and clamp (eq. 2 of the paper).
    #[inline]
    pub fn update(&self, value: V, hit: bool) -> V {
        let delta = if hit { self.hit } else { self.miss };
        value.add(delta).clamp_to(self.clamp_min, self.clamp_max)
    }

    /// Classifies an observed value against the occupancy threshold.
    #[inline]
    pub fn classify(&self, value: V) -> Occupancy {
        if value >= self.occupancy_threshold {
            Occupancy::Occupied
        } else {
            Occupancy::Free
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_logodds_roundtrip() {
        for p in [0.1, 0.3, 0.5, 0.7, 0.9, 0.97] {
            let l = prob_to_logodds(p);
            assert!((logodds_to_prob(l) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn octomap_default_constants() {
        let p = OccupancyParams::default();
        assert!((p.hit - 0.847_297_9).abs() < 1e-5);
        assert!((p.miss + 0.405_465_1).abs() < 1e-5);
        assert_eq!(p.clamp_min, -2.0);
        assert_eq!(p.clamp_max, 3.5);
        assert_eq!(p.occupancy_threshold, 0.0);
    }

    #[test]
    fn from_probabilities_validates() {
        let p = OccupancyParams::from_probabilities(0.7, 0.4);
        assert!((p.hit - OccupancyParams::default().hit).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "p_hit")]
    fn hit_probability_below_half_rejected() {
        let _ = OccupancyParams::from_probabilities(0.4, 0.4);
    }

    #[test]
    #[should_panic(expected = "p_miss")]
    fn miss_probability_above_half_rejected() {
        let _ = OccupancyParams::from_probabilities(0.7, 0.6);
    }

    #[test]
    fn update_clamps_at_bounds() {
        let r = OccupancyParams::default().resolve::<f32>();
        let mut v = 0.0f32;
        for _ in 0..100 {
            v = r.update(v, true);
        }
        assert_eq!(v, 3.5, "saturates at clamp_max");
        for _ in 0..100 {
            v = r.update(v, false);
        }
        assert_eq!(v, -2.0, "saturates at clamp_min");
    }

    #[test]
    fn same_bits_compares_bit_patterns() {
        assert!(1.5f32.same_bits(1.5));
        assert!(!0.0f32.same_bits(-0.0), "signed zeros differ in bits");
        assert!(f32::NAN.same_bits(f32::NAN), "a NaN matches itself");
        let q = crate::FixedLogOdds::from_bits(-7);
        assert!(q.same_bits(q));
        assert!(!q.same_bits(crate::FixedLogOdds::from_bits(7)));
    }

    #[test]
    fn classify_uses_threshold() {
        let p = OccupancyParams::default();
        assert_eq!(p.classify(0.0), Occupancy::Occupied);
        assert_eq!(p.classify(-0.1), Occupancy::Free);
        let r = p.resolve::<f32>();
        assert_eq!(r.classify(1.0), Occupancy::Occupied);
        assert_eq!(r.classify(-1.0), Occupancy::Free);
    }

    #[test]
    fn max_of_is_commutative_max() {
        assert_eq!(<f32 as LogOdds>::max_of(1.0, 2.0), 2.0);
        assert_eq!(<f32 as LogOdds>::max_of(2.0, 1.0), 2.0);
        assert_eq!(<f32 as LogOdds>::max_of(-1.0, -1.0), -1.0);
    }

    #[test]
    fn occupancy_display() {
        assert_eq!(Occupancy::Occupied.to_string(), "occupied");
        assert_eq!(Occupancy::Free.to_string(), "free");
        assert_eq!(Occupancy::Unknown.to_string(), "unknown");
    }
}
