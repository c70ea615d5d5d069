//! Scan integration: turning a point cloud into per-voxel hit/miss updates.
//!
//! One sequential [`ScanIntegrator`] casts every ray of a scan, through
//! either DDA front end, and emits in ray order; DedupPerScan is a
//! wrapper that collects that raywise emission into per-scan key sets.
//! Parallelism lives downstream, in the octree's branch-sharded walk.

use omu_geometry::{KeyConverter, KeyError, Point3, Scan, VoxelKey};
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};

use crate::dda::compute_ray_keys;
use crate::keyray::KeyRay;
use crate::packet::{FrontEnd, LaneOutcome, PacketStats, RayPacket, PACKET_LANES};

/// Computes the effective endpoint of a ray under the range limit.
///
/// Returns `(endpoint, truncated)`. Shared by the scalar integrator and
/// the packet front end so both truncate with identical floating-point
/// operations.
pub(crate) fn effective_endpoint(
    max_range: Option<f64>,
    origin: Point3,
    point: Point3,
) -> (Point3, bool) {
    match max_range {
        Some(r) => {
            let v = point - origin;
            let len = v.norm();
            if len > r && len > 0.0 {
                (origin + v * (r / len), true)
            } else {
                (point, false)
            }
        }
        None => (point, false),
    }
}

/// One voxel observation produced by scan integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VoxelUpdate {
    /// The observed voxel.
    pub key: VoxelKey,
    /// `true` for an endpoint (occupied observation), `false` for a
    /// traversed cell (free observation).
    pub hit: bool,
}

/// How overlapping voxels within one scan are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IntegrationMode {
    /// Every ray updates every cell it traverses; overlapping cells are
    /// updated multiple times. This is what the OMU accelerator executes
    /// (the paper explicitly leaves "voxel overlap search" to specialized
    /// ray-casting hardware) and what Table II counts as *voxel updates*.
    #[default]
    Raywise,
    /// OctoMap's `insertPointCloud` semantics: free and occupied cells are
    /// deduplicated per scan with key sets, and cells observed both free and
    /// occupied are updated as occupied only.
    DedupPerScan,
}

/// Counters describing one integration pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrationStats {
    /// Rays processed (points within range, converted successfully).
    pub rays: u64,
    /// DDA steps performed during ray casting.
    pub dda_steps: u64,
    /// Free-cell updates emitted.
    pub free_updates: u64,
    /// Occupied-cell updates emitted.
    pub occupied_updates: u64,
    /// Rays truncated at the maximum range (endpoint not marked occupied).
    pub truncated_rays: u64,
    /// Points discarded because they fell outside the addressable map.
    pub discarded_points: u64,
}

impl IntegrationStats {
    /// Total voxel updates emitted (free + occupied) — the paper's
    /// "Voxel Update" workload metric (Table II).
    pub fn total_updates(&self) -> u64 {
        self.free_updates + self.occupied_updates
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &IntegrationStats) {
        self.rays += other.rays;
        self.dda_steps += other.dda_steps;
        self.free_updates += other.free_updates;
        self.occupied_updates += other.occupied_updates;
        self.truncated_rays += other.truncated_rays;
        self.discarded_points += other.discarded_points;
    }
}

/// Converts scans into streams of [`VoxelUpdate`]s.
///
/// The integrator owns its scratch buffers ([`KeyRay`], dedup sets) so that
/// per-scan integration performs no steady-state allocation.
///
/// # Examples
///
/// ```
/// use omu_geometry::{KeyConverter, Point3, PointCloud, Scan};
/// use omu_raycast::{IntegrationMode, ScanIntegrator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let conv = KeyConverter::new(0.1)?;
/// let mut integrator = ScanIntegrator::new(conv, Some(5.0), IntegrationMode::Raywise);
/// let scan = Scan::new(
///     Point3::ZERO,
///     [Point3::new(1.0, 0.0, 0.0)].into_iter().collect::<PointCloud>(),
/// );
/// let mut hits = 0;
/// let stats = integrator.integrate(&scan, |u| if u.hit { hits += 1 })?;
/// assert_eq!(hits, 1);
/// assert_eq!(stats.free_updates, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScanIntegrator {
    conv: KeyConverter,
    max_range: Option<f64>,
    mode: IntegrationMode,
    front_end: FrontEnd,
    keyray: KeyRay,
    /// Lockstep walk state for [`FrontEnd::Packet`] (idle under
    /// [`FrontEnd::Scalar`]).
    packet: RayPacket,
    // Fx instead of SipHash: the dedup sets hash millions of structured,
    // non-adversarial voxel keys per scan, so the cheaper mix is a
    // measurable integration-path win.
    free_set: FxHashSet<VoxelKey>,
    occupied_set: FxHashSet<VoxelKey>,
    /// Largest `free_set` / `occupied_set` sizes seen so far: each scan
    /// pre-reserves the previous high-water mark so the sets rehash at
    /// most during the first (largest-growth) scan instead of doubling
    /// their way up on every scan-sized refill.
    free_high_water: usize,
    occupied_high_water: usize,
}

impl ScanIntegrator {
    /// Creates an integrator.
    ///
    /// `max_range` limits the sensor range in metres: rays longer than the
    /// limit are truncated and update only free cells up to the limit
    /// (OctoMap `maxrange` semantics). `None` integrates rays at any length.
    pub fn new(conv: KeyConverter, max_range: Option<f64>, mode: IntegrationMode) -> Self {
        Self::with_front_end(conv, max_range, mode, FrontEnd::default())
    }

    /// Creates an integrator with an explicit DDA front end (see
    /// [`FrontEnd`]; [`Self::new`] uses the default, [`FrontEnd::Packet`]).
    pub fn with_front_end(
        conv: KeyConverter,
        max_range: Option<f64>,
        mode: IntegrationMode,
        front_end: FrontEnd,
    ) -> Self {
        ScanIntegrator {
            conv,
            max_range,
            mode,
            front_end,
            keyray: KeyRay::new(),
            packet: RayPacket::new(),
            free_set: FxHashSet::default(),
            occupied_set: FxHashSet::default(),
            free_high_water: 0,
            occupied_high_water: 0,
        }
    }

    /// The key converter in use.
    pub fn converter(&self) -> &KeyConverter {
        &self.conv
    }

    /// The integration mode in use.
    pub fn mode(&self) -> IntegrationMode {
        self.mode
    }

    /// The configured maximum sensor range.
    pub fn max_range(&self) -> Option<f64> {
        self.max_range
    }

    /// The DDA front end in use.
    pub fn front_end(&self) -> FrontEnd {
        self.front_end
    }

    /// Cumulative packet front-end counters (all zero while running
    /// [`FrontEnd::Scalar`]).
    pub fn packet_stats(&self) -> PacketStats {
        self.packet.stats()
    }

    /// Integrates one scan, invoking `apply` for every voxel update in
    /// order (free cells of each ray first, then its endpoint in
    /// [`IntegrationMode::Raywise`]; all free cells then all occupied cells
    /// in [`IntegrationMode::DedupPerScan`]).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] only when the *scan origin* cannot be addressed;
    /// out-of-map endpoints are skipped and counted in
    /// [`IntegrationStats::discarded_points`].
    pub fn integrate<F>(&mut self, scan: &Scan, apply: F) -> Result<IntegrationStats, KeyError>
    where
        F: FnMut(VoxelUpdate),
    {
        self.integrate_points(scan.origin, scan.cloud.points(), apply)
    }

    /// The borrow-based form of [`Self::integrate`]: casts one ray from
    /// `origin` to every point of `points`, with no `Scan`/`PointCloud`
    /// wrapper required. The octree's `insert_points` streams this
    /// emission straight into its batch engine, so a caller that already
    /// holds a point slice integrates with zero per-call cloud copies.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::integrate`].
    pub fn integrate_points<F>(
        &mut self,
        origin: Point3,
        points: &[Point3],
        mut apply: F,
    ) -> Result<IntegrationStats, KeyError>
    where
        F: FnMut(VoxelUpdate),
    {
        // Validate the origin once up front: a bad origin poisons all rays.
        let key_origin = self.conv.coord_to_key(origin)?;

        let mut stats = IntegrationStats::default();
        match self.mode {
            IntegrationMode::Raywise => {
                self.cast_raywise(origin, key_origin, points, &mut stats, &mut apply)
            }
            IntegrationMode::DedupPerScan => {
                self.integrate_dedup(origin, key_origin, points, &mut stats, &mut apply)
            }
        }
        Ok(stats)
    }

    /// Integrates one scan, appending every voxel update to `out` — the
    /// emission form consumed by the octree's batch engine
    /// (`apply_update_batch`).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::integrate`].
    pub fn integrate_into(
        &mut self,
        scan: &Scan,
        out: &mut Vec<VoxelUpdate>,
    ) -> Result<IntegrationStats, KeyError> {
        self.integrate(scan, |u| out.push(u))
    }

    /// Computes the effective endpoint of a ray under the range limit.
    ///
    /// Returns `(endpoint, truncated)`.
    fn effective_endpoint(&self, origin: Point3, point: Point3) -> (Point3, bool) {
        effective_endpoint(self.max_range, origin, point)
    }

    /// The raywise emission of the configured front end: every ray's
    /// traversed cells as misses, then its endpoint as a hit.
    fn cast_raywise<F>(
        &mut self,
        origin: Point3,
        key_origin: VoxelKey,
        points: &[Point3],
        stats: &mut IntegrationStats,
        apply: &mut F,
    ) where
        F: FnMut(VoxelUpdate),
    {
        match self.front_end {
            FrontEnd::Scalar => self.integrate_raywise(origin, points, stats, apply),
            FrontEnd::Packet => {
                self.integrate_raywise_packet(origin, key_origin, points, stats, apply)
            }
        }
    }

    fn integrate_raywise<F>(
        &mut self,
        origin: Point3,
        points: &[Point3],
        stats: &mut IntegrationStats,
        apply: &mut F,
    ) where
        F: FnMut(VoxelUpdate),
    {
        for &p in points {
            let (end, truncated) = self.effective_endpoint(origin, p);
            let Ok(end_key) = self.conv.coord_to_key(end) else {
                stats.discarded_points += 1;
                continue;
            };
            let steps = match compute_ray_keys(&self.conv, origin, end, &mut self.keyray) {
                Ok(s) => s,
                Err(_) => {
                    stats.discarded_points += 1;
                    continue;
                }
            };
            stats.rays += 1;
            stats.dda_steps += steps;
            for &k in &self.keyray {
                apply(VoxelUpdate { key: k, hit: false });
            }
            stats.free_updates += self.keyray.len() as u64;
            if truncated {
                stats.truncated_rays += 1;
            } else {
                apply(VoxelUpdate {
                    key: end_key,
                    hit: true,
                });
                stats.occupied_updates += 1;
            }
        }
    }

    /// [`FrontEnd::Packet`] form of [`Self::integrate_raywise`]: casts
    /// rays in groups of [`PACKET_LANES`], then drains lanes in ray order
    /// so the emitted stream is byte-identical to the scalar front end's.
    fn integrate_raywise_packet<F>(
        &mut self,
        origin: Point3,
        key_origin: VoxelKey,
        points: &[Point3],
        stats: &mut IntegrationStats,
        apply: &mut F,
    ) where
        F: FnMut(VoxelUpdate),
    {
        for chunk in points.chunks(PACKET_LANES) {
            self.packet
                .cast(&self.conv, origin, key_origin, chunk, self.max_range);
            for l in 0..chunk.len() {
                let hit = match self.packet.outcome(l) {
                    LaneOutcome::Discarded => {
                        stats.discarded_points += 1;
                        continue;
                    }
                    LaneOutcome::Truncated => None,
                    LaneOutcome::Hit(end_key) => Some(end_key),
                };
                stats.rays += 1;
                stats.dda_steps += self.packet.steps(l);
                let keys = self.packet.keys(l);
                for &k in keys {
                    apply(VoxelUpdate { key: k, hit: false });
                }
                stats.free_updates += keys.len() as u64;
                match hit {
                    Some(end_key) => {
                        apply(VoxelUpdate {
                            key: end_key,
                            hit: true,
                        });
                        stats.occupied_updates += 1;
                    }
                    None => stats.truncated_rays += 1,
                }
            }
        }
    }

    /// [`IntegrationMode::DedupPerScan`] over either front end: the
    /// raywise emission fills the per-scan key sets, in emission order,
    /// and the sets are then emitted once each, occupied winning over
    /// free.
    fn integrate_dedup<F>(
        &mut self,
        origin: Point3,
        key_origin: VoxelKey,
        points: &[Point3],
        stats: &mut IntegrationStats,
        apply: &mut F,
    ) where
        F: FnMut(VoxelUpdate),
    {
        // The sets move out of `self` while the cast borrows it.
        let mut free_set = std::mem::take(&mut self.free_set);
        let mut occupied_set = std::mem::take(&mut self.occupied_set);
        free_set.clear();
        occupied_set.clear();
        // Steady-state scans are all about the same size: reserving the
        // previous high-water mark up front removes the incremental
        // rehash growth from the per-scan path (clearing keeps capacity,
        // so this only costs anything after a rebuild or an unusually
        // large scan).
        free_set.reserve(self.free_high_water);
        occupied_set.reserve(self.occupied_high_water);

        self.cast_raywise(origin, key_origin, points, stats, &mut |u| {
            if u.hit {
                occupied_set.insert(u.key);
            } else {
                free_set.insert(u.key);
            }
        });

        // Occupied wins over free within a scan (OctoMap semantics); the
        // raywise counts become post-dedup counts.
        stats.free_updates = 0;
        stats.occupied_updates = 0;
        for &k in &free_set {
            if !occupied_set.contains(&k) {
                apply(VoxelUpdate { key: k, hit: false });
                stats.free_updates += 1;
            }
        }
        for &k in &occupied_set {
            apply(VoxelUpdate { key: k, hit: true });
            stats.occupied_updates += 1;
        }
        self.free_high_water = self.free_high_water.max(free_set.len());
        self.occupied_high_water = self.occupied_high_water.max(occupied_set.len());
        self.free_set = free_set;
        self.occupied_set = occupied_set;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_geometry::PointCloud;

    fn integrator(mode: IntegrationMode, max_range: Option<f64>) -> ScanIntegrator {
        ScanIntegrator::new(KeyConverter::new(0.1).unwrap(), max_range, mode)
    }

    fn scan(points: &[Point3]) -> Scan {
        Scan::new(Point3::ZERO, points.iter().copied().collect::<PointCloud>())
    }

    #[test]
    fn raywise_counts_duplicates() {
        // Two identical rays: raywise emits every cell twice.
        let s = scan(&[Point3::new(0.5, 0.0, 0.0), Point3::new(0.5, 0.0, 0.0)]);
        let mut it = integrator(IntegrationMode::Raywise, None);
        let mut updates = Vec::new();
        let stats = it.integrate(&s, |u| updates.push(u)).unwrap();
        assert_eq!(stats.rays, 2);
        assert_eq!(stats.free_updates, 10);
        assert_eq!(stats.occupied_updates, 2);
        assert_eq!(stats.total_updates(), 12);
        assert_eq!(updates.len(), 12);
    }

    #[test]
    fn dedup_collapses_duplicates() {
        let s = scan(&[Point3::new(0.5, 0.0, 0.0), Point3::new(0.5, 0.0, 0.0)]);
        let mut it = integrator(IntegrationMode::DedupPerScan, None);
        let mut updates = Vec::new();
        let stats = it.integrate(&s, |u| updates.push(u)).unwrap();
        assert_eq!(stats.rays, 2);
        assert_eq!(stats.free_updates, 5);
        assert_eq!(stats.occupied_updates, 1);
        assert_eq!(updates.len(), 6);
    }

    #[test]
    fn dedup_occupied_wins_over_free() {
        // First ray ends where the second ray passes through.
        let s = scan(&[Point3::new(0.35, 0.0, 0.0), Point3::new(0.95, 0.0, 0.0)]);
        let mut it = integrator(IntegrationMode::DedupPerScan, None);
        let mut updates = Vec::new();
        it.integrate(&s, |u| updates.push(u)).unwrap();
        let end1 = it
            .converter()
            .coord_to_key(Point3::new(0.35, 0.0, 0.0))
            .unwrap();
        let as_free = updates.iter().any(|u| u.key == end1 && !u.hit);
        let as_occ = updates.iter().any(|u| u.key == end1 && u.hit);
        assert!(!as_free, "endpoint must not also be updated as free");
        assert!(as_occ);
    }

    #[test]
    fn max_range_truncates_rays() {
        let s = scan(&[Point3::new(2.0, 0.0, 0.0)]);
        let mut it = integrator(IntegrationMode::Raywise, Some(1.0));
        let mut occupied = 0;
        let mut max_x_key = 0u16;
        let stats = it
            .integrate(&s, |u| {
                if u.hit {
                    occupied += 1;
                }
                max_x_key = max_x_key.max(u.key.x);
            })
            .unwrap();
        assert_eq!(occupied, 0, "truncated ray marks no endpoint");
        assert_eq!(stats.truncated_rays, 1);
        // No cell beyond 1.0 m (key 32768 + 10).
        assert!(max_x_key <= 32768 + 10);
    }

    #[test]
    fn in_range_ray_not_truncated() {
        let s = scan(&[Point3::new(0.5, 0.0, 0.0)]);
        let mut it = integrator(IntegrationMode::Raywise, Some(1.0));
        let stats = it.integrate(&s, |_| {}).unwrap();
        assert_eq!(stats.truncated_rays, 0);
        assert_eq!(stats.occupied_updates, 1);
    }

    #[test]
    fn out_of_map_points_skipped_and_counted() {
        let far = KeyConverter::new(0.1).unwrap().map_half_extent() + 100.0;
        let s = scan(&[Point3::new(far, 0.0, 0.0), Point3::new(0.5, 0.0, 0.0)]);
        let mut it = integrator(IntegrationMode::Raywise, None);
        let stats = it.integrate(&s, |_| {}).unwrap();
        assert_eq!(stats.discarded_points, 1);
        assert_eq!(stats.rays, 1);
    }

    #[test]
    fn bad_origin_is_an_error() {
        let far = KeyConverter::new(0.1).unwrap().map_half_extent() + 100.0;
        let s = Scan::new(
            Point3::new(far, 0.0, 0.0),
            [Point3::ZERO].into_iter().collect::<PointCloud>(),
        );
        let mut it = integrator(IntegrationMode::Raywise, None);
        assert!(it.integrate(&s, |_| {}).is_err());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = IntegrationStats {
            rays: 1,
            dda_steps: 2,
            free_updates: 3,
            ..Default::default()
        };
        let b = IntegrationStats {
            rays: 10,
            occupied_updates: 5,
            truncated_rays: 1,
            discarded_points: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rays, 11);
        assert_eq!(a.free_updates, 3);
        assert_eq!(a.occupied_updates, 5);
        assert_eq!(a.total_updates(), 8);
    }

    #[test]
    fn dedup_sets_track_high_water_and_keep_capacity() {
        let mut it = integrator(IntegrationMode::DedupPerScan, None);
        let s = scan(&[Point3::new(1.0, 0.0, 0.0), Point3::new(0.0, 1.0, 0.0)]);
        it.integrate(&s, |_| {}).unwrap();
        assert!(it.free_high_water > 0, "free cells were deduped");
        assert!(it.occupied_high_water > 0, "endpoints were deduped");
        let cap = it.free_set.capacity();
        // Subsequent same-sized scans never shrink or regrow the sets.
        it.integrate(&s, |_| {}).unwrap();
        assert_eq!(it.free_set.capacity(), cap);
        assert_eq!(it.free_high_water, it.free_set.len());
    }

    #[test]
    fn empty_scan_is_a_noop() {
        let mut it = integrator(IntegrationMode::DedupPerScan, None);
        let stats = it
            .integrate(&scan(&[]), |_| panic!("no updates expected"))
            .unwrap();
        assert_eq!(stats, IntegrationStats::default());
    }
}
