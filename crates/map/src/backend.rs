//! The backend abstraction: one trait over the software octree and the
//! accelerator model, so engine and backend selection are values.

use omu_core::OmuAccelerator;
use omu_geometry::{
    FixedLogOdds, KeyConverter, LogOdds, Occupancy, Point3, PointCloud, Scan, VoxelKey,
};
use omu_octree::{LeafInfo, OccupancyOctree, OpCounters, QueryCounters, RayCastResult};
use omu_raycast::{FrontEnd, IntegrationStats};

use crate::engine::Engine;
use crate::error::MapError;

/// The operations an [`OccupancyMap`](crate::OccupancyMap) needs from a
/// map-holding engine, implemented by both
/// [`OccupancyOctree`](omu_octree::OccupancyOctree) (the software
/// baseline, either value representation) and
/// [`OmuAccelerator`](omu_core::OmuAccelerator) (the transaction-level
/// hardware model).
///
/// The trait is object-safe: the facade holds a `&mut dyn MapBackend`
/// while serving queries, so backend selection is a runtime value.
/// Queries take `&mut self` because the accelerator's voxel query unit
/// accounts cycles per query and the software tree adds each cursor
/// read's [`QueryCounters`] to its own. Every query runs on the
/// caller's thread.
pub trait MapBackend: std::fmt::Debug {
    /// A short human-readable backend name (`"software"` /
    /// `"accelerator"`).
    fn backend_name(&self) -> &'static str;

    /// The key/coordinate converter (shared by both backends).
    fn converter(&self) -> &KeyConverter;

    /// The ray-casting DDA front end the backend integrates scans with.
    fn front_end(&self) -> FrontEnd;

    /// Integrates one scan through the path selected by `engine`.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] for an out-of-map origin;
    /// [`MapError::Capacity`] when the accelerator exhausts its T-Mem.
    fn insert_scan(&mut self, scan: &Scan, engine: Engine) -> Result<IntegrationStats, MapError>;

    /// Borrow-based ingestion: integrates one scan straight from its
    /// origin and point slice. On the software backend
    /// [`Engine::Sharded`] integrates the slice in place, so steady-state
    /// calls copy no point cloud at all.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::insert_scan`].
    fn insert_points(
        &mut self,
        origin: Point3,
        points: &[Point3],
        engine: Engine,
    ) -> Result<IntegrationStats, MapError>;

    /// Occupancy classification of the voxel at `key` (keys are always
    /// addressable, so this is infallible on both backends).
    fn occupancy(&mut self, key: VoxelKey) -> Occupancy;

    /// Classifies a batch of voxel keys, in input order, through the
    /// backend's batched query engine: one Morton-coalesced cursor sweep
    /// on the software tree, the voxel query unit's register-file path on
    /// the accelerator. Bit-identical to calling [`Self::occupancy`] per
    /// key.
    fn occupancy_batch(&mut self, keys: &[VoxelKey]) -> Vec<Occupancy>;

    /// Casts one query ray through the backend's cached-descent path.
    /// Same contract and result as the probe-per-step path the facade
    /// historically used — consecutive DDA steps just stop re-paying the
    /// full root-to-leaf descent.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] for a bad origin or degenerate
    /// direction.
    fn cast_ray(
        &mut self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, MapError>;

    /// Casts a batch of query rays, in input order, through one descent
    /// cursor (the voxel query unit on the accelerator).
    ///
    /// # Errors
    ///
    /// The first [`MapError::OutOfBounds`] in input order; no ray after
    /// it is cast.
    fn cast_rays(
        &mut self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<Vec<RayCastResult>, MapError>;

    /// Sphere collision probe through the backend's cached-descent path.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the probe region leaves the map.
    fn collides_sphere(&mut self, center: Point3, radius: f64) -> Result<bool, MapError>;

    /// Removes and returns the read-side counters, when the backend
    /// tracks them (`None` on the accelerator, whose query accounting
    /// lives in `QueryUnitStats`).
    fn take_query_counters(&mut self) -> Option<QueryCounters>;

    /// The stored log-odds covering `key` as `f32`, if observed. Never
    /// counted as a hardware operation (the accelerator reads its T-Mem
    /// with uncounted peeks).
    fn peek_logodds(&self, key: VoxelKey) -> Option<f32>;

    /// The canonical sorted map snapshot `(key, depth, logodds)` — the
    /// comparison format of the equivalence suite.
    fn snapshot(&self) -> Vec<(VoxelKey, u8, f32)>;

    /// The leaves whose regions intersect the key box `[min, max]`
    /// (inclusive per axis), in deterministic order.
    fn leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> Vec<LeafInfo>;

    /// Tree-operation counters, when the backend tracks them (`None` on
    /// the accelerator, whose accounting lives in `AccelStats`).
    fn op_counters(&self) -> Option<OpCounters>;

    /// Enables or disables change tracking; returns `false` when the
    /// backend cannot track changes (the accelerator model).
    fn set_change_tracking(&mut self, enabled: bool) -> bool;

    /// Removes and returns the keys whose classification changed since
    /// the last drain, sorted (empty when tracking is off/unsupported).
    fn drain_changed(&mut self) -> Vec<VoxelKey>;

    /// Serializes the map to the octree byte format.
    ///
    /// # Errors
    ///
    /// [`MapError::Unsupported`] when the backend cannot export its map.
    fn save_bytes(&self) -> Result<Vec<u8>, MapError>;

    /// Number of leaves (finest voxels and pruned regions) in the map.
    fn num_leaves(&self) -> usize;

    /// True when nothing has been observed yet.
    fn is_empty(&self) -> bool;
}

impl<V: LogOdds> MapBackend for OccupancyOctree<V> {
    fn backend_name(&self) -> &'static str {
        "software"
    }

    fn converter(&self) -> &KeyConverter {
        OccupancyOctree::converter(self)
    }

    fn front_end(&self) -> FrontEnd {
        OccupancyOctree::front_end(self)
    }

    fn insert_scan(&mut self, scan: &Scan, engine: Engine) -> Result<IntegrationStats, MapError> {
        match engine {
            Engine::Scalar => Ok(self.insert_scan(scan)?),
            Engine::Sharded { .. } => {
                MapBackend::insert_points(self, scan.origin, scan.cloud.points(), engine)
            }
        }
    }

    fn insert_points(
        &mut self,
        origin: Point3,
        points: &[Point3],
        engine: Engine,
    ) -> Result<IntegrationStats, MapError> {
        match engine {
            // The scalar oracle consumes a `Scan`; build one from the
            // borrowed slice.
            Engine::Scalar => {
                let scan = Scan::new(origin, points.iter().copied().collect::<PointCloud>());
                Ok(self.insert_scan(&scan)?)
            }
            // A pool-worker panic surfaces as a typed
            // `MapError::WorkerPanicked` instead of unwinding through the
            // facade.
            Engine::Sharded { shards } => Ok(OccupancyOctree::insert_points(
                self, origin, points, shards,
            )?),
        }
    }

    fn occupancy(&mut self, key: VoxelKey) -> Occupancy {
        OccupancyOctree::occupancy(self, key)
    }

    fn occupancy_batch(&mut self, keys: &[VoxelKey]) -> Vec<Occupancy> {
        self.with_reader(|r| r.query_batch(keys))
    }

    fn cast_ray(
        &mut self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, MapError> {
        Ok(self.with_reader(|r| r.cast_ray(origin, direction, max_range, ignore_unknown))?)
    }

    fn cast_rays(
        &mut self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<Vec<RayCastResult>, MapError> {
        Ok(self.with_reader(|r| r.cast_rays(rays, max_range, ignore_unknown))?)
    }

    fn collides_sphere(&mut self, center: Point3, radius: f64) -> Result<bool, MapError> {
        Ok(self.with_reader(|r| r.collides_sphere(center, radius))?)
    }

    fn take_query_counters(&mut self) -> Option<QueryCounters> {
        Some(OccupancyOctree::take_query_counters(self))
    }

    fn peek_logodds(&self, key: VoxelKey) -> Option<f32> {
        self.logodds(key)
    }

    fn snapshot(&self) -> Vec<(VoxelKey, u8, f32)> {
        OccupancyOctree::snapshot(self)
    }

    fn leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> Vec<LeafInfo> {
        self.iter_leaves_in_box(min, max).collect()
    }

    fn op_counters(&self) -> Option<OpCounters> {
        Some(*self.counters())
    }

    fn set_change_tracking(&mut self, enabled: bool) -> bool {
        self.set_change_detection(enabled);
        true
    }

    fn drain_changed(&mut self) -> Vec<VoxelKey> {
        let mut keys: Vec<VoxelKey> = self.changed_keys().copied().collect();
        keys.sort_unstable();
        self.reset_changed_keys();
        keys
    }

    fn save_bytes(&self) -> Result<Vec<u8>, MapError> {
        Ok(self.to_bytes())
    }

    fn num_leaves(&self) -> usize {
        self.iter_leaves().count()
    }

    fn is_empty(&self) -> bool {
        OccupancyOctree::is_empty(self)
    }
}

impl MapBackend for OmuAccelerator {
    fn backend_name(&self) -> &'static str {
        "accelerator"
    }

    fn converter(&self) -> &KeyConverter {
        OmuAccelerator::converter(self)
    }

    fn front_end(&self) -> FrontEnd {
        self.config().front_end
    }

    fn insert_scan(&mut self, scan: &Scan, engine: Engine) -> Result<IntegrationStats, MapError> {
        Ok(self.integrate_scan_with(scan, engine.update_engine())?)
    }

    fn insert_points(
        &mut self,
        origin: Point3,
        points: &[Point3],
        engine: Engine,
    ) -> Result<IntegrationStats, MapError> {
        // The accelerator's DMA front end consumes whole scans; the copy
        // here models the host marshalling the cloud for transfer.
        let scan = Scan::new(origin, points.iter().copied().collect::<PointCloud>());
        MapBackend::insert_scan(self, &scan, engine)
    }

    fn occupancy(&mut self, key: VoxelKey) -> Occupancy {
        self.query_key(key)
    }

    fn occupancy_batch(&mut self, keys: &[VoxelKey]) -> Vec<Occupancy> {
        self.query_batch(keys)
    }

    fn cast_ray(
        &mut self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, MapError> {
        Ok(OmuAccelerator::cast_ray(
            self,
            origin,
            direction,
            max_range,
            ignore_unknown,
        )?)
    }

    fn cast_rays(
        &mut self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<Vec<RayCastResult>, MapError> {
        Ok(OmuAccelerator::cast_rays(
            self,
            rays,
            max_range,
            ignore_unknown,
        )?)
    }

    fn collides_sphere(&mut self, center: Point3, radius: f64) -> Result<bool, MapError> {
        Ok(OmuAccelerator::collides_sphere(self, center, radius)?)
    }

    fn take_query_counters(&mut self) -> Option<QueryCounters> {
        None
    }

    fn peek_logodds(&self, key: VoxelKey) -> Option<f32> {
        OmuAccelerator::peek_logodds(self, key)
    }

    fn snapshot(&self) -> Vec<(VoxelKey, u8, f32)> {
        OmuAccelerator::snapshot(self)
    }

    fn leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> Vec<LeafInfo> {
        let resolved = self.config().params.resolve::<FixedLogOdds>();
        // The PEs prune subtrees outside the box, so this scales with
        // the region, not the map.
        self.snapshot_in_box(min, max)
            .into_iter()
            .map(|(key, depth, logodds)| LeafInfo {
                key,
                depth,
                logodds,
                // `logodds` came out of a FixedLogOdds, so the roundtrip
                // is exact and the classification matches the PE's.
                occupancy: resolved.classify(FixedLogOdds::from_f32(logodds)),
            })
            .collect()
    }

    fn op_counters(&self) -> Option<OpCounters> {
        None
    }

    fn set_change_tracking(&mut self, _enabled: bool) -> bool {
        false
    }

    fn drain_changed(&mut self) -> Vec<VoxelKey> {
        Vec::new()
    }

    fn save_bytes(&self) -> Result<Vec<u8>, MapError> {
        Err(MapError::Unsupported {
            backend: self.backend_name(),
            feature: "map serialization (mirror the map on a software backend to persist it)",
        })
    }

    fn num_leaves(&self) -> usize {
        OmuAccelerator::num_leaves(self)
    }

    fn is_empty(&self) -> bool {
        OmuAccelerator::is_empty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_core::OmuConfig;
    use omu_octree::OctreeF32;

    fn scan(points: &[Point3]) -> Scan {
        Scan::new(
            Point3::new(0.01, 0.01, 0.01),
            points.iter().copied().collect::<PointCloud>(),
        )
    }

    #[test]
    fn tree_backend_dispatches_every_engine() {
        let points = [Point3::new(1.0, 0.2, 0.1), Point3::new(-1.0, 0.4, 0.3)];
        let mut reference = OctreeF32::new(0.1).unwrap();
        MapBackend::insert_scan(&mut reference, &scan(&points), Engine::Scalar).unwrap();
        for engine in [
            Engine::default(),
            Engine::Sharded { shards: 2 },
            Engine::Sharded { shards: 8 },
        ] {
            let mut t = OctreeF32::new(0.1).unwrap();
            MapBackend::insert_scan(&mut t, &scan(&points), engine).unwrap();
            assert_eq!(
                MapBackend::snapshot(&t),
                MapBackend::snapshot(&reference),
                "{engine}"
            );
        }
    }

    #[test]
    fn accelerator_backend_matches_leaf_box_iteration() {
        let mut tree = OctreeFixedForTest::build();
        let mut accel =
            OmuAccelerator::new(OmuConfig::builder().resolution(0.1).build().unwrap()).unwrap();
        let points: Vec<Point3> = (0..24)
            .map(|i| {
                let a = i as f64 * 0.26;
                Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.2)
            })
            .collect();
        let s = scan(&points);
        MapBackend::insert_scan(&mut tree.0, &s, Engine::default()).unwrap();
        MapBackend::insert_scan(&mut accel, &s, Engine::default()).unwrap();

        let min = VoxelKey::new(32000, 32000, 32000);
        let max = VoxelKey::new(33500, 33500, 33500);
        let a = MapBackend::leaves_in_box(&tree.0, min, max);
        let b = MapBackend::leaves_in_box(&accel, min, max);
        let canon = |mut v: Vec<LeafInfo>| {
            v.sort_by_key(|l| (l.key, l.depth));
            v
        };
        assert!(!a.is_empty());
        assert_eq!(canon(a), canon(b));
    }

    /// A fixed-point tree configured identically to the default
    /// accelerator (the accelerator runs Q5.10 fixed point).
    struct OctreeFixedForTest(omu_octree::OctreeFixed);

    impl OctreeFixedForTest {
        fn build() -> Self {
            let config = OmuConfig::builder().resolution(0.1).build().unwrap();
            let mut t =
                omu_octree::OctreeFixed::with_params(config.resolution, config.params).unwrap();
            t.set_integration_mode(config.integration_mode);
            t.set_max_range(config.max_range);
            OctreeFixedForTest(t)
        }
    }
}
