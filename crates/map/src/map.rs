//! The unified map type.

use std::path::Path;

use omu_core::OmuAccelerator;
use omu_geometry::{KeyConverter, Occupancy, Point3, Scan, VoxelKey};
use omu_octree::{LeafInfo, OctreeF32, OctreeFixed, OpCounters, QueryCounters, RayCastResult};
use omu_raycast::IntegrationStats;

use crate::backend::MapBackend;
use crate::builder::MapBuilder;
use crate::engine::Engine;
use crate::error::MapError;
use crate::service::MapSnapshot;

/// The concrete backend storage (boxed: an accelerator owns megabytes of
/// modeled SRAM, a tree owns its arena — the facade stays one word plus
/// an engine tag regardless).
#[derive(Debug, Clone)]
pub(crate) enum Inner {
    Software(Box<OctreeF32>),
    SoftwareFixed(Box<OctreeFixed>),
    Accelerator(Box<OmuAccelerator>),
}

/// A probabilistic 3D occupancy map with one API over every engine and
/// backend: the software octree (float or fixed point) and the OMU
/// accelerator model, fed by the scalar oracle or the sharded batch
/// engine.
///
/// Construct through [`MapBuilder`]; all knobs are resolved up front.
/// Ingestion goes through [`Self::insert`] / [`Self::insert_points`];
/// the query methods — point and key occupancy, batched classification,
/// query-ray casting, sphere collision probes and region iteration —
/// have identical semantics on every backend; persistence goes through
/// [`Self::save_to_file`] / [`Self::load_from_file`]. Queries take
/// `&mut self` where the accelerator backend accounts voxel-query-unit
/// cycles or the software backend accumulates [`QueryCounters`].
///
/// # Examples
///
/// ```
/// use omu_map::{Backend, Engine, MapBuilder};
/// use omu_core::OmuConfig;
/// use omu_geometry::{Occupancy, Point3, PointCloud, Scan};
///
/// # fn main() -> Result<(), omu_map::MapError> {
/// let mut map = MapBuilder::new(0.1)
///     .engine(Engine::Sharded { shards: 8 })
///     .backend(Backend::Accelerator(OmuConfig::default()))
///     .build()?;
/// let scan = Scan::new(
///     Point3::ZERO,
///     [Point3::new(1.0, 0.0, 0.25)].into_iter().collect::<PointCloud>(),
/// );
/// map.insert(&scan)?;
/// assert_eq!(
///     map.occupancy_at(Point3::new(1.0, 0.0, 0.25))?,
///     Occupancy::Occupied
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OccupancyMap {
    inner: Inner,
    engine: Engine,
}

impl OccupancyMap {
    pub(crate) fn from_parts(inner: Inner, engine: Engine) -> Self {
        OccupancyMap { inner, engine }
    }

    /// Starts a [`MapBuilder`] for a map with voxels `resolution` metres
    /// across.
    pub fn builder(resolution: f64) -> MapBuilder {
        MapBuilder::new(resolution)
    }

    fn backend(&self) -> &dyn MapBackend {
        match &self.inner {
            Inner::Software(t) => t.as_ref(),
            Inner::SoftwareFixed(t) => t.as_ref(),
            Inner::Accelerator(a) => a.as_ref(),
        }
    }

    fn backend_mut(&mut self) -> &mut dyn MapBackend {
        match &mut self.inner {
            Inner::Software(t) => t.as_mut(),
            Inner::SoftwareFixed(t) => t.as_mut(),
            Inner::Accelerator(a) => a.as_mut(),
        }
    }

    /// The configured update engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Switches the update engine for subsequent insertions. Engines are
    /// interchangeable at any point: every engine produces bit-identical
    /// maps.
    ///
    /// # Errors
    ///
    /// [`MapError::InvalidShards`] for an out-of-range shard count.
    pub fn set_engine(&mut self, engine: Engine) -> Result<(), MapError> {
        engine.validate()?;
        self.engine = engine;
        Ok(())
    }

    /// The backend's name (`"software"` / `"accelerator"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend().backend_name()
    }

    /// The ray-casting DDA front end scans are integrated with
    /// (default: [`omu_raycast::FrontEnd::Packet`]).
    pub fn front_end(&self) -> omu_raycast::FrontEnd {
        self.backend().front_end()
    }

    /// The map resolution in metres.
    pub fn resolution(&self) -> f64 {
        self.converter().resolution()
    }

    /// The key/coordinate converter.
    pub fn converter(&self) -> &KeyConverter {
        self.backend().converter()
    }

    /// Integrates a full scan through the configured engine: every ray
    /// marks the cells it traverses free and its endpoint occupied.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the scan origin is outside the
    /// addressable map (out-of-map endpoints are skipped and counted in
    /// the returned statistics); [`MapError::Capacity`] when the
    /// accelerator backend exhausts its T-Mem.
    pub fn insert(&mut self, scan: &Scan) -> Result<IntegrationStats, MapError> {
        let engine = self.engine;
        self.backend_mut().insert_scan(scan, engine)
    }

    /// Borrow-based ingestion: integrates one scan straight from its
    /// origin and point slice — under [`Engine::Sharded`] the software
    /// backend integrates the slice in place, so steady-state calls
    /// allocate nothing and copy no point cloud.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::insert`].
    pub fn insert_points(
        &mut self,
        origin: Point3,
        points: &[Point3],
    ) -> Result<IntegrationStats, MapError> {
        let engine = self.engine;
        self.backend_mut().insert_points(origin, points, engine)
    }

    /// Occupancy classification of the voxel at `key`.
    pub fn occupancy(&mut self, key: VoxelKey) -> Occupancy {
        self.backend_mut().occupancy(key)
    }

    /// Occupancy classification of the voxel containing `point`.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the point is outside the
    /// addressable map.
    pub fn occupancy_at(&mut self, point: Point3) -> Result<Occupancy, MapError> {
        let key = self.converter().coord_to_key(point)?;
        Ok(self.occupancy(key))
    }

    /// The stored log-odds covering `key` as `f32`, if observed.
    pub fn logodds(&self, key: VoxelKey) -> Option<f32> {
        self.backend().peek_logodds(key)
    }

    /// Casts a query ray from `origin` along `direction`, returning the
    /// first occupied voxel within `max_range` metres. With
    /// `ignore_unknown = true`, unobserved voxels are treated as free
    /// (OctoMap `castRay` semantics); otherwise the cast stops at the
    /// first unknown voxel.
    ///
    /// Rides the backend's cached-descent path: consecutive DDA steps
    /// re-descend only below the deepest common ancestor of adjacent
    /// voxels, with results bit-identical to probing every step
    /// individually.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the origin is outside the map or
    /// the direction is degenerate.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_map::MapBuilder;
    /// use omu_geometry::{Point3, PointCloud, Scan};
    /// use omu_octree::RayCastResult;
    ///
    /// # fn main() -> Result<(), omu_map::MapError> {
    /// let mut map = MapBuilder::new(0.1).build()?;
    /// map.insert(&Scan::new(
    ///     Point3::ZERO,
    ///     [Point3::new(1.0, 0.0, 0.0)].into_iter().collect::<PointCloud>(),
    /// ))?;
    /// let hit = map.cast_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 5.0, true)?;
    /// assert!(matches!(hit, RayCastResult::Hit { .. }));
    /// assert!(!map.collides_sphere(Point3::new(0.3, 0.0, 0.0), 0.1)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn cast_ray(
        &mut self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, MapError> {
        self.backend_mut()
            .cast_ray(origin, direction, max_range, ignore_unknown)
    }

    /// Casts a batch of query rays (`(origin, direction)` pairs) through
    /// one cached-descent cursor, returning results in input order,
    /// bit-identical to casting each ray through [`Self::cast_ray`]. The
    /// engine's shard count does not apply: reads run on the caller's
    /// thread. To spread a batch over threads, publish a snapshot
    /// ([`Self::publish_snapshot`]) and give each thread a slice.
    ///
    /// # Errors
    ///
    /// The first [`MapError::OutOfBounds`] (in input order) for a bad
    /// origin or degenerate direction; no ray after it is cast.
    pub fn cast_rays(
        &mut self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<Vec<RayCastResult>, MapError> {
        self.backend_mut()
            .cast_rays(rays, max_range, ignore_unknown)
    }

    /// Classifies a batch of points, returning occupancies in input
    /// order through the backend's batched query engine — the software
    /// tree Morton-sorts the batch for one cached-descent sweep on the
    /// caller's thread; the accelerator serves it through the voxel
    /// query unit's register file. Bit-identical to calling
    /// [`Self::occupancy_at`] per point.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when any point is outside the
    /// addressable map (detected before any classification runs).
    pub fn occupancy_batch(&mut self, points: &[Point3]) -> Result<Vec<Occupancy>, MapError> {
        let conv = *self.converter();
        let keys = points
            .iter()
            .map(|&p| conv.coord_to_key(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.occupancy_batch_keys(&keys))
    }

    /// [`Self::occupancy_batch`] by voxel key (keys are always
    /// addressable, so this form is infallible).
    pub fn occupancy_batch_keys(&mut self, keys: &[VoxelKey]) -> Vec<Occupancy> {
        self.backend_mut().occupancy_batch(keys)
    }

    /// Collision probe: does a sphere of radius `radius` at `center`
    /// intersect any occupied voxel? Conservatively samples the voxel
    /// grid inside the sphere's bounding cube (the motion-planning query
    /// of the paper's Fig. 1); the grid sweep rides the cached-descent
    /// path, since adjacent voxels share long root-path prefixes.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the probe region leaves the
    /// addressable map.
    pub fn collides_sphere(&mut self, center: Point3, radius: f64) -> Result<bool, MapError> {
        self.backend_mut().collides_sphere(center, radius)
    }

    /// The leaves (finest voxels and pruned regions) whose extents
    /// intersect the key box `[min, max]`, inclusive per axis.
    pub fn leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> Vec<LeafInfo> {
        self.backend().leaves_in_box(min, max)
    }

    /// The leaves whose extents intersect the metric box spanned by
    /// `min` and `max` (in metres).
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when a corner leaves the addressable
    /// map.
    pub fn leaves_in_region(&self, min: Point3, max: Point3) -> Result<Vec<LeafInfo>, MapError> {
        let conv = self.converter();
        let lo = conv.coord_to_key(min)?;
        let hi = conv.coord_to_key(max)?;
        Ok(self.leaves_in_box(lo, hi))
    }

    /// The canonical sorted map snapshot `(key, depth, logodds)` — the
    /// comparison format of the equivalence suite, identical across
    /// engines and (on fixed point) across backends.
    pub fn snapshot(&self) -> Vec<(VoxelKey, u8, f32)> {
        self.backend().snapshot()
    }

    /// Publishes an immutable, epoch-pinned [`MapSnapshot`] of the
    /// current map: a cheaply clonable read handle that any number of
    /// threads can query lock-free while this map keeps ingesting (the
    /// write path copies rows on first write instead of blocking — see
    /// the octree crate's snapshot docs). This is the primitive under
    /// [`MapService`](crate::MapService); use the service when you also
    /// want the writer moved off-thread.
    ///
    /// # Errors
    ///
    /// [`MapError::Unsupported`] on the accelerator backend (serve from
    /// a software-backed map mirroring the same scans).
    pub fn publish_snapshot(&mut self) -> Result<MapSnapshot, MapError> {
        match &mut self.inner {
            Inner::Software(t) => Ok(MapSnapshot::Software(t.publish_snapshot())),
            Inner::SoftwareFixed(t) => Ok(MapSnapshot::SoftwareFixed(t.publish_snapshot())),
            Inner::Accelerator(_) => Err(MapError::Unsupported {
                backend: "accelerator",
                feature: "epoch snapshots (serve from a software-backed map)",
            }),
        }
    }

    /// Snapshot/copy-on-write bookkeeping of the software backends —
    /// write epoch, publishes, live pins, rows copied / retired /
    /// reclaimed. `None` on the accelerator backend.
    pub fn snapshot_stats(&self) -> Option<omu_octree::SnapshotStats> {
        match &self.inner {
            Inner::Software(t) => Some(t.snapshot_stats()),
            Inner::SoftwareFixed(t) => Some(t.snapshot_stats()),
            Inner::Accelerator(_) => None,
        }
    }

    /// Tree-operation counters (`None` on the accelerator backend, whose
    /// accounting lives in `AccelStats` — see [`Self::accelerator`]).
    pub fn counters(&self) -> Option<OpCounters> {
        self.backend().op_counters()
    }

    /// Removes and returns the read-side counters accumulated by the
    /// cached-descent and batched query paths — probes, node visits,
    /// prefix-reuse hits — so benches and tests can assert reuse rates
    /// per measurement window. `None` on the accelerator backend, whose
    /// query accounting lives in
    /// [`QueryUnitStats`](omu_core::QueryUnitStats) (see
    /// [`Self::accelerator`]).
    pub fn query_counters(&mut self) -> Option<QueryCounters> {
        self.backend_mut().take_query_counters()
    }

    /// Cumulative statistics of the persistent worker pool behind the
    /// software backends' sharded insert, if one has been created (the
    /// pool is lazy: it first exists after a parallel insert, or up
    /// front via
    /// [`MapBuilder::worker_threads`](crate::MapBuilder::worker_threads)).
    /// `threads_spawned` staying flat across calls is the observable
    /// "zero per-call thread spawns" guarantee; `None` on the
    /// accelerator backend.
    pub fn pool_stats(&self) -> Option<omu_octree::PoolStats> {
        match &self.inner {
            Inner::Software(t) => t.pool_stats(),
            Inner::SoftwareFixed(t) => t.pool_stats(),
            Inner::Accelerator(_) => None,
        }
    }

    /// Test hook: makes the next sharded apply panic inside the worker
    /// that owns `branch`, to exercise the typed
    /// [`MapError::WorkerPanicked`] path. No-op on the accelerator.
    #[doc(hidden)]
    pub fn debug_inject_worker_panic(&mut self, branch: Option<usize>) {
        match &mut self.inner {
            Inner::Software(t) => t.debug_inject_worker_panic(branch),
            Inner::SoftwareFixed(t) => t.debug_inject_worker_panic(branch),
            Inner::Accelerator(_) => {}
        }
    }

    /// Number of leaves (finest voxels and pruned regions).
    pub fn num_leaves(&self) -> usize {
        self.backend().num_leaves()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.backend().is_empty()
    }

    /// Removes and returns the sorted keys whose occupancy
    /// classification changed since the last drain — the incremental
    /// feed for planners and renderers. Requires
    /// [`MapBuilder::change_detection`]; empty on the accelerator
    /// backend (which cannot track changes).
    pub fn drain_changed_keys(&mut self) -> Vec<VoxelKey> {
        self.backend_mut().drain_changed()
    }

    /// Serializes the map to the compact octree byte format.
    ///
    /// # Errors
    ///
    /// [`MapError::Unsupported`] on the accelerator backend (mirror the
    /// scans into a [`Backend::SoftwareFixed`](crate::Backend) map to
    /// persist accelerator-equivalent state).
    pub fn to_bytes(&self) -> Result<Vec<u8>, MapError> {
        self.backend().save_bytes()
    }

    /// Saves the map to a file, creating or truncating it.
    ///
    /// # Errors
    ///
    /// [`MapError::Io`] on filesystem failure; [`MapError::Unsupported`]
    /// on the accelerator backend.
    pub fn save_to_file<P: AsRef<Path>>(&self, path: P) -> Result<(), MapError> {
        match &self.inner {
            Inner::Software(t) => Ok(t.save_to_file(path)?),
            Inner::SoftwareFixed(t) => Ok(t.save_to_file(path)?),
            Inner::Accelerator(_) => Err(MapError::Unsupported {
                backend: "accelerator",
                feature: "map serialization (mirror the map on a software backend to persist it)",
            }),
        }
    }

    /// Restores a software-backed (`f32`) map from bytes produced by
    /// [`Self::to_bytes`]. Resolution and sensor model come from the
    /// encoding; the engine defaults to [`Engine::default`]
    /// ([`Self::set_engine`] to change it).
    ///
    /// # Errors
    ///
    /// [`MapError::Decode`] for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MapError> {
        Ok(OccupancyMap::from_parts(
            Inner::Software(Box::new(OctreeF32::from_bytes(bytes)?)),
            Engine::default(),
        ))
    }

    /// [`Self::from_bytes`] onto the fixed-point software backend (the
    /// representation that matches the accelerator bit-for-bit).
    ///
    /// # Errors
    ///
    /// [`MapError::Decode`] for malformed input.
    pub fn from_bytes_fixed(bytes: &[u8]) -> Result<Self, MapError> {
        Ok(OccupancyMap::from_parts(
            Inner::SoftwareFixed(Box::new(OctreeFixed::from_bytes(bytes)?)),
            Engine::default(),
        ))
    }

    /// Loads a software-backed (`f32`) map from a file produced by
    /// [`Self::save_to_file`].
    ///
    /// # Errors
    ///
    /// [`MapError::Io`] / [`MapError::Decode`] on failure.
    pub fn load_from_file<P: AsRef<Path>>(path: P) -> Result<Self, MapError> {
        Ok(OccupancyMap::from_parts(
            Inner::Software(Box::new(OctreeF32::load_from_file(path)?)),
            Engine::default(),
        ))
    }

    /// [`Self::load_from_file`] onto the fixed-point software backend.
    ///
    /// # Errors
    ///
    /// [`MapError::Io`] / [`MapError::Decode`] on failure.
    pub fn load_from_file_fixed<P: AsRef<Path>>(path: P) -> Result<Self, MapError> {
        Ok(OccupancyMap::from_parts(
            Inner::SoftwareFixed(Box::new(OctreeFixed::load_from_file(path)?)),
            Engine::default(),
        ))
    }

    /// The underlying `f32` software tree, when that is the backend —
    /// the escape hatch to the low-level layer (memory statistics, leaf
    /// iteration, raw batch application).
    pub fn tree(&self) -> Option<&OctreeF32> {
        match &self.inner {
            Inner::Software(t) => Some(t),
            _ => None,
        }
    }

    /// The underlying fixed-point software tree, when that is the
    /// backend.
    pub fn tree_fixed(&self) -> Option<&OctreeFixed> {
        match &self.inner {
            Inner::SoftwareFixed(t) => Some(t),
            _ => None,
        }
    }

    /// The underlying accelerator model, when that is the backend —
    /// cycle/energy/power reporting lives there.
    pub fn accelerator(&self) -> Option<&OmuAccelerator> {
        match &self.inner {
            Inner::Accelerator(a) => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Backend;
    use omu_core::OmuConfig;
    use omu_geometry::PointCloud;

    fn ring_scan() -> Scan {
        Scan::new(
            Point3::new(0.01, 0.01, 0.01),
            (0..48)
                .map(|i| {
                    let a = i as f64 * 0.131;
                    Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.2)
                })
                .collect::<PointCloud>(),
        )
    }

    fn backends() -> Vec<OccupancyMap> {
        vec![
            MapBuilder::new(0.1).build().unwrap(),
            MapBuilder::new(0.1)
                .backend(Backend::SoftwareFixed)
                .build()
                .unwrap(),
            MapBuilder::new(0.1)
                .backend(Backend::Accelerator(OmuConfig::default()))
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn insert_and_query_agree_across_backends() {
        let scan = ring_scan();
        for mut map in backends() {
            let stats = map.insert(&scan).unwrap();
            assert_eq!(stats.rays, 48, "{}", map.backend_name());
            assert_eq!(
                map.occupancy_at(Point3::new(2.0, 0.0, 0.2)).unwrap(),
                Occupancy::Occupied,
                "{}",
                map.backend_name()
            );
            assert_eq!(
                map.occupancy_at(Point3::new(1.0, 0.0, 0.1)).unwrap(),
                Occupancy::Free
            );
            assert_eq!(
                map.occupancy_at(Point3::new(3.5, 0.0, 0.2)).unwrap(),
                Occupancy::Unknown
            );
            assert!(!map.is_empty());
            assert!(map.num_leaves() > 0);
        }
    }

    #[test]
    fn insert_points_matches_insert() {
        let scan = ring_scan();
        for (mut by_scan, mut by_points) in backends().into_iter().zip(backends()) {
            let a = by_scan.insert(&scan).unwrap();
            let b = by_points
                .insert_points(scan.origin, scan.cloud.points())
                .unwrap();
            assert_eq!(a, b, "{}", by_scan.backend_name());
            assert_eq!(by_scan.snapshot(), by_points.snapshot());
        }
    }

    #[test]
    fn out_of_bounds_is_typed_on_every_backend() {
        for mut map in backends() {
            let far = map.converter().map_half_extent() + 5.0;
            let p = Point3::new(far, 0.0, 0.0);
            assert!(
                matches!(map.occupancy_at(p), Err(MapError::OutOfBounds(_))),
                "{}",
                map.backend_name()
            );
            assert!(matches!(
                map.insert(&Scan::new(p, PointCloud::new())),
                Err(MapError::OutOfBounds(_))
            ));
        }
    }

    #[test]
    fn cast_ray_and_sphere_probe_agree_across_backends() {
        let scan = ring_scan();
        let mut results = Vec::new();
        for mut map in backends() {
            map.insert(&scan).unwrap();
            // Probe inside the wall's z layer (the ring sits at z = 0.2).
            let hit = map
                .cast_ray(
                    Point3::new(0.0, 0.0, 0.25),
                    Point3::new(1.0, 0.0, 0.0),
                    5.0,
                    true,
                )
                .unwrap();
            let collide_wall = map
                .collides_sphere(Point3::new(2.0, 0.0, 0.2), 0.2)
                .unwrap();
            let collide_open = map
                .collides_sphere(Point3::new(0.5, 0.0, 0.2), 0.2)
                .unwrap();
            match hit {
                RayCastResult::Hit { point, .. } => {
                    assert!((point.x - 2.0).abs() < 0.2, "{}", map.backend_name())
                }
                other => panic!("{}: expected a hit, got {other:?}", map.backend_name()),
            }
            assert!(collide_wall);
            assert!(!collide_open);
            results.push((collide_wall, collide_open));
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn batched_queries_match_per_probe_on_every_backend() {
        let scan = ring_scan();
        for mut map in backends() {
            map.insert(&scan).unwrap();
            let points: Vec<Point3> = (0..60)
                .map(|i| {
                    let a = i as f64 * 0.21;
                    Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.2)
                })
                .collect();
            let expected: Vec<Occupancy> = points
                .iter()
                .map(|&p| map.occupancy_at(p).unwrap())
                .collect();
            assert_eq!(
                map.occupancy_batch(&points).unwrap(),
                expected,
                "{}",
                map.backend_name()
            );

            let rays: Vec<(Point3, Point3)> = (0..12)
                .map(|i| {
                    let a = i as f64 * 0.52;
                    (
                        Point3::new(0.01, 0.01, 0.2),
                        Point3::new(a.cos(), a.sin(), 0.0),
                    )
                })
                .collect();
            let one_by_one: Vec<RayCastResult> = rays
                .iter()
                .map(|&(o, d)| map.cast_ray(o, d, 5.0, true).unwrap())
                .collect();
            assert_eq!(
                map.cast_rays(&rays, 5.0, true).unwrap(),
                one_by_one,
                "{}",
                map.backend_name()
            );
        }
    }

    #[test]
    fn out_of_bounds_batch_point_is_typed() {
        let mut map = MapBuilder::new(0.1).build().unwrap();
        map.insert(&ring_scan()).unwrap();
        let far = map.converter().map_half_extent() + 5.0;
        assert!(matches!(
            map.occupancy_batch(&[Point3::ZERO, Point3::new(far, 0.0, 0.0)]),
            Err(MapError::OutOfBounds(_))
        ));
    }

    #[test]
    fn query_counters_drain_on_software_only() {
        let scan = ring_scan();

        let mut sw = MapBuilder::new(0.1).build().unwrap();
        sw.insert(&scan).unwrap();
        assert!(sw.query_counters().unwrap() == Default::default());
        sw.cast_ray(
            Point3::new(0.01, 0.01, 0.2),
            Point3::new(1.0, 0.0, 0.0),
            5.0,
            true,
        )
        .unwrap();
        sw.occupancy_batch(&[Point3::ZERO, Point3::new(0.1, 0.0, 0.0)])
            .unwrap();
        let c = sw.query_counters().unwrap();
        assert_eq!(c.rays, 1);
        assert_eq!(c.batch_queries, 2);
        assert!(c.reused_levels > 0, "DDA steps share prefixes");
        assert!(
            sw.query_counters().unwrap() == Default::default(),
            "drained"
        );

        let origin = Point3::new(0.01, 0.01, 0.2);
        let rays = [
            (origin, Point3::new(1.0, 0.0, 0.0)),
            (origin, Point3::new(0.0, 1.0, 0.0)),
            (origin, Point3::new(-1.0, 0.0, 0.0)),
        ];
        sw.cast_rays(&rays, 5.0, true).unwrap();
        let c = sw.query_counters().unwrap();
        assert_eq!(c.rays, 3);
        assert!(c.probes > 0 && c.reused_levels > 0);
        // A miss sweeps every voxel of the ball's bounding cube.
        assert!(!sw.collides_sphere(Point3::new(0.5, 0.0, 0.2), 0.2).unwrap());
        let c = sw.query_counters().unwrap();
        assert_eq!((c.rays, c.batch_queries), (0, 0));
        assert_eq!(c.probes, 5 * 5 * 5, "one probe per voxel of the cube");

        let mut hw = MapBuilder::new(0.1)
            .backend(Backend::Accelerator(OmuConfig::default()))
            .build()
            .unwrap();
        hw.insert(&scan).unwrap();
        hw.occupancy_batch(&[Point3::ZERO]).unwrap();
        assert!(hw.query_counters().is_none());
        // The accelerator's read accounting lives in the query unit.
        let q = hw.accelerator().unwrap().query_unit_stats();
        assert_eq!(q.batch_queries, 1);
    }

    #[test]
    fn change_drain_reports_flips_once() {
        let mut map = MapBuilder::new(0.1).change_detection(true).build().unwrap();
        map.insert(&ring_scan()).unwrap();
        let first = map.drain_changed_keys();
        assert!(!first.is_empty());
        assert!(first.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert!(map.drain_changed_keys().is_empty(), "drained");
    }

    #[test]
    fn persistence_roundtrips_software_backends() {
        let scan = ring_scan();
        let mut map = MapBuilder::new(0.1).build().unwrap();
        map.insert(&scan).unwrap();
        let restored = OccupancyMap::from_bytes(&map.to_bytes().unwrap()).unwrap();
        assert_eq!(restored.snapshot(), map.snapshot());
        assert_eq!(restored.resolution(), map.resolution());

        let mut fixed = MapBuilder::new(0.1)
            .backend(Backend::SoftwareFixed)
            .build()
            .unwrap();
        fixed.insert(&scan).unwrap();
        let restored = OccupancyMap::from_bytes_fixed(&fixed.to_bytes().unwrap()).unwrap();
        assert_eq!(restored.snapshot(), fixed.snapshot());
    }

    #[test]
    fn accelerator_persistence_is_unsupported() {
        let map = MapBuilder::new(0.1)
            .backend(Backend::Accelerator(OmuConfig::default()))
            .build()
            .unwrap();
        assert!(matches!(map.to_bytes(), Err(MapError::Unsupported { .. })));
        assert!(matches!(
            map.save_to_file("/tmp/should_not_exist.omut"),
            Err(MapError::Unsupported { .. })
        ));
    }

    #[test]
    fn region_iteration_sees_the_wall_on_both_backends() {
        let scan = ring_scan();
        for mut map in backends() {
            map.insert(&scan).unwrap();
            let leaves = map
                .leaves_in_region(Point3::new(1.5, -0.5, 0.0), Point3::new(2.5, 0.5, 0.4))
                .unwrap();
            assert!(
                leaves.iter().any(|l| l.occupancy == Occupancy::Occupied),
                "{}: wall leaves visible in region",
                map.backend_name()
            );
        }
    }
}
