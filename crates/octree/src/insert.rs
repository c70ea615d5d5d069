//! Point-cloud insertion: OctoMap's `insertPointCloud` on top of the
//! ray-casting integrator — the scalar per-voxel oracle, and one batched
//! insert that streams the integrator into the batch engine and whose
//! only parallel stage, the branch walk, takes a shard count.

use omu_geometry::{KeyError, LogOdds, Point3, Scan};
use omu_pool::TaskPanic;
use omu_raycast::{IntegrationStats, ScanIntegrator};

use crate::tree::OccupancyOctree;

/// Why [`OccupancyOctree::insert_points`] failed: either the scan itself
/// was unusable (bad origin), or a pool worker panicked while applying
/// the sharded batch.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParallelInsertError {
    /// The scan origin was outside the addressable map; nothing was
    /// applied.
    Key(KeyError),
    /// A worker panicked during the sharded batch apply. The tree stays
    /// structurally valid (every shard reattached), but the scan may be
    /// partially applied.
    WorkerPanic(TaskPanic),
}

impl std::fmt::Display for ParallelInsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Key(e) => e.fmt(f),
            Self::WorkerPanic(p) => p.fmt(f),
        }
    }
}

impl std::error::Error for ParallelInsertError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Key(e) => Some(e),
            Self::WorkerPanic(p) => Some(p),
        }
    }
}

impl From<KeyError> for ParallelInsertError {
    fn from(e: KeyError) -> Self {
        Self::Key(e)
    }
}

impl From<TaskPanic> for ParallelInsertError {
    fn from(p: TaskPanic) -> Self {
        Self::WorkerPanic(p)
    }
}

impl<V: LogOdds> OccupancyOctree<V> {
    /// Integrates a full scan: every ray marks the cells it traverses as
    /// free and its endpoint as occupied, honouring the configured
    /// [`IntegrationMode`](omu_raycast::IntegrationMode) and maximum range.
    ///
    /// Returns the integration statistics for this scan; DDA steps are also
    /// accumulated into the tree's [`OpCounters`](crate::OpCounters).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the scan origin is outside the addressable
    /// map. Out-of-map endpoints are skipped and counted in the returned
    /// statistics.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::{Occupancy, Point3, PointCloud, Scan};
    /// use omu_octree::OctreeF32;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// let scan = Scan::new(
    ///     Point3::ZERO,
    ///     [Point3::new(1.0, 0.0, 0.0)].into_iter().collect::<PointCloud>(),
    /// );
    /// tree.insert_scan(&scan)?;
    /// assert_eq!(tree.occupancy_at(Point3::new(1.0, 0.0, 0.0))?, Occupancy::Occupied);
    /// assert_eq!(tree.occupancy_at(Point3::new(0.5, 0.0, 0.0))?, Occupancy::Free);
    /// # Ok(())
    /// # }
    /// ```
    pub fn insert_scan(&mut self, scan: &Scan) -> Result<IntegrationStats, KeyError> {
        // The integrator is kept outside `self` during the closure so the
        // tree can be mutated per update.
        let mut integrator = self.take_scratch_integrator();

        let result = integrator.integrate(scan, |u| {
            self.update_key(u.key, u.hit);
        });
        self.scratch_integrator = Some(integrator);

        let stats = result?;
        self.counters.dda_steps += stats.dda_steps;
        Ok(stats)
    }

    /// Reuses the cached integrator when its configuration
    /// still matches the tree's, building a fresh one otherwise — the
    /// single place the cache-validity condition lives.
    fn take_scratch_integrator(&mut self) -> ScanIntegrator {
        match self.scratch_integrator.take() {
            Some(i)
                if i.mode() == self.integration_mode
                    && i.max_range() == self.max_range
                    && i.front_end() == self.front_end =>
            {
                i
            }
            _ => ScanIntegrator::with_front_end(
                self.conv,
                self.max_range,
                self.integration_mode,
                self.front_end,
            ),
        }
    }

    /// Integrates one scan straight from its origin and point slice
    /// through the batched update engine — the one production scan
    /// insert. The tree's integrator streams its emission into the
    /// engine's group-by pass, so the scan's update stream is never
    /// materialized; the walk then runs on up to `shards` workers
    /// (`0` = one per available CPU), one first-level branch each — the
    /// software mirror of the paper's PE × bank parallelism. One resolved
    /// shard walks sequentially on the calling thread.
    ///
    /// The resulting map is bit-identical to [`Self::insert_scan`], in
    /// both integration modes and at every shard count.
    ///
    /// # Errors
    ///
    /// [`ParallelInsertError::Key`] when the scan origin is outside the
    /// map (nothing applied; out-of-map endpoints are skipped and counted
    /// in the returned statistics), [`ParallelInsertError::WorkerPanic`]
    /// when a worker panicked mid-apply (tree structurally valid, scan
    /// possibly partially applied).
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::{Occupancy, Point3};
    /// use omu_octree::OctreeF32;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// let stats = tree.insert_points(Point3::ZERO, &[Point3::new(1.0, 0.0, 0.0)], 8)?;
    /// assert_eq!(stats.rays, 1);
    /// assert_eq!(tree.occupancy_at(Point3::new(1.0, 0.0, 0.0))?, Occupancy::Occupied);
    /// # Ok(())
    /// # }
    /// ```
    pub fn insert_points(
        &mut self,
        origin: Point3,
        points: &[Point3],
        shards: usize,
    ) -> Result<IntegrationStats, ParallelInsertError> {
        let mut integrator = self.take_scratch_integrator();
        let (result, _, walked) = self.apply_grouped(
            |sink| integrator.integrate_points(origin, points, |u| sink.push(u)),
            shards,
        );
        self.scratch_integrator = Some(integrator);
        let stats = result?;
        walked?;
        self.counters.dda_steps += stats.dda_steps;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use omu_geometry::{Occupancy, Point3, PointCloud, Scan};
    use omu_raycast::IntegrationMode;

    use super::ParallelInsertError;
    use crate::tree::OctreeF32;

    fn scan(origin: Point3, points: &[Point3]) -> Scan {
        Scan::new(origin, points.iter().copied().collect::<PointCloud>())
    }

    /// `n` endpoints on a ring around the origin; 1024 of them touch
    /// enough voxels for the sharded walk to fan out to pool workers.
    fn ring(n: usize) -> Vec<Point3> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.26;
                Point3::new(2.0 * a.cos(), 2.0 * a.sin(), ((i % 5) as f64 - 2.0) * 0.1)
            })
            .collect()
    }

    #[test]
    fn scan_marks_free_along_ray_and_occupied_at_end() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let s = scan(Point3::ZERO, &[Point3::new(1.0, 0.0, 0.0)]);
        let stats = t.insert_scan(&s).unwrap();
        assert_eq!(stats.rays, 1);
        assert_eq!(stats.occupied_updates, 1);
        assert_eq!(
            t.occupancy_at(Point3::new(1.0, 0.0, 0.0)).unwrap(),
            Occupancy::Occupied
        );
        for i in 0..10 {
            let p = Point3::new(0.05 + 0.1 * i as f64, 0.0, 0.0);
            assert_eq!(
                t.occupancy_at(p).unwrap(),
                Occupancy::Free,
                "cell {i} on ray"
            );
        }
        // Beyond the endpoint stays unknown.
        assert_eq!(
            t.occupancy_at(Point3::new(1.5, 0.0, 0.0)).unwrap(),
            Occupancy::Unknown
        );
        assert_eq!(t.counters().dda_steps, stats.dda_steps);
    }

    #[test]
    fn dedup_and_raywise_agree_on_classification_for_disjoint_rays() {
        let points = [
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, 0.0, 1.0),
        ];
        let mut a = OctreeF32::new(0.1).unwrap();
        a.set_integration_mode(IntegrationMode::Raywise);
        a.insert_scan(&scan(Point3::ZERO, &points)).unwrap();

        let mut b = OctreeF32::new(0.1).unwrap();
        b.set_integration_mode(IntegrationMode::DedupPerScan);
        b.insert_scan(&scan(Point3::ZERO, &points)).unwrap();

        for &p in &points {
            assert_eq!(a.occupancy_at(p).unwrap(), Occupancy::Occupied);
            assert_eq!(b.occupancy_at(p).unwrap(), Occupancy::Occupied);
        }
    }

    #[test]
    fn max_range_limits_observed_space() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.set_max_range(Some(1.0));
        let s = scan(Point3::ZERO, &[Point3::new(3.0, 0.0, 0.0)]);
        let stats = t.insert_scan(&s).unwrap();
        assert_eq!(stats.truncated_rays, 1);
        // The endpoint is beyond range: not occupied, not even observed.
        assert_eq!(
            t.occupancy_at(Point3::new(3.0, 0.0, 0.0)).unwrap(),
            Occupancy::Unknown
        );
        // Cells within range are free.
        assert_eq!(
            t.occupancy_at(Point3::new(0.5, 0.0, 0.0)).unwrap(),
            Occupancy::Free
        );
    }

    #[test]
    fn integrator_scratch_survives_reconfiguration() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let s = scan(Point3::ZERO, &[Point3::new(0.5, 0.0, 0.0)]);
        t.insert_scan(&s).unwrap();
        t.set_max_range(Some(2.0));
        t.insert_scan(&s).unwrap();
        t.set_integration_mode(IntegrationMode::DedupPerScan);
        t.insert_scan(&s).unwrap();
        assert_eq!(
            t.occupancy_at(Point3::new(0.5, 0.0, 0.0)).unwrap(),
            Occupancy::Occupied
        );
    }

    #[test]
    fn batched_and_parallel_insertion_match_scalar_bitwise() {
        let points: Vec<Point3> = (0..48)
            .map(|i| {
                let a = i as f64 * 0.131;
                Point3::new(2.5 * a.cos(), 2.5 * a.sin(), ((i % 7) as f64 - 3.0) * 0.2)
            })
            .collect();
        let origins: Vec<Point3> = (0..3)
            .map(|i| Point3::new(0.01 * i as f64, 0.02, 0.01))
            .collect();

        let mut scalar = OctreeF32::new(0.1).unwrap();
        let mut batched = OctreeF32::new(0.1).unwrap();
        let mut parallel = OctreeF32::new(0.1).unwrap();
        for &o in &origins {
            let a = scalar.insert_scan(&scan(o, &points)).unwrap();
            let b = batched.insert_points(o, &points, 1).unwrap();
            let c = parallel.insert_points(o, &points, 3).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
        assert_eq!(scalar.snapshot(), batched.snapshot());
        assert_eq!(scalar.snapshot(), parallel.snapshot());
        assert_eq!(scalar.counters().dda_steps, batched.counters().dda_steps);
        assert_eq!(scalar.counters().dda_steps, parallel.counters().dda_steps);
        assert!(batched.counters().batch_updates > 0);
    }

    #[test]
    fn batched_insertion_matches_scalar_in_dedup_mode() {
        let points = [
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(1.0, 0.1, 0.0),
            Point3::new(0.35, 0.0, 0.0),
        ];
        let mut scalar = OctreeF32::new(0.1).unwrap();
        scalar.set_integration_mode(IntegrationMode::DedupPerScan);
        scalar.insert_scan(&scan(Point3::ZERO, &points)).unwrap();

        let mut batched = OctreeF32::new(0.1).unwrap();
        batched.set_integration_mode(IntegrationMode::DedupPerScan);
        batched.insert_points(Point3::ZERO, &points, 1).unwrap();

        let mut parallel = OctreeF32::new(0.1).unwrap();
        parallel.set_integration_mode(IntegrationMode::DedupPerScan);
        parallel.insert_points(Point3::ZERO, &points, 2).unwrap();

        assert_eq!(scalar.snapshot(), batched.snapshot());
        assert_eq!(scalar.snapshot(), parallel.snapshot());
    }

    #[test]
    fn front_end_switch_is_not_cached_stale() {
        use omu_raycast::FrontEnd;
        let mut t = OctreeF32::new(0.1).unwrap();
        let small = [Point3::new(0.5, 0.0, 0.0)];
        t.insert_points(Point3::ZERO, &small, 1).unwrap();
        assert_eq!(
            t.scratch_integrator.as_ref().unwrap().front_end(),
            FrontEnd::Packet
        );
        t.set_front_end(FrontEnd::Scalar);
        t.insert_points(Point3::ZERO, &small, 1).unwrap();
        assert_eq!(
            t.scratch_integrator.as_ref().unwrap().front_end(),
            FrontEnd::Scalar
        );
    }

    #[test]
    fn front_end_choice_is_bit_identical() {
        use omu_raycast::FrontEnd;
        let scans: Vec<Scan> = (0..4)
            .map(|i| {
                let a = i as f64 * 0.9;
                scan(
                    Point3::new(0.05, 0.05, 0.05),
                    &[
                        Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.3),
                        Point3::new(-1.2, 0.7 + a * 0.1, -0.4),
                        Point3::new(0.8, -1.5, a * 0.2),
                    ],
                )
            })
            .collect();
        let mut packet = OctreeF32::new(0.1).unwrap();
        let mut scalar = OctreeF32::new(0.1).unwrap();
        scalar.set_front_end(FrontEnd::Scalar);
        for s in &scans {
            let a = packet.insert_points(s.origin, s.cloud.points(), 1).unwrap();
            let b = scalar.insert_points(s.origin, s.cloud.points(), 1).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(packet.snapshot(), scalar.snapshot());
        assert_eq!(packet.counters(), scalar.counters());
    }

    #[test]
    fn borrowed_points_insertion_matches_scan_insertion() {
        // A scan whose sharded walk fans out, against the `Scan`-form
        // scalar oracle.
        let points = ring(1224);
        let origin = Point3::new(0.01, 0.02, 0.01);
        let mut by_scan = OctreeF32::new(0.1).unwrap();
        let a = by_scan.insert_scan(&scan(origin, &points)).unwrap();
        let mut by_points = OctreeF32::new(0.1).unwrap();
        let b = by_points.insert_points(origin, &points, 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(by_scan.snapshot(), by_points.snapshot());
        assert_eq!(by_scan.counters().dda_steps, by_points.counters().dda_steps);
    }

    #[test]
    fn bad_origin_propagates_error() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let far = Point3::new(t.converter().map_half_extent() + 5.0, 0.0, 0.0);
        assert!(t.insert_scan(&scan(far, &[Point3::ZERO])).is_err());
        // Reported typed at one shard and on a scan big enough for the
        // sharded walk to fan out.
        for (points, shards) in [(vec![Point3::ZERO], 1), (ring(1024), 2)] {
            assert!(matches!(
                t.insert_points(far, &points, shards),
                Err(ParallelInsertError::Key(_))
            ));
        }
        assert!(t.is_empty(), "nothing applied");
        // The tree is still usable afterwards.
        assert!(t
            .insert_scan(&scan(Point3::ZERO, &[Point3::new(0.5, 0.0, 0.0)]))
            .is_ok());
    }
}
