//! Query-side operations: occupancy ray casting for collision probing.
//!
//! The walk and probe algorithms are generic over an occupancy source
//! ([`cast_ray_with`], [`collides_sphere_with`]) so the tree's inherent
//! methods and the `omu-map` facade (which also serves the accelerator
//! backend) share one implementation.

use omu_geometry::{KeyConverter, KeyError, LogOdds, Occupancy, Point3, VoxelKey, TREE_DEPTH};
use omu_raycast::RayWalk;

use crate::tree::OccupancyOctree;

/// Outcome of casting a query ray through the map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RayCastResult {
    /// The ray reached an occupied voxel.
    Hit {
        /// Key of the first occupied voxel.
        key: VoxelKey,
        /// Centre of that voxel.
        point: Point3,
        /// Its log-odds occupancy value.
        logodds: f32,
    },
    /// The ray travelled `max_range` (or left the map) without hitting an
    /// occupied voxel.
    MaxRangeReached,
    /// The ray entered unobserved space and unknown cells were not ignored.
    UnknownBlocked {
        /// Key of the first unknown voxel.
        key: VoxelKey,
    },
}

/// Casts a query ray over any occupancy source — the single
/// implementation behind [`OccupancyOctree::cast_ray`] and the
/// `omu-map` facade's backend-generic query view.
///
/// `probe` classifies a voxel and reports its log-odds; the log-odds
/// value is only read when the classification is
/// [`Occupancy::Occupied`], so sources may return any placeholder
/// otherwise.
///
/// # Errors
///
/// Returns [`KeyError`] when the origin is outside the map or the
/// direction is degenerate.
pub fn cast_ray_with<F>(
    conv: &KeyConverter,
    origin: Point3,
    direction: Point3,
    max_range: f64,
    ignore_unknown: bool,
    probe: F,
) -> Result<RayCastResult, KeyError>
where
    F: FnMut(VoxelKey) -> (Occupancy, f32),
{
    let mut walk = RayWalk::new(conv, origin, direction, max_range)?;
    Ok(drive_walk(conv, &mut walk, ignore_unknown, probe))
}

/// [`cast_ray_with`] over a caller-owned [`RayWalk`]: the walk is
/// re-aimed at the new ray ([`RayWalk::restart`]) and driven in place,
/// so batched casting loops construct no per-ray iterator state. The
/// result is identical to [`cast_ray_with`] for the same ray and probe.
///
/// # Errors
///
/// Returns [`KeyError`] when the origin is outside the map or the
/// direction is degenerate (the walk is left exhausted).
pub fn cast_ray_resuming<F>(
    conv: &KeyConverter,
    walk: &mut RayWalk,
    origin: Point3,
    direction: Point3,
    max_range: f64,
    ignore_unknown: bool,
    probe: F,
) -> Result<RayCastResult, KeyError>
where
    F: FnMut(VoxelKey) -> (Occupancy, f32),
{
    walk.restart(conv, origin, direction, max_range)?;
    Ok(drive_walk(conv, walk, ignore_unknown, probe))
}

/// Drives an aimed walk to its verdict — the shared loop behind
/// [`cast_ray_with`] and [`cast_ray_resuming`].
fn drive_walk<F>(
    conv: &KeyConverter,
    walk: &mut RayWalk,
    ignore_unknown: bool,
    mut probe: F,
) -> RayCastResult
where
    F: FnMut(VoxelKey) -> (Occupancy, f32),
{
    for key in walk {
        match probe(key) {
            (Occupancy::Occupied, logodds) => {
                return RayCastResult::Hit {
                    key,
                    point: conv.key_to_coord(key),
                    logodds,
                };
            }
            (Occupancy::Free, _) => {}
            (Occupancy::Unknown, _) => {
                if !ignore_unknown {
                    return RayCastResult::UnknownBlocked { key };
                }
            }
        }
    }
    RayCastResult::MaxRangeReached
}

/// Sphere collision probe over any occupancy source — the single
/// implementation behind [`OccupancyOctree::collides_sphere`] and the
/// `omu-map` facade. Conservatively samples the voxel grid inside the
/// sphere's bounding cube, accepting voxel centres within the radius
/// plus half a voxel diagonal.
///
/// # Errors
///
/// Returns [`KeyError`] when the probe region leaves the addressable
/// map.
pub fn collides_sphere_with<F>(
    conv: &KeyConverter,
    center: Point3,
    radius: f64,
    mut probe: F,
) -> Result<bool, KeyError>
where
    F: FnMut(VoxelKey) -> Occupancy,
{
    let res = conv.resolution();
    let r = radius.max(0.0);
    let min = conv.coord_to_key(center - Point3::splat(r))?;
    let max = conv.coord_to_key(center + Point3::splat(r))?;
    for x in min.x..=max.x {
        for y in min.y..=max.y {
            for z in min.z..=max.z {
                let key = VoxelKey::new(x, y, z);
                if probe(key) == Occupancy::Occupied {
                    // Check the voxel centre actually lies within the
                    // sphere (plus half a diagonal for conservatism).
                    let c = conv.key_to_coord(key);
                    if c.distance(center) <= r + res * 0.866 {
                        return Ok(true);
                    }
                }
            }
        }
    }
    Ok(false)
}

impl<V: LogOdds> OccupancyOctree<V> {
    /// Casts a query ray from `origin` along `direction`, returning the
    /// first occupied voxel within `max_range` metres.
    ///
    /// With `ignore_unknown = true` unobserved voxels are treated as free
    /// (OctoMap `castRay` semantics with `ignoreUnknownCells`); otherwise
    /// the cast stops at the first unknown voxel.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the origin is outside the map or the
    /// direction is degenerate.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::{Point3, PointCloud, Scan};
    /// use omu_octree::{OctreeF32, RayCastResult};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// tree.insert_scan(&Scan::new(
    ///     Point3::ZERO,
    ///     [Point3::new(1.0, 0.0, 0.0)].into_iter().collect::<PointCloud>(),
    /// ))?;
    /// let hit = tree.cast_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 5.0, true)?;
    /// assert!(matches!(hit, RayCastResult::Hit { .. }));
    /// # Ok(())
    /// # }
    /// ```
    pub fn cast_ray(
        &self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, KeyError> {
        let view = self.view();
        cast_ray_with(
            &self.conv,
            origin,
            direction,
            max_range,
            ignore_unknown,
            |key| match view.search(key, TREE_DEPTH) {
                Some((v, _)) => (self.resolved.classify(v), v.to_f32()),
                None => (Occupancy::Unknown, 0.0),
            },
        )
    }

    /// Convenience collision probe: does a sphere of radius `radius` at
    /// `center` intersect any occupied voxel?
    ///
    /// This is the motion-planning query of the paper's introduction
    /// (Fig. 1: "Collision Detect"). It conservatively samples the voxel
    /// grid inside the axis-aligned bounding cube of the sphere.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the probe region leaves the addressable
    /// map.
    pub fn collides_sphere(&self, center: Point3, radius: f64) -> Result<bool, KeyError> {
        let view = self.view();
        collides_sphere_with(&self.conv, center, radius, |key| view.occupancy(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeF32;
    use omu_geometry::{PointCloud, Scan};

    fn mapped_tree() -> OctreeF32 {
        let mut t = OctreeF32::new(0.1).unwrap();
        // A wall of endpoints at x = 2.0 m.
        let mut cloud = PointCloud::new();
        for y in -5..=5 {
            for z in -5..=5 {
                cloud.push(Point3::new(2.0, y as f64 * 0.1, z as f64 * 0.1));
            }
        }
        t.insert_scan(&Scan::new(Point3::ZERO, cloud)).unwrap();
        t
    }

    #[test]
    fn cast_ray_hits_wall() {
        let t = mapped_tree();
        let r = t
            .cast_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 5.0, true)
            .unwrap();
        match r {
            RayCastResult::Hit { point, logodds, .. } => {
                assert!((point.x - 2.05).abs() < 0.11, "hit near the wall: {point}");
                assert!(logodds > 0.0);
            }
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn cast_ray_respects_max_range() {
        let t = mapped_tree();
        let r = t
            .cast_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 1.0, true)
            .unwrap();
        assert_eq!(r, RayCastResult::MaxRangeReached);
    }

    #[test]
    fn cast_ray_blocked_by_unknown() {
        let t = mapped_tree();
        // Looking away from the mapped cone: immediately unknown.
        let r = t
            .cast_ray(
                Point3::new(0.0, 0.0, 1.0),
                Point3::new(0.0, 0.0, 1.0),
                5.0,
                false,
            )
            .unwrap();
        assert!(matches!(r, RayCastResult::UnknownBlocked { .. }));
        // Ignoring unknown lets the ray run to range.
        let r = t
            .cast_ray(
                Point3::new(0.0, 0.0, 1.0),
                Point3::new(0.0, 0.0, 1.0),
                5.0,
                true,
            )
            .unwrap();
        assert_eq!(r, RayCastResult::MaxRangeReached);
    }

    #[test]
    fn cast_ray_bad_direction_errors() {
        let t = mapped_tree();
        assert!(t.cast_ray(Point3::ZERO, Point3::ZERO, 1.0, true).is_err());
    }

    #[test]
    fn sphere_collision_near_wall() {
        let t = mapped_tree();
        assert!(t.collides_sphere(Point3::new(2.0, 0.0, 0.0), 0.2).unwrap());
        assert!(!t.collides_sphere(Point3::new(0.5, 0.0, 0.0), 0.2).unwrap());
    }

    #[test]
    fn sphere_probe_out_of_map_errors() {
        let t = mapped_tree();
        let far = t.converter().map_half_extent();
        assert!(t.collides_sphere(Point3::new(far, 0.0, 0.0), 1.0).is_err());
    }
}
