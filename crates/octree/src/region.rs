//! Region queries: iterating the leaves inside an axis-aligned box.
//!
//! Collision detection and local planners only care about the map near the
//! robot; OctoMap serves this with `begin_leafs_bbx`. The bounded
//! [`LeafIter`] prunes whole subtrees whose key range falls outside the
//! query box, so the cost scales with the region, not the map.

use omu_geometry::{Aabb, KeyError, LogOdds, Occupancy, VoxelKey};

use crate::iter::LeafIter;
use crate::tree::OccupancyOctree;

impl<V: LogOdds> OccupancyOctree<V> {
    /// Iterates the leaves whose regions intersect the key box
    /// `[min, max]` (inclusive, per axis).
    pub fn iter_leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> LeafIter<'_, V> {
        LeafIter::new(self.view(), Some((min, max)))
    }

    /// Iterates the leaves intersecting a metric box.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when a corner of the box is outside the map.
    pub fn iter_leaves_in_aabb(&self, aabb: &Aabb) -> Result<LeafIter<'_, V>, KeyError> {
        let min = self.conv.coord_to_key(aabb.min())?;
        let max = self.conv.coord_to_key(aabb.max())?;
        Ok(self.iter_leaves_in_box(min, max))
    }

    /// True when any voxel intersecting the metric box is occupied — the
    /// cheap axis-aligned collision primitive planners build on.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when a corner of the box is outside the map.
    pub fn any_occupied_in_aabb(&self, aabb: &Aabb) -> Result<bool, KeyError> {
        Ok(self
            .iter_leaves_in_aabb(aabb)?
            .any(|l| l.occupancy == Occupancy::Occupied))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeF32;
    use omu_geometry::{Point3, PointCloud, Scan, TREE_DEPTH};

    fn mapped_tree() -> OctreeF32 {
        let mut t = OctreeF32::new(0.1).unwrap();
        let mut cloud = PointCloud::new();
        // A wall of points at x = 2.
        for y in -10..=10 {
            for z in -5..=5 {
                cloud.push(Point3::new(2.0, y as f64 * 0.1, z as f64 * 0.1));
            }
        }
        t.insert_scan(&Scan::new(Point3::ZERO, cloud)).unwrap();
        t
    }

    #[test]
    fn box_iteration_matches_filtered_full_iteration() {
        let t = mapped_tree();
        let aabb = Aabb::new(Point3::new(1.5, -0.5, -0.3), Point3::new(2.5, 0.5, 0.3));
        let in_box: Vec<_> = t
            .iter_leaves_in_aabb(&aabb)
            .unwrap()
            .map(|l| l.key)
            .collect();
        // Reference: filter the full iteration by geometric overlap.
        let min = t.converter().coord_to_key(aabb.min()).unwrap();
        let max = t.converter().coord_to_key(aabb.max()).unwrap();
        let expected: Vec<_> = t
            .iter_leaves()
            .filter(|l| {
                let span = 1u32 << (TREE_DEPTH - l.depth);
                let inside = |a: u16, lo: u16, hi: u16| {
                    (a as u32) <= hi as u32 && a as u32 + span > lo as u32
                };
                inside(l.key.x, min.x, max.x)
                    && inside(l.key.y, min.y, max.y)
                    && inside(l.key.z, min.z, max.z)
            })
            .map(|l| l.key)
            .collect();
        let mut got = in_box.clone();
        let mut want = expected.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "query box overlaps the wall");
    }

    #[test]
    fn collision_primitive_detects_wall() {
        let t = mapped_tree();
        let hit = Aabb::new(Point3::new(1.9, -0.2, -0.2), Point3::new(2.3, 0.2, 0.2));
        let miss = Aabb::new(Point3::new(0.5, -0.2, -0.2), Point3::new(1.0, 0.2, 0.2));
        assert!(t.any_occupied_in_aabb(&hit).unwrap());
        assert!(!t.any_occupied_in_aabb(&miss).unwrap());
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let t = OctreeF32::new(0.1).unwrap();
        let aabb = Aabb::new(Point3::ZERO, Point3::splat(1.0));
        assert_eq!(t.iter_leaves_in_aabb(&aabb).unwrap().count(), 0);
    }

    #[test]
    fn out_of_map_box_is_an_error() {
        let t = mapped_tree();
        let far = t.converter().map_half_extent() + 5.0;
        let aabb = Aabb::new(Point3::ZERO, Point3::splat(far));
        assert!(t.iter_leaves_in_aabb(&aabb).is_err());
    }

    #[test]
    fn whole_map_box_equals_full_iteration() {
        let t = mapped_tree();
        let all = t.iter_leaves().count();
        let boxed = t
            .iter_leaves_in_box(
                VoxelKey::new(0, 0, 0),
                VoxelKey::new(u16::MAX, u16::MAX, u16::MAX),
            )
            .count();
        assert_eq!(all, boxed);
    }
}
