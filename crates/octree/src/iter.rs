//! Leaf iteration and map snapshots: one leaf iterator, [`LeafIter`],
//! serves the live tree and its epoch snapshots, over the whole map or a
//! key box.

use omu_geometry::{LogOdds, Occupancy, Point3, VoxelKey, TREE_DEPTH};

use crate::snapshot::TreeView;
use crate::tree::OccupancyOctree;

/// One leaf of the tree: a voxel (depth 16) or a pruned region
/// (depth < 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafInfo {
    /// Finest-depth key of the region's minimum corner.
    pub key: VoxelKey,
    /// Tree depth of the leaf (16 = single voxel).
    pub depth: u8,
    /// Occupancy log-odds of the leaf.
    pub logodds: f32,
    /// Classification of the leaf under the tree's thresholds.
    pub occupancy: Occupancy,
}

/// Depth-first iterator over the leaves of an [`OccupancyOctree`] or of
/// a [`Snapshot`](crate::Snapshot), optionally bounded to a key box.
///
/// Yields leaves in deterministic (child index) order. Created by
/// [`OccupancyOctree::iter_leaves`] and
/// [`iter_leaves_in_box`](OccupancyOctree::iter_leaves_in_box) /
/// [`iter_leaves_in_aabb`](OccupancyOctree::iter_leaves_in_aabb), and by
/// the same-named [`Snapshot`](crate::Snapshot) methods. A bounded walk
/// skips whole subtrees whose key range misses the box, so its cost
/// scales with the region, not the map.
#[derive(Debug)]
pub struct LeafIter<'a, V: LogOdds> {
    view: TreeView<'a, V>,
    /// Inclusive key box `[min, max]`; `None` walks every leaf.
    bounds: Option<(VoxelKey, VoxelKey)>,
    stack: Vec<(u32, VoxelKey, u8)>,
}

impl<'a, V: LogOdds> LeafIter<'a, V> {
    pub(crate) fn new(view: TreeView<'a, V>, bounds: Option<(VoxelKey, VoxelKey)>) -> Self {
        let mut stack = Vec::new();
        if !view.is_empty() {
            stack.push((view.root(), VoxelKey::new(0, 0, 0), 0u8));
        }
        LeafIter {
            view,
            bounds,
            stack,
        }
    }

    /// Collects the leaves as the canonical sorted `(key, depth,
    /// logodds)` list (see [`OccupancyOctree::snapshot`]).
    pub(crate) fn canonical(self) -> Vec<(VoxelKey, u8, f32)> {
        let mut v: Vec<_> = self.map(|l| (l.key, l.depth, l.logodds)).collect();
        v.sort_by_key(|&(key, depth, _)| (key, depth));
        v
    }
}

impl<V: LogOdds> Iterator for LeafIter<'_, V> {
    type Item = LeafInfo;

    fn next(&mut self) -> Option<LeafInfo> {
        while let Some((node, key, depth)) = self.stack.pop() {
            if let Some((min, max)) = self.bounds {
                // The node at `depth` spans `span` finest voxels per axis
                // from its anchor key.
                let span = 1u32 << (TREE_DEPTH - depth);
                let overlaps = |anchor: u16, lo: u16, hi: u16| {
                    let a = anchor as u32;
                    a <= hi as u32 && a + span > lo as u32
                };
                if !(overlaps(key.x, min.x, max.x)
                    && overlaps(key.y, min.y, max.y)
                    && overlaps(key.z, min.z, max.z))
                {
                    continue;
                }
            }
            // Depth-16 handles index value-only leaf rows.
            let value = if depth == TREE_DEPTH {
                self.view.leaf_value(node)
            } else {
                let n = if depth == 0 {
                    self.view.root_node()
                } else {
                    self.view.node(node)
                };
                if !n.is_leaf() {
                    let bit = TREE_DEPTH - 1 - depth;
                    // Push in reverse so children pop in ascending index
                    // order.
                    for pos in (0..8usize).rev().filter(|&pos| n.has_child(pos)) {
                        let child_key = VoxelKey::new(
                            key.x | (((pos & 1) as u16) << bit),
                            key.y | ((((pos >> 1) & 1) as u16) << bit),
                            key.z | ((((pos >> 2) & 1) as u16) << bit),
                        );
                        let child = self.view.child(node, &n, pos);
                        self.stack.push((child, child_key, depth + 1));
                    }
                    continue;
                }
                n.value
            };
            return Some(LeafInfo {
                key,
                depth,
                logodds: value.to_f32(),
                occupancy: self.view.resolved.classify(value),
            });
        }
        None
    }
}

impl<V: LogOdds> OccupancyOctree<V> {
    /// Iterates over all leaves (finest voxels and pruned regions).
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::{Point3, PointCloud, Scan};
    /// use omu_octree::OctreeF32;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// tree.update_point(Point3::ZERO, true)?;
    /// let occupied: Vec<_> = tree
    ///     .iter_leaves()
    ///     .filter(|l| l.occupancy == omu_geometry::Occupancy::Occupied)
    ///     .collect();
    /// assert_eq!(occupied.len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn iter_leaves(&self) -> LeafIter<'_, V> {
        LeafIter::new(self.view(), None)
    }

    /// Centre coordinate of a leaf region.
    pub fn leaf_center(&self, leaf: &LeafInfo) -> Point3 {
        self.conv.key_to_coord_at_depth(leaf.key, leaf.depth)
    }

    /// A canonical, sorted snapshot of the map contents:
    /// `(key, depth, logodds)` per leaf. Two maps with equal snapshots are
    /// observationally identical — used to verify accelerator/baseline
    /// equivalence.
    pub fn snapshot(&self) -> Vec<(VoxelKey, u8, f32)> {
        self.iter_leaves().canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeF32;

    #[test]
    fn empty_tree_yields_no_leaves() {
        let t = OctreeF32::new(0.1).unwrap();
        assert_eq!(t.iter_leaves().count(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn single_update_yields_one_meaningful_leaf() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.update_key(VoxelKey::ORIGIN, true);
        let leaves: Vec<_> = t.iter_leaves().collect();
        // One depth-16 leaf holds the hit; no other leaf exists because the
        // path nodes are inner nodes with a single child each.
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].depth, TREE_DEPTH);
        assert_eq!(leaves[0].key, VoxelKey::ORIGIN);
        assert_eq!(leaves[0].occupancy, Occupancy::Occupied);
    }

    #[test]
    fn leaf_keys_reconstruct_paths() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let keys = [
            VoxelKey::new(33000, 41000, 29000),
            VoxelKey::new(12345, 54321, 33333),
            VoxelKey::new(32768, 32768, 32768),
        ];
        for &k in &keys {
            t.update_key(k, true);
        }
        let mut found: Vec<VoxelKey> = t.iter_leaves().map(|l| l.key).collect();
        found.sort();
        let mut expect = keys.to_vec();
        expect.sort();
        assert_eq!(found, expect);
    }

    #[test]
    fn pruned_leaf_reports_coarse_depth() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.set_early_abort_saturated(false);
        let base = VoxelKey::new(33000, 33000, 33000);
        for _ in 0..10 {
            for i in 0..8u16 {
                t.update_key(
                    VoxelKey::new(
                        base.x + (i & 1),
                        base.y + ((i >> 1) & 1),
                        base.z + ((i >> 2) & 1),
                    ),
                    true,
                );
            }
        }
        let leaf = t
            .iter_leaves()
            .find(|l| l.key == base)
            .expect("pruned leaf present");
        assert_eq!(leaf.depth, TREE_DEPTH - 1);
        let c = t.leaf_center(&leaf);
        let fine = t.converter().key_to_coord(base);
        assert!(c.distance(fine) < t.converter().node_size(TREE_DEPTH - 1));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let mut t = OctreeF32::new(0.1).unwrap();
        for i in 0..50u16 {
            t.update_key(
                VoxelKey::new(32768 + i * 3 % 17, 32768 + i % 5, 32768),
                i % 2 == 0,
            );
        }
        let s1 = t.snapshot();
        let s2 = t.snapshot();
        assert_eq!(s1, s2);
        assert!(s1.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
    }
}
