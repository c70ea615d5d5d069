//! Tree structure and memory statistics.

use omu_geometry::{Aabb, LogOdds, Occupancy, TREE_DEPTH};
use serde::{Deserialize, Serialize};

use crate::tree::OccupancyOctree;

/// Structural statistics of an occupancy octree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Total live nodes (inner + leaf).
    pub num_nodes: usize,
    /// Leaf nodes (finest voxels and pruned regions).
    pub num_leaves: usize,
    /// Inner nodes.
    pub num_inner: usize,
    /// Leaves per depth (`histogram[d]` = leaves at depth `d`).
    pub leaf_depth_histogram: Vec<usize>,
    /// Volume of space classified occupied, in m³.
    pub occupied_volume: f64,
    /// Volume of space classified free, in m³.
    pub free_volume: f64,
    /// Bounding box of the observed region (leaf centres).
    pub observed_bounds: Aabb,
}

impl TreeStats {
    /// Total observed volume (occupied + free) in m³.
    pub fn known_volume(&self) -> f64 {
        self.occupied_volume + self.free_volume
    }
}

/// Memory-footprint statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Live tree nodes.
    pub live_nodes: usize,
    /// Live sibling rows (one per inner node: a 64 B node row below
    /// depth 15, a 32 B value-only leaf row for depth-15 parents).
    pub live_rows: usize,
    /// Heap bytes used by this implementation's row arenas (including
    /// vector capacity slack and free lists).
    pub arena_bytes: usize,
    /// Estimated bytes the same tree would occupy in the OctoMap C++
    /// implementation (24 B per node plus a 64 B child-pointer array per
    /// inner node) — used for the paper's memory-saving comparisons.
    pub octomap_equivalent_bytes: usize,
}

impl MemoryStats {
    /// Arena heap bytes per live node — the cache-compactness figure the
    /// sibling-row refactor targets (the block-arena layout measured
    /// ≈19 B/node on the corridor map; `tests/memory_and_capacity.rs`
    /// holds the sibling-row figure under 13).
    pub fn bytes_per_node(&self) -> f64 {
        if self.live_nodes == 0 {
            0.0
        } else {
            self.arena_bytes as f64 / self.live_nodes as f64
        }
    }
}

impl<V: LogOdds> OccupancyOctree<V> {
    /// Computes structural statistics with one pass over the tree.
    pub fn tree_stats(&self) -> TreeStats {
        let mut histogram = vec![0usize; TREE_DEPTH as usize + 1];
        let mut occupied_volume = 0.0;
        let mut free_volume = 0.0;
        let mut bounds = Aabb::empty();
        let mut num_leaves = 0;

        for leaf in self.iter_leaves() {
            num_leaves += 1;
            histogram[leaf.depth as usize] += 1;
            let size = self.converter().node_size(leaf.depth);
            let volume = size * size * size;
            match leaf.occupancy {
                Occupancy::Occupied => occupied_volume += volume,
                Occupancy::Free => free_volume += volume,
                Occupancy::Unknown => {}
            }
            bounds = bounds.union_point(self.leaf_center(&leaf));
        }

        let num_nodes = self.num_nodes();
        TreeStats {
            num_nodes,
            num_leaves,
            num_inner: num_nodes - num_leaves,
            leaf_depth_histogram: histogram,
            occupied_volume,
            free_volume,
            observed_bounds: bounds,
        }
    }

    /// Computes memory-footprint statistics.
    pub fn memory_stats(&self) -> MemoryStats {
        let live_nodes = self.num_nodes();
        let (node_rows, leaf_rows) = self.arena.live_rows();
        let live_rows = node_rows + leaf_rows;
        MemoryStats {
            live_nodes,
            live_rows,
            arena_bytes: self.arena.heap_bytes(),
            octomap_equivalent_bytes: live_nodes * 24 + live_rows * 64,
        }
    }

    /// Heap bytes held by the arena backing storage (the numerator of
    /// [`MemoryStats::bytes_per_node`], without the O(n) node count).
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
    }

    /// High-water `(node slots, sibling rows)` allocated over the tree's
    /// lifetime — measures peak memory with and without pruning/address
    /// reuse. Node slots count 8 per row ever allocated (row granularity
    /// is the unit of allocation in this layout).
    pub fn high_water(&self) -> (usize, usize) {
        let (node_rows, leaf_rows) = self.arena.high_water();
        ((node_rows + leaf_rows) * 8, node_rows + leaf_rows)
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::OctreeF32;
    use omu_geometry::{Point3, PointCloud, Scan, VoxelKey};

    fn mapped_tree() -> OctreeF32 {
        let mut t = OctreeF32::new(0.1).unwrap();
        let mut cloud = PointCloud::new();
        for i in -10..=10 {
            cloud.push(Point3::new(1.0, i as f64 * 0.1, 0.0));
        }
        t.insert_scan(&Scan::new(Point3::ZERO, cloud)).unwrap();
        t
    }

    #[test]
    fn stats_consistent_with_iteration() {
        let t = mapped_tree();
        let s = t.tree_stats();
        assert_eq!(s.num_leaves, t.iter_leaves().count());
        assert_eq!(s.num_nodes, t.num_nodes());
        assert_eq!(s.num_inner + s.num_leaves, s.num_nodes);
        assert_eq!(s.leaf_depth_histogram.iter().sum::<usize>(), s.num_leaves);
    }

    #[test]
    fn volumes_positive_after_mapping() {
        let t = mapped_tree();
        let s = t.tree_stats();
        assert!(s.occupied_volume > 0.0);
        assert!(s.free_volume > 0.0);
        assert!(s.known_volume() > s.occupied_volume);
        assert!(!s.observed_bounds.is_empty());
        // Bounds are built from voxel centres; the wall sits in voxels
        // centred at x = 1.05, z = 0.05.
        assert!(s.observed_bounds.contains(Point3::new(1.0, 0.0, 0.05)));
    }

    #[test]
    fn memory_stats_track_nodes() {
        let t = mapped_tree();
        let m = t.memory_stats();
        assert_eq!(m.live_nodes, t.num_nodes());
        assert!(m.arena_bytes > 0);
        assert!(m.octomap_equivalent_bytes >= m.live_nodes * 24);
    }

    #[test]
    fn empty_tree_stats() {
        let t = OctreeF32::new(0.1).unwrap();
        let s = t.tree_stats();
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.known_volume(), 0.0);
        assert!(s.observed_bounds.is_empty());
    }

    #[test]
    fn high_water_does_not_decrease_after_prune() {
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
        let (hw_nodes, _) = t.high_water();
        assert!(hw_nodes >= t.num_nodes(), "high water covers pruned peak");
    }
}
