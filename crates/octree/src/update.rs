//! The measurement-update path: descent, expansion, leaf update, parent
//! update and pruning — a faithful port of OctoMap's `updateNodeRecurs`.
//!
//! The per-operation machinery lives in the storage-generic
//! [`WalkCtx`](crate::walk::WalkCtx); this module wires it to the tree's
//! own arena for the scalar per-update path and the whole-tree
//! maintenance passes.

use omu_geometry::{LogOdds, VoxelKey, TREE_DEPTH};

use crate::arena::NodeStore;
use crate::node::NIL;
use crate::tree::OccupancyOctree;
use crate::walk::{ChangeLog, WalkCtx};

impl<V: LogOdds> OccupancyOctree<V> {
    /// Integrates one hit (`true`) / miss (`false`) observation of the
    /// voxel at `key`, returning the voxel's new log-odds value.
    ///
    /// This performs the three basic OctoMap operations of the paper's
    /// Section III-A: update leaf (eq. 2), recursively update parents
    /// (eq. 3), and node prune/expand.
    pub fn update_key(&mut self, key: VoxelKey, hit: bool) -> V {
        let delta = if hit {
            self.resolved.hit
        } else {
            self.resolved.miss
        };
        self.update_key_logodds(key, delta)
    }

    /// Integrates an observation expressed directly as a log-odds delta.
    pub fn update_key_logodds(&mut self, key: VoxelKey, delta: V) -> V {
        self.arena.sync_pins();
        // OctoMap's early abort: if the covering leaf is already clamped in
        // the update direction, the update cannot change anything — skip
        // the whole descend/prune machinery. (This is why saturated
        // re-observations are cheap on the CPU baseline.) The skip also
        // requires the clamped step to keep the value's bits, the test the
        // batch engine's miss runs use: a zero delta turns a `-0.0` clamp
        // bound into `+0.0`, so it must apply.
        if self.early_abort_saturated {
            self.counters.saturation_probes += 1;
            if let Some((value, _)) = self.search(key) {
                let (min, max) = (self.resolved.clamp_min, self.resolved.clamp_max);
                let positive = delta >= V::ZERO;
                let saturated = (positive && value >= max) || (!positive && value <= min);
                if saturated && value.add(delta).clamp_to(min, max).same_bits(value) {
                    self.counters.saturated_skips += 1;
                    return value;
                }
            }
        }

        // --- Descent: locate (creating / expanding as needed) the leaf. ---
        let mut just_created = false;
        if self.root == NIL {
            self.root = self.arena.alloc_root(V::ZERO);
            self.counters.node_creations += 1;
            just_created = true;
        }
        let root = self.root;
        let mut ctx = self.walk_ctx();

        // path[d] = node at depth d along the key's root path.
        let mut path = [NIL; TREE_DEPTH as usize + 1];
        let mut node = root;
        path[0] = node;

        for depth in 0..TREE_DEPTH {
            let (child, created) = ctx.step_down(node, key, depth, just_created);
            just_created = created;
            node = child;
            path[depth as usize + 1] = node;
        }

        // --- Leaf update (eq. 2). ---
        let updated = ctx.apply_leaf_delta(node, key, delta, just_created);

        // --- Parent updates and pruning, bottom-up (eq. 3). ---
        let mut result = updated;
        for depth in (0..TREE_DEPTH).rev() {
            if let Some(pruned_value) = ctx.finish_node(path[depth as usize], depth) {
                result = pruned_value;
            }
        }
        result
    }

    /// Prunes the whole tree in one post-order pass (for maps built with
    /// pruning disabled, or after bulk edits). Returns the number of nodes
    /// pruned.
    pub fn prune_all(&mut self) -> u64 {
        if self.root == NIL {
            return 0;
        }
        self.arena.sync_pins();
        let root = self.root;
        let before = self.counters.prunes;
        let mut ctx = self.walk_ctx();
        prune_recurs(&mut ctx, root, 0);
        self.counters.prunes - before
    }

    /// Recomputes every inner node's occupancy bottom-up (OctoMap
    /// `updateInnerOccupancy`). Only needed after operations that bypass
    /// the eager per-update parent refresh.
    pub fn update_inner_occupancy(&mut self) {
        if self.root != NIL {
            self.arena.sync_pins();
            let root = self.root;
            let mut ctx = self.walk_ctx();
            inner_occupancy_recurs(&mut ctx, root, 0);
        }
    }
}

/// Post-order prune sweep below `node` (at `depth`). Depth-15 nodes have
/// only depth-16 voxel children, so recursion stops there and
/// `try_prune` inspects the leaf row directly.
fn prune_recurs<S, V, C>(ctx: &mut WalkCtx<'_, S, V, C>, node: u32, depth: u8)
where
    S: NodeStore<V>,
    V: LogOdds,
    C: ChangeLog,
{
    let n = *ctx.store.node(node);
    if n.is_leaf() {
        return;
    }
    if depth + 1 < TREE_DEPTH {
        // This pass bypasses `step_down`, and pruning a child mutates its
        // slot in this node's children row — make the row COW-current
        // before recursing (leaf rows are only read and freed, never
        // written, so depth-15 parents need no hook).
        ctx.store.ensure_children_current(node, false);
        for pos in 0..8 {
            if n.has_child(pos) {
                let child = ctx.store.child_of(node, pos);
                if !ctx.store.node(child).is_leaf() {
                    prune_recurs(ctx, child, depth + 1);
                }
            }
        }
    }
    ctx.try_prune(node, depth);
}

/// Post-order parent-value refresh below `node` (at `depth`).
fn inner_occupancy_recurs<S, V, C>(ctx: &mut WalkCtx<'_, S, V, C>, node: u32, depth: u8)
where
    S: NodeStore<V>,
    V: LogOdds,
    C: ChangeLog,
{
    let n = *ctx.store.node(node);
    if n.is_leaf() {
        return;
    }
    if depth + 1 < TREE_DEPTH {
        // Same COW hook as `prune_recurs`: child refreshes write into
        // this node's children row.
        ctx.store.ensure_children_current(node, false);
        for pos in 0..8 {
            if n.has_child(pos) {
                let child = ctx.store.child_of(node, pos);
                if !ctx.store.node(child).is_leaf() {
                    inner_occupancy_recurs(ctx, child, depth + 1);
                }
            }
        }
    }
    ctx.refresh_parent_value(node, depth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{OctreeF32, OctreeFixed};
    use omu_geometry::{Occupancy, Point3};

    fn tree() -> OctreeF32 {
        OctreeF32::new(0.1).unwrap()
    }

    #[test]
    fn single_hit_creates_full_path() {
        let mut t = tree();
        t.update_key(VoxelKey::ORIGIN, true);
        // Root + 16 levels of nodes on one path.
        assert_eq!(t.num_nodes(), 17);
        assert_eq!(t.counters().leaf_updates, 1);
        assert_eq!(t.counters().node_creations, 17);
        let (v, d) = t.search(VoxelKey::ORIGIN).unwrap();
        assert_eq!(d, TREE_DEPTH);
        assert!((v - t.params().hit).abs() < 1e-6);
    }

    #[test]
    fn hits_accumulate_and_clamp() {
        let mut t = tree();
        for _ in 0..10 {
            t.update_key(VoxelKey::ORIGIN, true);
        }
        let (v, _) = t.search(VoxelKey::ORIGIN).unwrap();
        assert_eq!(v, t.params().clamp_max);
    }

    #[test]
    fn misses_clamp_at_min() {
        let mut t = tree();
        for _ in 0..10 {
            t.update_key(VoxelKey::ORIGIN, false);
        }
        let (v, _) = t.search(VoxelKey::ORIGIN).unwrap();
        assert_eq!(v, t.params().clamp_min);
        assert_eq!(t.occupancy(VoxelKey::ORIGIN), Occupancy::Free);
    }

    #[test]
    fn early_abort_skips_saturated_updates() {
        let mut t = tree();
        for _ in 0..20 {
            t.update_key(VoxelKey::ORIGIN, true);
        }
        assert!(t.counters().saturated_skips > 0);
        // With the optimization disabled every update walks the tree.
        let mut t2 = tree();
        t2.set_early_abort_saturated(false);
        for _ in 0..20 {
            t2.update_key(VoxelKey::ORIGIN, true);
        }
        assert_eq!(t2.counters().saturated_skips, 0);
        assert_eq!(t2.counters().leaf_updates, 20);
        // Same final value either way.
        assert_eq!(t.logodds(VoxelKey::ORIGIN), t2.logodds(VoxelKey::ORIGIN));
    }

    #[test]
    fn parent_holds_max_of_children() {
        let mut t = tree();
        let k_occ = VoxelKey::new(40000, 40000, 40000);
        let k_free = VoxelKey::new(40000, 40000, 40001);
        t.update_key(k_occ, true);
        t.update_key(k_free, false);
        // The shared parent (depth 15) covers both voxels; its value must be
        // the max — the hit value.
        let (v, d) = t.search_at_depth(k_occ, 15).unwrap();
        assert_eq!(d, 15);
        assert!((v - t.params().hit).abs() < 1e-6);
    }

    #[test]
    fn eight_equal_siblings_prune() {
        let mut t = tree();
        t.set_early_abort_saturated(false);
        // Saturate all 8 voxels of one finest-level octant so their values
        // become exactly equal (clamp_max).
        let base = VoxelKey::new(33000, 33000, 33000);
        assert_eq!(base.x % 2, 0);
        for _round in 0..10 {
            for dz in 0..2u16 {
                for dy in 0..2u16 {
                    for dx in 0..2u16 {
                        t.update_key(VoxelKey::new(base.x + dx, base.y + dy, base.z + dz), true);
                    }
                }
            }
        }
        assert!(t.counters().prunes > 0, "siblings at clamp_max must prune");
        // The pruned leaf covers the octant at depth 15.
        let (v, d) = t.search(base).unwrap();
        assert_eq!(d, 15);
        assert_eq!(v, t.params().clamp_max);
    }

    #[test]
    fn update_inside_pruned_leaf_expands() {
        let mut t = tree();
        t.set_early_abort_saturated(false);
        let base = VoxelKey::new(33000, 33000, 33000);
        for _round in 0..10 {
            for dz in 0..2u16 {
                for dy in 0..2u16 {
                    for dx in 0..2u16 {
                        t.update_key(VoxelKey::new(base.x + dx, base.y + dy, base.z + dz), true);
                    }
                }
            }
        }
        let prunes_before = t.counters().prunes;
        assert!(prunes_before > 0);
        // A miss inside the pruned region must expand it back.
        t.update_key(base, false);
        assert!(t.counters().expands > 0);
        let (_, d) = t.search(base).unwrap();
        assert_eq!(d, TREE_DEPTH, "expanded voxel is at finest depth again");
        // Sibling values are preserved from the pruned leaf.
        let sib = VoxelKey::new(base.x + 1, base.y, base.z);
        let (v, _) = t.search(sib).unwrap();
        assert_eq!(v, t.params().clamp_max);
    }

    #[test]
    fn pruning_disabled_keeps_children() {
        let mut t = tree();
        t.set_pruning_enabled(false);
        t.set_early_abort_saturated(false);
        let base = VoxelKey::new(33000, 33000, 33000);
        for _round in 0..10 {
            for dz in 0..2u16 {
                for dy in 0..2u16 {
                    for dx in 0..2u16 {
                        t.update_key(VoxelKey::new(base.x + dx, base.y + dy, base.z + dz), true);
                    }
                }
            }
        }
        assert_eq!(t.counters().prunes, 0);
        let nodes_unpruned = t.num_nodes();
        // prune_all collapses them afterwards.
        let pruned = t.prune_all();
        assert!(pruned > 0);
        assert!(t.num_nodes() < nodes_unpruned);
        let (v, d) = t.search(base).unwrap();
        assert!(d < TREE_DEPTH);
        assert_eq!(v, t.params().clamp_max);
    }

    #[test]
    fn fixed_point_tree_matches_float_classification() {
        let mut tf = tree();
        let mut tq = OctreeFixed::new(0.1).unwrap();
        let keys: Vec<VoxelKey> = (0..200u16)
            .map(|i| VoxelKey::new(32768 + i % 13, 32768 + (i * 7) % 11, 32768 + (i * 3) % 9))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            let hit = i % 3 != 0;
            tf.update_key(k, hit);
            tq.update_key(k, hit);
        }
        for &k in &keys {
            assert_eq!(
                tf.occupancy(k),
                tq.occupancy(k),
                "classification must agree at {k}"
            );
        }
    }

    #[test]
    fn update_point_out_of_bounds_checked_in_tree_tests() {
        let mut t = tree();
        let r = t.update_point(Point3::new(1e9, 0.0, 0.0), true);
        assert!(r.is_err());
    }

    #[test]
    fn update_inner_occupancy_rebuilds_parent_values() {
        let mut t = tree();
        t.update_key(VoxelKey::ORIGIN, true);
        // Corrupt an inner value deliberately via a direct leaf edit
        // through the public API: add misses to a sibling and verify the
        // parent tracks the max.
        t.update_inner_occupancy();
        let (v, _) = t.search_at_depth(VoxelKey::ORIGIN, 1).unwrap();
        assert!(v > 0.0);
    }
}
