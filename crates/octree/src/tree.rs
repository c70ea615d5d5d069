//! The occupancy octree type, construction and basic accessors.

use std::sync::Arc;

use omu_geometry::{
    KeyConverter, KeyError, LogOdds, Occupancy, OccupancyParams, Point3, ResolutionError,
    ResolvedParams, VoxelKey, TREE_DEPTH,
};
use omu_pool::{PoolStats, WorkerPool};
use omu_raycast::{FrontEnd, IntegrationMode, ScanIntegrator};
use rustc_hash::FxHashSet;

use crate::arena::{handle, Arena, NodeStore};
use crate::batch::BatchScratch;
use crate::counters::{OpCounters, QueryCounters};
use crate::node::{Node, NIL};
use crate::snapshot::{Snapshot, SnapshotStats, TreeView};
use crate::walk::WalkCtx;

/// A probabilistic occupancy octree with OctoMap semantics, generic over
/// the log-odds representation.
///
/// See the [crate-level documentation](crate) for the algorithm, and
/// [`OctreeF32`] / [`OctreeFixed`] for the two concrete instantiations.
#[derive(Debug, Clone)]
pub struct OccupancyOctree<V: LogOdds> {
    pub(crate) conv: KeyConverter,
    pub(crate) params: OccupancyParams,
    pub(crate) resolved: ResolvedParams<V>,
    pub(crate) arena: Arena<V>,
    pub(crate) root: u32,
    pub(crate) counters: OpCounters,
    pub(crate) early_abort_saturated: bool,
    pub(crate) pruning_enabled: bool,
    pub(crate) integration_mode: IntegrationMode,
    pub(crate) front_end: FrontEnd,
    pub(crate) max_range: Option<f64>,
    pub(crate) scratch_integrator: Option<ScanIntegrator>,
    pub(crate) batch_scratch: BatchScratch,
    pub(crate) query_counters: QueryCounters,
    // Fx instead of SipHash: change tracking inserts a structured key per
    // classification flip on the hottest path; see `rustc_hash`.
    pub(crate) changed: Option<FxHashSet<VoxelKey>>,
    /// Persistent workers behind every parallel engine path; created
    /// lazily on first parallel call, or injected (shared) by the map
    /// facade. Clones of the tree share the pool.
    pub(crate) worker_pool: Option<Arc<WorkerPool>>,
    /// Test hook: branch whose task panics inside the pooled fan-out.
    pub(crate) debug_panic_branch: Option<usize>,
}

/// The floating-point baseline tree (OctoMap's native representation).
pub type OctreeF32 = OccupancyOctree<f32>;

/// The tree running on the accelerator's 16-bit fixed-point log-odds.
///
/// Running the identical algorithm on [`FixedLogOdds`] produces maps that
/// are bit-identical to the OMU accelerator model, which is how the
/// reproduction verifies the hardware datapath.
///
/// [`FixedLogOdds`]: omu_geometry::FixedLogOdds
pub type OctreeFixed = OccupancyOctree<omu_geometry::FixedLogOdds>;

impl<V: LogOdds> OccupancyOctree<V> {
    /// Creates an empty tree with OctoMap's default sensor model.
    ///
    /// # Errors
    ///
    /// Returns [`ResolutionError`] if `resolution` is not positive and
    /// finite.
    pub fn new(resolution: f64) -> Result<Self, ResolutionError> {
        Self::with_params(resolution, OccupancyParams::default())
    }

    /// Creates an empty tree with explicit sensor-model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ResolutionError`] if `resolution` is not positive and
    /// finite.
    pub fn with_params(resolution: f64, params: OccupancyParams) -> Result<Self, ResolutionError> {
        let conv = KeyConverter::new(resolution)?;
        Ok(OccupancyOctree {
            conv,
            params,
            resolved: params.resolve::<V>(),
            arena: Arena::new(),
            root: NIL,
            counters: OpCounters::default(),
            early_abort_saturated: true,
            pruning_enabled: true,
            integration_mode: IntegrationMode::default(),
            front_end: FrontEnd::default(),
            max_range: None,
            scratch_integrator: None,
            batch_scratch: BatchScratch::default(),
            query_counters: QueryCounters::default(),
            changed: None,
            worker_pool: None,
            debug_panic_branch: None,
        })
    }

    /// Installs a shared [`WorkerPool`] for the tree's one parallel path,
    /// the sharded walk behind batch applies and scan inserts. Without
    /// this, the tree creates its own pool on the first parallel call.
    /// The map facade installs one to size the pool up front.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.worker_pool = Some(pool);
    }

    /// The worker pool behind this tree's parallel paths, if one exists
    /// yet (none is created until the first parallel call).
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.worker_pool.as_ref()
    }

    /// Pool counters for this tree's parallel paths ([`PoolStats`]), or
    /// `None` if no parallel path has run yet. `threads_spawned` staying
    /// flat across calls is the observable "zero per-call spawns"
    /// guarantee.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.worker_pool.as_ref().map(|p| p.stats())
    }

    /// Get-or-create the tree's pool. Every parallel path splits its work
    /// into at most the 8 branch shards, so 8 queues cover it; the count
    /// rounds up to the CPU count on wider hosts, and workers spawn
    /// lazily, so unused queues cost nothing.
    pub(crate) fn worker_pool_handle(&mut self) -> Arc<WorkerPool> {
        Arc::clone(self.worker_pool.get_or_insert_with(|| {
            let threads = crate::arena::NUM_BRANCHES
                .max(std::thread::available_parallelism().map_or(1, |n| n.get()));
            Arc::new(WorkerPool::new(threads))
        }))
    }

    /// Engages (or disarms, with `None`) the pool's deterministic
    /// task-order shuffle on this tree's parallel paths, creating the
    /// pool if none exists yet. A stress knob for the equivalence suite:
    /// the engines must produce bit-identical maps under *every*
    /// execution order, and a seeded shuffle flushes order-dependent
    /// bugs the default round-robin schedule would mask. See
    /// [`WorkerPool::set_shuffle_seed`].
    pub fn set_task_shuffle_seed(&mut self, seed: Option<u64>) {
        self.worker_pool_handle().set_shuffle_seed(seed);
    }

    /// Test hook: make the pooled branch task for `branch` panic, to
    /// exercise worker-panic propagation. `None` disarms it. Only fires
    /// on the pooled fan-out path (batches large enough to fan out).
    #[doc(hidden)]
    pub fn debug_inject_worker_panic(&mut self, branch: Option<usize>) {
        self.debug_panic_branch = branch;
    }

    /// The map resolution in metres.
    pub fn resolution(&self) -> f64 {
        self.conv.resolution()
    }

    /// The key/coordinate converter.
    pub fn converter(&self) -> &KeyConverter {
        &self.conv
    }

    /// The sensor-model parameters (as configured, in `f32` log-odds).
    pub fn params(&self) -> &OccupancyParams {
        &self.params
    }

    /// The parameters resolved into this tree's value representation.
    pub fn resolved_params(&self) -> &ResolvedParams<V> {
        &self.resolved
    }

    /// Cumulative operation counters (never reset implicitly).
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Resets the operation counters to zero.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Cumulative read-side counters, fed by every cursor read run
    /// through [`Self::with_reader`] (see the `query_batch` module; the
    /// scalar [`Self::search`] path is uncounted, like OctoMap's).
    pub fn query_counters(&self) -> &QueryCounters {
        &self.query_counters
    }

    /// Removes and returns the accumulated query counters (the drain
    /// form used by the `omu-map` facade and the benches).
    pub fn take_query_counters(&mut self) -> QueryCounters {
        std::mem::take(&mut self.query_counters)
    }

    /// Enables or disables OctoMap's early-abort optimization, which skips
    /// updates to voxels whose covering leaf is already saturated in the
    /// update direction. Enabled by default. Map contents are identical
    /// either way; only the operation counts differ.
    pub fn set_early_abort_saturated(&mut self, enabled: bool) {
        self.early_abort_saturated = enabled;
    }

    /// Enables or disables pruning (enabled by default). Disabling is used
    /// by the memory experiments to quantify how much storage pruning
    /// saves (the paper cites up to 44 %).
    pub fn set_pruning_enabled(&mut self, enabled: bool) {
        self.pruning_enabled = enabled;
    }

    /// True when pruning is enabled.
    pub fn pruning_enabled(&self) -> bool {
        self.pruning_enabled
    }

    /// Sets the scan-integration overlap mode (default:
    /// [`IntegrationMode::Raywise`], the workload the paper counts).
    pub fn set_integration_mode(&mut self, mode: IntegrationMode) {
        self.integration_mode = mode;
        self.scratch_integrator = None;
    }

    /// The scan-integration mode.
    pub fn integration_mode(&self) -> IntegrationMode {
        self.integration_mode
    }

    /// Sets the DDA front end scan integration runs through (default:
    /// [`FrontEnd::Packet`], the 8-lane lockstep walk). Both front ends
    /// produce bit-identical trees and counters; [`FrontEnd::Scalar`] is
    /// the reference implementation.
    pub fn set_front_end(&mut self, front_end: FrontEnd) {
        self.front_end = front_end;
        self.scratch_integrator = None;
    }

    /// The DDA front end in use.
    pub fn front_end(&self) -> FrontEnd {
        self.front_end
    }

    /// Sets the maximum sensor range in metres (`None` = unlimited).
    pub fn set_max_range(&mut self, max_range: Option<f64>) {
        self.max_range = max_range;
        self.scratch_integrator = None;
    }

    /// The configured maximum sensor range.
    pub fn max_range(&self) -> Option<f64> {
        self.max_range
    }

    /// Borrows the tree's mutable update state as a walk context over the
    /// whole-tree arena — the single place the scalar and batched paths
    /// get their descent/prune machinery from.
    pub(crate) fn walk_ctx(&mut self) -> WalkCtx<'_, Arena<V>, V, FxHashSet<VoxelKey>> {
        WalkCtx {
            store: &mut self.arena,
            resolved: self.resolved,
            pruning_enabled: self.pruning_enabled,
            counters: &mut self.counters,
            changed: self.changed.as_mut(),
        }
    }

    /// True when the tree contains no observation at all.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Number of live tree nodes (inner + leaf), counted in one sweep
    /// over the inner sibling rows (every node below the root is a
    /// mask-present slot of exactly one row, so the count is
    /// `1 + Σ popcount(child_mask)`).
    pub fn num_nodes(&self) -> usize {
        if self.root == NIL {
            return 0;
        }
        let mut count = 1usize;
        let mut stack = vec![(self.root, 0u8)];
        while let Some((node, depth)) = stack.pop() {
            let n = self.arena.node(node);
            if n.is_leaf() {
                continue;
            }
            count += n.child_count() as usize;
            if depth + 1 < TREE_DEPTH {
                let shard = self.arena.child_shard(node);
                let row = n.row();
                for pos in 0..8 {
                    if n.has_child(pos) {
                        stack.push((handle(shard, row, pos), depth + 1));
                    }
                }
            }
        }
        count
    }

    /// Exhaustively checks the sibling-row arena invariants (each inner
    /// node's `child_mask` is the single source of truth for its live
    /// children; rows are singly-referenced; free lists exactly
    /// complement reachable rows). Test support — panics on violation.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        self.arena.validate_reachable(self.root);
    }

    /// The tree's row view: every read algorithm (cursor, leaf iterator,
    /// encoder, uncached search) runs on it, exactly as it runs on a
    /// [`Snapshot`]'s. Borrows the arena; publishes and pins nothing.
    #[inline]
    pub(crate) fn view(&self) -> TreeView<'_, V> {
        let root_node = if self.root == NIL {
            Node::leaf(V::ZERO)
        } else {
            *self.arena.node(self.root)
        };
        TreeView::new(
            self.arena.shards(),
            self.root,
            root_node,
            &self.resolved,
            &self.conv,
        )
    }

    /// Searches for the node covering `key`, returning its log-odds value
    /// and the depth at which it was found (≤ 16; less than 16 for pruned
    /// leaves covering the key).
    ///
    /// Returns `None` when the voxel has never been observed.
    pub fn search(&self, key: VoxelKey) -> Option<(V, u8)> {
        self.view().search(key, TREE_DEPTH)
    }

    /// Multi-resolution search: descends at most to `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth > TREE_DEPTH`.
    pub fn search_at_depth(&self, key: VoxelKey, depth: u8) -> Option<(V, u8)> {
        assert!(depth <= TREE_DEPTH, "depth {depth} exceeds {TREE_DEPTH}");
        self.view().search(key, depth)
    }

    /// The log-odds value covering `key` as `f32`, if observed.
    pub fn logodds(&self, key: VoxelKey) -> Option<f32> {
        self.search(key).map(|(v, _)| v.to_f32())
    }

    /// Occupancy classification of the voxel at `key`.
    pub fn occupancy(&self, key: VoxelKey) -> Occupancy {
        self.view().occupancy(key)
    }

    /// Occupancy classification of the voxel containing `point`.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the point is outside the addressable map.
    pub fn occupancy_at(&self, point: Point3) -> Result<Occupancy, KeyError> {
        Ok(self.occupancy(self.conv.coord_to_key(point)?))
    }

    /// Updates the voxel containing `point` with a hit (`true`) or miss
    /// (`false`) observation, returning the new log-odds as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] when the point is outside the addressable map.
    pub fn update_point(&mut self, point: Point3, hit: bool) -> Result<f32, KeyError> {
        let key = self.conv.coord_to_key(point)?;
        Ok(self.update_key(key, hit).to_f32())
    }

    /// Removes all observations, keeping configuration and allocations.
    /// Pinned snapshots are unaffected: they keep their captured storage
    /// alive and continue serving the pre-clear map.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.root = NIL;
        if let Some(changed) = &mut self.changed {
            changed.clear();
        }
    }

    /// Publishes an immutable, epoch-pinned [`Snapshot`] of the current
    /// map and advances the write epoch.
    ///
    /// The snapshot exposes the whole read surface — occupancy lookups,
    /// batched queries, ray casts, collision probes, leaf iteration —
    /// bit-identical to reading this tree at the publish instant, and it
    /// stays valid (and lock-free to read, from any number of threads)
    /// while this tree keeps mutating: the write path copies on first
    /// write any sibling row the snapshot still reads (see the `arena`
    /// module docs). Publishing is O(shards): it shares chunk tables by
    /// `Arc` and copies no rows itself.
    ///
    /// Dropping the last clone of the snapshot unpins its epoch; the
    /// next write entry then recycles whatever rows were copied out on
    /// its behalf.
    pub fn publish_snapshot(&mut self) -> Snapshot<V> {
        Snapshot::capture(
            &mut self.arena,
            self.root,
            self.conv,
            self.resolved,
            self.params,
        )
    }

    /// Snapshot/COW bookkeeping: current epoch, publish and pin counts,
    /// rows copied / retired / reclaimed by the copy-on-write machinery.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.arena.snapshot_stats()
    }

    /// Re-reads the snapshot-pin state (one atomic load) and reclaims
    /// retired rows whose pins have died. Every write entry does this
    /// implicitly; exposed for deployments that want reclamation to run
    /// eagerly during write-idle stretches.
    pub fn sync_cow_state(&mut self) {
        self.arena.sync_pins();
    }

    /// Enables or disables change detection (disabled by default, like
    /// OctoMap's `enableChangeDetection`).
    ///
    /// While enabled, the tree records every voxel whose occupancy
    /// *classification* changed — newly observed voxels and
    /// occupied↔free flips — so incremental consumers (planners,
    /// renderers) can process only what moved since the last
    /// [`Self::reset_changed_keys`].
    pub fn set_change_detection(&mut self, enabled: bool) {
        if enabled {
            if self.changed.is_none() {
                self.changed = Some(FxHashSet::default());
            }
        } else {
            self.changed = None;
        }
    }

    /// True when change detection is enabled.
    pub fn change_detection_enabled(&self) -> bool {
        self.changed.is_some()
    }

    /// The voxels whose classification changed since tracking was enabled
    /// or last reset (empty when tracking is disabled).
    pub fn changed_keys(&self) -> impl Iterator<Item = &VoxelKey> {
        self.changed.iter().flatten()
    }

    /// Number of changed voxels currently recorded.
    pub fn num_changed_keys(&self) -> usize {
        self.changed.as_ref().map_or(0, |c| c.len())
    }

    /// Clears the changed-key set (OctoMap's `resetChangeDetection`).
    pub fn reset_changed_keys(&mut self) {
        if let Some(changed) = &mut self.changed {
            changed.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tree_is_empty_and_unknown() {
        let t = OctreeF32::new(0.1).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.occupancy(VoxelKey::ORIGIN), Occupancy::Unknown);
        assert!(t.search(VoxelKey::ORIGIN).is_none());
    }

    #[test]
    fn invalid_resolution_rejected() {
        assert!(OctreeF32::new(-1.0).is_err());
        assert!(OctreeF32::new(f64::NAN).is_err());
    }

    #[test]
    fn update_point_then_query() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let p = Point3::new(0.5, 0.5, 0.5);
        let l = t.update_point(p, true).unwrap();
        assert!(l > 0.0);
        assert_eq!(t.occupancy_at(p).unwrap(), Occupancy::Occupied);
        assert!(!t.is_empty());
    }

    #[test]
    fn clear_resets_observations() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.update_point(Point3::ZERO, true).unwrap();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.occupancy(VoxelKey::ORIGIN), Occupancy::Unknown);
    }

    #[test]
    fn out_of_map_point_errors() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let far = t.converter().map_half_extent() + 1.0;
        assert!(t.update_point(Point3::new(far, 0.0, 0.0), true).is_err());
        assert!(t.occupancy_at(Point3::new(far, 0.0, 0.0)).is_err());
    }

    #[test]
    fn search_at_depth_zero_returns_root() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.update_point(Point3::ZERO, true).unwrap();
        let (v, d) = t.search_at_depth(VoxelKey::ORIGIN, 0).unwrap();
        assert_eq!(d, 0);
        // Root holds the max over the tree: positive after a hit.
        assert!(v > 0.0);
    }
}
