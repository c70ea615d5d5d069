//! Subtree-sharded parallel batch application.
//!
//! Morton order makes the batched walk parallelizable for free: the top
//! 3 bits of a voxel's Morton code are its first-level branch, so the
//! sorted unique keys split into at most 8 contiguous runs over
//! *disjoint* subtrees. This module detaches each active branch's
//! [`ArenaShard`](crate::arena::ArenaShard) from the tree (O(1) — the
//! arena is branch-partitioned from the start, like the OMU accelerator's
//! per-PE T-Mem banks), applies each run on its own thread through the
//! same [`WalkCtx`] machinery the sequential walk uses, then reattaches
//! the shards and finishes the root spine.
//!
//! In the sibling-row layout the 8 depth-1 nodes share one spine row, so
//! a worker cannot own its depth-1 node through the shard alone. Each
//! worker instead runs over a [`BranchStore`]: its branch shard plus a
//! by-value copy of the branch's depth-1 node, written back to the spine
//! after the join (branches are disjoint, so no other thread reads it).
//!
//! The result is **bit-identical** to the scalar and sequential-batched
//! paths: per-voxel delta order is preserved by the grouping pass,
//! branches are disjoint (no cross-thread data), worker-local counters
//! and change logs merge in fixed branch order, and the deferred
//! finishing inside a branch is exactly the sequence the sequential walk
//! would have executed when crossing that branch.

use omu_geometry::{LogOdds, ResolvedParams, VoxelKey};
use omu_pool::TaskPanic;

use crate::arena::{ArenaShard, NodeStore, NUM_BRANCHES};
use crate::batch::{walk_groups, BatchScratch, BatchStats};
use crate::counters::OpCounters;
use crate::node::Node;
use crate::tree::OccupancyOctree;
use crate::walk::WalkCtx;

/// Minimum number of unique keys in a batch before the sharded apply
/// fans out to pool workers. Queueing on the persistent pool is cheap (a
/// futex wake, no thread spawn), but below this the dispatch bookkeeping
/// still exceeds the walk itself, so every branch task runs inline on
/// the calling thread instead (bit-identical output and counters).
pub(crate) const PARALLEL_APPLY_MIN_KEYS: usize = 1024;

/// A worker's storage view: its branch shard plus the branch's depth-1
/// node copied out of the spine row (written back after the join).
struct BranchStore<V> {
    shard: ArenaShard<V>,
    /// Spine handle of the depth-1 node this store masquerades for.
    branch_idx: u32,
    /// The depth-1 node, owned by value for the walk's duration.
    branch_node: Node<V>,
}

impl<V: LogOdds> NodeStore<V> for BranchStore<V> {
    #[inline]
    fn node(&self, h: u32) -> &Node<V> {
        if h == self.branch_idx {
            &self.branch_node
        } else {
            self.shard.node(h)
        }
    }

    #[inline]
    fn node_mut(&mut self, h: u32) -> &mut Node<V> {
        if h == self.branch_idx {
            &mut self.branch_node
        } else {
            self.shard.node_mut(h)
        }
    }

    #[inline]
    fn leaf_value_mut(&mut self, h: u32) -> &mut V {
        self.shard.leaf_value_mut(h)
    }

    /// Everything below the depth-1 node lives in this branch's shard —
    /// including the depth-1 node's own children (its octant *is* the
    /// branch id).
    #[inline]
    fn child_shard(&self, _parent: u32) -> usize {
        self.shard.id()
    }

    #[inline]
    fn alloc_row_for(&mut self, _parent: u32, fill: Node<V>) -> u32 {
        self.shard.alloc_row(fill)
    }

    #[inline]
    fn alloc_leaf_row_for(&mut self, _parent: u32, fill: V) -> u32 {
        self.shard.alloc_leaf_row(fill)
    }

    #[inline]
    fn free_row_of(&mut self, parent: u32) {
        let row = self.node(parent).row();
        self.shard.free_row(row);
    }

    #[inline]
    fn free_leaf_row_of(&mut self, parent: u32) {
        let row = self.node(parent).row();
        self.shard.free_leaf_row(row);
    }

    #[inline]
    fn ensure_children_current(&mut self, parent: u32, leaf_tier: bool) -> u32 {
        let n = *self.node(parent);
        debug_assert!(!n.is_leaf(), "ensure on a childless node");
        let row = n.row();
        let current = if leaf_tier {
            self.shard.make_leaf_row_current(row)
        } else {
            self.shard.make_row_current(row)
        };
        if current != row {
            // Republish the packed word — into the by-value branch node
            // when `parent` is the depth-1 node this store masquerades
            // for (its spine slot is written back after the join).
            self.node_mut(parent).set_children(current, n.mask());
        }
        current
    }

    #[inline]
    fn node_row(&self, _shard: usize, row: u32) -> &crate::node::NodeRow<V> {
        self.shard.node_row(row)
    }

    #[inline]
    fn leaf_row(&self, _shard: usize, row: u32) -> &crate::node::LeafRow<V> {
        self.shard.leaf_row(row)
    }
}

/// One branch's slice of the batch plus everything its worker owns.
struct BranchTask<V> {
    branch: usize,
    store: BranchStore<V>,
    /// Whether the depth-1 node was freshly created by the pre-step.
    created: bool,
    /// This branch's contiguous range in the Morton-sorted group order.
    range: std::ops::Range<usize>,
    stats: BatchStats,
    counters: OpCounters,
    changed: Vec<VoxelKey>,
}

/// First-level branch of a group: the top 3 bits of its Morton code.
#[inline]
fn branch_of(morton: u64) -> usize {
    (morton >> 45) as usize
}

/// Resolves a requested worker count for every parallel path of the
/// tree: `0` means one per available CPU, and any count is capped at the
/// 8 branch shards that exist.
pub(crate) fn resolve_apply_shards(requested: usize) -> usize {
    let workers = match requested {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    workers.clamp(1, NUM_BRANCHES)
}

impl<V: LogOdds> OccupancyOctree<V> {
    /// The subtree-sharded counterpart of the sequential walk: called by
    /// the batch engine after grouping/sorting, with the root already in
    /// place, for `workers` (resolved, at least 2) pool workers.
    ///
    /// On a worker panic in the pooled fan-out, every branch shard is
    /// still reattached (the tasks — and therefore the detached shards —
    /// stay owned by this thread; workers only borrow them), the root
    /// spine is finished, and the panic is reported as [`TaskPanic`]: the
    /// tree remains structurally valid (`debug_validate`-clean), though
    /// the batch's value updates may be partially applied.
    pub(crate) fn walk_sharded(
        &mut self,
        scratch: &BatchScratch,
        stats: &mut BatchStats,
        mut root_just_created: bool,
        workers: usize,
    ) -> Result<(), TaskPanic> {
        let root = self.root;

        // Pre-step depth 0 on the main thread, once per run of groups in
        // one branch, in Morton (= branch) order: locate or create each
        // active branch's depth-1 node, expanding a pruned root exactly as
        // the sequential walk's first descent would.
        let group = |id: &u32| scratch.keys[*id as usize];
        let mut pre = Vec::with_capacity(NUM_BRANCHES);
        let mut ctx = self.walk_ctx();
        let mut start = 0;
        for run in scratch
            .order
            .chunk_by(|a, b| branch_of(group(a).0) == branch_of(group(b).0))
        {
            let (morton, first_key) = group(&run[0]);
            let (branch_root, created) = ctx.step_down(root, first_key, 0, root_just_created);
            root_just_created = false;
            stats.descended_levels += 1;
            pre.push((
                branch_of(morton),
                branch_root,
                created,
                start..start + run.len(),
            ));
            start += run.len();
        }
        let mut tasks: Vec<BranchTask<V>> = pre
            .into_iter()
            .map(|(branch, branch_root, created, range)| BranchTask {
                branch,
                store: BranchStore {
                    shard: self.arena.take_branch(branch),
                    branch_idx: branch_root,
                    branch_node: *self.arena.node(branch_root),
                },
                created,
                range,
                stats: BatchStats::default(),
                counters: OpCounters::default(),
                changed: Vec::new(),
            })
            .collect();

        let resolved = self.resolved;
        let pruning = self.pruning_enabled;
        let track_changes = self.changed.is_some();

        // Dispatch-amortization fast path: below the threshold even pool
        // dispatch bookkeeping dominates the walk, so run every branch
        // task inline on this thread — same stores, same deferred-finish
        // order, bit-identical output and counters.
        let spawn_worthy = scratch.order.len() >= PARALLEL_APPLY_MIN_KEYS;
        let nworkers = if spawn_worthy {
            workers.min(tasks.len()).max(1)
        } else {
            1
        };
        let mut panicked: Option<TaskPanic> = None;
        if nworkers <= 1 {
            for task in &mut tasks {
                run_branch_task(task, scratch, resolved, pruning, track_changes);
            }
        } else {
            // Pooled dispatch: branch i's task goes to queue i % n on
            // persistent workers — zero thread spawns per call. Workers
            // only borrow the tasks; the Vec (and the detached shards
            // inside) stays owned here, so reattachment below succeeds
            // even if a task panics mid-walk.
            let pool = self.worker_pool_handle();
            let inject = self.debug_panic_branch;
            let result = pool.try_scope(|s| {
                for (i, task) in tasks.iter_mut().enumerate() {
                    s.spawn_on(i % nworkers, move || {
                        if inject == Some(task.branch) {
                            // omu-lint: allow(no-panic) — deliberate fault
                            // injection behind the doc(hidden) debug knob,
                            // used by tests to prove panic containment.
                            panic!("injected worker panic on branch {}", task.branch);
                        }
                        run_branch_task(task, scratch, resolved, pruning, track_changes);
                    });
                }
            });
            panicked = result.err();
        }

        // Reattach shards, write the depth-1 nodes back to the spine row,
        // and merge in fixed branch order so counters, stats and change
        // logs are deterministic regardless of thread timing. This runs
        // unconditionally — also after a worker panic — so the tree is
        // never left with detached branches.
        for mut task in tasks {
            self.arena.put_branch(task.branch, task.store.shard);
            *self.arena.node_mut(task.store.branch_idx) = task.store.branch_node;
            self.counters.merge(&task.counters);
            stats.merge(&task.stats);
            if let Some(changed) = &mut self.changed {
                changed.extend(task.changed.drain(..));
            }
        }

        // The root spine is finished exactly once, like the sequential
        // walk's final flush step at depth 0.
        let mut ctx = self.walk_ctx();
        ctx.finish_node(root, 0);
        stats.deferred_finishes += 1;

        match panicked {
            Some(panic) => Err(panic),
            None => Ok(()),
        }
    }
}

/// Applies one branch's contiguous run of Morton-sorted groups inside its
/// own branch store — the per-thread body of the sharded walk: the
/// shared cached-descent walk from the branch's depth-1 node (the main
/// thread already performed the depth-0 step and finishes the root).
fn run_branch_task<V: LogOdds>(
    task: &mut BranchTask<V>,
    scratch: &BatchScratch,
    resolved: ResolvedParams<V>,
    pruning_enabled: bool,
    track_changes: bool,
) {
    let BranchTask {
        store,
        created,
        range,
        stats,
        counters,
        changed,
        ..
    } = task;
    let branch_root = store.branch_idx;
    let mut ctx = WalkCtx {
        store,
        resolved,
        pruning_enabled,
        counters,
        changed: if track_changes { Some(changed) } else { None },
    };
    let order = &scratch.order[range.clone()];
    walk_groups(&mut ctx, scratch, order, 1, branch_root, *created, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeF32;
    use omu_raycast::VoxelUpdate;

    /// Keys spread over all 8 first-level branches, with repeats.
    fn cross_branch_updates() -> Vec<VoxelUpdate> {
        let mut u = Vec::new();
        for i in 0..96u16 {
            let b = i % 8;
            let key = VoxelKey::new(
                ((b & 1) << 15) | (1000 + i % 7),
                (((b >> 1) & 1) << 15) | (2000 + (i * 3) % 5),
                (((b >> 2) & 1) << 15) | (3000 + (i * 5) % 3),
            );
            u.push(VoxelUpdate {
                key,
                hit: i % 3 != 0,
            });
        }
        u
    }

    fn scalar_reference(updates: &[VoxelUpdate], pruning: bool) -> OctreeF32 {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.set_pruning_enabled(pruning);
        t.set_change_detection(true);
        for u in updates {
            t.update_key(u.key, u.hit);
        }
        t
    }

    #[test]
    fn sharded_apply_is_bit_identical_across_shard_counts() {
        let u = cross_branch_updates();
        for pruning in [true, false] {
            let scalar = scalar_reference(&u, pruning);
            let mut sequential = OctreeF32::new(0.1).unwrap();
            sequential.set_pruning_enabled(pruning);
            sequential.apply_update_batch(&u);
            for shards in [1, 2, 4, 8] {
                let mut t = OctreeF32::new(0.1).unwrap();
                t.set_pruning_enabled(pruning);
                t.set_change_detection(true);
                let stats = t.apply_update_batch_parallel(&u, shards).unwrap();
                assert_eq!(stats.updates, u.len() as u64);
                assert_eq!(
                    scalar.snapshot(),
                    t.snapshot(),
                    "pruning={pruning} shards={shards}"
                );
                assert_eq!(scalar.num_nodes(), t.num_nodes());
                let canon = |t: &OctreeF32| {
                    let mut v: Vec<VoxelKey> = t.changed_keys().copied().collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(canon(&scalar), canon(&t));
            }
        }
    }

    #[test]
    fn sharded_stats_match_sequential_batch_stats() {
        let u = cross_branch_updates();
        let mut sequential = OctreeF32::new(0.1).unwrap();
        let s1 = sequential.apply_update_batch(&u);
        let mut sharded = OctreeF32::new(0.1).unwrap();
        let s2 = sharded.apply_update_batch_parallel(&u, 4).unwrap();
        assert_eq!(s1, s2, "the sharded walk does the same deferred work");
        assert_eq!(sequential.counters(), sharded.counters());
    }

    #[test]
    fn single_branch_batch_degenerates_gracefully() {
        // All keys inside one branch: one run, one worker does everything.
        let u: Vec<VoxelUpdate> = (0..40u16)
            .map(|i| VoxelUpdate {
                key: VoxelKey::new(33000 + i % 5, 33000 + (i * 3) % 7, 33000),
                hit: i % 4 != 0,
            })
            .collect();
        let scalar = scalar_reference(&u, true);
        for shards in [1, 8] {
            let mut t = OctreeF32::new(0.1).unwrap();
            t.apply_update_batch_parallel(&u, shards).unwrap();
            assert_eq!(scalar.snapshot(), t.snapshot(), "shards={shards}");
        }
    }

    #[test]
    fn sharded_apply_expands_a_pruned_root() {
        // Saturating misses everywhere a tiny tree covers can prune all
        // the way to the root; the next sharded batch must expand it on
        // the main thread before fan-out, exactly like the scalar path.
        let mut keys = Vec::new();
        for b in 0..8u16 {
            keys.push(VoxelKey::new(
                (b & 1) << 15,
                ((b >> 1) & 1) << 15,
                ((b >> 2) & 1) << 15,
            ));
        }
        let mut prime: Vec<VoxelUpdate> = Vec::new();
        for _ in 0..10 {
            for &key in &keys {
                prime.push(VoxelUpdate { key, hit: false });
            }
        }
        let mut scalar = OctreeF32::new(0.1).unwrap();
        scalar.set_early_abort_saturated(false);
        let mut t = OctreeF32::new(0.1).unwrap();
        for u in &prime {
            scalar.update_key(u.key, u.hit);
        }
        t.apply_update_batch_parallel(&prime, 8).unwrap();
        assert_eq!(scalar.snapshot(), t.snapshot());

        let follow_up = [VoxelUpdate {
            key: VoxelKey::ORIGIN,
            hit: true,
        }];
        for u in &follow_up {
            scalar.update_key(u.key, u.hit);
        }
        t.apply_update_batch_parallel(&follow_up, 8).unwrap();
        assert_eq!(scalar.snapshot(), t.snapshot());
        assert_eq!(scalar.num_nodes(), t.num_nodes());
    }

    #[test]
    fn empty_parallel_batch_is_a_noop() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let stats = t.apply_update_batch_parallel(&[], 4).unwrap();
        assert_eq!(stats, BatchStats::default());
        assert!(t.is_empty());
    }

    #[test]
    fn zero_shards_resolves_to_cpu_count() {
        assert!(resolve_apply_shards(0) >= 1);
        assert!(resolve_apply_shards(0) <= NUM_BRANCHES);
        assert_eq!(resolve_apply_shards(3), 3);
        assert_eq!(resolve_apply_shards(64), NUM_BRANCHES);
    }
}
