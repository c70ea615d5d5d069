//! Batched Morton-ordered updates with deferred parent refresh — the
//! software analogue of how the OMU accelerator amortizes tree
//! maintenance across many voxel updates.
//!
//! The scalar path ([`update_key`](OccupancyOctree::update_key)) pays a
//! full 16-level descent *and* a full 16-level bottom-up parent
//! refresh/prune pass per update. This module instead:
//!
//! 1. **coalesces** the batch by voxel key in one hashed group-by pass
//!    (scan workloads revisit the same cells constantly — on the
//!    corridor dataset over 99 % of updates join an existing group) and
//!    keeps each voxel's sequence in **run-length** form: a miss only
//!    bumps its group's pending-miss counter, and a hit (2–5 % of a raywise
//!    scan's updates) appends one `(group, misses before it)` record and
//!    resets the counter. A counting sort of the hit records by group then
//!    hands every voxel its sequence `M^a₁ H M^a₂ H … M^trailing` in
//!    arrival order, which matters because clamped log-odds additions do
//!    not commute once saturated;
//! 2. sorts only the *unique* keys by Morton code — orders of magnitude
//!    fewer elements than sorting the raw update stream;
//! 3. walks the tree with a **cached descent**: consecutive sorted keys
//!    share a root-path prefix, so only the changed suffix is descended,
//!    and each group's runs replay on the leaf in hand. A miss run stops
//!    at the first miss that leaves the value bit-for-bit unchanged (a
//!    free voxel pinned at `clamp_min` ignores further misses, and OctoMap's
//!    clamped update is a function of the value alone), so a saturated
//!    voxel costs one step per run, not one per update;
//! 4. **defers parent refresh and pruning**: a subtree's inner nodes are
//!    finished exactly once, when the sorted walk exits the subtree,
//!    instead of once per update.
//!
//! Because pruning canonicalizes the tree (a node is pruned exactly when
//! its 8 children are equal-valued leaves) and per-voxel log-odds
//! evolution is independent of other voxels, the batch produces a tree
//! **bit-identical** to applying the same updates through `update_key` in
//! arrival order — the property `tests/equivalence.rs` checks
//! exhaustively.
//!
//! On top of the sequential walk, the Morton order hands out parallelism
//! for free: the top 3 code bits are the first-level branch, so the
//! sorted groups split into at most 8 contiguous runs over *disjoint*
//! subtrees. The subtree-sharded apply in the `shard` module exploits
//! exactly that (one arena shard per branch, like the paper's PEs).

use omu_geometry::{LogOdds, VoxelKey, TREE_DEPTH};
use omu_pool::TaskPanic;
use omu_raycast::VoxelUpdate;
use serde::{Deserialize, Serialize};

use crate::arena::NodeStore;
use crate::node::NIL;
use crate::shard::resolve_apply_shards;
use crate::tree::OccupancyOctree;
use crate::walk::{ChangeLog, WalkCtx};

/// A voxel key packed into one word — the form the group-by table
/// hashes with a single multiply.
#[inline]
fn packed_key(key: VoxelKey) -> u64 {
    ((key.x as u64) << 32) | ((key.y as u64) << 16) | key.z as u64
}

/// Sentinel id marking an empty [`GroupTable`] slot (batches are capped
/// at [`MAX_BATCH_UPDATES`], so no real group reaches it).
const EMPTY_SLOT: u32 = u32::MAX;

/// Most updates one batch may hold: group ids, miss counters and hit
/// offsets are all `u32`, and every group id must stay below
/// [`EMPTY_SLOT`].
const MAX_BATCH_UPDATES: usize = EMPTY_SLOT as usize;

/// The hottest structure of the batch engine: a packed-key → group-id
/// map probed once per update. A purpose-built open-addressed table with
/// Fibonacci (multiply, top-bits) hashing and linear probing beats the
/// general-purpose hash map here: no per-slot control bytes, no entry
/// API machinery, and clearing is one `fill` over the id array while the
/// key array and capacity persist across batches.
#[derive(Debug, Clone)]
pub(crate) struct GroupTable {
    keys: Vec<u64>,
    ids: Vec<u32>,
    /// Power-of-two capacity minus one.
    mask: usize,
    /// Occupied slots.
    len: usize,
}

impl Default for GroupTable {
    fn default() -> Self {
        GroupTable::with_capacity_pow2(1 << 10)
    }
}

impl GroupTable {
    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        GroupTable {
            keys: vec![0; cap],
            ids: vec![EMPTY_SLOT; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Multiply-shift hash: the high product bits are the well-mixed
    /// ones, so the slot index comes from the top (Fibonacci hashing).
    #[inline]
    fn slot_of(&self, w: u64) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = w.wrapping_mul(K);
        (h >> (64 - (self.mask + 1).trailing_zeros())) as usize & self.mask
    }

    /// Looks up `w`, inserting it with id `new_id` when absent. Returns
    /// the existing id, or `None` when the key was newly inserted.
    #[inline]
    fn get_or_insert(&mut self, w: u64, new_id: u32) -> Option<u32> {
        // Grow at ~7/8 load to keep probe chains short.
        if (self.len + 1) * 8 > (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = self.slot_of(w);
        loop {
            let id = self.ids[i];
            if id == EMPTY_SLOT {
                self.keys[i] = w;
                self.ids[i] = new_id;
                self.len += 1;
                return None;
            }
            if self.keys[i] == w {
                return Some(id);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let mut bigger = GroupTable::with_capacity_pow2((self.mask + 1) * 2);
        for (i, &id) in self.ids.iter().enumerate() {
            if id != EMPTY_SLOT {
                let got = bigger.get_or_insert(self.keys[i], id);
                debug_assert!(got.is_none());
            }
        }
        *self = bigger;
    }

    /// Empties the table, keeping its capacity (one linear fill).
    fn clear(&mut self) {
        self.ids.fill(EMPTY_SLOT);
        self.len = 0;
    }
}

/// Reusable group-by buffers, owned by the tree so steady-state batches
/// allocate nothing. Nothing here grows per update except `hits`, one
/// record per hit.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchScratch {
    /// Packed voxel key → group id.
    group_of: GroupTable,
    /// Updates pushed into the current batch.
    updates: usize,
    /// Per group: `(morton, key)`.
    pub(crate) keys: Vec<(u64, VoxelKey)>,
    /// Per group: misses since its last hit — once the batch is grouped,
    /// its trailing miss run.
    misses: Vec<u32>,
    /// Per hit, in arrival order: `(group, misses of that group since its
    /// previous hit)`.
    hits: Vec<(u32, u32)>,
    /// Per group `g`: its runs are `runs[hit_starts[g]..hit_starts[g + 1]]`.
    hit_starts: Vec<u32>,
    /// The miss count before each hit, counting-sorted by group, arrival
    /// order kept within a group.
    runs: Vec<u32>,
    /// Group ids sorted by Morton code.
    pub(crate) order: Vec<u32>,
}

impl BatchScratch {
    fn clear(&mut self) {
        self.group_of.clear();
        self.updates = 0;
        self.keys.clear();
        self.misses.clear();
        self.hits.clear();
        self.order.clear();
    }

    /// Stable counting sort of the hit records by group, so that each
    /// group's miss runs sit contiguously in `runs`, in arrival order.
    fn sort_hits_by_group(&mut self) {
        let starts = &mut self.hit_starts;
        starts.clear();
        starts.resize(self.keys.len() + 2, 0);
        // Count group g's hits in `starts[g + 2]`; after the prefix sum
        // `starts[g + 1]` is where g's runs begin. Scattering with it as
        // g's cursor leaves it at g's end, so afterwards
        // `starts[g]..starts[g + 1]` is g's range.
        for &(g, _) in &self.hits {
            starts[g as usize + 2] += 1;
        }
        for i in 2..starts.len() {
            starts[i] += starts[i - 1];
        }
        self.runs.clear();
        self.runs.resize(self.hits.len(), 0);
        for &(g, misses) in &self.hits {
            let cursor = &mut starts[g as usize + 1];
            self.runs[*cursor as usize] = misses;
            *cursor += 1;
        }
    }

    /// Group `id`'s sequence in run-length form: the misses before each of
    /// its hits, in arrival order, and its trailing misses.
    #[inline]
    pub(crate) fn runs_of(&self, id: u32) -> (&[u32], u32) {
        let id = id as usize;
        let range = self.hit_starts[id] as usize..self.hit_starts[id + 1] as usize;
        (&self.runs[range], self.misses[id])
    }
}

/// The receiving end of
/// [`apply_update_stream`](OccupancyOctree::apply_update_stream): a
/// concrete (monomorphizable) sink, so the streaming group-by inlines
/// into the emitter's hot loop — a `dyn FnMut` here would cost an
/// indirect call per update. The slice entry points push through it too.
#[derive(Debug)]
pub struct UpdateSink<'a> {
    scratch: &'a mut BatchScratch,
}

impl UpdateSink<'_> {
    /// Feeds one hit/miss update into the batch: one group-table lookup,
    /// then a miss bumps its voxel's pending-miss counter, and a hit
    /// records the misses before it and resets the counter.
    ///
    /// # Panics
    ///
    /// Panics when the batch exceeds `u32::MAX` updates.
    #[inline]
    pub fn push(&mut self, u: VoxelUpdate) {
        let scratch = &mut *self.scratch;
        assert!(
            scratch.updates < MAX_BATCH_UPDATES,
            "batch too large to index with u32"
        );
        scratch.updates += 1;
        let new_id = scratch.keys.len() as u32;
        let id = match scratch.group_of.get_or_insert(packed_key(u.key), new_id) {
            Some(existing) => existing,
            None => {
                scratch.keys.push((u.key.morton_code(), u.key));
                scratch.misses.push(0);
                new_id
            }
        };
        let misses = &mut scratch.misses[id as usize];
        if u.hit {
            scratch.hits.push((id, *misses));
            *misses = 0;
        } else {
            *misses += 1;
        }
    }
}

/// What one batch application did, beyond the shared
/// [`OpCounters`](crate::OpCounters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Updates in the batch.
    pub updates: u64,
    /// Distinct leaves located by descent (each may absorb many updates).
    pub unique_leaves: u64,
    /// Updates applied to an already-located leaf with no tree walk.
    pub coalesced: u64,
    /// Descent levels skipped thanks to the shared root-path prefix
    /// between consecutive Morton-sorted keys.
    pub reused_levels: u64,
    /// Descent levels actually walked.
    pub descended_levels: u64,
    /// Inner nodes finished (refreshed or pruned) by the deferred pass.
    /// The scalar path would have performed `updates × 16` finishes.
    pub deferred_finishes: u64,
}

impl BatchStats {
    /// Accumulates another batch's stats.
    pub fn merge(&mut self, other: &BatchStats) {
        self.updates += other.updates;
        self.unique_leaves += other.unique_leaves;
        self.coalesced += other.coalesced;
        self.reused_levels += other.reused_levels;
        self.descended_levels += other.descended_levels;
        self.deferred_finishes += other.deferred_finishes;
    }
}

impl<V: LogOdds> OccupancyOctree<V> {
    /// Applies a batch of hit/miss observations, producing the tree
    /// `update_key(key, hit)` would produce if called once per update in
    /// slice order — but with descent and parent maintenance amortized
    /// across the batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::VoxelKey;
    /// use omu_octree::OctreeF32;
    /// use omu_raycast::VoxelUpdate;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// let updates = vec![
    ///     VoxelUpdate { key: VoxelKey::ORIGIN, hit: true },
    ///     VoxelUpdate { key: VoxelKey::new(40000, 40000, 40000), hit: false },
    /// ];
    /// let stats = tree.apply_update_batch(&updates);
    /// assert_eq!(stats.updates, 2);
    /// assert!(tree.logodds(VoxelKey::ORIGIN).unwrap() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn apply_update_batch(&mut self, updates: &[VoxelUpdate]) -> BatchStats {
        self.apply_update_stream(|sink| updates.iter().for_each(|&u| sink.push(u)))
            .1
    }

    /// [`apply_update_batch`](Self::apply_update_batch) with the tree walk
    /// fanned out over up to `shards` pool workers, one first-level branch
    /// subtree (arena shard) owned per task — the software mirror of the
    /// paper's per-PE T-Mem banks. `0` resolves to one shard per
    /// available CPU. The resulting tree is bit-identical to the scalar
    /// and sequential-batched paths.
    ///
    /// # Errors
    ///
    /// Returns [`TaskPanic`] when a branch task panicked. Every branch
    /// shard has been reattached and the root spine finished — the tree
    /// remains structurally valid (`debug_validate`-clean) and usable,
    /// though the failed batch may be partially applied.
    pub fn apply_update_batch_parallel(
        &mut self,
        updates: &[VoxelUpdate],
        shards: usize,
    ) -> Result<BatchStats, TaskPanic> {
        let ((), stats, walked) =
            self.apply_grouped(|sink| updates.iter().for_each(|&u| sink.push(u)), shards);
        walked.map(|()| stats)
    }

    /// The streaming form of [`apply_update_batch`](Self::apply_update_batch):
    /// `fill` is handed an [`UpdateSink`] and pushes hit/miss updates
    /// through it one at a time; the group-by pass runs as the stream
    /// arrives, so the update stream is never materialized. The resulting
    /// tree is bit-identical to collecting the same stream into a slice
    /// and calling `apply_update_batch`.
    ///
    /// Returns `fill`'s result alongside the batch statistics (an empty
    /// stream touches nothing and reports zero updates).
    pub fn apply_update_stream<R>(
        &mut self,
        fill: impl FnOnce(&mut UpdateSink<'_>) -> R,
    ) -> (R, BatchStats) {
        // One shard walks sequentially on this thread: no task, no panic.
        let (result, stats, _) = self.apply_grouped(fill, 1);
        (result, stats)
    }

    /// The batch engine core, shared by every entry point (the scan
    /// insert included): `fill` pushes the batch through an
    /// [`UpdateSink`] (group-by in run-length form), then the hit records
    /// are counting-sorted by group, the unique keys sorted by Morton
    /// code, and the walk replays each group on its leaf with deferred
    /// finishing — the sequential [`walk_groups`] when `shards` resolves
    /// to one worker, the branch-sharded walk above that. An empty batch
    /// touches nothing.
    ///
    /// The walk's result is `Err` only when a sharded branch task
    /// panicked (see [`Self::apply_update_batch_parallel`]).
    pub(crate) fn apply_grouped<R>(
        &mut self,
        fill: impl FnOnce(&mut UpdateSink<'_>) -> R,
        shards: usize,
    ) -> (R, BatchStats, Result<(), TaskPanic>) {
        // The scratch moves out of `self` for the duration of the batch so
        // tree mutation and scratch reads can borrow independently.
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        scratch.clear();
        let result = fill(&mut UpdateSink {
            scratch: &mut scratch,
        });

        let mut stats = BatchStats {
            updates: scratch.updates as u64,
            ..BatchStats::default()
        };
        if scratch.updates == 0 {
            self.batch_scratch = scratch;
            return (result, stats, Ok(()));
        }
        scratch.sort_hits_by_group();

        // One atomic load: refresh the snapshot-pin state so this batch
        // copies rows only for snapshots still alive, and retired rows
        // whose pins died return to the free lists.
        self.arena.sync_pins();
        // Morton order over unique keys only (all distinct, so an
        // unstable sort is fine).
        scratch.order.extend(0..scratch.keys.len() as u32);
        scratch
            .order
            .sort_unstable_by_key(|&id| scratch.keys[id as usize].0);

        stats.unique_leaves = scratch.keys.len() as u64;
        stats.coalesced = stats.updates - stats.unique_leaves;

        let mut root_just_created = false;
        if self.root == NIL {
            self.root = self.arena.alloc_root(V::ZERO);
            self.counters.node_creations += 1;
            root_just_created = true;
        }

        let workers = resolve_apply_shards(shards);
        let walked = if workers == 1 {
            let root = self.root;
            walk_groups(
                &mut self.walk_ctx(),
                &scratch,
                &scratch.order,
                0,
                root,
                root_just_created,
                &mut stats,
            );
            Ok(())
        } else {
            self.walk_sharded(&scratch, &mut stats, root_just_created, workers)
        };

        // Scratch restore and counter accounting run even when a worker
        // panicked — the tree is structurally finished either way.
        self.batch_scratch = scratch;
        self.counters.batch_updates += stats.updates;
        self.counters.batch_coalesced += stats.coalesced;
        self.counters.batch_reused_levels += stats.reused_levels;
        self.counters.batch_deferred_finishes += stats.deferred_finishes;
        (result, stats, walked)
    }
}

/// The cached-descent walk over Morton-sorted groups, written once for
/// both callers: the sequential walk starts at the root (`top` = 0) and
/// each sharded branch task at its depth-1 node (`top` = 1), whose
/// groups all share that prefix. `top_created` says whether `top_node`
/// was created for this batch. Consecutive keys re-descend only below
/// their shared prefix, each group's runs replay on the leaf in hand,
/// and a path node is finished once, when the walk leaves its subtree;
/// the nodes above `top` are the caller's to finish.
pub(crate) fn walk_groups<S: NodeStore<V>, V: LogOdds, C: ChangeLog>(
    ctx: &mut WalkCtx<'_, S, V, C>,
    scratch: &BatchScratch,
    order: &[u32],
    top: usize,
    top_node: u32,
    top_created: bool,
    stats: &mut BatchStats,
) {
    // path[d] = node at depth d along the current key's root path.
    let mut path = [NIL; TREE_DEPTH as usize + 1];
    path[top] = top_node;
    let mut prev: Option<VoxelKey> = None;

    for &id in order {
        let (_, key) = scratch.keys[id as usize];
        let resume_depth = match prev {
            None => top,
            Some(prev_key) => {
                let shared = prev_key.common_prefix_depth(key) as usize;
                // The previous path's nodes below the shared prefix are
                // finished for good: no later Morton-sorted key can
                // re-enter those subtrees. Prune/refresh them now,
                // bottom-up.
                for d in ((shared + 1)..TREE_DEPTH as usize).rev() {
                    ctx.finish_node(path[d], d as u8);
                    stats.deferred_finishes += 1;
                }
                stats.reused_levels += shared as u64;
                shared
            }
        };

        let mut node = path[resume_depth];
        let mut just_created = top_created && prev.is_none();
        for depth in resume_depth..TREE_DEPTH as usize {
            let (child, created) = ctx.step_down(node, key, depth as u8, just_created);
            just_created = created;
            node = child;
            path[depth + 1] = node;
            stats.descended_levels += 1;
        }

        // Replay the group's whole hit/miss sequence on the leaf in hand
        // (one leaf-row load and store for the whole sequence).
        let (misses_before_hits, trailing_misses) = scratch.runs_of(id);
        ctx.apply_leaf_runs(node, key, misses_before_hits, trailing_misses, just_created);
        prev = Some(key);
    }

    // Flush: finish the last path up to `top`.
    for d in (top..TREE_DEPTH as usize).rev() {
        ctx.finish_node(path[d], d as u8);
        stats.deferred_finishes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{OctreeF32, OctreeFixed};
    use omu_geometry::{Occupancy, OccupancyParams};

    fn updates_cluster() -> Vec<VoxelUpdate> {
        // A mix of repeats, near neighbours and far jumps.
        let mut u = Vec::new();
        for i in 0..40u16 {
            u.push(VoxelUpdate {
                key: VoxelKey::new(33000 + i % 5, 33000 + (i * 3) % 7, 33000 + (i * 5) % 3),
                hit: i % 3 != 0,
            });
        }
        for i in 0..10u16 {
            u.push(VoxelUpdate {
                key: VoxelKey::new(100 + i, 60000, 20000 + i),
                hit: true,
            });
        }
        u
    }

    fn assert_batch_matches_scalar(updates: &[VoxelUpdate], pruning: bool) {
        let mut scalar = OctreeF32::new(0.1).unwrap();
        scalar.set_pruning_enabled(pruning);
        for u in updates {
            scalar.update_key(u.key, u.hit);
        }
        let mut batched = OctreeF32::new(0.1).unwrap();
        batched.set_pruning_enabled(pruning);
        batched.apply_update_batch(updates);
        assert_eq!(scalar.snapshot(), batched.snapshot(), "pruning={pruning}");
        assert_eq!(scalar.num_nodes(), batched.num_nodes());
    }

    #[test]
    fn batch_matches_scalar_with_and_without_pruning() {
        let u = updates_cluster();
        assert_batch_matches_scalar(&u, true);
        assert_batch_matches_scalar(&u, false);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let stats = t.apply_update_batch(&[]);
        assert_eq!(stats, BatchStats::default());
        assert!(t.is_empty());
    }

    #[test]
    fn repeated_key_coalesces() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let u = vec![
            VoxelUpdate {
                key: VoxelKey::ORIGIN,
                hit: true
            };
            8
        ];
        let stats = t.apply_update_batch(&u);
        assert_eq!(stats.updates, 8);
        assert_eq!(stats.unique_leaves, 1);
        assert_eq!(stats.coalesced, 7);
        assert_eq!(stats.descended_levels, 16, "one full descent only");
        // Saturation still clamps exactly like the scalar path.
        let mut s = OctreeF32::new(0.1).unwrap();
        for _ in 0..8 {
            s.update_key(VoxelKey::ORIGIN, true);
        }
        assert_eq!(s.snapshot(), t.snapshot());
    }

    #[test]
    fn neighbours_reuse_path_prefix() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let u = vec![
            VoxelUpdate {
                key: VoxelKey::new(33000, 33000, 33000),
                hit: true,
            },
            VoxelUpdate {
                key: VoxelKey::new(33001, 33000, 33000),
                hit: true,
            },
        ];
        let stats = t.apply_update_batch(&u);
        // The siblings share 15 levels: 16 + 1 descent steps in total.
        assert_eq!(stats.reused_levels, 15);
        assert_eq!(stats.descended_levels, 17);
        // Deferred finishing touched the exited leaf-parent path once at
        // the swap (nothing: depth-15 parent is shared) plus the final
        // flush of 16 levels.
        assert_eq!(stats.deferred_finishes, 16);
    }

    #[test]
    fn deferred_pruning_collapses_saturated_octants() {
        // Saturate one whole finest octant within a single batch.
        let base = VoxelKey::new(33000, 33000, 33000);
        let mut u = Vec::new();
        for _round in 0..10 {
            for i in 0..8u16 {
                u.push(VoxelUpdate {
                    key: VoxelKey::new(
                        base.x + (i & 1),
                        base.y + ((i >> 1) & 1),
                        base.z + ((i >> 2) & 1),
                    ),
                    hit: true,
                });
            }
        }
        let mut t = OctreeF32::new(0.1).unwrap();
        t.apply_update_batch(&u);
        assert!(t.counters().prunes > 0);
        let (v, d) = t.search(base).unwrap();
        assert_eq!(d, TREE_DEPTH - 1, "octant pruned to depth 15");
        assert_eq!(v, t.params().clamp_max);
        // And the scalar path agrees bit-for-bit.
        let mut s = OctreeF32::new(0.1).unwrap();
        for up in &u {
            s.update_key(up.key, up.hit);
        }
        assert_eq!(s.snapshot(), t.snapshot());
    }

    #[test]
    fn batch_updates_inside_previously_pruned_leaf() {
        let base = VoxelKey::new(33000, 33000, 33000);
        let saturate: Vec<VoxelUpdate> = (0..80u16)
            .map(|i| VoxelUpdate {
                key: VoxelKey::new(
                    base.x + (i & 1),
                    base.y + ((i >> 1) & 1),
                    base.z + ((i >> 2) & 1),
                ),
                hit: true,
            })
            .collect();
        let mut t = OctreeF32::new(0.1).unwrap();
        t.apply_update_batch(&saturate);
        assert!(t.counters().prunes > 0);
        // A miss inside the pruned region must expand it again.
        let stats = t.apply_update_batch(&[VoxelUpdate {
            key: base,
            hit: false,
        }]);
        assert_eq!(stats.unique_leaves, 1);
        assert!(t.counters().expands > 0);
        let (_, d) = t.search(base).unwrap();
        assert_eq!(d, TREE_DEPTH);
        // Siblings keep the saturated value.
        let sib = VoxelKey::new(base.x + 1, base.y, base.z);
        assert_eq!(t.search(sib).unwrap().0, t.params().clamp_max);
    }

    #[test]
    fn change_detection_matches_scalar() {
        let u = updates_cluster();
        let mut scalar = OctreeF32::new(0.1).unwrap();
        scalar.set_change_detection(true);
        for up in &u {
            scalar.update_key(up.key, up.hit);
        }
        let mut batched = OctreeF32::new(0.1).unwrap();
        batched.set_change_detection(true);
        batched.apply_update_batch(&u);
        let mut a: Vec<VoxelKey> = scalar.changed_keys().copied().collect();
        let mut b: Vec<VoxelKey> = batched.changed_keys().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn saturated_miss_runs_still_count_every_update() {
        // 1 hit, then 40 misses: the voxel pins at clamp_min after a few
        // misses and the replay stops stepping, but the counters and the
        // value match 41 scalar updates.
        let mut u = vec![VoxelUpdate {
            key: VoxelKey::ORIGIN,
            hit: true,
        }];
        u.extend(std::iter::repeat_n(
            VoxelUpdate {
                key: VoxelKey::ORIGIN,
                hit: false,
            },
            40,
        ));
        let mut scalar = OctreeF32::new(0.1).unwrap();
        scalar.set_early_abort_saturated(false);
        for up in &u {
            scalar.update_key(up.key, up.hit);
        }
        let mut batched = OctreeF32::new(0.1).unwrap();
        batched.apply_update_batch(&u);
        assert_eq!(batched.logodds(VoxelKey::ORIGIN), Some(-2.0));
        assert_eq!(batched.counters().leaf_updates, 41);
        assert_eq!(scalar.counters().leaf_updates, 41);
        assert_eq!(scalar.to_bytes(), batched.to_bytes());
    }

    /// Applies `updates` one `update_key` at a time (early abort as
    /// given) and as one batch, demands equal `.omut` bytes, and returns
    /// the batch tree's value bits at `probe`.
    fn scalar_and_batch_bits(
        params: OccupancyParams,
        updates: &[VoxelUpdate],
        early_abort: bool,
        probe: VoxelKey,
    ) -> Option<u32> {
        let mut scalar = OctreeF32::with_params(0.1, params).unwrap();
        scalar.set_early_abort_saturated(early_abort);
        for up in updates {
            scalar.update_key(up.key, up.hit);
        }
        let mut batched = OctreeF32::with_params(0.1, params).unwrap();
        batched.apply_update_batch(updates);
        let bits = |t: &OctreeF32| t.logodds(probe).map(f32::to_bits);
        assert_eq!(bits(&scalar), bits(&batched));
        assert_eq!(scalar.to_bytes(), batched.to_bytes());
        bits(&batched)
    }

    /// `clamp_max = -0.0` and a zero miss: a hit pins a voxel at -0.0,
    /// and the first miss turns it into +0.0.
    const NEGATIVE_ZERO_MAX: OccupancyParams = OccupancyParams {
        hit: 1.0,
        miss: 0.0,
        clamp_min: -2.0,
        clamp_max: -0.0,
        occupancy_threshold: -1.0,
    };

    #[test]
    fn signed_zero_does_not_end_a_miss_run() {
        // Equal under `==`, not in bits: only the second miss is a no-op.
        let u = [true, false, false].map(|hit| VoxelUpdate {
            key: VoxelKey::ORIGIN,
            hit,
        });
        let bits = scalar_and_batch_bits(NEGATIVE_ZERO_MAX, &u, false, VoxelKey::ORIGIN);
        assert_eq!(bits, Some(0.0f32.to_bits()));
    }

    #[test]
    fn early_abort_applies_a_zero_miss_that_flips_the_sign() {
        // -0.0 is "saturated" for the zero miss, yet the miss changes its
        // bits, so the default early abort must not skip it.
        let u = [true, false].map(|hit| VoxelUpdate {
            key: VoxelKey::ORIGIN,
            hit,
        });
        let bits = scalar_and_batch_bits(NEGATIVE_ZERO_MAX, &u, true, VoxelKey::ORIGIN);
        assert_eq!(bits, Some(0.0f32.to_bits()));
    }

    #[test]
    fn signed_zero_siblings_do_not_prune() {
        // clamp_min = -0.0: child 0 ends at +0.0 (M H M M), children 1-7
        // at -0.0 (one M each). Pruned as equal, the scalar path's expand
        // for child 1's hit would copy child 0's +0.0 onto children 2-7;
        // the batch engine prunes only at the end and keeps their -0.0.
        let params = OccupancyParams {
            hit: 1.0,
            miss: -0.5,
            clamp_min: -0.0,
            clamp_max: 3.5,
            occupancy_threshold: 0.0,
        };
        let child = |i: u16| VoxelKey::new(33000 + (i & 1), 33000 + (i >> 1 & 1), 33000 + (i >> 2));
        let misses = [false, true, false, false].into_iter().map(|hit| (0, hit));
        let u: Vec<VoxelUpdate> = misses
            .chain((1..8).map(|i| (i, false)))
            .chain([(1, true)])
            .map(|(i, hit)| VoxelUpdate { key: child(i), hit })
            .collect();
        let bits = scalar_and_batch_bits(params, &u, false, child(2));
        assert_eq!(bits, Some((-0.0f32).to_bits()));
    }

    #[test]
    fn fixed_point_batch_matches_scalar() {
        let u = updates_cluster();
        let mut scalar = OctreeFixed::new(0.1).unwrap();
        for up in &u {
            scalar.update_key(up.key, up.hit);
        }
        let mut batched = OctreeFixed::new(0.1).unwrap();
        batched.apply_update_batch(&u);
        assert_eq!(scalar.snapshot(), batched.snapshot());
        assert_eq!(batched.occupancy(u[0].key), scalar.occupancy(u[0].key));
        assert_ne!(batched.occupancy(u[0].key), Occupancy::Unknown);
    }

    #[test]
    fn batch_counters_accumulate() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.apply_update_batch(&updates_cluster());
        let c = t.counters();
        assert_eq!(c.batch_updates, 50);
        assert!(c.batch_reused_levels > 0);
        assert!(c.batch_deferred_finishes > 0);
        // Deferring beats the scalar path's 16 finishes per update.
        assert!(c.batch_deferred_finishes < c.batch_updates * TREE_DEPTH as u64);
    }
}
